"""Extended generalized eigenvalue functions and truss topology optimization."""

from .geneig import (
    AffinePencil,
    Certificate,
    GenEigResult,
    composite_value_grad,
    lambda_max_eps,
    lambda_max_ext,
    lambda_min_ext,
    smoothed_value_grad,
)
from .problems import (
    EIGENFREQUENCY,
    ROBUST_COMPLIANCE,
    FeasibleSet,
    PencilModel,
    ProblemSpec,
    phi_eps,
    phi_exact,
    psi_eps,
    psi_exact,
)
from .solvers import (
    SolveReport,
    SolverOptions,
    bisection_global,
    eps_continuation,
    project_feasible,
    projected_subgradient,
    smoothed_apg,
)
from .symmat import KERNEL_TOL, PSD_TOL, is_psd, kernel_basis
from .truss import (
    GroundStructure,
    Material,
    build_model,
    generate_ground_structure,
)

__version__ = "0.1.0"
