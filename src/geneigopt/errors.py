"""Exception types shared across the package."""


class GenEigError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(GenEigError):
    """Non-finite matrix entries or a bad shape; a bar's E/L or ½ρL is inf."""


class NotPositiveSemidefinite(GenEigError):
    """Matrix failed the tolerance-based PSD test."""


class SingularDenominator(GenEigError):
    """The regularized denominator B(x) + eps*I is not positive definite."""


class InvalidEpsilon(GenEigError):
    """Regularization eps negative, NaN or infinite; ``lambda_max_eps`` also
    rejects eps = 0, which ``composite_value_grad`` and ``smoothed_value_grad``
    accept."""


class InvalidSmoothing(GenEigError):
    """Smoothing parameter must be strictly positive."""


class OutOfDomain(GenEigError):
    """Design vector has negative components."""


class NoFreeDofs(GenEigError):
    """Every degree of freedom of the ground structure is restrained."""


class InvalidBar(GenEigError):
    """No bar, a bar to a missing node, or a bar length not finite and > 0."""


class InvalidLoadNode(GenEigError):
    """The load (or mass) node does not have the required free DOFs."""


class EmptyFeasibleSet(GenEigError):
    """Feasible set parameters admit no point."""


class BracketError(GenEigError):
    """Bisection could not establish an infeasible/feasible bracket."""


class ConfigError(GenEigError):
    """Run configuration failed validation."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
