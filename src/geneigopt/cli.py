"""Command-line front end: config ingestion, runs, rendering, verification.

Subcommands:

* ``solve <config>``      ``solvers.solve`` with the config's solver, or
                          with ``eps_schedule`` an epsilon-continuation of it
* ``render <result>``     SVG drawing of a stored design
* ``verify <suite>``      run the numerical certification suites

Configs and results are JSON; iteration histories are CSV with columns
``iter,objective,eps``.  Nodes are referenced by ``node`` index or, on a
grid, by ``ix``/``iy`` inside ``0..nx-1``/``0..ny-1``.  The config key
``solver.seed`` is accepted and ignored: every solver is deterministic.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np

from . import __version__, problems, solvers, truss, verify
from .errors import (BracketError, ConfigError, GenEigError, InvalidBar,
                     InvalidMatrix)
from .problems import FeasibleSet, ProblemSpec
from .solvers import DISPLAY_THRESHOLD, SolverOptions

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BRACKET = 3

FORM_EXACT = "exact"
FORM_PENCIL_EPS = "pencil_eps"
FORM_LOWER_BOUND_EPS = "lower_bound_eps"

_SOLVER_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "name": {"enum": ["subgradient", "smoothed_apg", "bisection"]},
        "max_iters": {"type": "integer", "minimum": 1},
        "smoothing_mu0": {"type": "number", "exclusiveMinimum": 0},
        "tol_obj": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
        "bisect_tol": {"type": "number", "exclusiveMinimum": 0},
    },
}

#: A node by ``node`` index or, on a grid, by ``ix``/``iy``.
_NODE_REF = {key: {"type": "integer", "minimum": 0}
             for key in ("ix", "iy", "node")}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem", "volume", "load_node"],
    "properties": {
        "problem": {"enum": [problems.ROBUST_COMPLIANCE, problems.EIGENFREQUENCY]},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["nx", "ny", "spacing"],
            "properties": {
                "nx": {"type": "integer", "minimum": 1},
                "ny": {"type": "integer", "minimum": 1},
                "spacing": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "nodes": {"type": "array",
                  "items": {"type": "array", "items": {"type": "number"},
                            "minItems": 2, "maxItems": 2}},
        "bars": {"type": "array",
                 "items": {"type": "array", "items": {"type": "integer"},
                           "minItems": 2, "maxItems": 2}},
        "fixed_nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["dirs"],
                "properties": {**_NODE_REF,
                               "dirs": {"enum": ["x", "y", "xy"]}},
            },
        },
        "load_node": {"type": "object", "additionalProperties": False,
                      "properties": _NODE_REF},
        "load_scale": {"type": "number", "exclusiveMinimum": 0},
        "load_dims": {"enum": [1, 2]},
        "nonstructural_mass": {"type": "number", "minimum": 0},
        "material": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "young_modulus": {"type": "number", "exclusiveMinimum": 0},
                "density": {"type": "number", "minimum": 0},
            },
        },
        "volume": {
            "type": "object",
            "additionalProperties": False,
            "required": ["v0"],
            "properties": {
                "v0": {"type": "number", "exclusiveMinimum": 0},
                "constraint": {"enum": [problems.VOLUME_LE, problems.VOLUME_EQ]},
            },
        },
        "formulation": {"enum": [FORM_EXACT, FORM_PENCIL_EPS,
                                 FORM_LOWER_BOUND_EPS]},
        "eps": {"type": "number", "exclusiveMinimum": 0},
        "eps_schedule": {"type": "array", "minItems": 1,
                         "items": {"type": "number", "exclusiveMinimum": 0}},
        "solver": _SOLVER_SCHEMA,
        "output": {"type": "object", "additionalProperties": False,
                   "properties": {key: {"type": "string"}
                                  for key in ("result", "history", "svg")}},
    },
}


#: Built once: ``jsonschema.validate`` re-checks the schema on every call.
#: ``json`` reads NaN, Infinity and 1e400, so a number must also be finite.
_Validator = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_Validator.check_schema(CONFIG_SCHEMA)
_TYPES = _Validator.TYPE_CHECKER.redefine("number", lambda checker, value: (
    _Validator.TYPE_CHECKER.is_type(value, "number") and math.isfinite(value)))
_VALIDATOR = jsonschema.validators.extend(
    _Validator, type_checker=_TYPES)(CONFIG_SCHEMA)


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # not JSON, or not even UTF-8
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def load_config(path: str) -> dict:
    cfg = _read_json(path, "config")
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(cfg))
    if exc is not None:
        field = "/".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"invalid config field {field}: {exc.message}",
                          field=field)
    if ("grid" in cfg) == ("nodes" in cfg):
        raise ConfigError("config needs exactly one of 'grid' or 'nodes'",
                          field="grid")
    if "nodes" in cfg and "bars" not in cfg:
        raise ConfigError("'nodes' requires 'bars'", field="bars")
    return cfg


def config_digest(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _node_index(entry: dict, field: str, n_nodes: int,
                grid: dict | None) -> int:
    """Node number of a ``node`` or (grid only) ``ix``/``iy`` reference."""
    if "node" in entry:
        node = entry["node"]
    elif grid is None or "ix" not in entry or "iy" not in entry:
        raise ConfigError(f"{field}: node reference needs 'node' (or "
                          "'ix'/'iy' on a grid)", field=field)
    elif entry["ix"] >= grid["nx"] or entry["iy"] >= grid["ny"]:
        raise ConfigError(f"{field}: ix/iy outside the {grid['nx']}x"
                          f"{grid['ny']} grid", field=field)
    else:
        node = truss.grid_node_index(grid["nx"], entry["ix"], entry["iy"])
    if node >= n_nodes:
        raise ConfigError(f"{field}: node {node} outside 0..{n_nodes - 1}",
                          field=field)
    return node


def build_from_config(cfg: dict):
    """Construct the ground structure and its pencil model: (gs, model)."""
    grid = cfg.get("grid")
    n_nodes = grid["nx"] * grid["ny"] if grid is not None else len(cfg["nodes"])
    if grid is not None and n_nodes < 2:
        raise ConfigError("grid: needs at least two nodes", field="grid")
    # global DOFs 2 * node + direction; repeated nodes add their directions
    fixed = frozenset(2 * _node_index(entry, "fixed_nodes", n_nodes, grid) + d
                      for entry in cfg.get("fixed_nodes", [])
                      for d, axis in enumerate("xy") if axis in entry["dirs"])

    if grid is not None:
        gs = truss.generate_ground_structure(grid["nx"], grid["ny"],
                                             grid["spacing"], fixed)
    else:
        gs = truss.GroundStructure(np.asarray(cfg["nodes"], dtype=float),
                                   np.asarray(cfg["bars"], dtype=int), fixed)
    load_node = _node_index(cfg["load_node"], "load_node", n_nodes, grid)
    try:  # build_model checks the bars; the config names their fields
        model = truss.build_model(
            gs, truss.Material(**cfg.get("material", {})), load_node,
            cfg.get("load_scale", 1.0), cfg.get("nonstructural_mass", 0.0),
            cfg.get("load_dims", 2), problem=cfg["problem"])
    except InvalidBar as exc:
        field = "bars" if grid is None else "grid"
        raise ConfigError(f"{field}: {exc}", field=field) from None
    except InvalidMatrix as exc:
        raise ConfigError(f"material: {exc}", field="material") from None
    return gs, model


def problem_from_config(cfg: dict, model):
    vol = cfg["volume"]
    default_kind = problems.VOLUME_LE \
        if cfg["problem"] == problems.ROBUST_COMPLIANCE else problems.VOLUME_EQ
    formulation = cfg.get("formulation", FORM_PENCIL_EPS)
    eps = float(cfg.get("eps", 1e-6))  # an eps_schedule replaces it per step
    lower_bound = eps if formulation == FORM_LOWER_BOUND_EPS else 0.0
    pencil_eps = eps if formulation == FORM_PENCIL_EPS else 0.0
    fs = FeasibleSet(l=model.volumes, v0=vol["v0"],
                     kind=vol.get("constraint", default_kind),
                     lower_bound=lower_bound)
    return ProblemSpec(cfg["problem"], model, fs, eps=pencil_eps)


def solver_options_from_config(cfg: dict) -> SolverOptions:
    # ``seed`` is accepted for old configs; every solver is deterministic
    return SolverOptions(**{k: v for k, v in cfg.get("solver", {}).items()
                            if k not in ("name", "seed")})


def result_record(cfg: dict, gs, model, report, wall_time: float) -> dict:
    return {
        "config_digest": config_digest(cfg),
        "tool_version": __version__,
        "wall_time_s": wall_time,
        "model": {
            "m": model.m,
            "n": model.n,
            "bar_count": gs.n_bars,
            "node_count": gs.n_nodes,
        },
        "geometry": {
            "nodes": gs.nodes.tolist(),
            "bars": gs.bars.tolist(),
            "fixed_dofs": sorted(gs.fixed_dofs),
            "load_node": model.load_node,
        },
        "report": {
            "x_final": report.x_final.tolist(),
            "obj_final": report.obj_final,
            "obj_exact": "inf" if math.isinf(report.obj_exact)
            else report.obj_exact,
            "eps_used": report.eps_used,
            "iterations": report.iterations,
            "termination": report.termination,
            "active_bars": report.active_bars,
        },
    }


def _require_output_path(path: str, field: str):
    """Fail before the solve, not at write time, on an empty path, an
    existing directory or a missing parent directory."""
    if not path or os.path.isdir(path):
        raise ConfigError(f"{field}: {path!r} is not a file path", field=field)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"{field}: directory {parent} does not exist",
                          field=field)


def _output_paths(cfg: dict, config_path: str) -> dict:
    """Checked output paths by key: result and history (defaults next to
    the config) and, if asked for, svg; no two are one file or the config."""
    base, _ = os.path.splitext(config_path)
    paths = {"result": base + ".result.json", "history": base + ".history.csv",
             **cfg.get("output", {})}
    taken = {os.path.realpath(config_path): "the config"}
    for key, path in paths.items():
        field = f"output/{key}"
        _require_output_path(path, field)
        other = taken.setdefault(os.path.realpath(path), field)
        if other != field:
            raise ConfigError(f"{field}: same file as {other}", field=field)
    return paths


def _write_result(record: dict, runs, paths: dict):
    """Write the result, the history of each (report, eps) run and the SVG."""
    try:
        with open(paths["result"], "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        with open(paths["history"], "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iter", "objective", "eps"])
            for rep, eps in runs:
                for it, obj in rep.history:
                    writer.writerow([it, repr(obj), eps])
        if "svg" in paths:
            render_svg(record, paths["svg"])
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}")


def render_svg(result: dict, out_path: str,
               display_threshold: float = DISPLAY_THRESHOLD):
    """Draw the final design: bar widths proportional to areas.

    Bars below ``display_threshold`` times the largest area are omitted.
    Fixed nodes are filled black, the load/mass node is red, free nodes are
    white with a black outline.
    """
    geo = result["geometry"]
    nodes = np.asarray(geo["nodes"], dtype=float)
    bars = np.asarray(geo["bars"], dtype=int).reshape(-1, 2)
    x = np.asarray(result["report"]["x_final"], dtype=float)
    fixed_nodes = {d // 2 for d in geo["fixed_dofs"]}
    load_node = geo["load_node"]

    span = max(np.ptp(nodes[:, 0]), np.ptp(nodes[:, 1]), 1.0)
    scale = 400.0 / span
    pad = 40.0
    xmin, ymin = nodes.min(axis=0)
    ymax = nodes[:, 1].max()
    px = pad + (nodes[:, 0] - xmin) * scale  # SVG's y axis points down
    py = pad + (ymax - nodes[:, 1]) * scale
    width = pad * 2 + (nodes[:, 0].max() - xmin) * scale
    height = pad * 2 + (ymax - ymin) * scale
    svg = ET.Element("svg", xmlns="http://www.w3.org/2000/svg",
                     width=str(width), height=str(height))
    top = float(np.max(x)) if len(x) else 0.0
    drawn = 0
    if top > 0:
        for j, (a, b) in enumerate(bars):
            if x[j] < display_threshold * top:
                continue
            ET.SubElement(svg, "line", x1=f"{px[a]:.2f}", y1=f"{py[a]:.2f}",
                          x2=f"{px[b]:.2f}", y2=f"{py[b]:.2f}", stroke="black",
                          attrib={"stroke-width": f"{8.0 * x[j] / top:.4f}",
                                  "stroke-linecap": "round"})
            drawn += 1
    if drawn == 0:
        print("warning: no bars above the display threshold", file=sys.stderr)
    for node in range(nodes.shape[0]):
        fill = "red" if node == load_node else \
            "black" if node in fixed_nodes else "white"
        ET.SubElement(svg, "circle", cx=f"{px[node]:.2f}",
                      cy=f"{py[node]:.2f}", r="5", fill=fill, stroke="black",
                      attrib={"stroke-width": "1"})
    ET.ElementTree(svg).write(out_path, xml_declaration=True, encoding="unicode")


def _dispatch_solve(cfg: dict, config_path: str) -> int:
    paths = _output_paths(cfg, config_path)
    solver_name = cfg.get("solver", {}).get("name", "subgradient")
    schedule = cfg.get("eps_schedule")
    if schedule and any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("eps_schedule: must be strictly decreasing",
                          field="eps_schedule")
    if solver_name != "bisection" and cfg.get("formulation") == FORM_EXACT:
        # at eps = 0 the first-order solvers stop on a singular K(x) as
        # soon as areas reach zero; bisection tests levels instead
        raise ConfigError(f"formulation: exact needs solver bisection, not "
                          f"{solver_name}", field="formulation")
    if schedule is not None and "eps" in cfg:
        raise ConfigError("eps: an eps_schedule replaces eps", field="eps")
    if cfg.get("formulation") == FORM_EXACT and ("eps" in cfg or schedule):
        key = "eps" if "eps" in cfg else "eps_schedule"  # none to use or sweep
        raise ConfigError(f"{key}: formulation exact has no eps", field=key)
    gs, model = build_from_config(cfg)
    if solver_name != "bisection" and \
            cfg.get("formulation") == FORM_LOWER_BOUND_EPS:
        try:  # K(x) for x > 0 has the kernel of K(1): no area floor helps
            np.linalg.cholesky(model.k_pencil(np.ones(model.m)))
        except np.linalg.LinAlgError:
            raise ConfigError(f"formulation: lower_bound_eps with {solver_name}"
                              " needs K(x) > 0; use pencil_eps", "formulation")
    opts = solver_options_from_config(cfg)
    spec = problem_from_config(cfg, model)
    # the formulation's eps: the pencil shift, else the area floor
    eps_values = [float(e) for e in
                  schedule or [spec.eps or spec.feasible.lower_bound]]
    start = time.perf_counter()
    reports = solvers.eps_continuation(spec, schedule, opts, solver_name) \
        if schedule else [solvers.solve(spec, solver_name, opts)]
    final = reports[-1]
    wall = time.perf_counter() - start
    record = result_record(cfg, gs, model, final, wall)
    if schedule:
        record["sweep"] = [
            {"eps": eps, "obj_final": r.obj_final,
             "distance_to_last": float(np.linalg.norm(
                 r.x_final - final.x_final))}
            for eps, r in zip(eps_values, reports)
        ]
    _write_result(record, zip(reports, eps_values), paths)
    print(f"wrote {paths['result']}  (objective {final.obj_final:.6g}, "
          f"{final.active_bars}/{model.m} active bars)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="geneigopt",
        description="Generalized eigenvalue topology optimization runner")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve").add_argument("config")
    p = sub.add_parser("render")
    p.add_argument("result")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--threshold", type=float, default=DISPLAY_THRESHOLD)
    p = sub.add_parser("verify")
    p.add_argument("suite", choices=["geneig", "examples", "solvers", "all"])
    p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        if args.command == "solve":
            return _dispatch_solve(load_config(args.config), args.config)
        if args.command == "render":
            if not 0 <= args.threshold < math.inf:
                raise ConfigError("--threshold: must be nonnegative and finite")
            result = _read_json(args.result, "result")
            out = args.out or os.path.splitext(args.result)[0] + ".svg"
            _require_output_path(out, "-o")
            if os.path.realpath(out) == os.path.realpath(args.result):
                raise ConfigError("-o: same file as the result", field="-o")
            if os.path.isfile(out):  # a FIFO or a device is never read
                try:
                    _read_json(out, "-o")
                except ConfigError:
                    pass  # not JSON: an earlier SVG, say, is replaced
                else:
                    raise ConfigError(f"-o: {out} is JSON, not an SVG", "-o")
            try:
                render_svg(result, out, args.threshold)
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ConfigError(f"{args.result} is not a result: {exc!r}")
            except OSError as exc:
                raise ConfigError(f"cannot write output: {exc}")
            print(f"wrote {out}")
            return EXIT_OK
        if args.command == "verify":
            if args.seed < 0:
                raise ConfigError("--seed: must be a non-negative integer")
            results = verify.run_suites(args.suite, args.seed)
            print(json.dumps(results, indent=2))
            ok = all(r["passed"] for r in results)
            for r in results:
                status = "PASS" if r["passed"] else "FAIL"
                print(f"{status} {r['name']} {r['detail']}", file=sys.stderr)
            return EXIT_OK if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BracketError as exc:
        print(f"bisection error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except GenEigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
