"""Tests for the command-line front end."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from geneigopt import cli
from geneigopt.errors import ConfigError, NoFreeDofs


def single_bar_config(tmp_path, **overrides):
    cfg = {
        "problem": "robust_compliance",
        "nodes": [[0.0, 0.0], [1.0, 0.0]],
        "bars": [[0, 1]],
        "fixed_nodes": [{"node": 0, "dirs": "xy"}],
        "load_node": {"node": 1},
        "load_dims": 1,
        "volume": {"v0": 2.0, "constraint": "le"},
        "formulation": "pencil_eps",
        "eps": 1e-6,
        "solver": {"name": "subgradient", "max_iters": 3000},
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def two_bar_grid_config(tmp_path, **overrides):
    cfg = {
        "problem": "robust_compliance",
        "grid": {"nx": 2, "ny": 2, "spacing": 1.0},
        "fixed_nodes": [{"ix": 0, "iy": 0, "dirs": "xy"},
                        {"ix": 0, "iy": 1, "dirs": "xy"}],
        "load_node": {"ix": 1, "iy": 0},
        "volume": {"v0": 0.5, "constraint": "le"},
        "formulation": "pencil_eps",
        "eps": 1e-6,
        "solver": {"name": "subgradient", "max_iters": 5000},
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_config_round_trip(tmp_path):
    path, cfg = single_bar_config(tmp_path)
    loaded = cli.load_config(str(path))
    # parse -> serialize -> parse is the identity
    path2 = tmp_path / "again.json"
    path2.write_text(json.dumps(loaded))
    assert cli.load_config(str(path2)) == loaded == cfg
    assert cli.config_digest(loaded) == cli.config_digest(cfg)


def test_config_rejects_unknown_keys(tmp_path):
    path, _ = single_bar_config(tmp_path, typo_field=1)
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


def test_config_rejects_negative_volume(tmp_path):
    path, _ = single_bar_config(tmp_path, volume={"v0": -2.0})
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG


def test_config_needs_geometry_exactly_once(tmp_path):
    path, cfg = single_bar_config(tmp_path)
    cfg["grid"] = {"nx": 2, "ny": 2, "spacing": 1.0}
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG


def test_solve_single_bar(tmp_path, capsys):
    path, _ = single_bar_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = json.loads((tmp_path / "config.result.json").read_text())
    # the full budget goes to the only bar; worst-case compliance 1/2
    assert np.allclose(result["report"]["x_final"], [2.0], atol=1e-6)
    assert abs(result["report"]["obj_final"] - 0.5) < 1e-3
    assert result["report"]["active_bars"] == 1
    assert result["model"]["m"] == 1
    # history file has the expected header
    lines = (tmp_path / "config.history.csv").read_text().splitlines()
    assert lines[0] == "iter,objective,eps"
    assert len(lines) > 1


def test_solve_all_dofs_fixed_is_config_error(tmp_path):
    path, _ = single_bar_config(
        tmp_path, fixed_nodes=[{"node": 0, "dirs": "xy"},
                               {"node": 1, "dirs": "xy"}])
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG


def test_grid_and_explicit_supports_agree(tmp_path):
    # two entries for one node add their directions on both geometries
    supports = [{"node": 0, "dirs": "x"}, {"node": 0, "dirs": "y"}]
    _, explicit = single_bar_config(tmp_path, fixed_nodes=supports)
    grid = {k: v for k, v in explicit.items() if k not in ("nodes", "bars")}
    grid["grid"] = {"nx": 2, "ny": 1, "spacing": 1.0}
    (gs_e, model_e), (gs_g, model_g) = map(cli.build_from_config,
                                           (explicit, grid))
    assert np.array_equal(gs_e.bars, gs_g.bars)
    assert gs_e.fixed_dofs == gs_g.fixed_dofs == {0, 1}
    assert model_e.n == model_g.n == 2


def test_fully_restrained_grid_is_no_free_dofs(tmp_path, capsys):
    path, cfg = two_bar_grid_config(
        tmp_path, fixed_nodes=[{"node": n, "dirs": "xy"} for n in range(4)])
    with pytest.raises(NoFreeDofs) as exc:
        cli.build_from_config(cfg)
    assert exc.traceback[-1].name == "build_model"
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    assert "every DOF is restrained" in capsys.readouterr().err


def test_missing_load_node_is_schema_error(tmp_path, capsys):
    path, cfg = single_bar_config(tmp_path)
    del cfg["load_node"]
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="'load_node' is a required"):
        cli.load_config(str(path))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("overrides, field", [
    ({"bars": [[0, 1], [1, 1]]}, "bars"),
    ({"nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
      "bars": [[0, 1], [2, 0]]}, "bars"),
    ({"nodes": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
      "bars": [[0, 1], [0, 7]]}, "bars"),
    ({"fixed_nodes": [{"node": 5, "dirs": "xy"}]}, "fixed_nodes"),
    ({"load_node": {"node": 2}}, "load_node"),
    ({"bars": []}, "bars"),
])
def test_bad_explicit_geometry_is_config_error(tmp_path, capsys, overrides,
                                               field):
    path, _ = single_bar_config(tmp_path, **overrides)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert f"config error: {field}" in out.err


@pytest.mark.parametrize("make, overrides, field", [
    (single_bar_config, {"nodes": [[0.0, 0.0], [1e-300, 0.0]]}, "bars"),
    (single_bar_config, {"nodes": [[0.0, 0.0], [1e300, 0.0]]}, "bars"),
    (single_bar_config, {"nodes": [[-1e300, 0.0], [1e300, 0.0]]}, "bars"),
    (two_bar_grid_config, {"grid": {"nx": 2, "ny": 2, "spacing": 1e-300}},
     "grid"),
    (two_bar_grid_config, {"grid": {"nx": 2, "ny": 2, "spacing": 1e200}},
     "grid"),
])
def test_bar_length_out_of_range_is_config_error(tmp_path, capsys, make,
                                                 overrides, field):
    # d * d under- or overflows in the length: a silent config error, not
    # numpy warnings and then a non-finite pencil coefficient
    path, _ = make(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    assert caught == []
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: {field}: ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("overrides", [
    {"nodes": [[0.0, 0.0], [1e-150, 0.0]],
     "material": {"young_modulus": 1e200}},
    {"nodes": [[0.0, 0.0], [1e10, 0.0]], "material": {"density": 1e300},
     "problem": "eigenfrequency"},
], ids=["stiffness", "mass"])
def test_bar_constant_overflow_is_config_error(tmp_path, capsys, overrides):
    # a valid length whose E/L or (for an eigenfrequency model, the only
    # kind with a mass pencil) 0.5*rho*L overflows: a config error naming
    # the bar, not numpy warnings and then a non-finite pencil coefficient
    path, _ = single_bar_config(tmp_path, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    assert caught == []
    out = capsys.readouterr()
    assert out.err.startswith("config error: material: bar 0 ")
    assert out.err.count("\n") == 1


def test_robust_config_ignores_an_overflowing_bar_mass(tmp_path, capsys):
    # 0.5 * 1e308 * 4 overflows, but a robust model builds no mass pencil,
    # so its config builds and solves; the eigenfrequency twin, which
    # would build M from that mass, is a config error naming the material
    overrides = {"nodes": [[0.0, 0.0], [4.0, 0.0]],
                 "material": {"density": 1e308}}
    path = example_config(tmp_path, "single_bar_robust.json", **overrides)
    _, model = cli.build_from_config(cli.load_config(str(path)))
    assert model.m_pencil is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    assert caught == []
    (tmp_path / "twin").mkdir()
    twin = example_config(tmp_path / "twin", "single_bar_robust.json",
                          problem="eigenfrequency", **overrides)
    with pytest.raises(ConfigError, match="material: bar 0 ") as info:
        cli.build_from_config(cli.load_config(str(twin)))
    assert info.value.field == "material"
    capsys.readouterr()


@pytest.mark.parametrize("solver", ["subgradient", "smoothed_apg", "bisection"])
def test_overflowing_pencil_value_is_typed_error(tmp_path, capsys, solver):
    # E / L = 1e308 is finite and so is the stiffness stack, but K(x) at the
    # start design x = 2 overflows: a typed error from the first eigensolve,
    # not numpy warnings and a scipy traceback
    path, _ = single_bar_config(tmp_path, material={"young_modulus": 1e308},
                                solver={"name": solver, "max_iters": 50})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    assert caught == []
    out = capsys.readouterr()
    assert out.err.startswith("error: A(x) or B(x) overflows ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("make, overrides, field", [
    (two_bar_grid_config,
     {"grid": {"nx": 3, "ny": 3, "spacing": 1.0}, "load_node": {"ix": 3, "iy": 0}},
     "load_node"),
    (two_bar_grid_config,
     {"fixed_nodes": [{"ix": 0, "iy": 2, "dirs": "xy"}]}, "fixed_nodes"),
    (single_bar_config, {"load_node": {"ix": 1, "iy": 5}}, "load_node"),
    (two_bar_grid_config, {"grid": {"nx": 1, "ny": 1, "spacing": 1.0}}, "grid"),
])
def test_bad_node_reference_is_config_error(tmp_path, capsys, make, overrides,
                                            field):
    path, _ = make(tmp_path, **overrides)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert f"config error: {field}" in out.err


def test_bisect_exit_code_when_unbracketable(tmp_path):
    # vertical mass direction has no stiffness: the objective is +inf
    # everywhere and no level can be certified
    path, _ = single_bar_config(
        tmp_path, problem="eigenfrequency", nonstructural_mass=1.0,
        volume={"v0": 2.0, "constraint": "eq"}, formulation="exact",
        eps=None, solver={"name": "bisection", "max_iters": 300})
    assert cli.main(["solve", str(path)]) == cli.EXIT_BRACKET


def test_sweep_eps(tmp_path):
    path, _ = single_bar_config(
        tmp_path, eps_schedule=[1e-2, 1e-4, 1e-6], eps=None,
        solver={"name": "subgradient", "max_iters": 3000})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = json.loads((tmp_path / "config.result.json").read_text())
    sweep = result["sweep"]
    assert [s["eps"] for s in sweep] == [1e-2, 1e-4, 1e-6]
    objs = [s["obj_final"] for s in sweep]
    # 1/(2+eps) rises toward 0.5
    assert objs == sorted(objs)
    assert abs(objs[-1] - 0.5) < 1e-3


def test_solve_sweeps_the_lower_bound(tmp_path, monkeypatch):
    # lower_bound_eps: each step's epsilon is the area floor, not a pencil
    # shift, and the records carry the schedule (eps_used is 0 there)
    schedule = [1e-2, 1e-3, 1e-4]
    path, _ = two_bar_grid_config(
        tmp_path, formulation="lower_bound_eps", eps_schedule=schedule,
        eps=None, solver={"name": "subgradient", "max_iters": 2000})
    runs = []
    original = cli.solvers.eps_continuation

    def continuation(spec, *args, **kwargs):
        runs.append((spec, original(spec, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli.solvers, "eps_continuation", continuation)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    (spec, reports), = runs
    assert spec.eps == 0.0
    for eps, rep in zip(schedule, reports):
        assert np.min(rep.x_final) >= eps
    result = json.loads((tmp_path / "grid.result.json").read_text())
    assert [s["eps"] for s in result["sweep"]] == schedule
    assert result["sweep"][-1]["obj_final"] == result["report"]["obj_final"]
    assert min(result["report"]["x_final"]) >= schedule[-1]
    rows = (tmp_path / "grid.history.csv").read_text().splitlines()[1:]
    assert [float(e) for e in dict.fromkeys(r.split(",")[2] for r in rows)] \
        == schedule
    assert len(rows) == sum(len(rep.history) for rep in reports)


@pytest.mark.parametrize("command", ["bisect", "sweep-eps"])
def test_removed_command_is_usage_error(tmp_path, capsys, command):
    path, _ = single_bar_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, str(path)])
    assert exit_info.value.code == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "invalid choice" in out.err


def test_readme_commands_exist():
    # every ``geneigopt <cmd>`` line of README's CLI block is a command
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1] for line in block.splitlines()
                if line.startswith("geneigopt ")]
    assert "solve" in commands
    for command in commands:
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0, command


@pytest.mark.parametrize("overrides, field", [
    ({"eps_schedule": [1e-3, 1e-2]}, "eps_schedule"),
    ({"eps_schedule": [1e-2, 1e-2]}, "eps_schedule"),
    # an exact formulation has nothing to sweep, whatever the solver
    ({"eps_schedule": [1e-2, 1e-4], "formulation": "exact", "eps": None,
      "solver": {"name": "bisection"}}, "eps_schedule"),
    ({"eps_schedule": [1e-2, 1e-4], "formulation": "exact"}, "formulation"),
    # the schedule replaces eps: a config with both is ambiguous
    ({"eps_schedule": [1e-2, 1e-4], "eps": 0.5}, "eps"),
])
def test_bad_sweep_is_config_error(tmp_path, capsys, overrides, field):
    path, _ = single_bar_config(tmp_path, **overrides)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith(f"config error: {field}: ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("step_rule", "diminishing_over_sqrt_k"), ("initial_step", 0.1),
    ("mu_decay", "fixed"), ("restart", False),
])
def test_removed_solver_option_is_config_error(tmp_path, capsys, key, value):
    path, _ = single_bar_config(
        tmp_path, solver={"name": "subgradient", key: value})
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "config error: invalid config field solver" in out.err
    assert repr(key) in out.err


def test_solver_schema_matches_solver_options():
    names = {f.name for f in dataclasses.fields(cli.SolverOptions)}
    assert set(cli._SOLVER_SCHEMA["properties"]) == names | {"name", "seed"}


def test_bisect_grid_model(tmp_path):
    path, _ = two_bar_grid_config(
        tmp_path, solver={"name": "bisection", "max_iters": 5000,
                          "bisect_tol": 1e-6})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = json.loads((tmp_path / "grid.result.json").read_text())
    assert result["report"]["termination"] == "bisected"
    assert result["report"]["obj_final"] > 0.0
    # each CSV row is the upper level after that bisection step
    report = result["report"]
    rows = (tmp_path / "grid.history.csv").read_text().splitlines()[1:]
    levels = [float(r.split(",")[1]) for r in rows]
    assert len(levels) == report["iterations"]
    assert levels == sorted(levels, reverse=True)
    assert levels[-1] == report["obj_final"]


def test_history_eps_is_the_area_floor_without_schedule(tmp_path):
    path, _ = two_bar_grid_config(
        tmp_path, formulation="lower_bound_eps", eps=1e-4,
        solver={"name": "subgradient", "max_iters": 2000})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    rows = (tmp_path / "grid.history.csv").read_text().splitlines()[1:]
    assert rows and {float(r.split(",")[2]) for r in rows} == {1e-4}
    result = json.loads((tmp_path / "grid.result.json").read_text())
    assert min(result["report"]["x_final"]) >= 1e-4


def test_integer_eps_is_reported_as_a_float(tmp_path):
    # JSON reads eps 1 as an int; the result and history carry 1.0
    path, _ = single_bar_config(tmp_path, eps=1,
                                solver={"name": "subgradient", "max_iters": 50})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    assert '"eps_used": 1.0,' in (tmp_path / "config.result.json").read_text()
    rows = (tmp_path / "config.history.csv").read_text().splitlines()[1:]
    assert rows and {r.split(",")[2] for r in rows} == {"1.0"}


def test_render_svg(tmp_path):
    path, _ = two_bar_grid_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result_path = tmp_path / "grid.result.json"
    out = tmp_path / "design.svg"
    assert cli.main(["render", str(result_path), "-o", str(out)]) == cli.EXIT_OK
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    kids = list(root)
    circles = [k for k in kids if k.tag.endswith("circle")]
    lines = [k for k in kids if k.tag.endswith("line")]
    assert len(circles) == 4  # one marker per node
    assert 1 <= len(lines) <= 6


def test_render_threshold_filters_bars(tmp_path):
    path, _ = two_bar_grid_config(tmp_path)
    cli.main(["solve", str(path)])
    result = json.loads((tmp_path / "grid.result.json").read_text())
    out = tmp_path / "full.svg"
    cli.render_svg(result, str(out), display_threshold=0.0)
    n_all = sum(1 for k in ET.parse(out).getroot() if k.tag.endswith("line"))
    out2 = tmp_path / "trimmed.svg"
    cli.render_svg(result, str(out2), display_threshold=0.5)
    n_big = sum(1 for k in ET.parse(out2).getroot() if k.tag.endswith("line"))
    assert n_big <= n_all


def test_render_bad_threshold_is_config_error(tmp_path, capsys):
    # a NaN threshold compares false against every bar, so all would be drawn
    path, _ = two_bar_grid_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    out_path = tmp_path / "design.svg"
    for bad in ("nan", "inf", "-0.1"):
        capsys.readouterr()
        assert cli.main(["render", str(tmp_path / "grid.result.json"),
                         "-o", str(out_path), "--threshold", bad]) == \
            cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert "Traceback" not in out.out + out.err
        assert out.err.startswith("config error: --threshold") and \
            out.err.count("\n") == 1
        assert not out_path.exists()


@pytest.mark.parametrize("kind", ["missing", "config"])
def test_render_bad_result_is_typed_error(tmp_path, capsys, kind):
    path, _ = single_bar_config(tmp_path)
    if kind == "missing":
        path = tmp_path / "missing.result.json"
    assert cli.main(["render", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("config error: ") and out.err.count("\n") == 1
    assert str(path) in out.err


@pytest.mark.parametrize("key", ["result", "history", "svg"])
def test_output_in_missing_directory_is_config_error(tmp_path, capsys,
                                                     monkeypatch, key):
    path, _ = single_bar_config(
        tmp_path, output={key: str(tmp_path / "nodir" / f"out.{key}")})

    def no_run(*args, **kwargs):
        raise AssertionError("the model was built or a solver ran")

    monkeypatch.setattr(cli, "build_from_config", no_run)
    monkeypatch.setattr(cli.solvers, "projected_subgradient", no_run)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith(f"config error: output/{key}: ")
    assert "nodir" in out.err


@pytest.mark.parametrize("key", ["result", "history", "svg"])
@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_output_that_is_not_a_file_path_is_config_error(
        tmp_path, capsys, monkeypatch, key, kind):
    # an empty path or an existing directory is rejected before the solve,
    # not after result.json is written
    target = "" if kind == "empty" else str(tmp_path)
    path, _ = single_bar_config(tmp_path, output={key: target})

    def no_run(*args, **kwargs):
        raise AssertionError("the model was built or a solver ran")

    monkeypatch.setattr(cli, "build_from_config", no_run)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith(f"config error: output/{key}: ")
    assert not (tmp_path / "config.result.json").exists()


@pytest.mark.parametrize("output, field", [
    ({"result": "same.out", "history": "same.out"}, "output/history"),
    ({"result": "same.out", "svg": "same.out"}, "output/svg"),
    ({"history": "same.out", "svg": "./same.out"}, "output/svg"),
    ({"result": "config.json"}, "output/result"),
    ({"history": "config.json"}, "output/history"),
    ({"svg": "config.json"}, "output/svg"),
    # against the filled-in defaults, config.result.json and .history.csv
    ({"result": "config.history.csv"}, "output/history"),
    ({"svg": "config.result.json"}, "output/svg"),
])
def test_outputs_that_name_one_file_are_config_error(
        tmp_path, capsys, monkeypatch, output, field):
    monkeypatch.chdir(tmp_path)
    path, cfg = single_bar_config(tmp_path, output=output)
    text = path.read_text()

    def no_run(*args, **kwargs):
        raise AssertionError("the model was built or a solver ran")

    monkeypatch.setattr(cli, "build_from_config", no_run)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err.startswith(f"config error: {field}: ")
    assert path.read_text() == text
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_render_to_a_directory_is_config_error(tmp_path, capsys):
    path, _ = two_bar_grid_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["render", str(tmp_path / "grid.result.json"),
                     "-o", str(tmp_path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("config error: -o: ")


def test_render_to_missing_directory_is_config_error(tmp_path, capsys):
    path, _ = two_bar_grid_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    out_path = tmp_path / "nodir" / "x.svg"
    assert cli.main(["render", str(tmp_path / "grid.result.json"),
                     "-o", str(out_path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("config error: -o: ") and "nodir" in out.err
    assert not out_path.parent.exists()


def test_render_onto_its_result_is_config_error(tmp_path, capsys):
    # -o naming the result, directly or through a symlink, would replace
    # the result by its SVG; the result's bytes stay as they were
    path = example_config(tmp_path, "single_bar_robust.json")
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = tmp_path / "single_bar_robust.result.json"
    before = result.read_bytes()
    (tmp_path / "link.json").symlink_to(result)
    for out_path in (result, tmp_path / "link.json"):
        capsys.readouterr()
        assert cli.main(["render", str(result), "-o", str(out_path)]) == \
            cli.EXIT_CONFIG
        out = capsys.readouterr()
        assert out.err == "config error: -o: same file as the result\n"
        assert result.read_bytes() == before
    assert cli.main(["render", str(result)]) == cli.EXIT_OK


def test_render_onto_a_config_is_config_error(tmp_path, capsys):
    # render writes only SVG: an -o that is an existing file holding JSON
    # (the run's config, or any other config or result) stays as it was
    path = example_config(tmp_path, "single_bar_robust.json")
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = tmp_path / "single_bar_robust.result.json"
    before = path.read_bytes()
    capsys.readouterr()
    assert cli.main(["render", str(result), "-o", str(path)]) == \
        cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == f"config error: -o: {path} is JSON, not an SVG\n"
    assert path.read_bytes() == before
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    # an earlier SVG, or any file that is not JSON (not even UTF-8), is
    # replaced
    svg = tmp_path / "design.svg"
    for old in (b"", b"<svg/>", b"not json", b"\xd0\xff"):
        svg.write_bytes(old)
        assert cli.main(["render", str(result), "-o", str(svg)]) == cli.EXIT_OK
        assert ET.parse(svg).getroot().tag.endswith("svg")


def _assert_write_error(capsys, name):
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("config error: cannot write output: ")
    assert "File name too long" in out.err and name in out.err
    assert out.err.count("\n") == 1


def test_unwritable_result_is_config_error(tmp_path, capsys):
    # the path passes the checks made before the solve; the OS refuses it
    name = str(tmp_path / ("b" * 300 + ".json"))
    path, _ = single_bar_config(tmp_path, output={"result": name})
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    _assert_write_error(capsys, name)


def test_unwritable_render_output_is_config_error(tmp_path, capsys):
    path, _ = two_bar_grid_config(tmp_path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    name = str(tmp_path / ("a" * 300 + ".svg"))
    assert cli.main(["render", str(tmp_path / "grid.result.json"),
                     "-o", name]) == cli.EXIT_CONFIG
    _assert_write_error(capsys, name)


def test_config_that_is_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"problem": "\xd0\xff"}')
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith(f"config error: cannot read config {path}: ")
    assert out.err.count("\n") == 1


def test_solve_ignores_geneig_seed(tmp_path, monkeypatch):
    # no environment variable seeds anything (GENEIG_SEED, which once
    # seeded ``verify``, is read nowhere): a solve is the same bit for bit
    path, _ = two_bar_grid_config(tmp_path)
    monkeypatch.delenv("GENEIG_SEED", raising=False)
    runs = []
    for seed in (None, "1234"):
        if seed is not None:
            monkeypatch.setenv("GENEIG_SEED", seed)
        assert cli.main(["solve", str(path)]) == cli.EXIT_OK
        result = json.loads((tmp_path / "grid.result.json").read_text())
        runs.append((result["report"],
                     (tmp_path / "grid.history.csv").read_text()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("overrides, literal, field", [
    ({"volume": {"v0": "@", "constraint": "le"}}, "Infinity", "volume/v0"),
    ({"eps": "@"}, "NaN", "eps"),
    ({"nodes": [[0.0, 0.0], ["@", 0.0]]}, "1e400", "nodes/1/0"),
])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, overrides,
                                                  literal, field):
    # json reads NaN, Infinity and an overflowing 1e400 (as inf)
    path, _ = single_bar_config(tmp_path, **overrides)
    path.write_text(path.read_text().replace('"@"', literal))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert f"config error: invalid config field {field}" in out.err


def example_config(tmp_path, name="truss_5x3_robust.json", **overrides):
    """A shipped example config, edited by ``overrides``, in tmp_path."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "examples-configs", name)) as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_bisection_sweeps_the_pencil_shift(tmp_path, monkeypatch):
    # bisection along an eps_schedule: one sweep record and one bisection
    # per eps, each warm-started from the last design
    schedule = [1e-2, 1e-4]
    path = example_config(tmp_path, eps=None, eps_schedule=schedule,
                          solver={"name": "bisection"})
    runs = []
    original = cli.solvers.bisection_global

    def bisection(spec, opts=cli.SolverOptions(), x0=None):
        runs.append((x0, original(spec, opts, x0)))
        return runs[-1][1]

    monkeypatch.setattr(cli.solvers, "bisection_global", bisection)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    assert [rep.eps_used for _, rep in runs] == schedule
    assert runs[0][0] is None and runs[1][0] is runs[0][1].x_final
    assert all(rep.termination == "bisected" for _, rep in runs)
    result = json.loads((tmp_path / "truss_5x3_robust.result.json").read_text())
    sweep = result["sweep"]
    assert [s["eps"] for s in sweep] == schedule
    assert [s["obj_final"] for s in sweep] == [rep.obj_final for _, rep in runs]
    # a smaller shift leaves less stiffness: the optimal compliance rises
    assert 0 < sweep[0]["obj_final"] < sweep[1]["obj_final"]
    history = tmp_path / "truss_5x3_robust.history.csv"
    rows = history.read_text().splitlines()[1:]
    assert [float(r.split(",")[2]) for r in rows] == \
        [eps for eps, (_, rep) in zip(schedule, runs) for _ in rep.history]


def test_bisection_sweeps_the_area_floor(tmp_path, capsys):
    # K(1) is singular (node 1 has no y stiffness), so the first-order
    # solvers refuse lower_bound_eps here; bisection solves each step:
    # the one bar takes the whole volume, psi = 1 / 2
    schedule = [1e-2, 1e-3]
    path = example_config(tmp_path, "single_bar_robust.json", eps=None,
                          formulation="lower_bound_eps", eps_schedule=schedule,
                          solver={"name": "bisection"})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    result = json.loads(
        (tmp_path / "single_bar_robust.result.json").read_text())
    assert [s["eps"] for s in result["sweep"]] == schedule
    for record in result["sweep"]:
        assert abs(record["obj_final"] - 0.5) <= 1e-6
    assert result["report"]["termination"] == "bisected"


@pytest.mark.parametrize("name", ["robust_7x4_subgrad", "eigfreq_5x3_bisect",
                                  "eigfreq_5x3_apg"])
def test_cli_solve_matches_the_benchmark_call(tmp_path, name):
    # a benchmark config through ``geneigopt solve`` gives the answer of the
    # solver call the benchmark makes on the same model
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = tmp_path / f"{name}.json"
    shutil.copy(os.path.join(here, "bench", "configs", f"{name}.json"), path)
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = json.loads((tmp_path / f"{name}.result.json").read_text())
    report = result["report"]
    cfg = cli.load_config(str(path))
    _, model = cli.build_from_config(cfg)
    spec = cli.problem_from_config(cfg, model)
    opts = cli.solver_options_from_config(cfg)
    solver = cfg["solver"]["name"]
    if solver == "bisection":
        rep = cli.solvers.bisection_global(spec, opts=opts)
    elif solver == "smoothed_apg":
        rep = cli.solvers.smoothed_apg(spec, None, opts)
    else:
        rep = cli.solvers.projected_subgradient(spec, None, opts)
    assert (report["obj_final"], report["iterations"], report["termination"]) \
        == (rep.obj_final, rep.iterations, rep.termination)


def test_huge_nonstructural_mass_is_typed_error(tmp_path, capsys):
    # a finite mass above half the largest float: M(x)'s constant is
    # symmetrized without overflow, then LAPACK's solve of the pencil fails,
    # which is a typed error, not a RuntimeWarning or "not positive definite"
    path = example_config(tmp_path, "truss_5x3_eigenfrequency.json",
                          nonstructural_mass=1e308)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    assert caught == []
    out = capsys.readouterr()
    # the message says the solve did not converge and shows the 1e308 mass
    assert out.err.startswith("error: LAPACK dsygvd did not converge (info = ")
    assert out.err.endswith("): max|A(x)| = 1e+308, "
                            "max|B(x) + eps*I| = 0.00333\n")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("solver", ["subgradient", "smoothed_apg",
                                    "bisection"])
def test_overflowing_subgradient_is_typed_error(tmp_path, capsys, solver):
    # a mass of 1e200 leaves M(x), K(x) and their eigensolve finite, but
    # the subgradient's squared norm overflows: a step along it has length
    # 0, which each solver once took until it reported convergence
    path = example_config(tmp_path, "truss_5x3_eigenfrequency.json",
                          nonstructural_mass=1e200, solver={"name": solver})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == "error: the subgradient's squared norm is inf\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("solver", ["subgradient", "smoothed_apg"])
def test_singular_exact_solve_is_typed_error(tmp_path, capsys, monkeypatch,
                                             solver):
    # at eps = 0 a first-order solve stops on a singular K(x): the config
    # is rejected before the model is built or a solver runs
    path = example_config(tmp_path, formulation="exact",
                          solver={"name": solver})
    ran = []
    for owner, name in ((cli, "build_from_config"),
                        (cli.solvers, "projected_subgradient"),
                        (cli.solvers, "smoothed_apg")):
        monkeypatch.setattr(owner, name, lambda *a, _n=name: ran.append(_n))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert (f"config error: formulation: exact needs solver bisection, not "
            f"{solver}") in out.err
    assert ran == []


def test_exact_formulation_with_eps_is_config_error(tmp_path, capsys,
                                                   monkeypatch):
    # exact has no eps to use: a given eps is rejected, not silently dropped
    path = example_config(tmp_path, "single_bar_robust.json",
                          formulation="exact", eps=0.5,
                          solver={"name": "bisection"})
    ran = []
    monkeypatch.setattr(cli, "build_from_config", lambda *a: ran.append(a))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "config error: eps: formulation exact has no eps" in out.err
    assert ran == []


@pytest.mark.parametrize("solver", ["subgradient", "smoothed_apg"])
def test_lower_bound_on_a_stiffness_free_dof_is_typed_error(
        tmp_path, capsys, monkeypatch, solver):
    # node 1's y DOF has no stiffness at any design, so no area floor keeps
    # K(x) definite: one Cholesky of K(1) rejects it before a solver runs
    path = example_config(tmp_path, "single_bar_robust.json",
                          formulation="lower_bound_eps", eps=1e-4,
                          solver={"name": solver})
    ran = []
    for name in ("projected_subgradient", "smoothed_apg"):
        monkeypatch.setattr(cli.solvers, name,
                            lambda *a, _n=name: ran.append(_n))
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert (f"config error: formulation: lower_bound_eps with {solver} "
            f"needs K(x) > 0") in out.err
    assert ran == []


def test_overflowing_load_is_typed_error(tmp_path, capsys):
    # Q Q' overflows to +inf: the pencil constant is checked for finiteness
    path = example_config(tmp_path, load_scale=1e200)
    assert cli.main(["solve", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert "error: pencil constant has non-finite entries" in out.err


def test_verify_negative_seed_is_config_error(capsys):
    assert cli.main(["verify", "examples", "--seed", "-1"]) == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err
    assert out.err.startswith("config error: --seed") and \
        out.err.count("\n") == 1


def test_verify_command(capsys):
    assert cli.main(["verify", "examples"]) == cli.EXIT_OK
    out = capsys.readouterr()
    results = json.loads(out.out)
    assert all(r["passed"] for r in results)


def test_infinite_objective_serializes(tmp_path):
    # a design space whose exact value at the minimizer stays infinite
    path, _ = single_bar_config(
        tmp_path, problem="eigenfrequency", nonstructural_mass=1.0,
        volume={"v0": 2.0, "constraint": "eq"},
        solver={"name": "subgradient", "max_iters": 50})
    assert cli.main(["solve", str(path)]) == cli.EXIT_OK
    result = json.loads((tmp_path / "config.result.json").read_text())
    assert result["report"]["obj_exact"] == "inf"


def test_console_script_installed(tmp_path):
    exe = shutil.which("geneigopt")
    if exe is None:
        pytest.skip("console script not on PATH")
    path, _ = single_bar_config(tmp_path)
    proc = subprocess.run([exe, "solve", str(path)], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "objective" in proc.stdout


def test_sample_configs_are_valid():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("truss_5x3_robust.json", "truss_5x3_eigenfrequency.json",
                 "single_bar_robust.json"):
        cfg = cli.load_config(os.path.join(here, "examples-configs", name))
        gs, model = cli.build_from_config(cfg)
        assert model.m > 0 and model.n > 0
