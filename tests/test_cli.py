"""Command-line contract tests: exit codes, artifacts, hash provenance."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.cli import main
from dvmbvp.fields import Field, Grid
from dvmbvp.model import model_to_dict
from dvmbvp.solver import SolverConfig, SolverError


@pytest.fixture()
def shifted_model_file(tmp_path, broadwell):
    path = tmp_path / "shifted.json"
    dv.save_model(broadwell, path)
    return path


@pytest.fixture()
def classical_model_file(tmp_path):
    path = tmp_path / "classical.json"
    dv.save_model(dv.classical_broadwell(), path)
    return path


def write_config(tmp_path, model_file, boundary, solver=None, name="config.json"):
    cfg = {
        "model": str(model_file),
        "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "boundary": boundary,
        "solver": solver or {},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# -- model check -----------------------------------------------------------------

def test_model_check_certified(shifted_model_file, capsys):
    code = main(["model", "check", str(shifted_model_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified" in out and "NOT" not in out
    assert "normal: True (d_inv=3, d_max=3)" in out


def test_model_check_classical_fails_genericity(classical_model_file, capsys):
    code = main(["model", "check", str(classical_model_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "generic: False" in out
    assert "(1, 2)" in out


def test_model_check_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["model", "check", str(bad)]) == 2


OTHER_VELOCITIES = [[1, 2], [2, 3], [2, 1]]     # velocities 2-4 of shifted Broadwell


@pytest.mark.parametrize("command", ["model check", "solve"])
@pytest.mark.parametrize("change", [
    {"velocities": [[1]] + OTHER_VELOCITIES},
    {"velocities": [["a", 1]] + OTHER_VELOCITIES},
    {"velocities": [[float("nan"), 2]] + OTHER_VELOCITIES},
    {"velocities": [[10 ** 400, 2]] + OTHER_VELOCITIES},    # beyond the float range
    {"rules": [{"i": 1, "j": 2, "l": 3, "gamma": 1.0}]},
    {"rules": [{"i": 1, "j": 2, "l": 3, "m": 4, "gamma": "x"}]},
    {"n0": [1]},
    {"velocities": 5},
], ids=["short velocity", "text velocity", "nan velocity", "huge velocity",
        "rule without m", "text gamma", "short n0", "scalar velocities"])
def test_malformed_model_data_exits_2(tmp_path, broadwell, capsys, command, change):
    model = {**model_to_dict(broadwell), **change}
    if command == "model check":
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(model))
        argv = ["model", "check", str(model_file)]
    else:
        cfg = write_config(tmp_path, "unused.json", {"profile": "zero"}, SMALL_SOLVER)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "model": model}))
        argv = ["solve", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_model_check_missing_file(tmp_path):
    assert main(["model", "check", str(tmp_path / "nope.json")]) == 2


def test_model_check_json_output(shifted_model_file, capsys):
    code = main(["model", "check", "--json", str(shifted_model_file)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["certified"] and report["d_inv"] == 3


# -- generators -------------------------------------------------------------------

def test_gen_shifted(tmp_path):
    out = tmp_path / "gen.json"
    c0 = repr(float(2.0 * np.sqrt(2.0)))
    code = main(["model", "gen-shifted", "--c0", c0, "--n0", "1,1",
                 "-o", str(out)])
    assert code == 0
    model = dv.load_model(out)
    assert dv.certify_model(model).certified


def test_gen_shifted_rejected(tmp_path):
    out = tmp_path / "gen.json"
    code = main(["model", "gen-shifted", "--c0", "0.5", "--n0", "1,0",
                 "-o", str(out)])
    assert code == 1
    assert not out.exists()


def test_gen_shifted_gamma(tmp_path, capsys):
    """--gamma sets the broadwell rule; a model file base keeps its own gammas
    and refuses the option."""
    c0 = repr(float(2.0 * np.sqrt(2.0)))
    out = tmp_path / "gen.json"
    assert main(["model", "gen-shifted", "--c0", c0, "--n0", "1,1", "--gamma", "2.5",
                 "-o", str(out)]) == 0
    assert [r.gamma for r in dv.load_model(out).rules] == [2.5]
    base = tmp_path / "base.json"
    dv.save_model(dv.classical_broadwell(gamma=0.5), base)
    out.unlink()
    assert main(["model", "gen-shifted", "--base", str(base), "--c0", c0, "--n0", "1,1",
                 "-o", str(out)]) == 0
    assert [r.gamma for r in dv.load_model(out).rules] == [0.5]
    out.unlink()
    capsys.readouterr()
    assert main(["model", "gen-shifted", "--base", str(base), "--c0", c0, "--n0", "1,1",
                 "--gamma", "5", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--c0", "3", "--n0", "a,b"],
    ["--c0", "3", "--n0", "1"],
    ["--c0", "3", "--n0", "1,1,1"],
    ["--c0", "3", "--n0", "0,0"],
    ["--c0", "nan", "--n0", "1,1"],
])
def test_gen_shifted_rejects_malformed_arguments(tmp_path, capsys, args):
    out = tmp_path / "gen.json"
    assert main(["model", "gen-shifted", *args, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_circle(tmp_path):
    out = tmp_path / "circle.json"
    code = main(["model", "gen-circle", "--quad", "3,2;1,2;2,3;2,1",
                 "--quad", "2,3;4,1;4,3;2,1", "-o", str(out)])
    assert code == 0
    model = dv.load_model(out)
    assert model.p == 6


def test_gen_circle_rejected(tmp_path):
    out = tmp_path / "circle.json"
    code = main(["model", "gen-circle", "--quad", "3,2;1,2;3,2;1,2",
                 "-o", str(out)])
    assert code == 1


def test_gen_circle_malformed(tmp_path):
    code = main(["model", "gen-circle", "--quad", "3,2;1,2",
                 "-o", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["gen-circle", "--quad", "nan,2;1,2;2,3;2,1"],
    ["gen-circle", "--quad", "3,2;1,2;2,3;2,1", "--gamma", "nan"],
    ["gen-circle", "--quad", "3,2;1,2;2,3;2,1", "--gamma", "inf"],
    ["gen-shifted", "--c0", "3", "--n0", "1,1", "--gamma", "nan"],
])
def test_generators_reject_non_finite_numbers(tmp_path, capsys, args):
    out = tmp_path / "gen.json"
    assert main(["model", *args, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["gen-circle", "--quad", "3,2;1,2;2,3;2,1"],
    ["gen-shifted", "--c0", "3", "--n0", "1,1"],
])
def test_generators_reject_negative_gamma_as_physics(tmp_path, args):
    out = tmp_path / "gen.json"
    assert main(["model", *args, "--gamma", "-1", "-o", str(out)]) == 1
    assert not out.exists()


# -- solve ------------------------------------------------------------------------

SMALL_SOLVER = {
    "grid_n": 16,
    "alpha_schedule": [0.5, 0.25],
    "k_schedule": [4.0, 16.0],
    "tol_inner": 1e-8,
    "tol_outer": 1e-7,
}


def test_solve_zero_inflow(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                       SMALL_SOLVER)
    code = main(["solve", str(cfg)])
    assert code == 0
    outdir = tmp_path / "out"
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["mass"] == 0.0
    assert summary["mild_residual_untruncated"] == 0.0
    assert all(v == 0.0 for v in summary["renormalized_defects"].values())
    assert (outdir / "field_final.csv").exists()
    assert (outdir / "field_k4.csv").exists()
    assert (outdir / "report_k16.json").exists()


def test_solve_single_stage(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {"grid_n": 16, "alpha": 0.5, "k": 8.0})
    code = main(["solve", "--single-stage", str(cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mode"] == "single" and summary["converged"]


def test_solve_final_field_is_the_last_level_file(tmp_path, shifted_model_file):
    """`field_final.csv` is the last level's CSV byte for byte; its sidecar
    keeps the run's provenance without a k."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 2.0, 1.0, 0.5]}, SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 0
    outdir = tmp_path / "out"
    digest = {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
              for name in ("field_final.csv", "field_k16.csv")}
    assert digest["field_final.csv"] == digest["field_k16.csv"]
    meta = json.loads((outdir / "field_final.meta.json").read_text())
    assert sorted(meta) == ["domain", "grid", "hash", "model", "p"]


def test_solve_writes_strict_json_when_the_sweep_overflows(tmp_path, shifted_model_file):
    """An inflow of 1e300 with k up to 1e300 overflows and exits 3; every JSON
    artifact still parses as strict JSON, with null for each non-finite number.
    Five outer and inner steps reach the overflow as the defaults do."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1e300, 1.0, 1.0, 1.0]},
                       {"grid_n": 8, "k_schedule": [4, 1e300], "max_outer": 5,
                        "max_inner": 5})
    assert main(["solve", str(cfg)]) == 3       # with no RuntimeWarning

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert {"summary.json", "report_k1e+300.json"} <= {p.name for p in paths}
    reports = {p.name: json.loads(p.read_text(), parse_constant=refuse) for p in paths}
    assert reports["summary.json"]["mild_residual_untruncated"] is None


def test_solve_stops_an_overflowing_sweep_at_its_first_non_finite_change(tmp_path,
                                                                        shifted_model_file):
    """The overflowing sweep above, at the default max_outer and max_inner:
    each stage stops at its first non-finite change, so the run exits 3
    within a second, and no stage is reported as converged."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1e300, 1.0, 1.0, 1.0]},
                       {"grid_n": 8, "k_schedule": [4, 1e300]})
    t0 = time.perf_counter()
    assert main(["solve", str(cfg)]) == 3       # with no RuntimeWarning
    assert time.perf_counter() - t0 <= 1.0

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["converged"] is False
    report = json.loads((out / "report_k1e+300.json").read_text(), parse_constant=refuse)
    assert report["stage_terminations"] == ["not_finite", "not_finite"]


@pytest.mark.parametrize("h_s", [None, 1e-300, 1e-7])
@pytest.mark.parametrize("command", [["solve", "CFG"], ["sweep", "CFG"],
                                     ["diagnose", "--fields", "f.csv", "--config", "CFG"]])
def test_a_config_that_names_the_path_step_is_refused(tmp_path, shifted_model_file, capsys,
                                                      command, h_s):
    """Every ladder steps at h/2, so `h_s` is no solver option: a config that
    names it exits 2 with one line, before any table or output directory."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {"grid_n": 8, "k_schedule": [4], "h_s": h_s})
    assert main([str(cfg) if arg == "CFG" else arg for arg in command]) == 2
    assert capsys.readouterr().err == "error: unknown solver options: ['h_s']\n"
    assert not (tmp_path / "out").exists()


def test_solve_nonconvergence_exit_code(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {**SMALL_SOLVER, "max_outer": 1, "tol_outer": 1e-14})
    assert main(["solve", str(cfg)]) == 3


def test_solve_rejects_bad_config(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0]}, SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 2
    cfg2 = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                        {"not_an_option": 1}, name="c2.json")
    assert main(["solve", str(cfg2)]) == 2


@pytest.mark.parametrize("option", [
    {"grid_n": 2},                        # the grid needs at least 4 cells a side
    {"tol_inner": "x"},
    {"alpha_schedule": [0.25, 0.5]},      # must decrease toward 0
    {"mono_hard_tol": 1e-12},             # a removed option is an unknown one
    {"eps_geo_rel": 1e-6},
])
def test_sweep_rejects_invalid_solver_option(tmp_path, shifted_model_file, capsys, option):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                       {**SMALL_SOLVER, **option})
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert next(iter(option)) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option, value", [
    ("k_schedule", "48"), ("max_inner", 0), ("tol_outer", float("nan")),
    ("k_schedule", [16.0, 4.0]),
])
def test_sweep_refuses_an_option_with_the_solver_config_message(tmp_path, shifted_model_file,
                                                                capsys, option, value):
    """The CLI's exit-2 line is the message with which `SolverConfig`
    refuses to be made."""
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                       {**SMALL_SOLVER, option: value})
    assert main(["sweep", str(cfg)]) == 2
    with pytest.raises(SolverError) as want:
        SolverConfig(**{option: tuple(value) if isinstance(value, list) else value})
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0.0, -0.5, "0.5"])
@pytest.mark.parametrize("command", [["solve", "CFG"], ["sweep", "CFG"],
                                     ["diagnose", "--fields", "f.csv", "--config", "CFG"]])
def test_every_command_refuses_a_bad_alpha_with_the_solver_config_message(
        tmp_path, shifted_model_file, capsys, command, value):
    """A bad alpha is refused for every command, also one that runs only
    alpha_schedule, with exit 2 and the message of `SolverConfig.damping()`,
    before any output directory."""
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                       {**SMALL_SOLVER, "alpha": value})
    assert main([str(cfg) if arg == "CFG" else arg for arg in command]) == 2
    with pytest.raises(SolverError) as want:
        SolverConfig(alpha=value).damping()
    assert capsys.readouterr().err == f"error: {want.value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["solve"], ["solve", "--single-stage"]])
def test_solve_refuses_a_kernel_above_the_build_budget(tmp_path, shifted_model_file, capsys,
                                                       command):
    """On a disk of radius 1e-4 at grid_n 8, alpha = 0.5 spans 20,000 cells:
    the solve exits 2 with one line, no traceback and no artifact."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {"grid_n": 8, "alpha": 0.5, "alpha_schedule": [0.5, 0.25],
                        "k_schedule": [4.0]})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                               "domain": {"kind": "disk", "radius": 1e-4}}))
    assert main(command + [str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mollifier radius 0.5 spans") and err.count("\n") == 1
    assert list((tmp_path / "out").iterdir()) == []


def write_csv_boundary(tmp_path, values, extra_rows=()):
    path = tmp_path / "inflow.csv"
    rows = [f"{i + 1},{t},{values[i]}" for i in range(4) for t in (0.0, 3.0, 6.0)]
    path.write_text("component,t,value\n" + "\n".join(rows + list(extra_rows)) + "\n")
    return {"profile": "csv", "path": str(path)}


@pytest.mark.parametrize("boundary", [
    {"profile": "constant", "values": [1.0, -1.0, 1.0, 1.0]},
    {"profile": "constant", "values": [1.0, float("inf"), 1.0, 1.0]},
    {"profile": "maxwellian", "a": 0.0, "b": [0.0, 0.0], "c": 500.0},   # overflows to inf
    {"profile": "step", "inside": [1.0, 1.0, -2.0, 1.0]},
    "csv",
])
def test_solve_rejects_negative_or_infinite_inflow(tmp_path, shifted_model_file, capsys,
                                                   boundary):
    if boundary == "csv":
        boundary = write_csv_boundary(tmp_path, [1.0, 1.0, 1.0, -0.5])
    cfg = write_config(tmp_path, shifted_model_file, boundary, SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 2
    assert "finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("boundary, domain", [
    ({"profile": "zero"}, {"kind": "disk", "radius": "x"}),
    ({"profile": "zero"}, {"kind": "ellipse"}),             # no semi_axes
    ({"profile": "zero"}, {"kind": "disk", "radius": NAN}),
    ({"profile": "zero"}, {"kind": "disk", "radius": INF}),
    ({"profile": "zero"}, {"kind": "disk", "radius": 1e308}),   # box width overflows
    ({"profile": "zero"}, {"kind": "ellipse", "semi_axes": [1.0, NAN]}),
    ({"profile": "zero"}, {"kind": "disk", "center": [NAN, 0]}),
    ({"profile": "zero"}, {"kind": "disk", "center": [0, 0, 5]}),
    ({"profile": "zero"}, {"kind": "ellipse", "semi_axes": [1.0, 1e-9]}),  # no interior cell
    ({"profile": "zero"}, {"kind": "disk", "radius": 1e-320}),  # cell area underflows
    ({"profile": "zero"}, {"kind": "disk", "radius": 1e-155}),  # cell area is denormal
    ({"profile": "zero"}, {"kind": "disk", "radius": 1e160}),   # cell area overflows
    ({"profile": "zero"}, {"kind": "disk", "radius": 1e155}),   # x^2 overflows
    ({"profile": "zero"}, {"kind": "disk", "center": [0, 0], "semi_axes": [2.0, 2.0]}),
    ({"profile": "zero"}, {"kind": "disk", "radus": 2.0}),
    ({"profile": "zero"}, {"kind": "disk", "radius": 2.0, "exponent": 4.0}),
    ({"profile": "zero"}, {"kind": "ellipse", "semi_axes": [1.0, 2.0], "radius": 2.0}),
    ({"profile": "step", "t0": "x"}, None),
    ({"period": "x"}, None),                                 # csv profile
    ({"period": 0.0}, None),
    ({"row": "9,1.0,50.0"}, None),                           # component past p = 4
    ({"row": "2.7,1.0,80.0"}, None),                         # read as component 2 unchecked
    ({"row": "1,nan,1.0", "period": 6.0}, None),
], ids=["disk radius", "ellipse axes", "nan radius", "inf radius", "huge radius",
        "nan semi-axis", "nan center", "3-d center", "thin ellipse", "tiny disk",
        "denormal cell area", "huge cell area", "huge squares", "disk semi_axes", "disk radus",
        "disk exponent", "ellipse radius", "step t0",
        "csv period", "csv zero period", "csv component 9", "csv component 2.7",
        "csv nan t"])
def test_solve_rejects_malformed_domain_or_boundary(tmp_path, shifted_model_file, capsys,
                                                     boundary, domain):
    if "profile" not in boundary:
        extra = [boundary["row"]] if "row" in boundary else []
        boundary = {**write_csv_boundary(tmp_path, [1.0] * 4, extra),
                    **{key: val for key, val in boundary.items() if key != "row"}}
    cfg = write_config(tmp_path, shifted_model_file, boundary, SMALL_SOLVER)
    if domain is not None:
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "domain": domain}))
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("part, key, value", [
    ("solver", "alpha_schedule", "53"),
    ("solver", "alpha_schedule", [True, 0.25]),
    ("solver", "k_schedule", "48"),
    ("domain", "radius", "2"),
    ("domain", "center", ["0", "1"]),
    ("domain", "semi_axes", "12"),
    ("domain", "exponent", "4"),
    ("constant", "values", ["1", 1.0, 1.0, 1.0]),
    ("constant", "values", [True, 1.0, 1.0, 1.0]),
    ("maxwellian", "a", "0"),
    ("maxwellian", "b", ["0.1", 0.0]),
    ("maxwellian", "c", True),
    ("step", "t0", "0"),
    ("step", "t1", True),
    ("step", "inside", [1.0, "1", 1.0, 1.0]),
    ("csv", "period", "6"),
    ("solver", "k_schedule", 53),
    ("solver", "alpha_schedule", None),
])
def test_a_number_in_a_config_must_be_a_json_number(tmp_path, shifted_model_file, capsys,
                                                    part, key, value):
    """A string or a boolean where the config takes a number is refused with
    exit 2 and one line naming the key, never read through float()."""
    boundaries = {"constant": {"profile": "constant", "values": [1.0] * 4},
                  "maxwellian": {"profile": "maxwellian", "a": 0.0, "b": [0.1, -0.2], "c": 0.5},
                  "step": {"profile": "step", "t0": 1.0, "t1": 4.0},
                  "csv": write_csv_boundary(tmp_path, [1.0] * 4)}
    domains = {"exponent": {"kind": "superellipse", "semi_axes": [1.0, 1.0], "exponent": 4.0},
               "semi_axes": {"kind": "ellipse", "semi_axes": [1.0, 0.5]}}
    boundary = {**boundaries.get(part, {"profile": "zero"})}
    domain = {**domains.get(key, {"kind": "disk", "radius": 1.0})}
    solver = {**SMALL_SOLVER}
    {"solver": solver, "domain": domain}.get(part, boundary)[key] = value
    cfg = write_config(tmp_path, shifted_model_file, boundary, solver)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "domain": domain}))
    assert main(["solve", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, change, want", [
    ("solve", "{oops", "error: cannot parse config "),
    ("solve", "[1, 2]", "error: config must be a JSON object\n"),
    ("solve", {"model": 5}, "error: config.model must be a file path or an inline model\n"),
    ("solve", {"domain": [1.0]}, "error: config.domain must be an object\n"),
    ("solve", {"solver": [16]}, "error: config.solver must be an object\n"),
    ("solve", {"boundary": "zero"}, "error: config.boundary must be an object\n"),
    ("solve", {"boundary": {"profile": "maxwellian", "a": 0.0}},
     "error: maxwellian boundary needs a, b, c\n"),
    ("solve", {"boundary": {"profile": "csv"}}, "error: csv boundary needs a path\n"),
    ("solve", {"boundary": {"profile": "csv", "path": 5}},
     "error: csv boundary path must be a nonempty string, got 5\n"),
    ("solve", {"boundary": {"profile": "csv", "path": ["component,t,value", "1,0.0,1.0"]}},
     "error: csv boundary path must be a nonempty string, got ['component,t,value', "),
    ("solve", {"boundary": {"profile": "csv", "path": ""}},
     "error: csv boundary path must be a nonempty string, got ''\n"),
    ("solve", {"rows": ["1,x,1.0"]}, "error: cannot read csv boundary "),
    ("solve", {"rows": ["1,1.0,1.0", "2,1.0,1.0", "3,1.0,1.0"]},
     "error: csv boundary misses component 4\n"),
    ("solve", {"boundary": {"profile": "sawtooth"}},
     "error: unknown boundary profile 'sawtooth'\n"),
    ("diagnose", None, "error: missing metadata sidecar: "),
    ("diagnose", "x,y,value", "error: cannot read field CSV: unexpected field CSV header: "
                              "'x,y,value\\n'\n"),
], ids=["config not JSON", "config not an object", "bad model", "domain not an object",
        "solver not an object", "boundary not an object", "maxwellian without b, c",
        "csv without path", "csv path a number", "csv path a list", "csv path empty",
        "unreadable csv", "csv without component 4", "unknown profile",
        "no sidecar", "field CSV header"])
def test_every_refusal_of_a_run_config_is_one_line(tmp_path, shifted_model_file, capsys,
                                                    command, change, want):
    """Each refusal exits 2 with one stderr line that starts with `want`
    (is `want`, when it ends the line), and leaves no artifact."""
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, {"grid_n": 8})
    if command == "diagnose":
        argv = ["diagnose", "--fields", str(tmp_path / "f.csv"), "--config", str(cfg)]
        if change is not None:
            from dvmbvp.cli import load_run_config, run_hash
            model, domain, boundary, config, outdir, raw = load_run_config(cfg)
            (tmp_path / "f.csv").write_text(change + "\n")
            (tmp_path / "f.meta.json").write_text(json.dumps({"hash": run_hash(model, raw)}))
    else:
        argv = ["solve", str(cfg)]
        if isinstance(change, str):
            cfg.write_text(change)
        else:
            if "rows" in change:
                path = tmp_path / "inflow.csv"
                path.write_text("\n".join(["component,t,value", *change["rows"]]) + "\n")
                change = {"boundary": {"profile": "csv", "path": str(path)}}
            cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **change}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(want) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_solve_at_a_memory_limit_exits_2_with_one_line(tmp_path, shifted_model_file):
    """Under a 2 GiB address-space limit set on its own process, a solve at
    grid_n 20000 cannot allocate its grid: it exits 2 with one line naming
    the allocation, not a traceback, within 5 s."""
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, {"grid_n": 20000})
    limited = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31)); "
               "from dvmbvp.cli import main; sys.exit(main(sys.argv[1:]))")
    src = Path(dv.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
               [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]),
           "OPENBLAS_NUM_THREADS": "1"}      # the address space BLAS reserves per core
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", limited, "solve", str(cfg)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - t0 <= 5.0
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1


def test_a_memory_error_without_a_message_is_named(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError()
    monkeypatch.setattr("dvmbvp.cli.load_model", exhausted)
    assert main(["model", "check", str(tmp_path / "model.json")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


@pytest.mark.parametrize("boundary, domain", [
    ("csv", None),
    ("relative csv", None),
    ({"profile": "maxwellian", "a": 0.0, "b": [0.1, -0.2], "c": 0.5}, None),
    ({"profile": "step", "t0": 1.0, "t1": 4.0, "inside": [1.0, 0.5, 2.0, 0.0]}, None),
    ({"profile": "constant", "values": [1.0, 0.5, 2.0, 0.0]},
     {"kind": "superellipse", "center": [0.1, -0.2], "semi_axes": [1.2, 0.9], "exponent": 4.0}),
], ids=["csv", "relative csv", "maxwellian", "step", "superellipse"])
def test_solve_accepts_inflow_profile(tmp_path, shifted_model_file, monkeypatch, boundary,
                                      domain):
    """Every profile solves; a relative csv path is read next to the config,
    whatever the working directory."""
    if boundary == "relative csv":
        boundary = {**write_csv_boundary(tmp_path, [1.0, 0.5, 2.0, 0.0]), "path": "inflow.csv"}
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
    elif boundary == "csv":
        boundary = write_csv_boundary(tmp_path, [1.0, 0.5, 2.0, 0.0])
    cfg = write_config(tmp_path, shifted_model_file, boundary,
                       {"grid_n": 16, "alpha": 0.5, "k": 8.0})
    if domain is not None:
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "domain": domain}))
    assert main(["solve", "--single-stage", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert np.isfinite(summary["mass"]) and summary["mass"] > 0.0
    meta = json.loads((tmp_path / "out" / "field_single.meta.json").read_text())
    assert dv.ConvexDomain.from_spec(meta["domain"]) == dv.ConvexDomain.from_spec(
        json.loads(cfg.read_text())["domain"])


def test_sweep_with_an_infinite_final_residual_does_not_converge(tmp_path, shifted_model_file,
                                                                 capsys):
    """On a disk of radius 1e100 an 8-cell grid is far coarser than the damping
    length: every stage converges to the zero field, whose untruncated mild
    residual against the inflow is infinite, written as null in strict JSON."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {"grid_n": 8, "alpha_schedule": [0.5, 0.25], "k_schedule": [4.0]})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                               "domain": {"kind": "disk", "radius": 1e100}}))
    assert main(["sweep", str(cfg)]) == 3
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mild_residual_untruncated"] is None
    assert summary["converged"] is False


@pytest.mark.parametrize("command", [["solve"], ["solve", "--single-stage"], ["sweep"]])
def test_solve_rejects_output_dir_that_is_a_file(tmp_path, shifted_model_file, capsys,
                                                 command):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, SMALL_SOLVER)
    (tmp_path / "out").write_text("not a directory")
    assert main(command + [str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output_dir") and err.count("\n") == 1


def test_solve_rejects_non_string_output_dir(tmp_path, shifted_model_file, capsys):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, SMALL_SOLVER)
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "output_dir": 5}))
    assert main(["solve", str(cfg)]) == 2
    assert "output_dir" in capsys.readouterr().err


def test_sweep_reports_stage_terminations(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       {**SMALL_SOLVER, "alpha_schedule": [0.5, 0.25, 0.125]})
    assert main(["sweep", str(cfg)]) == 0
    # every level runs only the Richardson pair, later ones from the previous
    # level's field
    first = json.loads((tmp_path / "out" / "report_k4.json").read_text())
    assert first["alphas"] == [0.25, 0.125]
    assert first["stage_terminations"] == ["converged", "converged"]
    later = json.loads((tmp_path / "out" / "report_k16.json").read_text())
    assert later["alphas"] == [0.25, 0.125]
    assert later["stage_terminations"] == ["converged", "converged"]
    for report in (first, later):
        starts = report["ladder_starts"]
        assert set(starts) == {"zero", "certified", "fallback"}
        assert starts["zero"] >= len(report["alphas"])     # every stage's first ladder
        assert starts["certified"] > 0


def test_sweep_nested_at_32_writes_fields_that_diagnose_reads(tmp_path, shifted_model_file,
                                                              capsys):
    """At grid_n 32 the first level solves on 16^2 and the last on 32^2; each
    report names its solve grid, and every level's field is on the run grid."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "maxwellian", "a": 0.0, "b": [0.1, -0.2], "c": 0.05},
                       {**SMALL_SOLVER, "grid_n": 32})
    assert main(["sweep", str(cfg)]) == 0
    out = tmp_path / "out"
    assert [json.loads((out / f"report_k{k}.json").read_text())["solve_grid_n"]
            for k in (4, 16)] == [16, 32]
    for k in (4, 16):
        capsys.readouterr()
        assert main(["diagnose", "--fields", str(out / f"field_k{k}.csv"),
                     "--config", str(cfg)]) == 0


def test_sweep_on_a_domain_with_no_coarse_interior_cell(tmp_path, shifted_model_file):
    """An ellipse with semi-axes [1, 0.02] has interior cells at 32^2 but none
    at 16^2: every level solves on the run grid."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "maxwellian", "a": 0.0, "b": [0.1, -0.2], "c": 0.05},
                       {**SMALL_SOLVER, "grid_n": 32})
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                               "domain": {"kind": "ellipse", "semi_axes": [1.0, 0.02]}}))
    assert main(["sweep", str(cfg)]) == 0
    assert [json.loads((tmp_path / "out" / f"report_k{k}.json").read_text())["solve_grid_n"]
            for k in (4, 16)] == [32, 32]


def test_solve_rejects_uncertified_model(tmp_path, classical_model_file):
    cfg = write_config(tmp_path, classical_model_file, {"profile": "zero"},
                       SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 1


# -- diagnose ----------------------------------------------------------------------

def test_diagnose_roundtrip(tmp_path, shifted_model_file, broadwell, capsys):
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                       SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    field_csv = tmp_path / "out" / "field_final.csv"
    code = main(["diagnose", "--fields", str(field_csv), "--config", str(cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dissipation"] >= 0.0
    # round trip: the diagnosed mass matches the field written by solve
    grid = Grid(dv.ConvexDomain.disk(), 16)
    field = Field.load_csv(field_csv, grid, 4)
    assert report["mass"] == pytest.approx(field.mass(), rel=1e-12)


def test_diagnose_hash_mismatch(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"},
                       SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 0
    # change the grid in the config: provenance hash no longer matches
    other = json.loads(cfg.read_text())
    other["solver"]["grid_n"] = 24
    cfg2 = tmp_path / "other.json"
    cfg2.write_text(json.dumps(other))
    code = main(["diagnose", "--fields", str(tmp_path / "out" / "field_final.csv"),
                 "--config", str(cfg2)])
    assert code == 2


def test_diagnose_constant_field_hand_made(tmp_path, shifted_model_file, capsys):
    """Hand-made constant field: flux balance and zero dissipation."""
    cfg = write_config(tmp_path, shifted_model_file,
                       {"profile": "constant", "values": [2.0, 2.0, 2.0, 2.0]},
                       SMALL_SOLVER)
    from dvmbvp.cli import load_run_config, run_hash
    model, domain, boundary, config, outdir, raw = load_run_config(cfg)
    grid = Grid(domain, config.grid_n)
    field = Field.constant(grid, [2.0] * 4)
    outdir.mkdir(parents=True, exist_ok=True)
    field.save_csv(outdir / "hand.csv")
    meta = {"hash": run_hash(model, raw), "k": 16.0}
    (outdir / "hand.meta.json").write_text(json.dumps(meta))
    code = main(["diagnose", "--fields", str(outdir / "hand.csv"),
                 "--config", str(cfg)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["dissipation"] == 0.0
    assert np.allclose(report["inflow"], report["outflow"], rtol=1e-6)


def test_diagnose_rejects_output_dir_that_is_a_file(tmp_path, shifted_model_file, capsys):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, SMALL_SOLVER)
    assert main(["solve", str(cfg)]) == 0
    capsys.readouterr()
    other = json.loads(cfg.read_text())
    other["output_dir"] = str(tmp_path / "out" / "field_final.csv")
    cfg.write_text(json.dumps(other))
    code = main(["diagnose", "--fields", str(tmp_path / "out" / "field_final.csv"),
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output_dir") and err.count("\n") == 1


def test_diagnose_refuses_a_model_with_a_zero_velocity(tmp_path, capsys):
    """`diagnose` does not certify its model: a zero velocity, along which
    no characteristic reaches the boundary, exits 2 with one line."""
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps({"velocities": [[0.0, 0.0], [1.0, 0.0]], "rules": []}))
    cfg = write_config(tmp_path, model_file, {"profile": "zero"}, {"grid_n": 8})
    from dvmbvp.cli import load_run_config, run_hash
    model, domain, boundary, config, outdir, raw = load_run_config(cfg)
    outdir.mkdir(parents=True)
    Field.constant(Grid(domain, config.grid_n), [1.0, 1.0]).save_csv(outdir / "f.csv")
    (outdir / "f.meta.json").write_text(json.dumps({"hash": run_hash(model, raw)}))
    assert main(["diagnose", "--fields", str(outdir / "f.csv"), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: velocity (0.0, 0.0) must be finite and nonzero\n"
    assert not (outdir / "diagnostics.json").exists()


@pytest.mark.parametrize("sidecar", [
    lambda h: "{not json",
    lambda h: json.dumps([h, 16.0]),
    lambda h: json.dumps({"hash": h, "k": "abc"}),
    lambda h: json.dumps({"hash": h, "k": 0.5}),
    lambda h: '{"hash": "%s", "k": NaN}' % h,
], ids=["not-json", "list", "k-string", "k-below-1", "k-nan"])
def test_diagnose_rejects_malformed_sidecar(tmp_path, shifted_model_file, capsys, sidecar):
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, {"grid_n": 8})
    from dvmbvp.cli import load_run_config, run_hash
    model, domain, boundary, config, outdir, raw = load_run_config(cfg)
    outdir.mkdir(parents=True)
    Field.constant(Grid(domain, config.grid_n), [1.0] * 4).save_csv(outdir / "f.csv")
    (outdir / "f.meta.json").write_text(sidecar(run_hash(model, raw)))
    code = main(["diagnose", "--fields", str(outdir / "f.csv"), "--config", str(cfg)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (outdir / "diagnostics.json").exists()


@pytest.mark.parametrize("row", ["0.125,0.125,0,1.0", "-1.5,0.125,1,1.0", "0.125,0.125,1,-1.0",
                                 "half", "repeated"])
def test_diagnose_rejects_bad_field_rows(tmp_path, shifted_model_file, capsys, row):
    """Unchecked, component 0 and x = -1.5 would wrap to component 4 and
    column 6 at 8^2, a negative density would reach the collision operator,
    and a file with half the rows, or a row repeated with another density,
    would be diagnosed as another field."""
    cfg = write_config(tmp_path, shifted_model_file, {"profile": "zero"}, {"grid_n": 8})
    from dvmbvp.cli import load_run_config, run_hash
    model, domain, boundary, config, outdir, raw = load_run_config(cfg)
    outdir.mkdir(parents=True)
    Field.constant(Grid(domain, config.grid_n), [1.0, 2.0, 0.5, 1.5]).save_csv(outdir / "ok.csv")
    header, *rows = (outdir / "ok.csv").read_text().splitlines()
    if row == "half":
        rows = rows[:len(rows) // 2]
    elif row == "repeated":
        rows = rows + [rows[0].rsplit(",", 1)[0] + ",9.0"]
    else:
        rows = [row]
    (outdir / "bad.csv").write_text("\n".join([header] + rows) + "\n")
    (outdir / "bad.meta.json").write_text(json.dumps({"hash": run_hash(model, raw)}))
    code = main(["diagnose", "--fields", str(outdir / "bad.csv"), "--config", str(cfg)])
    assert code == 2
    assert "cannot read field CSV" in capsys.readouterr().err
    assert not (outdir / "diagnostics.json").exists()
