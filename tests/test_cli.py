"""Command-line contract tests: exit codes, artifacts, hash provenance."""

import json

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.cli import main
from dvmbvp.fields import Field, Grid
from dvmbvp.model import model_to_dict


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
    ({"profile": "step", "t0": "x"}, None),
    ({"period": "x"}, None),                                 # csv profile
    ({"period": 0.0}, None),
    ({"row": "9,1.0,50.0"}, None),                           # component past p = 4
    ({"row": "2.7,1.0,80.0"}, None),                         # read as component 2 unchecked
    ({"row": "1,nan,1.0", "period": 6.0}, None),
], ids=["disk radius", "ellipse axes", "nan radius", "inf radius", "huge radius",
        "nan semi-axis", "nan center", "3-d center", "thin ellipse", "step t0",
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


def test_solve_accepts_csv_inflow(tmp_path, shifted_model_file):
    cfg = write_config(tmp_path, shifted_model_file,
                       write_csv_boundary(tmp_path, [1.0, 0.5, 2.0, 0.0]),
                       {"grid_n": 16, "alpha": 0.5, "k": 8.0})
    assert main(["solve", "--single-stage", str(cfg)]) == 0


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
    first = json.loads((tmp_path / "out" / "report_k4.json").read_text())
    assert first["alphas"] == [0.5, 0.25, 0.125]
    assert first["stage_terminations"] == ["converged_warm_start", "converged",
                                           "converged"]
    # later levels run only the Richardson pair, from the previous level's field
    later = json.loads((tmp_path / "out" / "report_k16.json").read_text())
    assert later["alphas"] == [0.25, 0.125]
    assert later["stage_terminations"] == ["converged", "converged"]


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
