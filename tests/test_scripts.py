"""Smoke tests: the record harness's per-process measurements still run, a
whole record comes out as strict JSON, and every checked-in record keeps the
header the harness writes.

`scripts/bench_record.py` reaches the program by name: the fields of the
sweep's trace tree, the workspace's transport pass, rays and tables, the
diagnostics functions and the mollifier, the grid's continuation map, and
the benchmark's workloads and `run.measure`.  A rename in `src/` or `bench/`
can break it without failing any other test.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "scripts" / "bench_record.py"
HEADER = ("what", "parent", "host", "command")


def measure(*args) -> dict:
    proc = subprocess.run([sys.executable, str(HARNESS), *map(str, args)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def strict_json(path: Path):
    def refuse(constant):
        raise ValueError(f"{path.name}: {constant} is not strict JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_nested_grids_one_sweep(inflow):
    out = measure("--one", inflow, 16, ROOT / "src")
    assert out["converged"] and out["monotone_violations"] == 0


def test_coarse_tolerance_levels(tmp_path):
    """The sweep measurement reaches each stage's final residual and estimate
    and the sweep's k distances by name: four k levels, three distances
    between them."""
    out = measure("--one", "maxwellian", 32, ROOT / "src", "--save", tmp_path / "levels.npy")
    assert len(out["final_residuals"]) == 4 and len(out["k_distances"]) == 3


@pytest.fixture
def harness(monkeypatch):
    """The harness as a module in this process, with `sys.path` restored after."""
    spec = importlib.util.spec_from_file_location("bench_record", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    return module


def test_mollifier_calls(harness, monkeypatch):
    """The per-call timer reaches `mollify_field` by name: one entry per
    (n, alpha), each timed, and every output it timed is nonnegative."""
    import dvmbvp.fields
    seen = []

    def recorded(field, alpha):
        out = mollify_field(field, alpha)
        seen.append((field.grid.n, alpha, float(out.values.min())))
        return out

    mollify_field = dvmbvp.fields.mollify_field
    monkeypatch.setattr(dvmbvp.fields, "mollify_field", recorded)
    monkeypatch.setattr(harness, "LAYER_SECONDS", 0)
    out = harness.measure_layers(str(ROOT / "src"), [16, 32])
    names = [f"mollify_field_{a}" for a in (0.0625, 0.125, 0.25, 0.5)]
    for size in ("16^2", "32^2"):
        assert [k for k in out[size] if k.startswith("mollify_field")] == names
        assert all(out[size][k]["ms"] > 0 for k in names)
    assert {(n, a) for n, a, _ in seen} == {
        (n, a) for n in (16, 32) for a in (0.0625, 0.125, 0.25, 0.5)}
    assert all(m >= 0.0 for _, _, m in seen)


def test_balance_calls(harness, monkeypatch):
    """The per-call timer reaches `characteristic_balance` and its workspace
    keyword by name."""
    import dvmbvp.diagnostics
    workspaces = []

    def recorded(*args, workspace=None, **kwargs):
        workspaces.append(workspace)
        return balance(*args, workspace=workspace, **kwargs)

    balance = dvmbvp.diagnostics.characteristic_balance
    monkeypatch.setattr(dvmbvp.diagnostics, "characteristic_balance", recorded)
    monkeypatch.setattr(harness, "LAYER_SECONDS", 0)
    out = harness.measure_layers(str(ROOT / "src"), [16])
    assert out["16^2"]["characteristic_balance"]["ms"] > 0
    assert len(workspaces) >= 6 and all(w is not None for w in workspaces)


def test_layer_calls(harness, monkeypatch):
    """The one per-call timer reaches every call of LAYER_CALLS by name: the
    transport pass, the balance and its workspace keyword, the mollifier, the
    diagnose workload, the translation moduli, the rays, the tables, and
    `mass_energy_flux` and `exceptional_sets` without a workspace."""
    monkeypatch.setattr(harness, "LAYER_SECONDS", 0)
    out = harness.measure_layers(str(ROOT / "src"), [16])
    assert list(out) == ["16^2"] and list(out["16^2"]) == list(harness.LAYER_CALLS)
    for r in out["16^2"].values():
        assert r["ms"] > 0 and r["first_ms"] > 0 and r["minor_faults"] >= 0


def test_one_pair_is_refused_before_any_run(harness, monkeypatch, tmp_path, capsys):
    """`--pairs 1` leaves one run per side for the quartiles: the record is
    refused with exit code 2 when its options are read, before any run."""
    started = []
    monkeypatch.setattr(harness.subprocess, "run", lambda *a, **kw: started.append(a))
    out = tmp_path / "BENCH_one_pair.json"
    with pytest.raises(SystemExit) as refused:
        harness.main(["bench_pairs", "--parent", str(ROOT), "--what", "one pair",
                      "--out", str(out), "--pairs", "1"])
    assert refused.value.code == 2 and started == [] and not out.exists()
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_page_faults_of_one_run(harness, monkeypatch):
    """The fault count wraps a workload's `op` and runs `run.measure` by name:
    at least one counted operation and a positive op time."""
    monkeypatch.setattr(harness, "FAULT_SECONDS", 0)
    out = harness.measure_faults("stage64_step", ROOT)
    assert out["ops"] >= 1 and out["op_s"] > 0
    assert all(out[key] >= 0 for key in ("minor_faults_per_op_median", "minor_faults_first_op",
                                         "minor_faults_per_op_after_first"))


def test_bench_pair_statistics(harness, monkeypatch, tmp_path):
    """On canned runs, even pairs run the parent first and odd pairs the
    change first; the wins, the median ratio, the gap over the parent's IQR
    and the metric medians are those of the canned numbers."""
    op_s = {"parent": [1.0, 1.2, 1.1, 1.3], "change": [0.9, 1.25, 1.0, 1.1]}
    order = []

    def canned(root, workload, seed, seconds):
        side = "parent" if root == tmp_path else "change"
        order.append(side)
        op = op_s[side][order.count(side) - 1]
        return {"setup_s": op / 10, "op_s": op, "peak_rss_mb": 100.0, "mild_residual": 1e-3}

    monkeypatch.setattr(harness, "bench_run", canned)
    out = harness.bench_pair_stats(tmp_path, "stage64_step", 0, 4, 1.0)
    assert order == ["parent", "change", "change", "parent"] * 2
    assert [r["op_s"] for r in out["runs"]["change"]] == op_s["change"]
    assert out["change_wins"] == 3
    assert out["op_s"]["parent"] == pytest.approx(
        {"median": 1.15, "q1": 1.075, "q3": 1.225, "iqr": 0.15})
    assert out["median_ratio"] == pytest.approx(1.05 / 1.15)
    assert out["median_gap_over_parent_iqr"] == pytest.approx(0.1 / 0.15)
    assert out["metric_medians"]["change"] == pytest.approx(
        {"setup_s": 0.105, "op_s": 1.05, "peak_rss_mb": 100.0, "mild_residual": 1e-3})


def test_readme_lists_exactly_the_sections(harness):
    """README's sentence "The sections are ..." names SECTIONS, in order."""
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split("The sections are ")[1].split(".")[0]
    assert re.findall(r"`(\w+)`", sentence) == list(harness.SECTIONS)


def test_mirror_gap():
    """The mirror measurement reaches the stage solve, the boundary smoothing
    and the grid's continuation map by name: a small, positive gap on both
    inflows, and a count of exterior cells within their number."""
    [out] = measure("--mirror", ROOT / "src", "--sizes", 16).values()
    assert all(0.0 < gap < 0.1 for gap in out["rel_l1_gap"].values())
    assert set(out["rel_l1_gap"]) == {"raw", "smoothed"}
    assert 0 <= out["exterior_cells_not_equivariant"] <= out["exterior_cells"]


def test_record_against_itself(harness, tmp_path, monkeypatch):
    """A whole record, the repository as its own parent, on the smallest sweep
    case: strict JSON with the header, and a final field bitwise its own."""
    monkeypatch.setattr(harness, "SWEEP_CASES", harness.SWEEP_CASES[:1])
    monkeypatch.setattr(harness, "SWEEP_PAIRS", 1)
    out = tmp_path / "BENCH_self.json"
    assert harness.main(["sweeps", "--parent", str(ROOT), "--label", "self",
                         "--what", "the repository against itself", "--out", str(out)]) == 0
    record = strict_json(out)
    assert list(record)[:4] == list(HEADER) and record["parent"] == "self"
    [case] = record["sweeps"]
    assert case["final_field_bitwise_equal"] and case["rel_l1_from_parent"] == 0.0
    assert case["diagnostics_bitwise_equal"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_checked_in_records_keep_the_header(path):
    record = strict_json(path)
    assert all(key in record for key in HEADER)
