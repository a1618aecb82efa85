"""Smoke tests: the record harness's per-process measurements still run, a
whole record comes out as strict JSON, and every checked-in record keeps the
header the harness writes.

`scripts/bench_record.py` reaches solver internals by name (trace fields,
module constants), so a rename in `src/` can break it without failing any
other test.
"""

import importlib.util
import json
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
    """The sweep measurement reaches the coarse workspace and each stage's
    estimate by name: four k levels, three distances between them."""
    out = measure("--one", "maxwellian", 32, ROOT / "src", "--save", tmp_path / "levels.npy")
    assert len(out["final_residuals"]) == 4 and len(out["k_distances"]) == 3


def test_mollifier_calls(tmp_path):
    """The per-call timing reaches `mollify_field` by name: one entry per
    (n, alpha), and the saved outputs are nonnegative."""
    import numpy as np
    out = measure("--calls", ROOT / "src", "--sizes", 16, 32,
                  "--save", tmp_path / "calls.npz")["calls"]
    assert [(c["grid_n"], c["alpha"]) for c in out] == [
        (n, a) for n in (16, 32) for a in (0.0625, 0.125, 0.25, 0.5)]
    assert all(c["call_ms"] > 0 for c in out)
    saved = np.load(tmp_path / "calls.npz")
    assert len(saved.files) == 8 and all(saved[k].min() >= 0.0 for k in saved.files)


def test_balance_calls():
    """The balance timing reaches `characteristic_balance` and its workspace
    keyword by name."""
    out = measure("--balance", ROOT / "src", "--sizes", 16)
    assert out["16^2"]["call_ms"] > 0


def test_layer_calls():
    """The per-layer timing reaches the diagnose workload, the translation
    moduli, the rays and the tables by name: every call of LAYER_CALLS timed."""
    out = measure("--layers", ROOT / "src", "--sizes", 16)
    assert set(out) == {"16^2"}
    assert set(out["16^2"]) == {"translation_modulus_ms", "rays_ms", "tables_ms"}
    assert all(ms > 0 for ms in out["16^2"].values())


def test_mirror_gap():
    """The mirror measurement reaches the stage solve, the boundary smoothing
    and the grid's continuation map by name: a small, positive gap on both
    inflows, and a count of exterior cells within their number."""
    [out] = measure("--mirror", ROOT / "src", "--sizes", 16).values()
    assert all(0.0 < gap < 0.1 for gap in out["rel_l1_gap"].values())
    assert set(out["rel_l1_gap"]) == {"raw", "smoothed"}
    assert 0 <= out["exterior_cells_not_equivariant"] <= out["exterior_cells"]


def test_record_against_itself(tmp_path, monkeypatch):
    """A whole record, the repository as its own parent, on the smallest sweep
    case: strict JSON with the header, and a final field bitwise its own."""
    spec = importlib.util.spec_from_file_location("bench_record", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
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
