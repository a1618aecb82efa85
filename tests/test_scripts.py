"""Smoke test: the record scripts' per-process measurements still run.

The scripts under `scripts/` reach solver internals by name (trace fields,
module constants), so a rename in `src/` can break them without failing any
other test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_nested_grids_one_sweep(inflow):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_nested_grids.py"),
                           "--one", inflow, "16", str(ROOT / "src")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["converged"] and out["monotone_violations"] == 0


def test_coarse_tolerance_levels(tmp_path):
    """The per-level measurement reaches the coarse workspace and each stage's
    estimate by name: four k levels, three distances between them."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_coarse_tolerances.py"),
                           "--levels", "maxwellian", "32", str(ROOT / "src"),
                           str(tmp_path / "levels.npy")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(out["final_residuals"]) == 4 and len(out["k_distances"]) == 3
