"""Time one transport sweep on seeded random inputs.

    python3 scripts/sweep_ms.py

For each grid size in SIZES: shifted Broadwell on the unit disk, frequency
uniform on [0, 3] and gain uniform on [0, 2] (seed = grid size), alpha = 0.25.
The characteristic tables are built by one untimed sweep; the script then
prints the median wall time (time.perf_counter) of CALLS calls of
`SolverWorkspace.apply_exponential`, in ms, as one JSON line.  The program
is imported from `src/` next to this script.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import dvmbvp as dv  # noqa: E402
from dvmbvp.fields import BoundaryData  # noqa: E402
from dvmbvp.solver import SolverConfig, SolverWorkspace  # noqa: E402

CALLS = 40
SIZES = (32, 64, 128)


def sweep_ms(n: int) -> float:
    disk, model = dv.ConvexDomain.disk(), dv.shifted_broadwell()
    grid = dv.Grid(disk, n)
    ws = SolverWorkspace(disk, model, grid, SolverConfig(grid_n=n))
    rng = np.random.default_rng(n)
    shape = (model.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape)
    gain = rng.uniform(0.0, 2.0, shape)
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    ws.apply_exponential(entry, nu, gain, 0.25)              # builds the tables
    times = []
    for _ in range(CALLS):
        t0 = time.perf_counter()
        ws.apply_exponential(entry, nu, gain, 0.25)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


if __name__ == "__main__":
    print(json.dumps({f"{n}^2": round(sweep_ms(n), 3) for n in SIZES}))
