"""Record the k sweep that runs only the Richardson pair at every level, with
lean ladder passes, against a checkout whose first level runs the whole alpha
schedule.

    python3 scripts/bench_richardson_pairs.py --parent DIR [--label NAME]
        [--seeds 0 62] [--pairs 10] [--seconds 10] [--out BENCH_richardson_pairs.json]

DIR is a checkout of the commit to compare with (for example made with
`git archive`); the change is the checkout that holds this script.  Every
measurement runs in a fresh process and the record is written as JSON:

- `bench_pairs`: per workload and seed, `--pairs` alternating pairs of
  `python3 bench/run.py --workload W --seconds S`, parent and change each in
  its own checkout, with all four end-to-end metrics and the sweep counts;
  the first run of a pair alternates between parent and change.
- `sweeps`: the default `k_sweep` (shifted Broadwell, unit disk) at each of
  `SIZES` on the acceptance Maxwellian and on a step inflow, and at 32^2 on
  the dense Maxwellian (a = 2.5), once per side: alpha stages, outer
  iterations and transport sweeps per solve grid, ladder starts, monotone
  violations, wall time (set-up included), oracle error (Maxwellians), final
  residual, and whether the two final fields are bitwise equal.

Each sweep runs in its own process through `scripts/bench_nested_grids.py
--one`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_nested_grids import bench_pairs, one  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep32_maxwellian", "stage64_step", "diagnose128")
SIZES = (32, 64, 128)
CASES = [(inflow, n) for inflow in ("maxwellian", "step") for n in SIZES] + [("dense", 32)]


def sweeps(parent: Path, tmp: str) -> list:
    import numpy as np
    out = []
    for i, (inflow, n) in enumerate(CASES):
        runs = {}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side] = one(inflow, n, parent if side == "parent" else ROOT,
                             save=f"{tmp}/{side}.npy")
            runs[side]["transport_sweeps"] = sum(runs[side]["transport_sweeps_by_grid"].values())
            runs[side]["outer_iterations"] = sum(runs[side]["outer_iterations_by_grid"].values())
        want, got = np.load(f"{tmp}/parent.npy"), np.load(f"{tmp}/change.npy")
        bitwise = bool(np.array_equal(want.view(np.int64), got.view(np.int64)))
        print(f"{inflow} {n}: sweeps {runs['parent']['transport_sweeps']} -> "
              f"{runs['change']['transport_sweeps']}, bitwise {bitwise}",
              file=sys.stderr, flush=True)
        out.append({"inflow": inflow, "grid_n": n, "final_field_bitwise_equal": bitwise,
                    "rel_l1_from_parent": float(np.abs(got - want).sum() / np.abs(want).sum()),
                    "runs": runs})
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 62])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_richardson_pairs.json")
    args = ap.parse_args()
    parent = args.parent.resolve()
    import numpy
    record = {
        "what": "every k level runs only the last two alpha stages, and ladder passes "
                "write nu, the gain and their bookkeeping into per-ladder buffers, "
                "against a first level that runs the whole alpha schedule",
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": (f"python3 scripts/bench_richardson_pairs.py --parent <checkout of "
                    f"{args.label}> --label {args.label} --seeds "
                    f"{' '.join(map(str, args.seeds))} --pairs {args.pairs} "
                    f"--seconds {args.seconds:g}"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["sweeps"] = sweeps(parent, tmp)
    record["bench_pairs"] = {w: {str(seed): bench_pairs(parent, w, seed, args.pairs,
                                                        args.seconds)
                                 for seed in args.seeds}
                             for w in WORKLOADS}
    args.out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
