"""Record the FFT mollifier over a folded kernel against a checkout whose
`mollify_field` loops over the kernel offsets.

    python3 scripts/bench_mollifier.py --parent DIR [--label NAME]
        [--seeds 0 31] [--pairs 10] [--seconds 8] [--out BENCH_mollifier.json]

DIR is a checkout of the commit to compare with (for example made with
`git archive`); the change is the checkout that holds this script.  Every
measurement runs in a fresh process, parent and change alternating, and the
record is written as JSON:

- `bench_pairs`: per workload and seed, `--pairs` alternating pairs of
  `python3 bench/run.py --workload W --seed N --seconds S`, each run in its
  own checkout, with all four end-to-end metrics and the sweep counts.
- `calls`: the median time of one `mollify_field` call on a 4-component
  random field on the unit disk, for every (n, alpha) of `CALL_SIZES` x
  `CALL_ALPHAS`, and the largest difference of the change's output from the
  parent's, relative to the parent's largest value.
- `small_disks`: `dvmbvp solve` on disks of radius 0.01 and 1e-4 at
  grid_n 8 (constant inflow 1, alpha_schedule [0.5, 0.25], k_schedule [4]):
  exit code, wall time of the process and the last line of its stderr; a
  run still going after `SMALL_TIMEOUT` seconds is stopped and marked so.
- `sweeps`: the default `k_sweep` (shifted Broadwell, unit disk, acceptance
  Maxwellian inflow) at 64^2, 128^2 and 256^2, `SWEEP_PAIRS` alternating
  pairs each: wall time (set-up included), oracle error, final residual,
  transport sweeps, monotone violations, and the relative L1 distance of
  the change's final field from the parent's.

`--calls SRC [--sizes N ...] [--save PATH]` is the per-process call timing
the record is built from: it times the calls against the `dvmbvp` package
under SRC, prints one JSON line and, with `--save`, writes the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_nested_grids import bench_pairs, one  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep32_maxwellian", "stage64_step", "diagnose128")
CALL_SIZES = (32, 64, 128, 256)
CALL_ALPHAS = (0.0625, 0.125, 0.25, 0.5)
CALL_SECONDS = 0.3            # each (n, alpha) repeats its call for about this long
SMALL_RADII = (0.01, 1e-4)
SMALL_TIMEOUT = 30.0
SWEEP_SIZES = (64, 128, 256)
SWEEP_PAIRS = 3


def measure_calls(src: str, sizes, save: str | None) -> dict:
    """Median wall time of one `mollify_field` call per (n, alpha), in this
    process, against the package under `src`; the first call builds the
    kernel and is not timed."""
    sys.path.insert(0, src)
    import numpy as np
    import dvmbvp as dv
    from dvmbvp.fields import mollify_field

    out, outputs = [], {}
    for n in sizes:
        grid = dv.Grid(dv.ConvexDomain.disk(), n)
        values = np.random.default_rng(n).uniform(0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask
        field = dv.Field(grid, values)
        for alpha in CALL_ALPHAS:
            t0 = time.perf_counter()
            result = mollify_field(field, alpha).values
            first = time.perf_counter() - t0
            times = []
            while sum(times) + first < CALL_SECONDS and len(times) < 200:
                t0 = time.perf_counter()
                mollify_field(field, alpha)
                times.append(time.perf_counter() - t0)
            reach = int(alpha / grid.h)
            out.append({"grid_n": n, "alpha": alpha, "reach": reach,
                        "call_ms": 1e3 * statistics.median(times or [first]),
                        "first_call_ms": 1e3 * first, "calls": max(1, len(times))})
            outputs[f"{n}_{alpha}"] = result
    if save:
        np.savez(save, **outputs)
    return {"calls": out}


def calls(parent: Path, tmp: str) -> list:
    import numpy as np
    runs = {}
    for side, checkout in (("parent", parent), ("change", ROOT)):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--calls", str(checkout / "src"),
               "--save", f"{tmp}/{side}_calls.npz"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        runs[side] = json.loads(proc.stdout.strip().splitlines()[-1])["calls"]
        print(f"calls {side} done", file=sys.stderr, flush=True)
    want, got = np.load(f"{tmp}/parent_calls.npz"), np.load(f"{tmp}/change_calls.npz")
    out = []
    for p, c in zip(runs["parent"], runs["change"]):
        key = f"{p['grid_n']}_{p['alpha']}"
        out.append({"grid_n": p["grid_n"], "alpha": p["alpha"], "reach": p["reach"],
                    "call_ms": {"parent": p["call_ms"], "change": c["call_ms"]},
                    "speedup": p["call_ms"] / c["call_ms"],
                    "max_rel_diff": float(np.abs(got[key] - want[key]).max()
                                          / np.abs(want[key]).max()),
                    "change_min": float(got[key].min())})
    return out


def small_disks(parent: Path, tmp: str) -> list:
    import dvmbvp as dv   # the change's package, only to write the model file
    model_file = Path(tmp) / "model.json"
    dv.save_model(dv.shifted_broadwell(), model_file)
    out = []
    for radius in SMALL_RADII:
        runs = {}
        for side, checkout in (("parent", parent), ("change", ROOT)):
            cfg = Path(tmp) / f"small_{side}.json"
            cfg.write_text(json.dumps({
                "model": str(model_file), "domain": {"kind": "disk", "radius": radius},
                "boundary": {"profile": "constant", "values": [1.0, 1.0, 1.0, 1.0]},
                "solver": {"grid_n": 8, "alpha_schedule": [0.5, 0.25], "k_schedule": [4.0]},
                "output_dir": str(Path(tmp) / f"small_{side}_out")}))
            env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-m", "dvmbvp.cli", "solve", str(cfg)],
                                      capture_output=True, text=True, env=env,
                                      timeout=SMALL_TIMEOUT)
                runs[side] = {"exit_code": proc.returncode,
                              "stderr_last_line": (proc.stderr.strip().splitlines()
                                                   or [""])[-1]}
            except subprocess.TimeoutExpired:
                runs[side] = {"exit_code": None, "timed_out_after_s": SMALL_TIMEOUT}
            runs[side]["wall_s"] = time.perf_counter() - t0
            print(f"disk {radius} {side}: {runs[side]}", file=sys.stderr, flush=True)
        out.append({"radius": radius, "grid_n": 8, "runs": runs})
    return out


def sweeps(parent: Path, tmp: str) -> list:
    import numpy as np
    out = []
    for n in SWEEP_SIZES:
        runs = {"parent": [], "change": []}
        for i in range(SWEEP_PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                checkout = parent if side == "parent" else ROOT
                runs[side].append(one("maxwellian", n, checkout, save=f"{tmp}/{side}_{n}.npy"))
                print(f"sweep {n} {side}: {runs[side][-1]['wall_s']:.2f} s",
                      file=sys.stderr, flush=True)
        want, got = np.load(f"{tmp}/parent_{n}.npy"), np.load(f"{tmp}/change_{n}.npy")
        wall = {side: statistics.median(r["wall_s"] for r in runs[side]) for side in runs}
        out.append({
            "grid_n": n, "wall_s_median": wall, "speedup": wall["parent"] / wall["change"],
            "change_wins": sum(c["wall_s"] < p["wall_s"]
                               for p, c in zip(runs["parent"], runs["change"])),
            "final_field_bitwise_equal": bool(np.array_equal(want.view(np.int64),
                                                             got.view(np.int64))),
            "rel_l1_from_parent": float(np.abs(got - want).sum() / np.abs(want).sum()),
            "runs": runs,
        })
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 31])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_mollifier.json")
    ap.add_argument("--calls", metavar="SRC")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(CALL_SIZES))
    ap.add_argument("--save")
    args = ap.parse_args()
    if args.calls:
        print(json.dumps(measure_calls(args.calls, args.sizes, args.save)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    parent = args.parent.resolve()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    record = {
        "what": "mollify_field as one FFT product over a folded kernel, against a loop "
                "over the (2 floor(alpha / h) + 1)^2 kernel offsets",
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": (f"python3 scripts/bench_mollifier.py --parent <checkout of {args.label}> "
                    f"--label {args.label} --seeds {' '.join(map(str, args.seeds))} "
                    f"--pairs {args.pairs} --seconds {args.seconds:g}"),
    }
    with tempfile.TemporaryDirectory() as tmp:
        record["calls"] = calls(parent, tmp)
        record["small_disks"] = small_disks(parent, tmp)
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
