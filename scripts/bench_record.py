"""Write one benchmark record: this checkout (the change) against a parent.

    python3 scripts/bench_record.py SECTION [SECTION ...] --parent DIR [--label NAME]
        --what TEXT --out FILE [--seeds 0 23] [--pairs 10] [--seconds 10]

DIR is a checkout of the commit to compare with, for example one made with
`git archive`; the change is the checkout that holds this script.  Every
measurement runs in a fresh process; where both sides run, parent and change
alternate, and the first side of a pair alternates too.  The record is strict
JSON: the header `what`, `parent` (the label), `host` and `command`, then one
key per SECTION, in the order given.  The sections are the functions listed
in `SECTIONS`; each one's docstring says what it measures.

The per-process measurements the sections are built from, each printing one
JSON line, against the `dvmbvp` package under SRC:

    --one INFLOW N SRC [--save PATH]
        one default `k_sweep` (shifted Broadwell, unit disk) at N^2, INFLOW
        `maxwellian` (the acceptance oracle), `step` or `dense` (the
        Maxwellian with a = 2.5); `--save` stacks every level's estimate, the
        last one being the final field
    --layers SRC [--sizes N ...]
        per size and call of LAYER_CALLS, the median and first call times and
        the median minor page faults per call
    --faults WORKLOAD CHECKOUT
        minor page faults per operation of one `bench/run.py` run of CHECKOUT
    --mirror SRC [--sizes N ...]
        the x <-> y mirror gap of one stage solve per size (see MIRROR_WINDOWS)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WORKLOADS = ("sweep32_maxwellian", "stage64_step", "diagnose128")
MAXWELLIAN = (0.0, (0.1, -0.2), 0.05)        # the acceptance oracle's inflow
DENSE = (2.5, (0.1, -0.2), 0.05)             # the same Maxwellian, density x12
SWEEP_CASES = ([("maxwellian", n) for n in (32, 64, 128, 256)]
               + [("step", n) for n in (32, 64, 128)] + [("dense", 32)])
SWEEP_PAIRS = 3
FAULT_SECONDS = 8.0
CALL_ALPHAS = (0.0625, 0.125, 0.25, 0.5)
LAYER_SIZES = (32, 64, 128)
LAYER_SECONDS = 0.5           # each call repeats this long after its first, 5 times at least
LAYER_PROCESSES = 3
LAYER_CALLS = {
    "apply_exponential": "one transport pass: frequency uniform on [0, 3] and gain on "
                         "[0, 2] (seed = grid size), alpha = 0.25, constant entry values",
    "characteristic_balance": "one balance on the oracle Maxwellian times 1.01 with the "
                              "frequency and gain of k = 16",
    **{f"mollify_field_{alpha}": f"`mollify_field` at alpha = {alpha} on 4 components "
                                 "uniform on [0, 2] (seed = grid size)"
       for alpha in CALL_ALPHAS},
    "translation_modulus": "4 velocities x 4 shifts of `translation_modulus` on the "
                           "integrated frequency, as `diagnose128` calls it",
    "rays": "one velocity's `SolverWorkspace.rays` on a new workspace",
    "tables": "the four velocities' `SolverWorkspace.table` on a new workspace",
    **{name: f"`{name}` without a workspace while the transport's is alive, as "
             "`diagnose128` calls it on its field"
       for name in ("mass_energy_flux", "exceptional_sets")},
}
# Per component of shifted Broadwell, the arclength window (mod L) on which
# the mirror test's inflow is 2.0; it is 0.25 elsewhere.
MIRROR_WINDOWS = ((0.1, 2.0), (1.0, 3.5), (2.5, 5.0), (4.0, 0.5))
MIRROR_SIZES = (32, 64)


# ---------------------------------------------------------------------------
# per-process measurements
# ---------------------------------------------------------------------------

def inflow_boundary(dv, model, domain, inflow: str):
    """The boundary data of INFLOW `maxwellian`, `dense` or `step`; the step
    inflow is, per component i, 2 on half the boundary from i/p of a turn and
    0.25 elsewhere."""
    import numpy as np
    if inflow != "step":
        return dv.BoundaryData.maxwellian(model, *(DENSE if inflow == "dense" else MAXWELLIAN))
    length = dv.geometry.boundary_param(domain).total_length
    return dv.BoundaryData(tuple(
        dv.fields.CallableTrace(lambda t, s=i / model.p * length:
                                np.where(np.mod(t - s, length) < 0.5 * length, 2.0, 0.25))
        for i in range(model.p)))


def measure_sweep(inflow: str, n: int, src: str, save: str | None = None) -> dict:
    """One default k sweep in this process, set-up included in its wall time."""
    sys.path.insert(0, src)
    import numpy as np
    import dvmbvp as dv

    model, domain = dv.shifted_broadwell(), dv.ConvexDomain.disk()
    boundary = inflow_boundary(dv, model, domain, inflow)
    config = dv.SolverConfig(grid_n=n)
    t0 = time.perf_counter()
    sweep = dv.k_sweep(domain, model, boundary, config)
    wall = time.perf_counter() - t0
    sweeps, outer = {}, {}
    starts = dict.fromkeys(("zero", "certified", "fallback"), 0)
    for st in sweep.stages:
        key = str(st.continuation.last.grid.n)
        for tr in st.continuation.traces:
            outer[key] = outer.get(key, 0) + tr.iterations
            sweeps[key] = sweeps.get(key, 0) + sum(ch.iterations for ch in tr.children)
            for ch in tr.children:
                starts[ch.start] += 1
    out = {
        "inflow": inflow, "grid_n": n, "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged": sweep.converged,
        "alpha_stages": sum(len(st.continuation.traces) for st in sweep.stages),
        "transport_sweeps": sum(sweeps.values()), "outer_iterations": sum(outer.values()),
        "transport_sweeps_by_grid": sweeps, "outer_iterations_by_grid": outer,
        "ladder_starts": starts,
        "monotone_violations": sum(tr.monotone_violations for st in sweep.stages
                                   for tr in st.continuation.traces),
        "final_residuals": [st.continuation.final_residual for st in sweep.stages],
        "k_distances": sweep.k_distances,
        # every float of every level's diagnostics dict, written exactly (repr)
        "diagnostics_sha256": hashlib.sha256(
            json.dumps([st.diagnostics for st in sweep.stages]).encode()).hexdigest(),
    }
    if inflow != "step":
        a, b, c = DENSE if inflow == "dense" else MAXWELLIAN
        exact = dv.Field.constant(sweep.field.grid,
                                  np.exp(a + model.v @ np.array(b) + c * model.speeds_sq))
        out["oracle_rel_l1"] = sweep.field.l1_distance(exact) / exact.mass()
    if save:
        np.save(save, np.stack([st.continuation.estimate.values for st in sweep.stages]))
    return out


def per_call(call) -> dict:
    """Times `call`: one first call, then repeats until LAYER_SECONDS have
    passed since it and 5 calls at least.  The median and the first call
    time in ms, and the median minor page faults of a repeated call."""
    t0 = time.perf_counter()
    call()
    start = time.perf_counter()
    times, faults = [], []
    while len(times) < 5 or time.perf_counter() - start < LAYER_SECONDS:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t1 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t1)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return {"ms": 1e3 * statistics.median(times), "first_ms": 1e3 * (start - t0),
            "minor_faults": statistics.median(faults)}


def measure_layers(src: str, sizes) -> dict:
    """Per size, `per_call` of each call of LAYER_CALLS: shifted Broadwell on
    the unit disk; the transport and the balance share one workspace, whose
    tables are built before the first transport pass and whose rays by the
    first balance call; the translation moduli, `mass_energy_flux` and
    `exceptional_sets` read the field of `diagnose128` (seed 0, first level,
    k = 4), the moduli at shifts of diameter / (64, 32, 16, 8)."""
    sys.path[:0] = [src, str(Path(src).parent / "bench")]
    import numpy as np
    import dvmbvp as dv
    import workloads
    from dvmbvp.diagnostics import (characteristic_balance, collision_grids,
                                    exceptional_sets, integrated_collision_frequency,
                                    mass_energy_flux, translation_modulus)
    from dvmbvp.fields import mollify_field

    wl = workloads.WORKLOADS["diagnose128"]()
    disk, model, inputs = wl.domain, wl.model, wl.inputs(0)
    shifts = [disk.diameter / d for d in (64, 32, 16, 8)]
    boundary = dv.BoundaryData.maxwellian(model, *MAXWELLIAN)

    def workspace(grid):
        return dv.SolverWorkspace(disk, model, grid, dv.SolverConfig(grid_n=grid.n))

    out = {}
    for n in sizes:
        grid = dv.Grid(disk, n)
        ws = workspace(grid)
        rng = np.random.default_rng(n)
        nu_t = rng.uniform(0.0, 3.0, (model.p, grid.ny, grid.nx))
        gain_t = rng.uniform(0.0, 2.0, (model.p, grid.ny, grid.nx))
        entry = ws.entry_values(dv.BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
        near_eq = dv.Field.constant(grid, 1.01 * workloads.equilibrium(model, MAXWELLIAN))
        nu, gain = collision_grids(model, near_eq, k=16.0)
        noise = dv.Field(grid, np.random.default_rng(n).uniform(
            0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask)
        smooth, k = wl.field(grid, inputs, 0), workloads.K_LEVELS[0]
        intnu = integrated_collision_frequency(disk, model, smooth, k, workspace=ws)
        calls = {
            "apply_exponential": lambda: ws.apply_exponential(entry, nu_t, gain_t, 0.25),
            "characteristic_balance": lambda: characteristic_balance(
                disk, model, near_eq, boundary, 0.0, nu, gain, workspace=ws),
            **{f"mollify_field_{alpha}": lambda alpha=alpha: mollify_field(noise, alpha)
               for alpha in CALL_ALPHAS},
            "translation_modulus": lambda: [translation_modulus(intnu, grid, v, shifts)
                                            for v in model.v],
            "rays": lambda: workspace(grid).rays(0),
            "tables": lambda: [workspace(grid).table(i) for i in range(model.p)],
            "mass_energy_flux": lambda: mass_energy_flux(disk, model, smooth, inputs[0],
                                                         alpha=0.0, k=k),
            "exceptional_sets": lambda: exceptional_sets(disk, model, smooth, k, epsilon=0.1),
        }
        out[f"{n}^2"] = {name: per_call(calls[name]) for name in LAYER_CALLS}
    return out


def measure_mirror(src: str, sizes) -> dict:
    """Per size, how far one stage solve is from mirror-symmetric: shifted
    Broadwell on the unit disk, alpha = 0.125, k = 16, the MIRROR_WINDOWS
    inflow, raw and smoothed by `truncate_and_mollify_boundary(., 16)`.  The
    mirror (x, y) -> (y, x) swaps components 1 <-> 3 and 2 <-> 4 and maps the
    arclength t to L/4 - t; the mirrored problem's solve, transposed and
    swapped back, is compared with the first solve by relative L1.  Also the
    exterior cells whose nearest-interior continuation is not the mirror of
    their mirror cell's."""
    sys.path.insert(0, src)
    import numpy as np
    import dvmbvp as dv
    from dvmbvp.fields import truncate_and_mollify_boundary

    disk, model = dv.ConvexDomain.disk(), dv.shifted_broadwell()
    swap = [2, 3, 0, 1]
    assert np.array_equal(model.v[swap], model.v[:, ::-1])
    length = dv.geometry.boundary_param(disk).total_length

    def window(a, b, t):
        return np.where(np.mod(t - a, length) < np.mod(b - a, length), 2.0, 0.25)
    raw = dv.BoundaryData(tuple(dv.fields.CallableTrace(lambda t, w=w: window(*w, t))
                                for w in MIRROR_WINDOWS))
    mirrored = dv.BoundaryData(tuple(
        dv.fields.CallableTrace(lambda t, w=MIRROR_WINDOWS[j]: window(*w, 0.25 * length - t))
        for j in swap))
    out = {}
    for n in sizes:
        grid = dv.Grid(disk, n)
        assert grid.nx == grid.ny
        ws = dv.SolverWorkspace(disk, model, grid, dv.SolverConfig(grid_n=n))
        config = dv.SolverConfig(grid_n=n, alpha=0.125, k=16.0)
        gaps = {}
        for name, smooth in (("raw", False), ("smoothed", True)):
            F, G = (dv.outer_fixed_point(disk, model, truncate_and_mollify_boundary(
                        bd, 16.0, disk) if smooth else bd, config, workspace=ws)[0].values
                    for bd in (raw, mirrored))
            back = G[swap].transpose(0, 2, 1)
            gaps[name] = float(np.abs(F - back).sum() / np.abs(F).sum())
        pad = grid.pad_flat.reshape(n, n)
        src_y, src_x = np.divmod(pad, n)
        # the source of the mirror cell, mirrored back
        back_src = src_x.T * n + src_y.T
        exterior = ~grid.mask
        out[f"{n}^2"] = {"rel_l1_gap": gaps,
                         "exterior_cells": int(exterior.sum()),
                         "exterior_cells_not_equivariant":
                             int(np.count_nonzero((pad != back_src) & exterior))}
    return out


def measure_faults(workload: str, checkout: Path) -> dict:
    """One untraced `bench/run.py` measurement of `checkout` at seed 0, with
    the minor page faults of every operation counted around the workload's `op`."""
    sys.path[:0] = [str(checkout / "bench"), str(checkout / "src")]
    import run
    wl = run.import_workloads().WORKLOADS[workload]()
    faults, op = [], wl.op

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return op(*args)
        finally:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    wl.op = counted
    res = run.measure(wl, 0, FAULT_SECONDS)
    return {"ops": len(faults), "minor_faults_per_op_median": statistics.median(faults),
            "minor_faults_first_op": faults[0],
            "minor_faults_per_op_after_first": statistics.mean(faults[1:] or faults),
            "op_s": res["metrics"]["op_s"][0]}


# ---------------------------------------------------------------------------
# running the measurements
# ---------------------------------------------------------------------------

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_json(cmd, cwd=ROOT) -> tuple[dict, list]:
    """Run a command; the JSON object on its last output line, and the lines before."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def measure(*args) -> dict:
    """One per-process measurement of this script, in a fresh process."""
    return run_json([sys.executable, str(Path(__file__).resolve()), *map(str, args)])[0]


def checkout(side: str, parent: Path) -> Path:
    return parent if side == "parent" else ROOT


def alternating(pairs: int):
    """The sides of each pair in run order: the first side alternates."""
    for i in range(pairs):
        yield SIDES if i % 2 == 0 else SIDES[::-1]


def rel_l1(got, want) -> float:
    import numpy as np
    return float(np.abs(got - want).sum() / np.abs(want).sum())


def quartiles(xs) -> dict:
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "iqr": q[2] - q[0]}


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run: its four end-to-end metrics, its operation
    counts, and the oracle error and sweep counts it prints."""
    res, lines = run_json([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          root)
    out = {name: m["value"] for name, m in res["metrics"].items()}
    out.update(attempted=res["attempted"], failed=res["failed"])
    for line in lines:
        key, _, val = line.strip().partition(": ")
        if key in ("oracle_rel_l1", "transport_sweeps", "outer_iterations",
                   "monotone_violations"):
            out[key] = float(val)
    return out


def bench_pair_stats(parent: Path, workload: str, seed: int, pairs: int,
                     seconds: float) -> dict:
    runs = {side: [] for side in SIDES}
    for i, order in enumerate(alternating(pairs)):
        for side in order:
            runs[side].append(bench_run(checkout(side, parent), workload, seed, seconds))
            log(f"{workload} seed {seed} pair {i} {side}: op_s {runs[side][-1]['op_s']:.4f}")
    op = {side: [r["op_s"] for r in runs[side]] for side in SIDES}
    stats = {side: quartiles(op[side]) for side in SIDES}
    return {
        "runs": runs,
        "op_s": stats,
        "change_wins": sum(c < p for p, c in zip(op["parent"], op["change"])),
        "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
        "median_gap_over_parent_iqr":
            (stats["parent"]["median"] - stats["change"]["median"]) / stats["parent"]["iqr"],
        "metric_medians": {side: {m: statistics.median(r[m] for r in runs[side])
                                  for m in ("setup_s", "op_s", "peak_rss_mb", "mild_residual")}
                           for side in SIDES},
    }


# ---------------------------------------------------------------------------
# sections: each takes (parent checkout, scratch directory, parsed options)
# ---------------------------------------------------------------------------

def bench_pairs(parent: Path, tmp: str, args) -> dict:
    """Per workload of WORKLOADS and per `--seeds` seed, `--pairs` alternating
    pairs of `bench/run.py --seconds S`, each run in its own checkout: all
    four end-to-end metrics and the sweep counts, the op_s quartiles per side,
    the pairs the change won and the median gap over the parent's IQR."""
    return {w: {str(seed): bench_pair_stats(parent, w, seed, args.pairs, args.seconds)
                for seed in args.seeds}
            for w in WORKLOADS}


def sweeps(parent: Path, tmp: str, args) -> list:
    """Per case of SWEEP_CASES, SWEEP_PAIRS alternating pairs of `--one`: each
    run's counts, wall time, oracle error and residuals, the median wall times,
    whether the change's final field is bitwise the parent's, with its
    relative L1 distance from it, and whether every run's level diagnostics
    are bitwise the same."""
    import numpy as np
    out = []
    for inflow, n in SWEEP_CASES:
        runs = {side: [] for side in SIDES}
        for order in alternating(SWEEP_PAIRS):
            for side in order:
                runs[side].append(measure("--one", inflow, n, checkout(side, parent) / "src",
                                          "--save", f"{tmp}/{side}.npy"))
                log(f"sweep {inflow} {n} {side}: {runs[side][-1]['wall_s']:.2f} s, "
                    f"{runs[side][-1]['transport_sweeps']} sweeps")
        want, got = (np.load(f"{tmp}/{side}.npy")[-1] for side in SIDES)
        digests = {r["diagnostics_sha256"] for side in SIDES for r in runs[side]}
        wall = {side: statistics.median(r["wall_s"] for r in runs[side]) for side in SIDES}
        out.append({
            "inflow": inflow, "grid_n": n, "wall_s_median": wall,
            "speedup": wall["parent"] / wall["change"],
            "change_wins": sum(c["wall_s"] < p["wall_s"]
                               for p, c in zip(runs["parent"], runs["change"])),
            "final_field_bitwise_equal": bool(np.array_equal(want.view(np.int64),
                                                             got.view(np.int64))),
            "rel_l1_from_parent": rel_l1(got, want),
            "diagnostics_bitwise_equal": len(digests) == 1,
            "runs": runs,
        })
    return out


def page_faults(parent: Path, tmp: str, args) -> dict:
    """Per workload of WORKLOADS, one `--faults` measurement per side: minor
    page faults per operation (median, first, mean after the first) and op_s."""
    out = {}
    for w in WORKLOADS:
        out[w] = {side: measure("--faults", w, checkout(side, parent)) for side in SIDES}
        log(f"faults {w}: {out[w]['parent']['minor_faults_per_op_median']} -> "
            f"{out[w]['change']['minor_faults_per_op_median']} per op")
    return out


def layer_calls(parent: Path, tmp: str, args) -> dict:
    """LAYER_PROCESSES alternating `--layers` processes per side at
    LAYER_SIZES: per side, size and call of LAYER_CALLS, the median over the
    processes of each process's median call time, first call time and
    median minor page faults per call."""
    runs = {side: [] for side in SIDES}
    for order in alternating(LAYER_PROCESSES):
        for side in order:
            runs[side].append(measure("--layers", checkout(side, parent) / "src",
                                      "--sizes", *LAYER_SIZES))
            log(f"layers {side}: " + ", ".join(
                f"{size} {call} {r['ms']:.3g} ms" for size, by_call in runs[side][-1].items()
                for call, r in by_call.items()))

    def median(key):
        return {side: {size: {call: statistics.median(r[size][call][key] for r in runs[side])
                              for call in LAYER_CALLS} for size in runs[side][0]}
                for side in SIDES}
    return {"calls": LAYER_CALLS, "median_ms": median("ms"),
            "median_first_ms": median("first_ms"),
            "median_minor_faults": median("minor_faults"), "runs": runs}


def mirror(parent: Path, tmp: str, args) -> dict:
    """One `--mirror` process on the change at MIRROR_SIZES: per size, the
    relative L1 mirror gap of a stage solve on the raw and the smoothed
    inflow, and the exterior cells whose continuation is not mirror-equivariant."""
    out = measure("--mirror", ROOT / "src", "--sizes", *MIRROR_SIZES)
    for size, r in out.items():
        log(f"mirror {size}: gap {r['rel_l1_gap']}, {r['exterior_cells_not_equivariant']} "
            f"of {r['exterior_cells']} exterior cells not equivariant")
    return out


SECTIONS = {f.__name__: f for f in (bench_pairs, sweeps, page_faults, layer_calls, mirror)}


# ---------------------------------------------------------------------------
# the record
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("sections", nargs="*", metavar="SECTION",
                    help=f"one of {', '.join(SECTIONS)}")
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--label", default="parent")
    ap.add_argument("--what")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 23])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--one", nargs=3, metavar=("INFLOW", "N", "SRC"))
    ap.add_argument("--save")
    ap.add_argument("--sizes", type=int, nargs="+", default=list(LAYER_SIZES))
    ap.add_argument("--faults", nargs=2, metavar=("WORKLOAD", "CHECKOUT"))
    ap.add_argument("--mirror", metavar="SRC")
    ap.add_argument("--layers", metavar="SRC")
    args = ap.parse_args(argv)
    if args.one:
        inflow, n, src = args.one
        result = measure_sweep(inflow, int(n), src, args.save)
    elif args.mirror:
        result = measure_mirror(args.mirror, args.sizes)
    elif args.layers:
        result = measure_layers(args.layers, args.sizes)
    elif args.faults:
        result = measure_faults(args.faults[0], Path(args.faults[1]).resolve())
    else:
        return write_record(ap, args)
    print(json.dumps(result))
    return 0


def write_record(ap, args) -> int:
    if args.parent is None or args.what is None or args.out is None or not args.sections:
        ap.error("a record needs --parent, --what, --out and at least one SECTION")
    unknown = [name for name in args.sections if name not in SECTIONS]
    if unknown:
        ap.error(f"unknown section {unknown[0]!r}; choose from {', '.join(SECTIONS)}")
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2 for the quartiles, got {args.pairs}")
    import numpy
    command = ["python3", "scripts/bench_record.py", *args.sections,
               "--parent", f"<checkout of {args.label}>", "--label", args.label,
               "--what", args.what, "--out", str(args.out), "--seeds", *map(str, args.seeds),
               "--pairs", str(args.pairs), "--seconds", f"{args.seconds:g}"]
    record = {
        "what": args.what,
        "parent": args.label,
        "host": {"python": platform.python_version(), "numpy": numpy.__version__,
                 "cpus": os.cpu_count(), "machine": platform.machine()},
        "command": shlex.join(command),
    }
    parent = args.parent.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.sections:
            log(f"section {name}")
            record[name] = SECTIONS[name](parent, tmp, args)
    args.out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    log(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
