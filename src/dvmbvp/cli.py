"""Command-line interface: model tools, solve/sweep driver, diagnostics.

Exit codes are a stable contract: 0 success, 1 physics violation,
2 unreadable or invalid input, 3 solver non-convergence.  Commands raise on
bad input; `main` alone turns an exception into exit 2 or 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .fields import BoundaryData, Field, FieldError, Grid
from .geometry import ConvexDomain, GeometryError
from .model import (ModelError, StructuralError, VelocityModel, _numbers, certify_model,
                    classical_broadwell, generate_circle_model, generate_shifted_model,
                    is_real, load_model, model_from_dict, model_to_dict, save_model)
from .solver import (SolverConfig, SolverError, SolverWorkspace, k_sweep, outer_fixed_point,
                     residual_mild, residual_renormalized)

EXIT_OK = 0
EXIT_PHYSICS = 1
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


def _json(obj, **kwargs) -> str:
    """`json.dumps` with every non-finite float written as null, so that
    every report and artifact is strict JSON."""
    def finite(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: finite(val) for key, val in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(val) for val in x]
        return x
    return json.dumps(finite(obj), allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _number(x, what: str) -> float:
    """`x` as a float if it is one finite JSON number (`is_real`: not a
    string, not a bool), else StructuralError naming `what`."""
    if not is_real(x):
        raise StructuralError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def load_run_config(path):
    """Parse and validate a run configuration document.

    Returns (model, domain, boundary, SolverConfig, output_dir, raw_dict).
    Raises StructuralError on anything malformed; nothing invalid reaches
    the solver.
    """
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise StructuralError("config must be a JSON object")

    mspec = raw.get("model")
    if isinstance(mspec, str):
        model = load_model(Path(path).parent / mspec)
    elif isinstance(mspec, dict) and "velocities" in mspec:
        model = model_from_dict(mspec)
    else:
        raise StructuralError("config.model must be a file path or an inline model")

    dspec = raw.get("domain")
    if not isinstance(dspec, dict):
        raise StructuralError("config.domain must be an object")
    for key in ("radius", "exponent"):
        if key in dspec:
            _number(dspec[key], f"domain {key}")
    for key in ("semi_axes", "center"):
        if key in dspec:
            _numbers(dspec[key], 2, f"domain {key}")
    try:
        domain = ConvexDomain.from_spec(dspec)
    except (GeometryError, KeyError, TypeError, ValueError) as exc:
        raise StructuralError(f"bad domain: {exc}") from exc

    boundary = parse_boundary(raw.get("boundary"), model, Path(path).parent)

    sspec = raw.get("solver", {})
    if not isinstance(sspec, dict):
        raise StructuralError("config.solver must be an object")
    allowed = set(SolverConfig.__dataclass_fields__)
    unknown = set(sspec) - allowed
    if unknown:
        raise StructuralError(f"unknown solver options: {sorted(unknown)}")
    for key in ("alpha_schedule", "k_schedule"):
        # anything but a list of numbers stays as it is, for SolverConfig to refuse
        if isinstance(sspec.get(key), list) and all(map(is_real, sspec[key])):
            sspec[key] = tuple(float(x) for x in sspec[key])
    try:
        config = SolverConfig(**sspec)
        config.damping()             # the one rule a solve, not the config, checks
    except SolverError as exc:
        raise StructuralError(str(exc)) from exc

    outdir = raw.get("output_dir", "out")
    if not isinstance(outdir, str) or not outdir:
        raise StructuralError("output_dir must be a nonempty path")
    return model, domain, boundary, config, Path(outdir), raw


def _check_inflow(values, what: str) -> None:
    if not np.all((values >= 0) & (values < np.inf)):
        raise StructuralError(f"{what} must be finite and nonnegative")


def _levels(values, what: str, p: int) -> np.ndarray:
    """One finite, nonnegative inflow level per velocity, each a JSON number."""
    if not (isinstance(values, list) and all(map(is_real, values))):
        raise StructuralError(f"{what} must be finite and nonnegative numbers, got {values!r}")
    levels = np.asarray(values, dtype=float)
    if levels.shape != (p,):
        raise StructuralError(f"{what} needs one value per velocity")
    _check_inflow(levels, what)
    return levels


def parse_boundary(bspec, model: VelocityModel, directory: Path) -> BoundaryData:
    """Inflow traces of a config in `directory`, which a relative csv path is
    read from; every profile's values are checked to be finite and
    nonnegative before any solver runs."""
    if not isinstance(bspec, dict):
        raise StructuralError("config.boundary must be an object")
    profile = bspec.get("profile")
    if profile == "zero":
        return BoundaryData.zero(model.p)
    if profile == "constant":
        return BoundaryData.constant(_levels(bspec.get("values"), "constant boundary values",
                                             model.p))
    if profile == "maxwellian":
        if not {"a", "b", "c"} <= set(bspec):
            raise StructuralError("maxwellian boundary needs a, b, c")
        a = _number(bspec["a"], "maxwellian boundary a")
        b = np.asarray(_numbers(bspec["b"], 2, "maxwellian boundary b"), dtype=float)
        c = _number(bspec["c"], "maxwellian boundary c")
        with np.errstate(over="ignore"):
            bd = BoundaryData.maxwellian(model, a, b, c)
        _check_inflow(np.array([tr.value for tr in bd.traces]), "maxwellian boundary values")
        return bd
    if profile == "step":
        from .fields import CallableTrace
        t0 = _number(bspec.get("t0", 0.0), "step boundary t0")
        t1 = _number(bspec.get("t1", 1.0), "step boundary t1")
        inside = _levels(bspec.get("inside", [1.0] * model.p), "step boundary inside", model.p)
        outside = _levels(bspec.get("outside", [0.0] * model.p), "step boundary outside",
                          model.p)
        traces = tuple(
            CallableTrace(lambda t, hi=inside[i], lo=outside[i]:
                          np.where((t >= t0) & (t < t1), hi, lo))
            for i in range(model.p))
        return BoundaryData(traces)
    if profile == "csv":
        from .fields import SampledTrace
        path = bspec.get("path")
        if path is None:
            raise StructuralError("csv boundary needs a path")
        if not isinstance(path, str) or not path:
            raise StructuralError(f"csv boundary path must be a nonempty string, got {path!r}")
        path = directory / path
        try:
            with warnings.catch_warnings():     # a file without rows is refused below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise StructuralError(f"cannot read csv boundary {path}: {exc}") from exc
        if rows.shape[1] != 3:
            raise StructuralError("csv boundary rows must be component,t,value")
        named = np.isin(rows[:, 0], np.arange(1, model.p + 1))
        if not np.all(named):
            raise StructuralError(f"csv boundary component {float(rows[~named][0, 0])!r} is not "
                                  f"an integer in 1..{model.p}")
        if not np.all(np.isfinite(rows[:, 1])):
            raise StructuralError("csv boundary t must be finite")
        _check_inflow(rows[:, 2], "csv boundary values")
        period = (_number(bspec["period"], "csv boundary period") if "period" in bspec
                  else float(np.max(rows[:, 1])))
        if not 0 < period < np.inf:
            raise StructuralError("csv boundary period must be positive and finite")
        traces = []
        for i in range(model.p):
            sel = rows[rows[:, 0].astype(int) == i + 1]
            if len(sel) == 0:
                raise StructuralError(f"csv boundary misses component {i + 1}")
            order = np.argsort(sel[:, 1])
            traces.append(SampledTrace(sel[order, 1], sel[order, 2], period))
        return BoundaryData(tuple(traces))
    raise StructuralError(f"unknown boundary profile {profile!r}")


def run_hash(model: VelocityModel, raw_config: dict) -> str:
    blob = _json({"model": model_to_dict(model),
                       "domain": raw_config.get("domain"),
                       "solver": raw_config.get("solver", {})},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_model_check(args) -> int:
    model = load_model(args.path)
    cert = certify_model(model)
    report = {
        "p": model.p,
        "rules": len(model.rules),
        "valid_rules": cert.validation.valid,
        "violations": [f"{v.kind}: rule ({v.rule.i},{v.rule.j};{v.rule.l},{v.rule.m}) {v.detail}"
                       for v in cert.validation.violations],
        "flags": list(cert.validation.flags),
        "generic": cert.generic,
        "offending_pair": cert.offending_pair,
        "n0": None if cert.positive_direction is None else list(cert.positive_direction),
        "normal": None if cert.normality is None else cert.normality.normal,
        "d_inv": None if cert.normality is None else cert.normality.d_inv,
        "d_max": None if cert.normality is None else cert.normality.d_max,
        "certified": cert.certified,
    }
    if args.json:
        print(_json(report, indent=2))
    else:
        print(f"velocities: {model.p}, rules: {len(model.rules)}")
        for v in report["violations"]:
            print(f"  violation {v}")
        for f in report["flags"]:
            print(f"  flag {f}")
        print(f"generic: {report['generic']}"
              + (f" (parallel pair {report['offending_pair']})" if not report["generic"] else ""))
        print(f"positive direction: {report['n0']}")
        print(f"normal: {report['normal']} (d_inv={report['d_inv']}, d_max={report['d_max']})")
        print("certified" if report["certified"] else "NOT certified")
    return EXIT_OK if cert.certified else EXIT_PHYSICS


def cmd_model_gen_shifted(args) -> int:
    if args.base == "broadwell":
        gamma = 1.0 if args.gamma is None else args.gamma
        if not is_real(gamma):
            raise StructuralError(f"--gamma must be a finite number, got {gamma}")
        base_model = classical_broadwell(gamma)
    else:
        if args.gamma is not None:
            raise StructuralError("--gamma applies only to the broadwell base; "
                                  "a model file keeps its own rule gammas")
        base_model = load_model(args.base)
    base = [(w.vx, w.vy) for w in base_model.velocities]
    rules = [(r.i, r.j, r.l, r.m, r.gamma) for r in base_model.rules]
    try:
        n0 = np.array([float(x) for x in args.n0.split(",")])
    except ValueError:
        n0 = np.zeros(0)
    if n0.shape != (2,) or not np.all(np.isfinite(n0)) or not np.any(n0):
        raise StructuralError(f"--n0 must be two finite numbers x,y, not both zero; "
                              f"got {args.n0!r}")
    if not math.isfinite(args.c0):
        raise StructuralError(f"--c0 must be a finite number, got {args.c0}")
    model = generate_shifted_model(base, rules, args.c0, n0 / np.hypot(n0[0], n0[1]))
    save_model(model, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_model_gen_circle(args) -> int:
    def parse_point(s):
        try:
            x, y = s.split(",")
            return (float(x), float(y))
        except ValueError as exc:
            raise StructuralError(str(exc)) from exc

    quads = []
    for spec in args.quad:
        pts = [parse_point(p) for p in spec.split(";")]
        if len(pts) != 4:
            raise StructuralError(f"quadruple {spec!r} must have 4 points")
        if not all(is_real(c) for pt in pts for c in pt):
            raise StructuralError(f"quadruple {spec!r} must have finite coordinates")
        quads.append(pts)
    if not is_real(args.gamma):
        raise StructuralError(f"--gamma must be a finite number, got {args.gamma}")
    model = generate_circle_model(quads, args.gamma)
    save_model(model, args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _write_meta(path: Path, meta: dict) -> None:
    path.with_suffix(".meta.json").write_text(_json(meta, indent=2) + "\n")


def _write_field(field: Field, path: Path, meta: dict) -> None:
    field.save_csv(path)
    _write_meta(path, meta)


def _make_output_dir(outdir: Path) -> None:
    """Create `outdir`, or raise StructuralError with the reason in one line."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StructuralError(f"cannot create output_dir {str(outdir)!r}: "
                              f"{exc.strerror or exc}") from exc


def cmd_solve(args) -> int:
    model, domain, boundary, config, outdir, raw = load_run_config(args.config)
    grid = Grid(domain, config.grid_n)
    ws = SolverWorkspace(domain, model, grid, config)     # builds no table yet
    cert = certify_model(model)
    if not cert.certified:
        print("model failed certification; run `dvmbvp model check`", file=sys.stderr)
        return EXIT_PHYSICS
    _make_output_dir(outdir)
    rhash = run_hash(model, raw)
    meta_base = {
        "hash": rhash,
        "model": model_to_dict(model),
        "domain": domain.to_spec(),
        "grid": {"n": config.grid_n, "h": grid.h, "nx": grid.nx, "ny": grid.ny},
        "p": model.p,
    }

    if args.single_stage:
        field, trace = outer_fixed_point(domain, model, boundary, config, workspace=ws)
        _write_field(field, outdir / "field_single.csv", meta_base)
        summary = {
            "hash": rhash, "mode": "single", "alpha": config.alpha, "k": config.k,
            "converged": trace.converged, "termination": trace.termination,
            "outer_iterations": trace.iterations, "mass": field.mass(),
            "damped_mild_residual": trace.residual,
        }
        text = _json(summary, indent=2)
        (outdir / "summary.json").write_text(text)
        print(text)
        return EXIT_OK if trace.converged else EXIT_CONVERGENCE

    sweep = k_sweep(domain, model, boundary, config, workspace=ws)
    for stage in sweep.stages:
        tag = f"k{stage.k:g}"
        starts = [ch.start for t in stage.continuation.traces for ch in t.children]
        _write_field(stage.continuation.estimate, outdir / f"field_{tag}.csv",
                     {**meta_base, "k": stage.k})
        report = {"hash": rhash, **stage.diagnostics,
                  "cauchy_distances": stage.continuation.cauchy_distances,
                  "alpha_converged": stage.continuation.converged,
                  "alphas": stage.continuation.alphas,
                  "stage_terminations": [t.termination
                                         for t in stage.continuation.traces],
                  "final_residual": stage.continuation.final_residual,
                  # the grid that final_residual and the terminations describe
                  "solve_grid_n": stage.continuation.last.grid.n,
                  # where the inner ladders of those stages started
                  "ladder_starts": {s: starts.count(s)
                                    for s in ("zero", "certified", "fallback")},
                  "warnings": stage.continuation.warnings}
        (outdir / f"report_{tag}.json").write_text(_json(report, indent=2))
    final = sweep.field            # the last level's estimate, written just above
    shutil.copyfile(outdir / f"field_k{sweep.stages[-1].k:g}.csv", outdir / "field_final.csv")
    _write_meta(outdir / "field_final.csv", meta_base)
    mild = residual_mild(domain, model, boundary, final, k=None, workspace=ws)
    renorm = residual_renormalized(domain, model, boundary, final, workspace=ws)
    # a stage converges on its damped residual; the untruncated one must be finite too
    converged = sweep.converged and math.isfinite(mild.total_relative)
    summary = {
        "hash": rhash,
        "mode": "sweep",
        "k_schedule": list(config.k_schedule),
        "alpha_schedule": list(config.alpha_schedule),
        "converged": converged,
        "mass": final.mass(),
        "k_distances": sweep.k_distances,
        "mild_residual_untruncated": mild.total_relative,
        "renormalized_defects": {d.name: d.total for d in renorm},
        "soft_check_warnings": diag.sweep_soft_checks(
            [s.diagnostics for s in sweep.stages if s.diagnostics]),
    }
    text = _json(summary, indent=2)
    (outdir / "summary.json").write_text(text)
    print(text)
    return EXIT_OK if converged else EXIT_CONVERGENCE


@np.errstate(over="ignore", invalid="ignore")      # an overflowing measure is inf or nan
def cmd_diagnose(args) -> int:
    model, domain, boundary, config, outdir, raw = load_run_config(args.config)
    grid = Grid(domain, config.grid_n)
    ws = SolverWorkspace(domain, model, grid, config)     # builds no table yet
    field_path = Path(args.fields)
    meta_path = field_path.with_suffix(".meta.json")
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"missing metadata sidecar: {exc}") from exc
    except ValueError as exc:
        raise StructuralError(f"metadata sidecar {meta_path} is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise StructuralError(f"metadata sidecar {meta_path} must hold a JSON object")
    rhash = run_hash(model, raw)
    if meta.get("hash") != rhash:
        raise StructuralError(f"field artifact hash {meta.get('hash')} does not match "
                              f"config hash {rhash}")
    k = meta.get("k", config.k)
    if not (is_real(k) and k > 1):
        raise StructuralError(f"metadata sidecar k must be a finite number above 1, got {k!r}")
    k = float(k)
    try:
        field = Field.load_csv(field_path, grid, model.p)
    except Exception as exc:
        raise StructuralError(f"cannot read field CSV: {exc}") from exc
    _make_output_dir(outdir)

    rep = diag.mass_energy_flux(domain, model, field, boundary, alpha=0.0, k=k, workspace=ws)
    diss = diag.entropy_dissipation(model, field, k)
    ent = diag.entropy_bound_check(domain, model, field, k)
    exc_sets = diag.exceptional_sets(domain, model, field, k, epsilon=0.1, workspace=ws)
    shifts = [domain.diameter / d for d in (64, 32, 16, 8)]
    intnu = diag.integrated_collision_frequency(domain, model, field, k, workspace=ws)
    moduli = {
        f"v{i + 1}": diag.translation_modulus(intnu, grid, model.v[i], shifts).tolist()
        for i in range(model.p)
    }
    report = {
        "hash": rhash,
        "k": k,
        **diag.field_report(model, rep.balance, diss, ent),
        "balance_defect": rep.balance.defect,
        "slab_defects": [r.defect for r in rep.slab_rows],
        "exceptional_measures": exc_sets.measure.tolist(),
        "exceptional_bound_violations": exc_sets.bound_violations,
        "moduli_shifts": shifts,
        "moduli": moduli,
    }
    text = _json(report, indent=2)
    (outdir / "diagnostics.json").write_text(text)
    lines = [f"{key}: {val}" for key, val in report.items() if key != "moduli"]
    with open(outdir / "diagnostics.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(outdir / "moduli.csv", "w") as fh:
        fh.write("direction,component,shift,modulus\n")
        for name, rows in moduli.items():
            for ci, row in enumerate(np.atleast_2d(rows)):
                for s, mval in zip(shifts, row):
                    fh.write(f"{name},{ci + 1},{s!r},{mval!r}\n")
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dvmbvp",
        description="Stationary discrete-velocity kinetic boundary-value solver")
    sub = ap.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("model", help="model file tools")
    msub = pm.add_subparsers(dest="model_command", required=True)
    pc = msub.add_parser("check", help="validate and certify a model file")
    pc.add_argument("path")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_model_check)
    pg = msub.add_parser("gen-shifted", help="generate a shifted model")
    pg.add_argument("--base", default="broadwell",
                    help="base model file, or 'broadwell' for the orthogonal-pair model")
    pg.add_argument("--c0", type=float, required=True)
    pg.add_argument("--n0", required=True, help="direction as 'x,y'")
    pg.add_argument("--gamma", type=float, default=None,
                    help="rule gamma of the broadwell base (default 1.0); "
                         "refused with a model file base")
    pg.add_argument("-o", "--output", required=True)
    pg.set_defaults(fn=cmd_model_gen_shifted)
    pq = msub.add_parser("gen-circle", help="generate a model from point quadruples")
    pq.add_argument("--quad", action="append", required=True,
                    help="four points 'x,y;x,y;x,y;x,y' (repeatable)")
    pq.add_argument("--gamma", type=float, default=1.0)
    pq.add_argument("-o", "--output", required=True)
    pq.set_defaults(fn=cmd_model_gen_circle)

    ps = sub.add_parser("solve", help="run the full sweep (or one stage); every k level "
                                      "runs the last two alpha_schedule stages")
    ps.add_argument("config")
    ps.add_argument("--single-stage", action="store_true",
                    help="solve only the configured (alpha, k) stage")
    ps.set_defaults(fn=cmd_solve)

    pw = sub.add_parser("sweep", help="run the truncation sweep with per-level artifacts; "
                                      "every k level runs the last two alpha_schedule stages")
    pw.add_argument("config")
    pw.set_defaults(fn=cmd_solve, single_stage=False)

    pd = sub.add_parser("diagnose", help="measure a field artifact")
    pd.add_argument("--fields", required=True, help="field CSV written by solve")
    pd.add_argument("--config", required=True)
    pd.set_defaults(fn=cmd_diagnose)
    return ap


def main(argv=None) -> int:
    """Run one command; the one place that maps an exception to an exit code:
    bad input or a resource limit exits 2, a model the physics refuses 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, MemoryError, StructuralError, FieldError, GeometryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT
    except ModelError as exc:           # after StructuralError, its subclass
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    sys.exit(main())
