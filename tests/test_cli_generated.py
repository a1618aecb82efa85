"""Generated run configs keep the CLI exit-code contract.

Each example writes a model file, an inflow CSV where the profile asks for
one, and a run config, then runs `dvmbvp solve` (or `sweep`, or `solve
--single-stage`) in-process at grid_n <= 12, and `dvmbvp diagnose` on the
field that the run wrote, if any.  Domains span sizes from
1e-300 to 1e300, every inflow profile and solver option takes edge values,
and the models include velocities off the lattice.  Iteration counts stay at
most 3 whenever a tolerance is below what a solve can reach, so that every
example runs in milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dvmbvp as dv
from dvmbvp.cli import main
from dvmbvp.model import model_to_dict

SIZES = [1e-300, 1e-150, 1e-8, 0.05, 1.0, 2.5, 1e8, 1e150, 1e300]
COORDS = [-1e300, -1.0, 0.0, 0.5, 1e300]
LEVELS = [0.0, 5e-324, 1e-300, 1.0, 7.5, 1e300]


def rotated(model, angle, scale):
    """`model` with every velocity, and its positive direction, turned by
    `angle` and its speeds scaled by `scale`: off the lattice for most angles."""
    c, s = math.cos(angle), math.sin(angle)
    data = model_to_dict(model)
    data["velocities"] = [[scale * (c * x - s * y), scale * (s * x + c * y)]
                          for x, y in data["velocities"]]
    if data["n0"] is not None:
        x, y = data["n0"]
        data["n0"] = [c * x - s * y, s * x + c * y]
    return data


CIRCLE = dv.generate_circle_model([[(3, 2), (1, 2), (2, 3), (2, 1)],
                                   [(2, 3), (4, 1), (4, 3), (2, 1)]], [1.0, 1.0])
BAD_MODELS = [{"velocities": []}, {"velocities": [[1.0, 2.0], [1.0, 2.0]]},
              {"velocities": [[1.0, 0.0]], "rules": [[1, 1, 1, 1, -1.0]]},
              {"velocities": [[1.0, 0.0]], "n0": [0.0, 0.0]}, [1, 2]]


@st.composite
def model_files(draw, bad):
    """A model file's JSON: a lattice model, the same turned off the lattice
    and scaled, velocities without rules, or (when `bad`) a malformed one."""
    kind = draw(st.sampled_from(["as is", "rotated", "no rules"] + ["malformed"] * bad))
    if kind in ("as is", "rotated"):
        base = draw(st.sampled_from([dv.shifted_broadwell(), dv.classical_broadwell(), CIRCLE]))
        if kind == "as is":
            return model_to_dict(base)
        return rotated(base, draw(st.sampled_from([0.3, math.pi / 7, 1e-12, math.pi / 2])),
                       draw(st.sampled_from([1e-300, 1e-6, 1.0, 3.0, 1e150])))
    if kind == "no rules":
        p = draw(st.integers(1, 4))
        vels = draw(st.lists(st.tuples(st.sampled_from([-2.0, -0.7, 0.0, 0.3, 1.0, 2.0]),
                                       st.sampled_from([-1.5, 0.0, 0.4, 1.0, 2.0])),
                             min_size=p, max_size=p))
        return {"velocities": [list(v) for v in vels], "rules": []}
    return draw(st.sampled_from(BAD_MODELS))


def domains(bad):
    center = st.one_of(st.none(), st.just([0.5, -0.25]),
                       st.lists(st.sampled_from(COORDS), min_size=2, max_size=2))
    size = st.one_of(st.sampled_from(SIZES + [0.0, -1.0] * bad), st.floats(0.1, 10.0))
    pair = st.lists(size, min_size=2, max_size=2)
    spec = st.one_of(
        st.fixed_dictionaries({"kind": st.just("disk"), "radius": size}),
        st.fixed_dictionaries({"kind": st.just("ellipse"), "semi_axes": pair}),
        st.fixed_dictionaries({"kind": st.just("superellipse"), "semi_axes": pair,
                               "exponent": st.sampled_from([1.0 + 1e-9, 2.0, 3.5, 8.0]
                                                           + [1.0, 8.5] * bad)}),
    )
    return st.tuples(spec, center).map(
        lambda sc: sc[0] if sc[1] is None else {**sc[0], "center": sc[1]})


def boundaries(p, bad):
    """Every inflow profile; a csv profile's rows go to a file.  Only `bad`
    draws take negative levels, rows that name no component, non-finite
    times or periods, and unknown profiles."""
    level = st.sampled_from(LEVELS + [-1.0] * bad)
    levels = st.lists(level, min_size=p, max_size=p)
    times = [0.0, 0.25, 3.0, 6.5, 1e300] + [-1.0, math.nan] * bad
    rows = st.lists(level, min_size=p, max_size=p).map(
        lambda vals: [(i + 1, 0.5 * i, v) for i, v in enumerate(vals)])
    if bad:
        rows = st.one_of(rows, st.lists(st.tuples(st.sampled_from([1, 2, p, p + 1, 0, 1.5]),
                                                  st.sampled_from(times), level), max_size=6))
    csv = st.fixed_dictionaries(
        {"profile": st.just("csv"), "rows": rows},
        optional={"period": st.sampled_from([1e-300, 1.0, 6.5, 1e300] + [0.0, -1.0] * bad)})
    profiles = [
        st.just({"profile": "zero"}),
        st.fixed_dictionaries({"profile": st.just("constant"), "values": levels}),
        st.fixed_dictionaries({"profile": st.just("maxwellian"),
                               "a": st.sampled_from([-700.0, 0.0, 1.0, 700.0]
                                                    + [1e300] * bad),
                               "b": st.lists(st.sampled_from([-1.0, 0.0, 0.1, 50.0]),
                                             min_size=2, max_size=2),
                               "c": st.sampled_from([-1.0, -0.05, 0.0, 0.05])}),
        st.fixed_dictionaries({"profile": st.just("step")},
                              optional={"t0": st.sampled_from(times), "t1": st.sampled_from(times),
                                        "inside": levels, "outside": levels}),
        csv,
    ]
    return st.one_of(*profiles, *[st.just({"profile": "sawtooth"})] * bad)


TINY_TOLS = [5e-324, 1e-300, 1e-16]
SOLVER_VALUES = {       # (valid, invalid) values of every solver option
    "alpha": ([5e-324, 1e-300, 0.015625, 0.5, 3.0], [1e300, 0.0, -1.0, True, "0.5", None]),
    "k": ([1.0000000000000002, 4.0, 1e300], [1.0, 0.5, "4"]),
    "grid_n": ([4, 5, 8, 12], [3, 12.0, True, -4]),
    "tol_inner": (TINY_TOLS + [1e-9, 1.0, 1e300], [0.0, -1e-9]),
    "tol_outer": (TINY_TOLS + [1e-8, 1.0, 1e300], [0.0, math.inf]),
    "max_inner": ([1, 2, 3], [0, -1, 1.5, True, "3"]),
    "max_outer": ([1, 2, 3], [0, -1, 1.5, True, None]),
    "alpha_schedule": ([[0.5, 0.25], [0.03125, 0.015625], [5e-324], [1e-300, 5e-324]],
                       [[1e300], [0.25, 0.5], [], "53", [0.5, True], 53, None]),
    "k_schedule": ([[4.0], [1.0000000000000002, 1e300], [4, 16], [1e300]],
                   [[], [0.5], [16, 4], [4.0, math.nan], 53, None]),
    "h_s": ([], [0.1]),
}


@st.composite
def solver_options(draw, bad):
    keys = draw(st.sets(st.sampled_from([key for key, (good, _) in SOLVER_VALUES.items()
                                         if good or bad]), max_size=5))
    # sorted: a set of strings iterates in an order that changes per process
    opts = {key: draw(st.sampled_from(SOLVER_VALUES[key][0] + SOLVER_VALUES[key][1] * bad))
            for key in sorted(keys)}
    # a solve that cannot reach its tolerance runs to its iteration caps
    if any(opts.get(key) in TINY_TOLS for key in ("tol_inner", "tol_outer")):
        for key in ("max_inner", "max_outer"):
            if opts.get(key) not in (1, 2, 3):
                opts[key] = draw(st.sampled_from([1, 2, 3]))
    opts.setdefault("grid_n", draw(st.sampled_from([4, 8, 12])))
    return opts


@st.composite
def run_configs(draw):
    """A run config with at most one part, drawn at random, that may be bad."""
    bad = draw(st.sampled_from([None, None, "model", "domain", "boundary", "solver"]))
    model = draw(model_files(bad == "model"))
    p = len(model["velocities"]) if isinstance(model, dict) else 1
    return {"model": model, "domain": draw(domains(bad == "domain")),
            "boundary": draw(boundaries(max(p, 1), bad == "boundary")),
            "solver": draw(solver_options(bad == "solver"))}


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def invoke(argv):
    """(exit code, stderr lines) of the CLI run in-process on `argv`.  Every
    warning counts as a stderr line, as it does in a process of its own, and
    a RuntimeWarning fails the run."""
    err = io.StringIO()
    with (contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def run_cli(command, run):
    """Write `run`'s files to a fresh directory and run the CLI on them:
    (exit code, stderr lines, summary.json text or None), then `diagnose` on
    the field the run wrote: its (exit code, stderr lines), or None when the
    run wrote no field."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(json.dumps(run["model"]))
        boundary = dict(run["boundary"])
        if "rows" in boundary:
            lines = ["component,t,value"] + [f"{c!r},{t!r},{v!r}" for c, t, v in
                                             boundary.pop("rows")]
            (tmp / "inflow.csv").write_text("\n".join(lines) + "\n")
            boundary["path"] = str(tmp / "inflow.csv")
        config = {"model": "model.json", "domain": run["domain"], "boundary": boundary,
                  "solver": run["solver"], "output_dir": str(tmp / "out")}
        (tmp / "config.json").write_text(json.dumps(config))
        code, err = invoke([*command, str(tmp / "config.json")])
        summary = tmp / "out" / "summary.json"
        summary = summary.read_text() if summary.exists() else None
        fields = [tmp / "out" / name for name in ("field_final.csv", "field_single.csv")]
        diagnosed = next((invoke(["diagnose", "--fields", str(path),
                                  "--config", str(tmp / "config.json")])
                          for path in fields if path.exists()), None)
        return code, err, summary, diagnosed


BROADWELL = model_to_dict(dv.shifted_broadwell())


def found(domain, boundary, solver):
    return {"model": BROADWELL, "domain": domain, "boundary": boundary,
            "solver": {"grid_n": 8, **solver}}


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from([["solve"], ["sweep"], ["solve", "--single-stage"]]),
       run=run_configs())
# the domain's implicit function overflowed on the grid's cell centres
@example(["solve"], found({"kind": "superellipse", "semi_axes": [1e-300, 1e-150],
                           "exponent": 3.5}, {"profile": "zero"}, {}))
@example(["solve"], found({"kind": "ellipse", "semi_axes": [1e-300, 1e16]},
                          {"profile": "zero"}, {}))
# the flux integrals of the renormalized residual overflowed
@example(["solve"], found({"kind": "disk", "radius": 1e150},
                          {"profile": "constant", "values": [1.0] * 4}, {}))
# the mass cap's inflow flux overflowed
@example(["solve", "--single-stage"], found({"kind": "disk", "radius": 1e8},
                                            {"profile": "constant", "values": [1e300] * 4}, {}))
# a level's boundary smoothing asked for 1.6e301 samples
@example(["solve"], found({"kind": "disk", "radius": 1.0}, {"profile": "step"},
                          {"k_schedule": [4.0, 1e300]}))
# numpy warned of the empty file on stderr before the one-line refusal
@example(["solve"], found({"kind": "disk", "radius": 1.0}, {"profile": "csv", "rows": []}, {}))
# an untruncated stage's fields overflowed in the mollifier and the L1 change
@example(["solve", "--single-stage"], found(
    {"kind": "disk", "radius": 1.0}, {"profile": "maxwellian", "a": 700.0, "b": [0.1, 0.1],
                                      "c": 0.05}, {"alpha": 3.0}))
def test_generated_configs_keep_the_exit_code_contract(command, run):
    code, err, summary, diagnosed = run_cli(command, run)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert len(err) == 1, err
    if code in (0, 3):
        assert summary is not None
    if summary is not None:
        assert strict_json(summary)["converged"] is (code == 0)
    if diagnosed is not None:
        code, err = diagnosed
        assert code in (0, 2)
        assert len(err) == (code == 2), err
