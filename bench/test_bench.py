"""Tests of the benchmark itself, at tiny grids.

    python3 -m pytest bench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import LAYER_SPANS  # noqa: E402

TINY = 12


def materialize(inputs):
    """Seeded inputs as plain arrays: boundary traces sampled along the arclength."""
    ts = np.linspace(0.0, 2.0 * np.pi, 97)
    items = inputs if isinstance(inputs, tuple) else (inputs,)
    out = []
    for item in items:
        if isinstance(item, W.fields.BoundaryData):
            out.extend(item.eval(i, ts) for i in range(item.p))
        else:
            out.append(np.asarray(item))
    return out


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = W.WORKLOADS[name](grid_n=TINY)
    first, again, other = (materialize(wl.inputs(s)) for s in (3, 3, 4))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_default_seed_is_the_oracle_maxwellian():
    assert W.maxwellian_params(W.DEFAULT_SEED) == W.BASE_MAXWELLIAN
    a, (bx, by), c = W.maxwellian_params(7)
    a0, (bx0, by0), c0 = W.BASE_MAXWELLIAN
    assert np.all(np.abs([a - a0, bx - bx0, by - by0, c - c0]) <= W.MAXWELLIAN_JITTER)


class NonConverging(W.StageStep):
    """A stage cut off after one outer iteration: the convergence check fails."""

    def config(self):
        return replace(super().config(), max_outer=1)


class Raising(W.StageStep):
    """Zero damping: outer_fixed_point raises SolverError."""
    alpha = 0.0


@pytest.mark.parametrize("cls", [NonConverging, Raising])
def test_failure_is_counted_and_run_goes_on(cls):
    result = run.measure(cls(grid_n=TINY), seed=1, seconds=0.0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert set(result["metrics"]) == {"setup_s", "op_s", "peak_rss_mb", "mild_residual"}


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wl = W.StageStep(grid_n=TINY)
    plain = run.measure(wl, seed=1, seconds=0.0)
    traced = run.measure_traced(wl, seed=1, seconds=0.0)
    assert plain["failed"] == traced["failed"] == 0
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, (_, unit) in {**plain["metrics"], **traced["metrics"]}.items():
        assert units[name] == unit


def test_traced_self_times_add_up_to_wall():
    traced = run.measure_traced(W.Diagnose(grid_n=TINY), seed=2, seconds=0.0)
    m = {name: value for name, (value, _) in traced["metrics"].items()}
    layer_sum = m["trace.unattributed_s"] + sum(m[f"{name}_s"] for name in LAYER_SPANS)
    assert layer_sum == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["solver.transport_sweeps"] == 0 and m["diagnostics.exceptional_sets_s"] > 0
