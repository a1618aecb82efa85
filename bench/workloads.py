"""Seeded inputs, set-up, timed operations and output checks of the workloads.

Every workload runs the shifted Broadwell model on the unit disk through the
public dvmbvp API.  A workload turns a seed into inputs, builds the solver
workspace (the set-up that `setup_s` measures: the grid plus every
characteristic table), runs one timed operation on it and checks what the
operation returned.

`span(name)` is the tracer's context-manager factory in a traced run and a
no-op otherwise; set-up uses it to time the grid and the table build
explicitly, because `SolverWorkspace.table` itself is a cache lookup that the
solver calls thousands of times.

The library is called through its module objects (`solver.outer_fixed_point`,
`diagnostics.exceptional_sets`, ...) rather than through names imported from
them, so that a traced run can wrap those functions in place.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import dvmbvp  # noqa: E402
from dvmbvp import diagnostics, fields, geometry, solver  # noqa: E402

DEFAULT_SEED = 0
# Inflow Maxwellian exp(a + b.v + c|v|^2) of the acceptance oracle.
BASE_MAXWELLIAN = (0.0, (0.1, -0.2), 0.05)
# Largest change a non-default seed makes to a, b_x, b_y and c.  At +-0.02
# the 32^2 sweep took between 2,528 and 2,763 transport sweeps; at this size
# the work stays within about 1% of the default input's.
MAXWELLIAN_JITTER = (0.005, 0.005, 0.005, 0.0025)
K_LEVELS = solver.SolverConfig().k_schedule


def no_span(name):
    return nullcontext()


@dataclass
class Outcome:
    """What one operation produced: its checks, accuracy and solver counts."""

    checks: dict                      # check description -> passed
    residual: float                   # relative mild-form residual
    counts: dict = field(default_factory=dict)
    oracle: float | None = None       # relative L1 error against the exact solution

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def maxwellian_params(seed: int):
    """(a, b, c) of the seeded inflow Maxwellian; the default seed gives the oracle's."""
    a, (bx, by), c = BASE_MAXWELLIAN
    if seed == DEFAULT_SEED:
        return a, (bx, by), c
    d = np.random.default_rng([seed, 0]).uniform(-1.0, 1.0, 4) * MAXWELLIAN_JITTER
    return a + d[0], (bx + d[1], by + d[2]), c + d[3]


def equilibrium(model, params) -> np.ndarray:
    a, b, c = params
    return np.exp(a + model.v @ np.asarray(b) + c * model.speeds_sq)


def build_workspace(domain, model, config, span=no_span):
    """Grid plus every characteristic table: the set-up a solve or diagnose pays."""
    with span("fields.grid_build"):
        grid = dvmbvp.Grid(domain, config.grid_n)
    with span("solver.table_build"):
        ws = solver.SolverWorkspace(domain, model, grid, config)
        for i in range(model.p):
            ws.table(i)
    return ws


def solve_counts(outer_traces) -> dict:
    """Iteration counts and ladder invariants summed over outer fixed points."""
    outer = sum(t.iterations for t in outer_traces)
    sweeps = sum(c.iterations for t in outer_traces for c in t.children)
    return {
        "alpha_stages": len(outer_traces),
        "outer_iterations": outer,
        "transport_sweeps": sweeps,
        "sweeps_per_outer": sweeps / outer,
        "monotone_violations": sum(t.monotone_violations for t in outer_traces),
        "mass_cap_max_ratio": max(t.mass_cap_max_ratio for t in outer_traces),
    }


def solve_checks(converged: bool, counts: dict, result) -> dict:
    return {
        "converged": converged,
        "monotone_violations == 0": counts["monotone_violations"] == 0,
        "mass_cap_max_ratio <= 1": counts["mass_cap_max_ratio"] <= 1.0,
        "min >= 0": result.min_value() >= 0.0,
    }


class Workload:
    name = ""
    op_kind = ""          # what one timed operation is: "solve" or "diagnose"
    grid_n = 0
    setup_reps = 1        # set-ups per run; setup_s is their median
    min_ops = 1           # operations every run makes, whatever --seconds says

    def __init__(self, grid_n: int | None = None):
        if grid_n is not None:
            self.grid_n = grid_n
        self.domain = geometry.ConvexDomain.disk()
        self.model = dvmbvp.shifted_broadwell()

    def config(self):
        return solver.SolverConfig(grid_n=self.grid_n)

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs, span=no_span):
        return build_workspace(self.domain, self.model, self.config(), span)

    def op(self, ws, inputs, index: int) -> Outcome:
        raise NotImplementedError


class SweepMaxwellian(Workload):
    """The CLI's default sweep at 32^2: 4 k levels x 6 alpha stages with
    per-level diagnostics, against the exact Maxwellian solution."""

    name = "sweep32_maxwellian"
    op_kind = "solve"
    grid_n = 32
    setup_reps = 21

    def inputs(self, seed):
        params = maxwellian_params(seed)
        a, b, c = params
        return (dvmbvp.BoundaryData.maxwellian(self.model, a, b, c),
                equilibrium(self.model, params))

    def op(self, ws, inputs, index):
        boundary, exact_values = inputs
        sweep = solver.k_sweep(self.domain, self.model, boundary, self.config(),
                               workspace=ws)
        counts = solve_counts([t for s in sweep.stages for t in s.continuation.traces])
        exact = dvmbvp.Field.constant(ws.grid, exact_values)
        oracle = sweep.field.l1_distance(exact) / exact.mass()
        checks = solve_checks(sweep.converged, counts, sweep.field)
        checks["oracle_rel_l1 <= 1e-2"] = oracle <= 1e-2
        return Outcome(checks, sweep.stages[-1].continuation.final_residual, counts, oracle)


class StageStep(Workload):
    """One damped stage at 64^2 with a capped and smoothed step inflow: the
    transport sweep with no continuation and no diagnostics."""

    name = "stage64_step"
    op_kind = "solve"
    grid_n = 64
    setup_reps = 9
    alpha = 0.125
    k = 16.0

    # The outer loop shrinks its relative change by about 0.93 decades per
    # iteration.  At the default 1e-8 the change after 11 iterations sat
    # within 0.03 decades of the test, so seeds split between 11 and 12
    # outer iterations; at 2.5e-9 every seed tried stops at the 12th with
    # over 0.3 decades to spare on either side.
    tol_outer = 2.5e-9

    def config(self):
        return solver.SolverConfig(grid_n=self.grid_n, alpha=self.alpha, k=self.k,
                                   tol_outer=self.tol_outer)

    def inputs(self, seed):
        """Per component i: a periodic step on the boundary arclength.

        It is high on half the boundary, starting a quarter turn further for
        each component.  The seed moves the start and the width by up to
        0.2% of the boundary and the two levels by up to 0.5%.  Drawing the
        start anywhere on the boundary moved the transport sweep count of
        one solve between 83 and 135.
        """
        rng = np.random.default_rng([seed, 1])
        length = geometry.boundary_param(self.domain).total_length
        traces = []
        for i in range(self.model.p):
            d = rng.uniform(-1.0, 1.0, 4) * (0.002, 0.002, 0.005, 0.005)
            start = (i / self.model.p + d[0]) * length
            width = (0.5 + d[1]) * length
            high, low = 2.0 * (1.0 + d[2]), 0.25 * (1.0 + d[3])
            traces.append(fields.CallableTrace(
                lambda t, s=start, w=width, hi=high, lo=low:
                    np.where(np.mod(t - s, length) < w, hi, lo)))
        return fields.BoundaryData(tuple(traces))

    def op(self, ws, inputs, index):
        capped = fields.truncate_and_mollify_boundary(inputs, self.k, self.domain)
        result, trace = solver.outer_fixed_point(self.domain, self.model, capped,
                                                 self.config(), workspace=ws)
        counts = solve_counts([trace])
        checks = solve_checks(trace.converged, counts, result)
        checks["residual is finite"] = math.isfinite(trace.residual)
        return Outcome(checks, trace.residual, counts)


class Diagnose(Workload):
    """The `dvmbvp diagnose` call set plus both residuals at 128^2, on one
    seeded smooth positive field per default k level; no transport sweep."""

    name = "diagnose128"
    op_kind = "diagnose"
    grid_n = 128
    setup_reps = 5
    min_ops = len(K_LEVELS)
    amplitude = 0.05
    wave_vectors = math.pi * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    # Largest change a seed makes to each phase, in radians.  Phases drawn
    # anew per seed moved the workload's mild residual by 8% between seeds.
    phase_jitter = 0.2

    def inputs(self, seed):
        """Inflow Maxwellian, and per k level the phases of the field's trig modes.

        The phases are a fixed pattern moved by the seed.
        """
        params = maxwellian_params(seed)
        a, b, c = params
        shape = (len(K_LEVELS), self.model.p, len(self.wave_vectors))
        base = np.random.default_rng([DEFAULT_SEED, 2]).uniform(0.0, 2.0 * math.pi, shape)
        jitter = np.random.default_rng([seed, 3]).uniform(-1.0, 1.0, shape)
        phases = base + self.phase_jitter * jitter
        return (dvmbvp.BoundaryData.maxwellian(self.model, a, b, c),
                equilibrium(self.model, params), phases)

    def field(self, grid, inputs, level):
        """Maxwellian times (1 + amplitude * sum of sines): smooth and positive."""
        _, eq, phases = inputs
        z = grid.centers
        modes = [np.sum(np.sin(z @ self.wave_vectors.T + ph), axis=-1)
                 for ph in phases[level]]
        return dvmbvp.Field.from_function(grid, [
            lambda x, y, m=m, e=e: e * (1.0 + self.amplitude * m)
            for m, e in zip(modes, eq)])

    def op(self, ws, inputs, index):
        boundary = inputs[0]
        level = index % len(K_LEVELS)
        k = K_LEVELS[level]
        dom, model, grid = self.domain, self.model, ws.grid
        f = self.field(grid, inputs, level)
        rep = diagnostics.mass_energy_flux(dom, model, f, boundary, alpha=0.0, k=k)
        diss = diagnostics.entropy_dissipation(model, f, k)
        diagnostics.entropy_bound_check(dom, model, f, k)
        exc = diagnostics.exceptional_sets(dom, model, f, k, epsilon=0.1)
        intnu = diagnostics.integrated_collision_frequency(dom, model, f, k, workspace=ws)
        shifts = [dom.diameter / d for d in (64, 32, 16, 8)]
        for i in range(model.p):
            diagnostics.translation_modulus(intnu, grid, model.v[i], shifts)
        mild = solver.residual_mild(dom, model, boundary, f, k=k, workspace=ws)
        solver.residual_renormalized(dom, model, boundary, f, k=k, workspace=ws)
        checks = {
            "scheme_residual_max_rel <= 1e-12":
                float(np.max(rep.balance.scheme_residual_relative)) <= 1e-12,
            "exceptional bound_violations == 0": exc.bound_violations == 0,
            "dissipation_termwise_min >= 0": diss.termwise_min >= 0.0,
        }
        return Outcome(checks, mild.total_relative)


WORKLOADS = {w.name: w for w in (SweepMaxwellian, StageStep, Diagnose)}
