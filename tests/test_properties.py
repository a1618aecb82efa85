"""Property tests of the inner ladder and the stage solve at 16^2.

Over random nonnegative inflow traces (periodic piecewise-linear on the
boundary arclength) and frozen states, the guarantees of the construction
hold exactly: the Gauss-Seidel ladder never decreases, also from a certified
start, its mass stays below the damping cap, a repeated solve is
bit-identical, and every Gauss-Seidel iterate dominates the Jacobi iterate
of the same step.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvmbvp as dv
from dvmbvp.collision import frequency_source, gain_truncated, truncated_factor
from dvmbvp.fields import BoundaryData, Field, SampledTrace, mollify_field
from dvmbvp.geometry import boundary_param
from dvmbvp.solver import (SolverConfig, SolverWorkspace, inner_monotone_solve,
                           outer_fixed_point)

N = 16
SAMPLES = 6          # inflow samples per component along the boundary

inflow_values = st.lists(st.floats(0.0, 3.0), min_size=4 * SAMPLES, max_size=4 * SAMPLES)
frozen_levels = st.lists(st.floats(0.0, 2.0), min_size=4, max_size=4)
stage = st.sampled_from([(0.5, 4.0), (0.25, 16.0), (0.125, 64.0)])


@pytest.fixture(scope="module")
def ws16(disk, broadwell):
    return SolverWorkspace(disk, broadwell, dv.Grid(disk, N), SolverConfig(grid_n=N))


def inflow(disk, values):
    length = boundary_param(disk).total_length
    ts = np.linspace(0.0, length, SAMPLES, endpoint=False)
    vals = np.asarray(values).reshape(4, SAMPLES)
    return BoundaryData(tuple(SampledTrace(ts, v, length) for v in vals))


def config(alpha_k):
    alpha, k = alpha_k
    return SolverConfig(grid_n=N, alpha=alpha, k=k)


@settings(max_examples=30, deadline=None)
@given(inflow_values, frozen_levels, stage)
def test_ladder_monotone_and_mass_capped(disk, broadwell, ws16, values, levels, alpha_k):
    cfg = config(alpha_k)
    frozen = Field.constant(ws16.grid, levels)
    F, tr = inner_monotone_solve(disk, broadwell, inflow(disk, values), frozen, cfg,
                                 workspace=ws16)
    assert tr.converged
    assert tr.monotone_violations == 0
    assert max(tr.masses) <= tr.mass_cap and tr.mass_cap_max_ratio <= 1.0
    assert F.min_value() >= 0.0


@settings(max_examples=20, deadline=None)
@given(inflow_values, frozen_levels, stage, st.integers(1, 4),
       st.one_of(st.just(1.0), st.floats(0.5, 1.5)))
def test_ladder_from_a_certified_start_monotone_and_mass_capped(disk, broadwell, ws16, values,
                                                                 levels, alpha_k, q, scale):
    """Start at `scale` x step q of the zero-start ladder (a sub-solution at
    scale 1; above 1 most starts fail).  A certified start climbs bitwise,
    pass by pass, below the cap, to the least fixed point above it; that is
    the zero-start limit when the stage map has a single fixed point, which
    starts above the zero-start iterates would expose.  A start that fails
    its certification gives the zero-start ladder."""
    cfg = config(alpha_k)
    bd = inflow(disk, values)
    frozen = Field.constant(ws16.grid, levels)
    step_q, _ = inner_monotone_solve(disk, broadwell, bd, frozen,
                                     replace(cfg, max_inner=q, tol_inner=5e-324),
                                     workspace=ws16)
    S = scale * step_q.values
    F, tr = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws16,
                                 start=Field(ws16.grid, S))
    Z, _ = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws16)
    assert tr.start == "certified" or scale != 1.0
    if tr.start == "certified":
        assert tr.converged and tr.monotone_violations == 0
        assert np.all(F.values >= S)
        assert max(tr.masses) <= tr.mass_cap and tr.mass_cap_max_ratio <= 1.0
        assert F.l1_distance(Z) <= 10 * cfg.tol_inner * Z.mass()
    else:
        assert tr.start == "fallback" and np.array_equal(F.values, Z.values)


@settings(max_examples=12, deadline=None)
@given(inflow_values, stage)
def test_stage_solve_bit_identical_and_monotone(disk, broadwell, ws16, values, alpha_k):
    cfg = config(alpha_k)
    bd = inflow(disk, values)
    F1, tr1 = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws16)
    F2, tr2 = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws16)
    assert np.array_equal(F1.values, F2.values)
    assert tr1.increments == tr2.increments
    assert tr1.monotone_violations == 0 and tr1.mass_cap_max_ratio <= 1.0


@settings(max_examples=20, deadline=None)
@given(inflow_values, frozen_levels, stage)
def test_gauss_seidel_dominates_jacobi(disk, broadwell, ws16, values, levels, alpha_k):
    """Step by step from zero at the same frozen state, cellwise."""
    cfg = config(alpha_k)
    bd = inflow(disk, values)
    frozen = Field.constant(ws16.grid, levels)
    sm = mollify_field(frozen, cfg.alpha)
    source = frequency_source(broadwell, sm.values, cfg.k)
    tr_sm = truncated_factor(sm.values, cfg.k)
    entry = ws16.entry_values(bd)
    J = np.zeros((broadwell.p, ws16.grid.ny, ws16.grid.nx))
    for q in range(1, 6):
        J = ws16.apply_exponential(
            entry, source / (1.0 + J / cfg.k),
            gain_truncated(broadwell, truncated_factor(J, cfg.k), tr_sm), cfg.alpha)
        # at the least tol_inner the ladder runs all q steps unless a pass
        # changes nothing, so G is Gauss-Seidel step q, as J is Jacobi step q
        G, tr = inner_monotone_solve(disk, broadwell, bd, frozen,
                                     SolverConfig(grid_n=N, alpha=cfg.alpha, k=cfg.k,
                                                  max_inner=q, tol_inner=5e-324),
                                     workspace=ws16)
        assert len(tr.increments) == q or tr.increments[-1] == 0.0
        assert np.all(G.values >= J)
