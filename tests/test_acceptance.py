"""Acceptance suite: one test per criterion, each printing a PASS line.

The expensive continuation sweeps (Maxwellian inflow at 64^2, equal-constant
inflow at 48^2) run once as session fixtures; every criterion then checks its
stated tolerance against those runs or against dedicated small cases.
"""

from fractions import Fraction

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.diagnostics import (characteristic_balance, collision_grids,
                                entropy_dissipation, sweep_soft_checks)
from dvmbvp.fields import BoundaryData, Field, mollify_field
from dvmbvp.solver import SolverConfig, SolverWorkspace


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def maxwellian_sweep(disk, broadwell):
    """Full sweep at 64^2 (all but k=256 solved on 16^2): k in {4,16,64,256},
    damping down to 2^-6."""
    bd = BoundaryData.maxwellian(broadwell, 0.0, (0.1, -0.2), 0.05)
    cfg = SolverConfig(grid_n=64,
                       k_schedule=(4.0, 16.0, 64.0, 256.0),
                       alpha_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625))
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    return bd, cfg, sweep


@pytest.fixture(scope="module")
def constant_sweep(disk, broadwell):
    """Equal-constant inflow c=1 at 48^2 with one extra damping stage."""
    bd = BoundaryData.constant([1.0, 1.0, 1.0, 1.0])
    cfg = SolverConfig(grid_n=48,
                       k_schedule=(4.0, 16.0, 64.0, 256.0),
                       alpha_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125,
                                       0.015625, 0.0078125))
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    return bd, cfg, sweep


def iter_inner_traces(sweep):
    for stage in sweep.stages:
        for outer in stage.continuation.traces:
            for inner in outer.children:
                yield stage.k, inner


def damped_balance(disk, broadwell, stage):
    """The damped flux balance on a stage's last converged field, on the grid
    it was solved on: (worst relative scheme residual, physical defect per
    unit alpha-weighted mass path)."""
    alpha = stage.continuation.alphas[-1]
    f_stage = stage.continuation.fields[-1]
    sm = mollify_field(f_stage, alpha)
    nu, gain = collision_grids(broadwell, f_stage, k=stage.k, smoothed=sm)
    bal = characteristic_balance(disk, broadwell, f_stage, stage.boundary, alpha, nu, gain)
    return (float(np.max(bal.scheme_residual_relative)),
            bal.defect / (alpha * bal.total_mass_path))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_maxwellian_oracle(disk, broadwell, maxwellian_sweep):
    """Constant equilibrium inflow: sweep converges to the constant field."""
    # independent precondition: the untruncated collision term annihilates
    # the equilibrium state (checked before trusting it as an oracle)
    M = np.exp(broadwell.v @ np.array([0.1, -0.2]) + 0.05 * broadwell.speeds_sq)
    ev = dv.eval_untruncated(broadwell, M)
    assert np.max(np.abs(ev.net)) < 1e-12 * np.max(ev.gain)

    bd, cfg, sweep = maxwellian_sweep
    grid = sweep.field.grid
    exact = Field.constant(grid, M)
    errors = [st.continuation.estimate.l1_distance(exact) / exact.mass()
              for st in sweep.stages]
    assert errors[-1] <= 1e-2
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    report(f"criterion 1 PASS: relative L1 errors across k {[f'{e:.2e}' for e in errors]}, "
           f"final {errors[-1]:.2e} <= 1e-2, monotone decrease")


def test_criterion_2_equal_constant_oracle(disk, broadwell, constant_sweep):
    """Equal-constant inflow: every truncation level returns the constant."""
    bd, cfg, sweep = constant_sweep
    grid = sweep.field.grid
    exact = Field.constant(grid, [1.0] * 4)
    devs = []
    for st in sweep.stages:
        dev = st.continuation.estimate.l1_distance(exact) / exact.mass()
        devs.append(dev)
        assert dev <= 1e-4, f"k={st.k}: deviation {dev:.3e} above 1e-4"
        # reported bias: the damped balance identity at the final stage,
        # per component, with the stage's convolved operator
        alpha = st.continuation.alphas[-1]
        f_stage = st.continuation.fields[-1]
        sm = mollify_field(f_stage, alpha)
        nu, gain = collision_grids(broadwell, f_stage, k=st.k, smoothed=sm)
        bal = characteristic_balance(disk, broadwell, f_stage, st.boundary,
                                     alpha, nu, gain)
        worst = float(np.max(bal.scheme_residual_relative))
        assert worst <= 1e-10, f"k={st.k}: balance identity residual {worst:.3e}"
    report(f"criterion 2 PASS: bias-corrected deviations {[f'{d:.2e}' for d in devs]} "
           f"<= 1e-4 at every k; damped balance identity <= 1e-10 relative")


def test_criterion_3_zero_inflow(disk, broadwell):
    cfg = SolverConfig(grid_n=24, k_schedule=(4.0, 16.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    bd = BoundaryData.zero(4)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    ws = SolverWorkspace(disk, broadwell, sweep.field.grid, cfg)
    assert sweep.field.mass() == 0.0
    for st in sweep.stages:
        assert st.continuation.estimate.mass() == 0.0
        assert st.continuation.final_residual == 0.0
    mild = dv.residual_mild(disk, broadwell, bd, sweep.field, k=None, workspace=ws)
    renorm = dv.residual_renormalized(disk, broadwell, bd, sweep.field, workspace=ws)
    assert mild.total_relative == 0.0 and mild.max_cell == 0.0
    assert all(d.total == 0.0 for d in renorm)
    report("criterion 3 PASS: zero inflow gives identically zero fields and residuals")


def test_criterion_4_monotone_ladder(maxwellian_sweep, constant_sweep):
    checked = 0
    for name, (_, _, sweep) in (("maxwellian", maxwellian_sweep),
                                ("constant", constant_sweep)):
        for k, tr in iter_inner_traces(sweep):
            assert not tr.children and tr.increments
            assert tr.monotone_violations == 0, \
                f"{name} k={k}: {tr.monotone_violations} cellwise decreases"
            assert tr.mass_cap_max_ratio <= 1.0 + 1e-12, \
                f"{name} k={k}: mass exceeded cap by {tr.mass_cap_max_ratio - 1:.3e}"
            checked += 1
    report(f"criterion 4 PASS: {checked} inner solves, zero monotonicity "
           "violations, mass within the damping cap (rel. slack 1e-12)")


def test_criterion_5_conservation_identities(disk, broadwell, maxwellian_sweep):
    # (a) algebraic identity on 10^4 random nonnegative states
    rng = np.random.default_rng(123)
    states = rng.uniform(0.0, 10.0, size=(4, 10_000))
    states[:, :200] = 0.0
    for k in (4.0, 64.0):
        ev = dv.eval_truncated(broadwell, states, k)
        num = np.abs(ev.gain.sum(axis=0) - ev.loss.sum(axis=0))
        den = np.maximum(ev.gain.sum(axis=0), 1e-30)
        worst = float(np.max(num / den))
        assert worst <= 1e-12, f"k={k}: conservation identity off by {worst:.2e}"

    # (b) damped flux balance on converged stage solutions
    bd, cfg, sweep = maxwellian_sweep
    balances = [damped_balance(disk, broadwell, st) for st in sweep.stages[-2:]]
    worst_identity = max(identity for identity, _ in balances)
    worst_defect = max(defect for _, defect in balances)
    assert worst_identity <= 1e-10
    # three-term physical defect: quadrature-order, not exact (k = 64 solved on
    # the 16^2 coarse grid, k = 256 on the 64^2 run grid)
    assert worst_defect <= 1e-2
    report(f"criterion 5 PASS: gain/loss identity <= 1e-12 on 10^4 states; "
           f"damped balance identity {worst_identity:.2e} <= 1e-10; physical "
           f"defect {worst_defect:.2e} at quadrature order")


def test_criterion_5_run_grid_defect(disk, broadwell, maxwellian_sweep):
    """The last stage, the only one solved on the 64^2 run grid, keeps the
    physical defect at the order it had with every stage on that grid (worst
    1.27e-4 over the last two)."""
    st = maxwellian_sweep[2].stages[-1]
    assert st.continuation.last.grid.n == 64
    identity, defect = damped_balance(disk, broadwell, st)
    assert identity <= 1e-10
    assert defect <= 1e-3
    report(f"criterion 5 PASS on the run grid: k={st.k:g} damped balance identity "
           f"{identity:.2e} <= 1e-10; physical defect {defect:.2e} <= 1e-3")


def test_criterion_6_entropy_dissipation(broadwell, maxwellian_sweep, constant_sweep):
    for _, _, sweep in (maxwellian_sweep, constant_sweep):
        for st in sweep.stages:
            rep = entropy_dissipation(broadwell, st.continuation.estimate, st.k)
            assert rep.termwise_min >= 0.0
            assert rep.value >= 0.0
    grid = maxwellian_sweep[2].field.grid
    const = Field.constant(grid, [1.7] * 4)
    rep = entropy_dissipation(broadwell, const, 16.0)
    assert rep.value == 0.0 and rep.termwise_min == 0.0
    report("criterion 6 PASS: dissipation termwise nonnegative on all converged "
           "fields, exactly zero on equal constants")


def test_criterion_7_geometry(disk, broadwell):
    dev = dv.change_of_variables_jacobian_check(disk, broadwell.v[0], broadwell.v[2])
    assert dev <= 1e-6
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-0.55, 0.55, 2)
        v = rng.normal(size=2)
        seg = disk.trace(z, v)
        mid = seg.z_plus + 0.5 * seg.length_time * seg.v
        seg2 = disk.trace(mid, v)
        worst = max(worst, abs(seg2.length_time - seg.length_time))
    assert worst <= 1e-10
    report(f"criterion 7 PASS: jacobian deviation {dev:.2e} <= 1e-6 on 400 samples, "
           f"trace round-trip error {worst:.2e} <= 1e-10")


def test_criterion_8_model_algebra(broadwell, two_circle_model):
    cert = dv.certify_model(broadwell)
    assert cert.certified
    assert cert.normality.d_inv == 3 and cert.normality.d_max == 3
    ok, pair = dv.check_genericity(dv.classical_broadwell())
    assert not ok and pair == (1, 2)
    # circle-construction conservation in exact rational arithmetic
    v = [(Fraction(int(x)), Fraction(int(y))) for x, y in two_circle_model.v]
    for r in two_circle_model.rules:
        vi, vj, vl, vm = v[r.i - 1], v[r.j - 1], v[r.l - 1], v[r.m - 1]
        assert (vi[0] + vj[0], vi[1] + vj[1]) == (vl[0] + vm[0], vl[1] + vm[1])
        assert (vi[0] ** 2 + vi[1] ** 2 + vj[0] ** 2 + vj[1] ** 2
                == vl[0] ** 2 + vl[1] ** 2 + vm[0] ** 2 + vm[1] ** 2)
    report("criterion 8 PASS: 4-velocity model certified normal (3,3); classical "
           "model fails genericity at pair (1,2); circle quadruples conserve exactly")


def test_criterion_9_compactness_proxies(maxwellian_sweep):
    bd, cfg, sweep = maxwellian_sweep
    infos = [st.diagnostics for st in sweep.stages]
    mods = [max(s["moduli_integrated_frequency"]) for s in infos]
    ents = [s["entropy_weighted"] for s in infos]
    assert all(np.isfinite(m) for m in mods)
    assert all(np.isfinite(e) for e in ents)
    notes = sweep_soft_checks(infos)   # violations surface as warnings, not failures
    ratio = max(mods) / max(min(mods), 1e-300)
    med = float(np.median(np.abs(ents)))
    report(f"criterion 9 PASS (soft): integrated-frequency moduli ratio {ratio:.3f} "
           f"across k (warn above 2), entropy functional last/median "
           f"{abs(ents[-1]) / med:.3f} (warn above 2); warnings: {notes or 'none'}")
