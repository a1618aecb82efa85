"""Diagnostics tests: balances, dissipation, entropy caps, exceptional sets,
translation moduli."""

import dataclasses
import gc
import math
import pickle
import weakref

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.collision import eval_truncated
from dvmbvp.diagnostics import (_frame_angle, characteristic_balance, collision_grids,
                                entropy_bound_check, entropy_dissipation,
                                exceptional_sets, integrated_collision_frequency,
                                mass_energy_flux, slab_energy_rows, stage_diagnostics,
                                sweep_soft_checks, translation_modulus)
from dvmbvp import solver
from dvmbvp.fields import BoundaryData, Field
from dvmbvp.solver import SolverConfig, SolverError, SolverWorkspace, residual_renormalized


@pytest.fixture(scope="module")
def smooth_field(grid24):
    f = Field.from_function(grid24, [
        lambda x, y: 1.0 + 0.3 * x,
        lambda x, y: 1.2 + 0.2 * y,
        lambda x, y: np.exp(-(x * x + y * y)),
        lambda x, y: 0.8 + 0.1 * x * y,
    ])
    return f


# -- characteristic balance ------------------------------------------------------

def test_balance_identity_holds_for_any_field(disk, broadwell, grid24, smooth_field):
    """The damped per-component balance telescopes for arbitrary inputs."""
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 0.25])
    for alpha, k in ((0.5, 8.0), (0.03125, 4.0), (0.0, 16.0)):
        nu, gain = collision_grids(broadwell, smooth_field, k=k)
        bal = characteristic_balance(disk, broadwell, smooth_field, bd, alpha, nu, gain)
        assert np.max(bal.scheme_residual_relative) < 1e-12


def test_balance_identity_with_unequal_step_counts():
    """An off-lattice velocity on an ellipse: rays get different step counts
    and zero-length padding steps, and the identity still telescopes."""
    dom = dv.ConvexDomain.ellipse(1.5, 0.8, center=(0.1, -0.2))
    model = dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])
    grid = dv.Grid(dom, 32)
    v = model.v[0]
    arc = dv.boundary_quadrature(dom, v, +1, 256)
    steps = np.ceil(dom.exit_times(arc.points, v) * np.hypot(*v) / (0.5 * grid.h))
    assert steps.min() < steps.max()
    F = Field.from_function(grid, [lambda x, y: 1.0 + 0.4 * np.sin(2 * x + y)])
    nu = 0.5 + 0.2 * F.values
    gain = 0.3 * F.values
    for alpha in (0.0, 0.25):
        bal = characteristic_balance(dom, model, F, BoundaryData.constant([0.7]),
                                     alpha, nu, gain)
        assert np.max(bal.scheme_residual_relative) <= 1e-12


def per_step_balance(domain, model, boundary, alpha, nu, gain, grid):
    """Reference balance: every chord advanced one step at a time with the
    exact single-interval solution written out, F + (g - lam F) dt r, and
    its mass and net collision added per step.  Rows (inflow, outflow, mass,
    collision net) per component."""
    from dvmbvp.solver import _ladder
    rows = []
    for i in range(model.p):
        v = model.v[i]
        arc = dv.boundary_quadrature(domain, v, +1, 256)
        w = np.abs(arc.vdotn) * arc.dsigma
        b = np.asarray(boundary.eval(i, arc.t_params), dtype=float)
        steps, reads, W = _ladder(grid, arc.points, domain.exit_times(arc.points, v), v,
                                  0.5 * grid.h)
        nu_s, g_s = grid.sample(nu[i], reads, W), grid.sample(gain[i], reads, W)
        F, mass, net = b.copy(), np.zeros_like(b), np.zeros_like(b)
        for m, dt in enumerate(steps):
            nu_bar, g_bar = 0.5 * (nu_s[m] + nu_s[m + 1]), 0.5 * (g_s[m] + g_s[m + 1])
            lam = alpha + nu_bar
            x = lam * dt
            em1 = -np.expm1(-x)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(x > 1e-12, em1 / x, 1.0 - 0.5 * x)
                g2 = np.where(x > 1e-6, (x - em1) / (x * x), 0.5 - x / 6.0)
            seg = dt * (g_bar * dt * g2 + F * r)
            mass += seg
            net += g_bar * dt - nu_bar * seg
            F = F + (g_bar - lam * F) * dt * r
        rows.append([np.sum(w * b), np.sum(w * F), np.sum(w * mass), np.sum(w * net)])
    return np.array(rows)


def test_balance_matches_the_per_step_reference(disk, broadwell, smooth_field):
    """The in-place coefficients and the two-operation recursion give the
    per-step reference's fluxes, mass and collision net to 1e-13 (relative to
    each column's largest entry), on the disk and on an off-lattice velocity
    of an ellipse whose rays have padding steps."""
    dom = dv.ConvexDomain.ellipse(1.5, 0.8, center=(0.1, -0.2))
    one = dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])
    G = Field.from_function(dv.Grid(dom, 32), [lambda x, y: 1.0 + 0.4 * np.sin(2 * x + y)])
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 0.25])
    cases = [(disk, broadwell, smooth_field, bd, *collision_grids(broadwell, smooth_field,
                                                                  k=8.0)),
             (dom, one, G, BoundaryData.constant([0.7]), 0.5 + 0.2 * G.values, 0.3 * G.values)]
    for domain, model, F, boundary, nu, gain in cases:
        for alpha in (0.0, 0.25):
            bal = characteristic_balance(domain, model, F, boundary, alpha, nu, gain)
            got = np.stack([bal.inflow, bal.outflow, bal.mass_path, bal.collision_net], axis=1)
            want = per_step_balance(domain, model, boundary, alpha, nu, gain, F.grid)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0))


def test_balance_on_a_workspace_is_bitwise_the_balance_without_one(disk, broadwell,
                                                                    smooth_field):
    """The rays a workspace keeps give the report of the rays a call builds for
    itself, on its first call and on a later one: on the disk, on a 2:1
    ellipse and on the ellipse whose rays have unequal step counts.  The
    calls without a workspace run before the grid has one, so they build
    their own."""
    ellipse = dv.ConvexDomain.ellipse(1.0, 0.5)
    uneven = dv.ConvexDomain.ellipse(1.5, 0.8, center=(0.1, -0.2))
    one = dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])
    G = Field.from_function(dv.Grid(uneven, 32), [lambda x, y: 1.0 + 0.4 * np.sin(2 * x + y)])
    E = Field.from_function(dv.Grid(ellipse, 24), [lambda x, y: 1.0 + 0.3 * x] * 4)
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 0.25])
    cases = [(disk, broadwell, smooth_field, bd,
              *collision_grids(broadwell, smooth_field, k=8.0)),
             (ellipse, broadwell, E, bd, *collision_grids(broadwell, E, k=8.0)),
             (uneven, one, G, BoundaryData.constant([0.7]), 0.5 + 0.2 * G.values, 0.3 * G.values)]
    for domain, model, F, boundary, nu, gain in cases:
        wants = [characteristic_balance(domain, model, F, boundary, alpha, nu, gain)
                 for alpha in (0.0, 0.25)]
        ws = SolverWorkspace(domain, model, F.grid, SolverConfig(grid_n=F.grid.n))
        for alpha, want in zip((0.0, 0.25), wants):
            for _ in range(2):
                got = characteristic_balance(domain, model, F, boundary, alpha, nu, gain,
                                             workspace=ws)
                for x, y in zip(dataclasses.astuple(want), dataclasses.astuple(got)):
                    assert np.array_equal(x, y)
        assert sorted(ws._rays) == list(range(model.p)) and ws._tables == {}


def test_second_stage_diagnostics_on_a_workspace_traces_no_ray(monkeypatch, disk, broadwell,
                                                               maxwellian_values):
    """`stage_diagnostics` hands its workspace to the balance, so the balance
    rays, like the tables, are traced on the first call only."""
    grid = dv.Grid(disk, 16)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=16))
    F = Field.constant(grid, 1.01 * maxwellian_values)
    bd = BoundaryData.constant(list(maxwellian_values))
    first = stage_diagnostics(disk, broadwell, F, bd, 16.0, workspace=ws)
    traced = []
    exit_times = dv.ConvexDomain.exit_times
    monkeypatch.setattr(dv.ConvexDomain, "exit_times",
                        lambda self, zs, v: traced.append(len(zs)) or exit_times(self, zs, v))
    assert stage_diagnostics(disk, broadwell, F, bd, 16.0, workspace=ws) == first
    assert traced == []


def test_balance_without_a_workspace_keeps_no_workspace_alive(monkeypatch, disk, broadwell,
                                                             smooth_field):
    """The rays of a call without a workspace are stored on the workspace it
    built, which nothing holds once the call returns."""
    built = []
    rays = SolverWorkspace.rays

    def spy(self, i):
        built.append(weakref.ref(self))
        return rays(self, i)
    monkeypatch.setattr(SolverWorkspace, "rays", spy)
    nu, gain = collision_grids(broadwell, smooth_field, k=8.0)
    characteristic_balance(disk, broadwell, smooth_field, BoundaryData.constant([1.0] * 4),
                           0.0, nu, gain)
    gc.collect()
    assert len(built) == broadwell.p and all(ref() is None for ref in built)


# -- the live workspace of a grid ----------------------------------------------------

def count_builds(monkeypatch):
    """Two lists that grow by one per characteristic table and per velocity's
    balance rays built."""
    tables, rays = [], []
    table, ray_set = solver._CharTable, solver._Rays
    monkeypatch.setattr(solver, "_CharTable", lambda *a: tables.append(a) or table(*a))
    monkeypatch.setattr(solver, "_Rays", lambda *a: rays.append(a) or ray_set(*a))
    return tables, rays


def test_calls_without_a_workspace_use_the_live_one_on_their_grid(monkeypatch, disk, broadwell,
                                                                  maxwellian_values):
    """While a workspace on the field's grid is alive, `exceptional_sets` and
    `mass_energy_flux` called without one read its tables and rays: they build
    no table and trace no ray, and their reports hold the bits of the calls
    that pass it."""
    grid = dv.Grid(disk, 16)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=16))
    F = Field.constant(grid, 1.01 * maxwellian_values)
    bd = BoundaryData.constant(list(maxwellian_values))
    want = (exceptional_sets(disk, broadwell, F, 16.0, epsilon=0.1, workspace=ws),
            mass_energy_flux(disk, broadwell, F, bd, 0.0, k=16.0, workspace=ws))
    tables, rays = count_builds(monkeypatch)
    got = (exceptional_sets(disk, broadwell, F, 16.0, epsilon=0.1),
           mass_energy_flux(disk, broadwell, F, bd, 0.0, k=16.0))
    assert tables == [] and rays == []
    assert pickle.dumps(got) == pickle.dumps(want)


def test_a_later_workspace_on_the_grid_does_not_replace_the_live_one(disk, broadwell,
                                                                     maxwellian_values):
    grid = dv.Grid(disk, 16)
    first, second = (SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=16))
                     for _ in range(2))
    exceptional_sets(disk, broadwell, Field.constant(grid, maxwellian_values), 16.0,
                     epsilon=0.1)
    assert sorted(first._tables) == list(range(broadwell.p)) and second._tables == {}


def test_a_gone_workspace_is_not_kept_for_later_calls(monkeypatch, disk, broadwell,
                                                      maxwellian_values):
    """The grid's entry holds its workspace weakly: once the workspace goes,
    the next call without one builds its own tables."""
    grid = dv.Grid(disk, 16)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=16))
    F = Field.constant(grid, maxwellian_values)
    exceptional_sets(disk, broadwell, F, 16.0, epsilon=0.1, workspace=ws)
    tables, _ = count_builds(monkeypatch)
    exceptional_sets(disk, broadwell, F, 16.0, epsilon=0.1)
    assert tables == []
    gone = weakref.ref(ws)
    del ws
    gc.collect()
    assert gone() is None
    exceptional_sets(disk, broadwell, F, 16.0, epsilon=0.1)
    assert len(tables) == broadwell.p


def test_another_model_on_the_grid_gets_its_own_workspace(disk, broadwell, maxwellian_values):
    """A call for another model on a grid with a live workspace is not refused
    and leaves that workspace alone, which still serves its own model."""
    one = dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])
    grid = dv.Grid(disk, 16)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=16))
    rep = exceptional_sets(disk, one, Field.constant(grid, [1.0]), 16.0, epsilon=0.1)
    assert rep.measure.shape == (1,) and ws._tables == {}
    exceptional_sets(disk, broadwell, Field.constant(grid, maxwellian_values), 16.0,
                     epsilon=0.1)
    assert sorted(ws._tables) == list(range(broadwell.p))


def test_balance_refuses_a_workspace_on_another_grid(disk, broadwell, smooth_field):
    nu, gain = collision_grids(broadwell, smooth_field, k=8.0)
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), SolverConfig(grid_n=16))
    with pytest.raises(SolverError, match="does not match the workspace grid"):
        characteristic_balance(disk, broadwell, smooth_field, BoundaryData.constant([1.0] * 4),
                               0.0, nu, gain, workspace=ws)
    assert ws._rays == {}


def test_balance_zero_field(disk, broadwell, grid24):
    F = Field.zeros(grid24, 4)
    nu, gain = collision_grids(broadwell, F, k=None)
    bal = characteristic_balance(disk, broadwell, F, BoundaryData.zero(4), 0.5,
                                 nu, gain)
    assert np.all(bal.inflow == 0) and np.all(bal.outflow == 0)
    assert np.all(bal.mass_path == 0) and bal.defect == 0.0


def test_balance_constant_maxwellian_fluxes(disk, broadwell, maxwellian_params,
                                            maxwellian_values, grid24):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    F = Field.constant(grid24, maxwellian_values)
    nu, gain = collision_grids(broadwell, F, k=None)
    bal = characteristic_balance(disk, broadwell, F, bd, 0.0, nu, gain)
    # inflow flux equals outflow flux per component (projected widths match)
    assert np.allclose(bal.inflow, bal.outflow, rtol=1e-6)


def test_balance_defect_quadrature_order(disk, broadwell):
    """Converged damped stage: inflow - outflow tracks alpha * mass."""
    from dvmbvp.fields import mollify_field
    cfg = dv.SolverConfig(alpha=0.25, k=10.0, grid_n=24)
    bd = BoundaryData.constant([1.0] * 4)
    F, tr = dv.outer_fixed_point(disk, broadwell, bd, cfg)
    sm = mollify_field(F, 0.25)
    nu, gain = collision_grids(broadwell, F, k=10.0, smoothed=sm)
    bal = characteristic_balance(disk, broadwell, F, bd, 0.25, nu, gain)
    # the scheme identity is exact ...
    assert np.max(bal.scheme_residual_relative) < 1e-12
    # ... while the three-term physical defect carries quadrature error only
    assert bal.defect <= 2e-3 * (0.25 * bal.total_mass_path)


def test_mass_energy_flux_report(disk, broadwell, maxwellian_params,
                                 maxwellian_values, grid24):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    F = Field.constant(grid24, maxwellian_values)
    rep = mass_energy_flux(disk, broadwell, F, bd, alpha=0.0)
    want_energy = float(np.sum(broadwell.speeds_sq * F.component_mass()))
    assert rep.energy == pytest.approx(want_energy, rel=1e-12)
    assert rep.total_mass == pytest.approx(F.mass(), rel=1e-12)


def test_slab_rows_zero_field(disk, broadwell, grid24):
    F = Field.zeros(grid24, 4)
    rows = slab_energy_rows(disk, broadwell, F, alpha=0.0)
    assert all(r.lhs == 0 and r.defect == 0 for r in rows)


def test_slab_rows_constant_maxwellian(disk, broadwell, maxwellian_values):
    grid = dv.Grid(disk, 48)
    F = Field.constant(grid, maxwellian_values)
    rows = slab_energy_rows(disk, broadwell, F, alpha=0.0)
    scale = max(abs(r.lhs) for r in rows)
    assert all(r.defect <= 2e-3 * scale for r in rows)


def frame_angle_by_angle(model):
    """The frame angle, one sampled angle at a time: the first best."""
    vth = np.mod(np.arctan2(model.v[:, 1], model.v[:, 0]), np.pi)
    best, best_score = 0.0, -1.0
    for ang in np.linspace(0.0, np.pi, 180, endpoint=False):
        score = np.inf
        for axis in (ang % np.pi, (ang + 0.5 * np.pi) % np.pi):
            d = np.abs(vth - axis)
            d = np.minimum(d, np.pi - d)
            score = min(score, float(np.min(d)))
        if score > best_score:
            best, best_score = float(ang), score
    return best


def slab_lhs_by_cut(domain, model, F):
    """The slab rows' weighted chord integrals, one cut and one component at
    a time."""
    ang = frame_angle_by_angle(model)
    ex = np.array([math.cos(ang), math.sin(ang)])
    ey = np.array([-math.sin(ang), math.cos(ang)])
    xi = model.v @ ex
    grid = F.grid
    center = np.asarray(domain.center)
    c_proj = float(center @ ex)
    reach_plus = float(domain.exit_times(center[None, :], ex)[0])
    reach_minus = float(domain.exit_times(center[None, :], -ex)[0])
    lhs_rows = []
    for a in c_proj + np.linspace(-reach_minus, reach_plus, 9 + 2)[1:-1]:
        base = center + (a - c_proj) * ex
        t_plus = float(domain.exit_times(base[None, :], ey)[0])
        t_minus = float(domain.exit_times(base[None, :], -ey)[0])
        ts = np.linspace(-t_minus, t_plus, 256)
        at_chord = grid.interp_weights(base[None, :] + ts[:, None] * ey)
        lhs = 0.0
        for i in range(model.p):
            vals = grid.sample(F.values[i], *at_chord)
            lhs += xi[i] ** 2 * float(np.trapezoid(vals, ts))
        lhs_rows.append(lhs)
    return lhs_rows


OFF_LATTICE = dv.VelocityModel.create([(1.0, math.sqrt(2.0)), (-0.3, 0.7), (0.2, -1.1)], [])


def test_frame_angle_is_the_first_best_sampled_angle(broadwell, three_circle_model):
    rng = np.random.default_rng(7)
    models = [broadwell, dv.classical_broadwell(), three_circle_model, OFF_LATTICE]
    models += [dv.VelocityModel.create([tuple(v) for v in rng.normal(size=(p, 2))], [])
               for p in (1, 2, 5, 9)]
    models.append(dv.VelocityModel.create([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)], []))
    for model in models:
        assert _frame_angle(model) == frame_angle_by_angle(model)


@pytest.mark.parametrize("domain", [
    dv.ConvexDomain.disk(),
    dv.ConvexDomain.ellipse(1.5, 0.8, center=(0.1, -0.2)),
    dv.ConvexDomain.superellipse(1.0, 0.7, 4.0, center=(0.2, 0.1)),
], ids=["disk", "ellipse", "superellipse"])
@pytest.mark.parametrize("n", [12, 21, 40])
def test_slab_rows_trace_every_cut_at_once_bitwise(broadwell, domain, n):
    """All nine chords traced together give each cut's chord integral bitwise,
    on shifted Broadwell, classical Broadwell and a model off the lattice."""
    grid = dv.Grid(domain, n)
    for model in (broadwell, dv.classical_broadwell(), OFF_LATTICE):
        F = Field.from_function(grid, [lambda x, y, j=j: 1.0 + 0.3 * np.sin(x + j * y)
                                       for j in range(model.p)])
        rows = slab_energy_rows(domain, model, F, alpha=0.25)
        assert [r.lhs for r in rows] == slab_lhs_by_cut(domain, model, F)


# -- entropy dissipation --------------------------------------------------------------

def test_dissipation_zero_on_equal_constants(broadwell, grid24):
    F = Field.constant(grid24, [2.0] * 4)
    rep = entropy_dissipation(broadwell, F, 8.0)
    assert rep.value == 0.0
    assert rep.termwise_min == 0.0
    assert rep.singular_cells == 0


def test_dissipation_nonnegative_random_fields(broadwell, grid24):
    rng = np.random.default_rng(8)
    for _ in range(5):
        F = Field.zeros(grid24, 4)
        F.values[:, grid24.mask] = rng.uniform(0, 5, size=(4, grid24.n_interior))
        rep = entropy_dissipation(broadwell, F, 16.0)
        assert rep.termwise_min >= 0.0
        assert rep.value >= 0.0


def test_dissipation_maxwellian_small_but_reported(broadwell, maxwellian_values,
                                                   grid24):
    F = Field.constant(grid24, maxwellian_values)
    rep = entropy_dissipation(broadwell, F, 16.0)
    assert rep.value >= 0.0
    bumped = Field.constant(grid24, maxwellian_values * np.array([2.0, 1, 1, 1]))
    rep2 = entropy_dissipation(broadwell, bumped, 16.0)
    assert rep2.value > rep.value > 0.0


def test_dissipation_zero_density_capped(broadwell, grid24):
    F = Field.constant(grid24, [1.0, 1.0, 0.0, 1.0])
    rep = entropy_dissipation(broadwell, F, 8.0)
    assert rep.singular_cells == grid24.n_interior
    assert rep.value >= 0.0
    assert np.isfinite(rep.value)


# -- capped entropy functional -----------------------------------------------------------

def test_entropy_bound_zero_field(disk, broadwell, grid24):
    F = Field.zeros(grid24, 4)
    rep = entropy_bound_check(disk, broadwell, F, 8.0)
    assert not rep.skipped
    assert np.all(rep.per_component == 0.0)


def test_entropy_bound_constant_closed_form(disk, broadwell, grid24):
    c = 2.0
    F = Field.constant(grid24, [c] * 4)
    rep = entropy_bound_check(disk, broadwell, F, 8.0)
    area = grid24.n_interior * grid24.cell_area
    assert np.allclose(rep.per_component, area * c * np.log(c), rtol=1e-12)


def test_entropy_bound_above_cap_uses_log_k_half(disk, broadwell, grid24):
    c, k = 9.0, 8.0
    F = Field.constant(grid24, [c] * 4)
    rep = entropy_bound_check(disk, broadwell, F, k)
    area = grid24.n_interior * grid24.cell_area
    assert np.allclose(rep.per_component, np.log(k / 2) * area * c, rtol=1e-12)


def test_entropy_bound_skipped_without_direction(disk, grid24):
    m = dv.classical_broadwell()
    F = Field.zeros(grid24, 4)
    rep = entropy_bound_check(disk, m, F, 8.0)
    assert rep.skipped and "direction" in rep.note


# -- exceptional sets ------------------------------------------------------------------------

def test_exceptional_zero_field_strips_only(disk, broadwell, grid24):
    F = Field.zeros(grid24, 4)
    rep = exceptional_sets(disk, broadwell, F, 8.0, epsilon=0.1)
    assert np.all(rep.measure_exit == 0.0)
    assert np.all(rep.measure_nu == 0.0)
    assert np.array_equal(rep.measure, rep.measure_strips)
    assert rep.bound_violations == 0
    assert np.all(rep.measure_strips_boundary >= 0.0)


def test_exceptional_bound_on_complement(disk, broadwell, grid24, maxwellian_values):
    F = Field.constant(grid24, maxwellian_values)
    rep = exceptional_sets(disk, broadwell, F, 8.0, epsilon=0.2)
    assert rep.bound_violations == 0


def test_exceptional_measure_monotone_in_epsilon(disk, broadwell, grid24,
                                                 maxwellian_values):
    F = Field.constant(grid24, maxwellian_values)
    m_big = exceptional_sets(disk, broadwell, F, 8.0, epsilon=0.2).measure
    m_small = exceptional_sets(disk, broadwell, F, 8.0, epsilon=0.1).measure
    assert np.all(m_small <= m_big + 1e-15)


def test_exceptional_chi_mask_shape(disk, broadwell, grid24, smooth_field):
    rep = exceptional_sets(disk, broadwell, smooth_field, 8.0, epsilon=0.15)
    assert rep.chi.shape == (4, grid24.ny, grid24.nx)
    assert rep.chi.dtype == bool


def per_cell_chords(domain, grid, nu2d, F2d, v, h_s):
    """Reference: each interior cell traced on its own, with a uniform
    (M+1)-node ladder over its full chord, M set by the longest chord."""
    cells = grid.centers[grid.mask]
    speed = float(np.hypot(v[0], v[1]))
    s_plus = domain.exit_times(cells, -v)
    s_minus = domain.exit_times(cells, v)
    F_exit = grid.interpolate(F2d, cells + s_minus[:, None] * v)
    taus = s_plus + s_minus
    M = max(1, int(math.ceil(float(np.max(taus)) * speed / h_s)))
    dt = taus / M
    entry = cells - s_plus[:, None] * v
    pts = entry[:, None, :] + (dt[:, None] * np.arange(M + 1))[..., None] * v
    nu_s = grid.interpolate(nu2d, pts.reshape(-1, 2)).reshape(len(cells), M + 1)
    return np.sum(0.5 * (nu_s[:, :-1] + nu_s[:, 1:]) * dt[:, None], axis=1), F_exit, taus


def smooth_field_on(grid):
    return Field.from_function(grid, [
        lambda x, y: 1.0 + 0.3 * x,
        lambda x, y: 1.2 + 0.2 * y,
        lambda x, y: np.exp(-(x * x + y * y)),
        lambda x, y: 0.8 + 0.1 * x * y,
    ])


def test_chord_values_shared_along_each_line(disk, broadwell):
    grid = dv.Grid(disk, 48)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=48))
    F = smooth_field_on(grid)
    nu = eval_truncated(broadwell, F.values, 8.0).frequency
    for i in range(broadwell.p):
        tab = ws.table(i)
        I_nu, F_exit = (a.ravel()[tab.cells_flat] for a in ws.chord(i, nu[i], F.values[i]))
        head = np.flatnonzero(np.diff(tab.line, prepend=-1) != 0)
        assert np.array_equal(I_nu, I_nu[head][tab.line])
        assert np.array_equal(F_exit, F_exit[head][tab.line])
        assert len(head) < len(tab.cells_flat)


def test_chord_constant_frequency_is_nu_times_tau(disk, broadwell):
    c = 1.7
    grid = dv.Grid(disk, 40)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=40))
    nu = Field.constant(grid, [c]).values[0]
    for i in range(broadwell.p):
        I_nu, F_exit = ws.chord(i, nu, nu)
        _, _, taus = per_cell_chords(disk, grid, nu, nu, broadwell.v[i], ws.h_s)
        assert np.max(np.abs(I_nu[grid.mask] - c * taus)) <= 1e-13 * c * np.max(taus)
        assert np.max(np.abs(F_exit[grid.mask] - c)) <= 1e-14 * c


@pytest.mark.parametrize("n", [24, 48])
def test_chords_agree_with_per_cell_ladders_to_second_order(disk, broadwell, n):
    """Line ladders and per-cell uniform ladders are two trapezoid rules with
    steps <= h_s = h/2 on the same interpolant: they differ at O(h^2)."""
    grid = dv.Grid(disk, n)
    ws = SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=n))
    F = smooth_field_on(grid)
    nu = eval_truncated(broadwell, F.values, 8.0).frequency
    for i in range(broadwell.p):
        I_nu, F_exit = (a[grid.mask] for a in ws.chord(i, nu[i], F.values[i]))
        I_ref, F_ref, _ = per_cell_chords(disk, grid, nu[i], F.values[i],
                                          broadwell.v[i], ws.h_s)
        assert np.sum(np.abs(I_nu - I_ref)) <= 0.025 * grid.h ** 2 * np.sum(I_ref)
        assert np.max(np.abs(F_exit - F_ref)) < 1e-12


def test_exceptional_workspace_matches_default_bitwise(disk, broadwell, grid24,
                                                       smooth_field):
    """The calls without a workspace run before the grid has one, so they
    build their own tables."""
    F = Field(grid24, 3.0 * smooth_field.values)
    defaults = [exceptional_sets(disk, broadwell, F, 8.0, epsilon=eps) for eps in (0.1, 0.8)]
    ws = SolverWorkspace(disk, broadwell, grid24, SolverConfig(grid_n=24))
    for eps, a in zip((0.1, 0.8), defaults):
        b = exceptional_sets(disk, broadwell, F, 8.0, epsilon=eps, workspace=ws)
        for name in ("measure", "measure_exit", "measure_nu", "measure_strips",
                     "measure_strips_boundary", "chi"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.bound_violations == b.bound_violations
    # at eps = 0.8 both marks are set: lines exit above 1/eps and integrate nu above it
    assert np.any(a.measure_exit > 0) and np.any(a.measure_nu > 0)


def test_repeat_calls_on_shared_arcs_are_bitwise_equal(broadwell, maxwellian_values):
    """The arcs and tangency points are shared between calls; the second call
    of each boundary diagnostic reads them back unchanged.  The field is a
    Maxwellian times a few trig modes, on a domain no other test builds, so
    the first calls build the arcs."""
    dom = dv.ConvexDomain.disk(center=(0.125, -0.0625))
    grid = dv.Grid(dom, 32)
    ws = SolverWorkspace(dom, broadwell, grid, SolverConfig(grid_n=32))
    F = Field.from_function(grid, [
        lambda x, y, e=e, ph=ph: e * (1.0 + 0.05 * (np.sin(math.pi * x + ph)
                                                    + np.sin(math.pi * (x + y) - ph)))
        for e, ph in zip(maxwellian_values, (0.3, 1.1, 2.0, 4.2))])
    bd = BoundaryData.constant(list(maxwellian_values))
    nu, gain = collision_grids(broadwell, F, k=16.0)
    calls = [
        lambda: [characteristic_balance(dom, broadwell, F, bd, 0.0, nu, gain)],
        lambda: [exceptional_sets(dom, broadwell, F, 16.0, epsilon=0.1, workspace=ws)],
        lambda: residual_renormalized(dom, broadwell, bd, F, k=16.0, workspace=ws),
    ]
    for call in calls:
        first, second = call(), call()
        for a, b in zip(first, second):
            for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
                assert np.array_equal(x, y)


# -- translation moduli ------------------------------------------------------------------------

def test_modulus_constant_is_zero(disk, broadwell, grid24):
    F = Field.constant(grid24, [3.0])
    moduli = translation_modulus(F.values[0], grid24, (1.0, 0.0), [0.1, 0.05])
    assert np.max(moduli) < 1e-14


def test_modulus_linear_slope(disk):
    grid = dv.Grid(disk, 48)
    F = Field.from_function(grid, [lambda x, y: 4.0 + x])
    hs = [0.08, 0.04, 0.02]
    moduli = translation_modulus(F.values[0], grid, (1.0, 0.0), hs)
    den = float(np.sum(np.abs(F.values[0]))) * grid.cell_area
    for h, mod in zip(hs, moduli[0]):
        # |g(z+h) - g(z)| = h on the valid set, whose area is slightly below
        # |Omega|; near the boundary the interpolation stencil reads extended
        # values, so the closed form holds at the percent level
        pts = grid.centers[grid.mask] + np.array([h, 0.0])
        valid_area = float(np.sum(disk.contains(pts))) * grid.cell_area
        want = h * valid_area / den
        assert mod == pytest.approx(want, rel=2e-2)
    # proportionality: modulus / h constant across shifts
    slopes = moduli[0] / np.asarray(hs)
    assert np.max(slopes) / np.min(slopes) < 1.05


def test_modulus_decreases_with_shift(disk, broadwell, grid24, smooth_field):
    moduli = translation_modulus(smooth_field.values, grid24, (0.6, 0.8),
                                 [0.2, 0.1, 0.05])
    assert np.all(moduli[:, 1] <= moduli[:, 0] + 1e-12)
    assert np.all(moduli[:, 2] <= moduli[:, 1] + 1e-12)


def reference_translation_modulus(values, grid, direction, h_list):
    """`translation_modulus` as a loop over shifts, each masking every
    component again and picking its valid points with a boolean index."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 2:
        vals = vals[None, :, :]
    d = np.asarray(direction, dtype=float)
    d = d / float(np.hypot(d[0], d[1]))
    shifts = np.asarray(list(h_list), dtype=float)
    area = grid.cell_area
    cells = grid.centers[grid.mask]
    out = np.zeros((vals.shape[0], len(shifts)))
    for si, h in enumerate(shifts):
        pts = cells + h * d
        valid = grid.domain.contains(pts)
        at_pts = grid.interp_weights(pts[valid])
        for c in range(vals.shape[0]):
            base = vals[c][grid.mask]
            shifted = grid.sample(vals[c], *at_pts)
            num = float(np.sum(np.abs(shifted - base[valid]))) * area
            den = float(np.sum(np.abs(base))) * area
            out[c, si] = num / max(den, 1e-300)
    return out


@pytest.mark.parametrize("domain", [
    dv.ConvexDomain.disk(),
    dv.ConvexDomain.ellipse(1.5, 0.8, center=(0.1, -0.2)),
    dv.ConvexDomain.superellipse(1.0, 0.9, 4.0),
], ids=["disk", "shifted ellipse", "superellipse"])
def test_translation_modulus_matches_the_per_shift_loop_bitwise(domain):
    """Interior values and norms taken once and valid points taken by index
    give the loop's bits, for one and four components, with shifts that move
    some cells, most cells and every cell out of the domain."""
    grid = dv.Grid(domain, 40)
    vals = np.random.default_rng(5).uniform(0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask
    shifts = [grid.h, 0.1 * domain.diameter, 0.6 * domain.diameter, 1.1 * domain.diameter]
    for direction in ((1.0, 0.0), (0.6, -0.8), (-1.0, 2.0)):
        for values in (vals, vals[2]):
            got = translation_modulus(values, grid, direction, shifts)
            want = reference_translation_modulus(values, grid, direction, shifts)
            assert got.shape == (len(values) if values.ndim == 3 else 1, len(shifts))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.all(got[:, 1] > 0.0) and np.all(got[:, -1] == 0.0)


def test_stage_moduli_are_those_of_the_integrated_frequency(disk, broadwell, grid24,
                                                             smooth_field):
    """The level report integrates the frequency of its balance: its moduli
    are those of `integrated_collision_frequency`, bitwise."""
    ws = SolverWorkspace(disk, broadwell, grid24, SolverConfig(grid_n=24))
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 0.25])
    info = stage_diagnostics(disk, broadwell, smooth_field, bd, 8.0, workspace=ws)
    intnu = integrated_collision_frequency(disk, broadwell, smooth_field, 8.0)
    assert info["moduli_integrated_frequency"] == [
        float(np.max(translation_modulus(intnu, grid24, v, [disk.diameter / 32.0])))
        for v in broadwell.v]


def test_integrated_frequency_modulus_stable_for_constants(disk, broadwell, grid24):
    F = Field.constant(grid24, [1.0] * 4)
    intnu = integrated_collision_frequency(disk, broadwell, F, 8.0)
    assert intnu.shape == F.values.shape
    assert np.all(intnu >= 0.0)
    moduli = translation_modulus(intnu, grid24, broadwell.v[0], [grid24.h * 2])
    assert np.all(np.isfinite(moduli))


def test_sweep_soft_checks_warn_on_entropy_growth_and_spread_moduli():
    """Synthetic level reports: the last entropy is above twice the median of
    all levels, and the largest moduli of the levels differ by 3x."""
    levels = [{"entropy_weighted": 1.0, "moduli_integrated_frequency": [0.1, 0.2]},
              {"entropy_weighted": -1.2, "moduli_integrated_frequency": [0.3]},
              {"entropy_weighted": 5.0, "moduli_integrated_frequency": [0.6, 0.1]}]
    with pytest.warns(UserWarning) as caught:
        notes = sweep_soft_checks(levels)
    assert len(notes) == 2
    assert notes[0].startswith("entropy functional grew to 5.000e+00, above twice "
                               "the median 1.200e+00")
    assert notes[1] == "integrated-frequency moduli vary by 3.00x across levels"
    assert [str(w.message) for w in caught] == notes
    assert sweep_soft_checks(levels[:2]) == []
