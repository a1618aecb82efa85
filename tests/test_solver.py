"""Transport-sweep, monotone ladder, fixed point and continuation tests.

Closed-form transport solutions and the mass-cap/monotonicity structure of
the ladder are the primary oracles.
"""

import math
from dataclasses import fields as dataclass_fields, replace

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.collision import (CollisionDomainError, eval_convolved_truncated, eval_truncated,
                              eval_untruncated, frequency_source,
                              gain_truncated, truncated_factor)
from dvmbvp.diagnostics import exceptional_sets
from dvmbvp.fields import (BoundaryData, CallableTrace, Field, FieldError, mollify_field,
                           truncate_and_mollify_boundary)
from dvmbvp.geometry import boundary_param, boundary_quadrature
from dvmbvp import solver
from dvmbvp.solver import (LADDER_START_MARGIN, SolverConfig, SolverError,
                           SolverWorkspace, _matmul, _n_steps, _transport, compute_mass_cap,
                           default_test_functions, inner_monotone_solve, outer_fixed_point,
                           residual_mild, residual_renormalized)

from conftest import directed_entries


@pytest.fixture(scope="module")
def ws24(disk, broadwell):
    grid = dv.Grid(disk, 24)
    return SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=24))


@pytest.fixture(scope="module")
def ws32(disk, broadwell):
    grid = dv.Grid(disk, 32)
    return SolverWorkspace(disk, broadwell, grid, SolverConfig(grid_n=32))


def disk_entry_time(z, v, r=1.0):
    z = np.asarray(z, float)
    v = np.asarray(v, float)
    a = v @ v
    b = z @ v
    return (b + np.sqrt(b * b - a * (z @ z - r * r))) / a


def transport(ws, bd, nu, gain, alpha):
    """One exponential transport sweep of the given frequency and gain fields."""
    return Field(ws.grid, ws.apply_exponential(ws.entry_values(bd), nu.values, gain.values,
                                               alpha))


# -- exponential transport step ------------------------------------------------

def test_step_pure_transport_exact(disk, broadwell, ws24):
    bd = BoundaryData.constant([2.0, 3.0, 4.0, 5.0])
    zero = Field.zeros(ws24.grid, 4)
    out = transport(ws24, bd, zero, zero, 0.0)
    for i in range(4):
        vals = out.values[i][ws24.grid.mask]
        assert np.all(vals == bd.traces[i].value)


def test_step_constant_frequency_closed_form(disk, broadwell, ws32):
    c = 1.3
    bd = BoundaryData.constant([2.0] * 4)
    nu = Field.constant(ws32.grid, [c] * 4)
    gain = Field.zeros(ws32.grid, 4)
    out = transport(ws32, bd, nu, gain, 0.0)
    # independent oracle: exact disk chord entry times
    cells = ws32.grid.centers[ws32.grid.mask]
    for i in range(4):
        sp = np.array([disk_entry_time(z, broadwell.v[i]) for z in cells])
        want = 2.0 * np.exp(-c * sp)
        got = out.values[i][ws32.grid.mask]
        assert np.max(np.abs(got - want) / want) < 1e-10


def test_step_constant_gain_closed_form(disk, broadwell, ws32):
    c, g = 1.0, 0.7
    bd = BoundaryData.constant([2.0] * 4)
    nu = Field.constant(ws32.grid, [c] * 4)
    gain = Field.constant(ws32.grid, [g] * 4)
    out = transport(ws32, bd, nu, gain, 0.0)
    cells = ws32.grid.centers[ws32.grid.mask]
    for i in range(4):
        sp = np.array([disk_entry_time(z, broadwell.v[i]) for z in cells])
        want = 2.0 * np.exp(-c * sp) + (g / c) * (1.0 - np.exp(-c * sp))
        got = out.values[i][ws32.grid.mask]
        assert np.max(np.abs(got - want) / want) < 1e-5   # trapezoid quadrature order


def test_step_damped_transport(disk, broadwell, ws24):
    alpha = 0.5
    bd = BoundaryData.constant([1.0] * 4)
    zero = Field.zeros(ws24.grid, 4)
    out = transport(ws24, bd, zero, zero, alpha)
    cells = ws24.grid.centers[ws24.grid.mask]
    for i in range(4):
        sp = np.array([disk_entry_time(z, broadwell.v[i]) for z in cells])
        got = out.values[i][ws24.grid.mask]
        assert np.max(np.abs(got - np.exp(-alpha * sp))) < 1e-12


# -- characteristic lines ----------------------------------------------------------
# At 40^2 and 48^2 the normal offsets of cells on one line differ by rounding.

def line_workspace(disk, model, n):
    grid = dv.Grid(disk, n)
    return SolverWorkspace(disk, model, grid, SolverConfig(grid_n=n))


@pytest.mark.parametrize("n", [40, 48])
def test_lines_partition_cells_and_hold_many(disk, broadwell, n):
    ws = line_workspace(disk, broadwell, n)
    interior = np.flatnonzero(ws.grid.mask.ravel())
    for i in range(broadwell.p):
        tab = ws.table(i)
        assert np.array_equal(np.sort(tab.cells_flat), interior)
        assert np.all(np.diff(tab.line) >= 0)
        assert np.all(np.diff(tab.s_plus)[np.diff(tab.line) == 0] > 0)
        assert len(tab.cells_flat) >= 5 * tab.n_lines


@pytest.mark.parametrize("n", [40, 48])
def test_line_nodes_increase_with_bounded_steps(disk, broadwell, n):
    ws = line_workspace(disk, broadwell, n)
    for i in range(broadwell.p):
        tab = ws.table(i)
        for lad in (tab.entry, tab.exit_ladder(ws.grid, ws.h_s)):
            end_row = np.count_nonzero(lad.dt > 0.0, axis=0)
            ladder = np.arange(len(lad.dt))[:, None] < end_row[None, :]
            assert np.all(lad.dt[ladder] > 0.0)       # strictly increasing node times
            assert np.all(lad.dt[~ladder] == 0.0)     # padding
            assert np.max(lad.dt) * tab.speed <= ws.h_s * (1 + 1e-12)
        # every interior gap: S equal steps from one cell to the next
        same = np.diff(tab.line) == 0
        patches = tab.read(np.zeros((ws.grid.ny, ws.grid.nx)))[1]
        assert patches.shape == (len(tab.taps), np.count_nonzero(same))
        assert np.count_nonzero(same) > 0
        assert np.max(np.abs(np.diff(tab.s_plus)[same] - tab.S * tab.dt)) <= 1e-12
        assert 0.0 < tab.dt * tab.speed <= ws.h_s * (1 + 1e-12)


@pytest.mark.parametrize("n", [40, 48])
def test_line_node_of_each_cell_is_its_centre(disk, broadwell, n):
    """The entry ladder ends and the exit ladder starts at a cell centre, and
    an interior gap's first and last nodes are its two cells."""
    ws = line_workspace(disk, broadwell, n)
    grid = ws.grid
    vals = np.random.default_rng(n).uniform(0.0, 1.0, (grid.ny, grid.nx))
    at_cells = vals.ravel()
    for i in range(broadwell.p):
        tab = ws.table(i)
        head = np.flatnonzero(np.diff(tab.line, prepend=-1))
        up = np.flatnonzero(np.diff(tab.line) == 0)
        up = up[np.argsort(tab.slot[up + 1])]         # gaps in chain order
        x = tab.exit_ladder(grid, ws.h_s)
        at_entry_nodes, patches = tab.read(vals)
        at_first = at_entry_nodes[-1]
        at_last = grid.sample(vals, x.reads[:, 0], x.W[:, 0])
        at_nodes = tab.M @ patches
        for got, cells in [(at_first, head), (at_last, tab.last),
                           (at_nodes[0], up), (at_nodes[-1], up + 1)]:
            assert np.max(np.abs(got - at_cells[tab.cells_flat[cells]])) < 1e-12
        sp = np.array([disk_entry_time(z, broadwell.v[i])
                       for z in grid.centers.reshape(-1, 2)[tab.cells_flat]])
        assert np.max(np.abs(tab.s_plus - sp)) < 1e-12


@pytest.mark.parametrize("n", [24, 48])
def test_classical_broadwell_gaps_take_two_steps(disk, n):
    """A gap of exactly 2 h_s gets 2 steps, whatever the rounding in its length."""
    model = dv.classical_broadwell()
    ws = line_workspace(disk, model, n)
    for i in range(model.p):
        tab = ws.table(i)
        same = np.diff(tab.line) == 0
        assert tab.S == 2
        assert np.all(_n_steps(np.diff(tab.s_plus)[same] * tab.speed, ws.h_s) == 2)


@pytest.mark.parametrize("n", [40, 48])
def test_line_sweep_monotone_bitwise(disk, broadwell, n):
    ws = line_workspace(disk, broadwell, n)
    grid = ws.grid
    rng = np.random.default_rng(n)
    shape = (broadwell.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape) * grid.mask
    gain = rng.uniform(0.0, 2.0, shape) * grid.mask
    nu_low = nu * rng.uniform(0.0, 1.0, shape)
    gain_high = gain + rng.uniform(0.0, 1.0, shape) * grid.mask
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    for alpha in (0.0, 0.25):
        base = ws.apply_exponential(entry, nu, gain, alpha)
        assert np.all(ws.apply_exponential(entry, nu_low, gain, alpha) >= base)
        assert np.all(ws.apply_exponential(entry, nu, gain_high, alpha) >= base)
        assert np.all(ws.apply_exponential(entry, nu_low, gain_high, alpha) >= base)


@pytest.mark.parametrize("n", [40, 48])
def test_off_lattice_velocity_one_cell_per_line(disk, n):
    """A velocity off the lattice: every cell is its own line, same engine."""
    model = dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])
    ws = line_workspace(disk, model, n)
    tab = ws.table(0)
    assert tab.n_lines == len(tab.cells_flat)
    c, g = 1.0, 0.7
    bd = BoundaryData.constant([2.0])
    out = transport(ws, bd, Field.constant(ws.grid, [c]), Field.constant(ws.grid, [g]), 0.0)
    cells = ws.grid.centers[ws.grid.mask]
    sp = np.array([disk_entry_time(z, model.v[0]) for z in cells])
    want = 2.0 * np.exp(-c * sp) + (g / c) * (1.0 - np.exp(-c * sp))
    got = out.values[0][ws.grid.mask]
    assert np.max(np.abs(got - want) / want) < 1e-5


@pytest.mark.parametrize("domain, velocities", [
    (dv.ConvexDomain.disk(), None),
    (dv.ConvexDomain.ellipse(2.0, 1.0, center=(0.3, -0.2)), None),
    (dv.ConvexDomain.superellipse(1.0, 0.8, 4.0), None),
    (dv.ConvexDomain.disk(), [(1.0, math.sqrt(2.0))]),
])
def test_line_tracing_matches_per_cell_exit_times(broadwell, domain, velocities):
    """Each line is traced once; its cells are placed by projection onto v."""
    model = broadwell if velocities is None else dv.VelocityModel.create(velocities, [])
    ws = line_workspace(domain, model, 40)
    grid = ws.grid
    tol = 1e-12 * domain.diameter
    for i in range(model.p):
        tab = ws.table(i)
        v = model.v[i]
        zs = grid.centers.reshape(-1, 2)[tab.cells_flat]
        assert np.max(np.abs(tab.s_plus - domain.exit_times(zs, -v))) * tab.speed <= tol
        # each line's gaps add up to its chord, in steps of at most h_s
        last = tab.last
        s_minus = domain.exit_times(zs[last], v)
        chord = tab.s_plus[last] + s_minus
        gaps = (np.bincount(tab.line) - 1) * (tab.S * tab.dt)
        x = tab.exit_ladder(grid, ws.h_s)
        total = np.sum(tab.entry.dt, axis=0) + gaps + np.sum(x.dt, axis=0)
        assert np.max(np.abs(total - chord)) * tab.speed <= tol
        for lad in (tab.entry, x):
            assert np.all(lad.dt >= 0.0)
            assert np.max(lad.dt) * tab.speed <= ws.h_s * (1 + 1e-12)
        if tab.chain:
            assert tab.dt * tab.speed <= ws.h_s * (1 + 1e-12)
        exit_pts = zs[last] + s_minus[:, None] * v
        vals = np.random.default_rng(i).uniform(0.0, 1.0, (grid.ny, grid.nx))
        at_exit = grid.sample(vals, x.reads[:, -1], x.W[:, -1])
        assert np.max(np.abs(at_exit - grid.interpolate(vals, exit_pts))) < 1e-12


# -- whole-line reference ------------------------------------------------------------
# The engine before gap transfers: one node ladder per line from its entry point
# through every cell centre to its exit point, with one trapezoid recursion
# over all of its nodes.  Gap transfers regroup the same recursion, so results
# move by rounding alone.

def reference_ladder(grid, start, ray, t_stop, v, h_s, stop_pts):
    """Nodes of rays start + t v with a node at every stop (listed ray by ray),
    shape (L, rays); returns dt, the node stencils and the flat node of each stop."""
    n_rays = len(start)
    first = np.diff(ray, prepend=-1) != 0
    t_prev = np.where(first, 0.0, np.roll(t_stop, 1))
    gap = t_stop - t_prev
    steps = _n_steps(gap * float(np.hypot(v[0], v[1])), h_s)
    ends = np.cumsum(steps)
    col = ends - (ends - steps)[first][ray]
    owner = np.repeat(np.arange(len(t_stop)), steps)
    j = np.arange(len(owner)) - np.repeat(ends - steps, steps) + 1
    t_nodes = t_prev[owner] + j * (gap / steps)[owner]
    t_nodes[ends - 1] = t_stop
    t = np.zeros((int(col.max(initial=0)) + 1, n_rays))
    t[(col - steps)[owner] + j, ray[owner]] = t_nodes
    np.maximum.accumulate(t, axis=0, out=t)
    pts = start[None, :, :] + t[..., None] * v
    pts[col, ray] = stop_pts
    reads, W = grid.interp_weights(pts)
    return np.diff(t, axis=0), reads, W, col * n_rays + ray


def reference_recursion(dt, inflow, nu_s, gain_s, alpha):
    """F at every node: F_{m+1} = F_m E_m + (dt_m / 2)(g_m E_m + g_{m+1})."""
    E = np.exp(-(alpha + 0.5 * (nu_s[:-1] + nu_s[1:])) * dt)
    F = np.empty_like(gain_s)
    F[0] = inflow
    for m in range(len(E)):
        F[m + 1] = F[m] * E[m] + 0.5 * dt[m] * (gain_s[m] * E[m] + gain_s[m + 1])
    return F


class ReferenceLines:
    """Whole-line ladders of one velocity, built from the workspace's lines."""

    def __init__(self, ws, i):
        tab, grid = ws.table(i), ws.grid
        v = np.asarray(ws.model.v[i], dtype=float)
        zs = grid.centers.reshape(-1, 2)[tab.cells_flat]
        head = np.flatnonzero(np.diff(tab.line, prepend=-1))
        s_head = tab.s_plus[head]
        tau = s_head + ws.domain.exit_times(zs[head], v)
        entry = zs[head] - s_head[:, None] * v
        after_last = np.append(head[1:], len(tab.line))
        lines = np.arange(len(head))
        self.dt, self.reads, self.W, node = reference_ladder(
            grid, entry, np.insert(tab.line, after_last, lines),
            np.insert(tab.s_plus, after_last, np.maximum(tau, tab.s_plus[after_last - 1])),
            v, ws.h_s, np.insert(zs, after_last, entry + tau[:, None] * v, axis=0))
        self.node = np.delete(node, after_last + lines)
        self.grid, self.line = grid, tab.line

    def samples(self, values2d):
        return self.grid.sample(values2d, self.reads, self.W)

    def nodes(self, inflow, nu2d, gain2d, alpha):
        return reference_recursion(self.dt, inflow, self.samples(nu2d), self.samples(gain2d),
                                   alpha)

    def cells(self, inflow, nu2d, gain2d, alpha):
        return self.nodes(inflow, nu2d, gain2d, alpha).ravel()[self.node]


def assert_relative(got, want, rtol=1e-13):
    assert np.all(np.abs(got - want) <= rtol * np.abs(want))


@pytest.mark.parametrize("domain, model", [
    (dv.ConvexDomain.disk(), dv.shifted_broadwell()),
    (dv.ConvexDomain.ellipse(2.0, 1.0, center=(0.3, -0.2)), dv.shifted_broadwell()),
    (dv.ConvexDomain.superellipse(1.0, 0.8, 4.0), dv.shifted_broadwell()),
    (dv.ConvexDomain.disk(), dv.VelocityModel.create([(1.0, math.sqrt(2.0))], [])),
    (dv.ConvexDomain.ellipse(2.0, 1.0, center=(0.3, -0.2)), dv.classical_broadwell()),
], ids=["disk", "ellipse", "superellipse", "off-lattice", "classical"])
def test_gap_transfers_match_whole_line_recursion(domain, model):
    ws = line_workspace(domain, model, 40)
    grid = ws.grid
    rng = np.random.default_rng(5)
    shape = (model.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape) * grid.mask
    gain = rng.uniform(0.1, 2.0, shape) * grid.mask
    zero = np.zeros((grid.ny, grid.nx))
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0][:model.p]))
    sweeps = {alpha: ws.apply_exponential(entry, nu, gain, alpha) for alpha in (0.0, 0.25)}
    for i in range(model.p):
        ref = ReferenceLines(ws, i)
        tab = ws.table(i)
        no_inflow = np.zeros(tab.n_lines)
        for alpha, sweep in sweeps.items():
            assert_relative(sweep[i].ravel()[tab.cells_flat],
                            ref.cells(entry[i], nu[i], gain[i], alpha))
            assert_relative(ws._lines(tab, no_inflow, nu[i], gain[i], alpha),
                            ref.cells(no_inflow, nu[i], gain[i], alpha))
            assert np.array_equal(ws._lines(tab, no_inflow, None, gain[i], alpha),
                                  ws._lines(tab, no_inflow, zero, gain[i], alpha))
            assert np.array_equal(ws.path_integral(i, gain[i], alpha),
                                  ws._lines(tab, no_inflow, None, gain[i], alpha))
        assert_relative(ws.path_integral(i, gain[i]), ref.cells(no_inflow, zero, gain[i], 0.0))
        integral, at_exit = ws.chord(i, gain[i], nu[i])
        want = ref.nodes(no_inflow, zero, gain[i], 0.0)[-1][tab.line]
        assert_relative(integral.ravel()[tab.cells_flat], want)
        assert_relative(at_exit.ravel()[tab.cells_flat], ref.samples(nu[i])[-1][tab.line])


# -- pad-and-gather reference ---------------------------------------------------------
# A table reads every node sample with one take through an index composed with
# the grid's nearest-interior map.  Before, a sweep continued each field past
# the boundary (the padded field), gathered the entry ladders through four
# shifted reads of a lower-left stencil and took each gap tap with its own
# clipped take from the lowest cell of the patch.  Same samples, same
# arithmetic: results must agree bitwise.

def lower_left_stencil(grid, points):
    """Flat index of each point's lower-left cell and its four corner weights."""
    gx = (points[..., 0] - grid.x0) / grid.h - 0.5
    gy = (points[..., 1] - grid.y0) / grid.h - 0.5
    ix = np.clip(np.floor(gx).astype(np.int64), 0, grid.nx - 2)
    iy = np.clip(np.floor(gy).astype(np.int64), 0, grid.ny - 2)
    fx = np.clip(gx - ix, 0.0, 1.0)
    fy = np.clip(gy - iy, 0.0, 1.0)
    return iy * grid.nx + ix, ((1.0 - fx) * (1.0 - fy), fx * (1.0 - fy),
                               (1.0 - fx) * fy, fx * fy)


def gather(grid, padded, flat, w):
    w00, w10, w01, w11 = w
    return (w00 * padded[flat] + w10 * padded[flat + 1]
            + w01 * padded[flat + grid.nx] + w11 * padded[flat + grid.nx + 1])


class PadAndGather:
    """Node samples of one table by pad and gather, from stencils rebuilt out
    of the table's lines: the entry ladder's nodes and each gap's `base`, the
    flat index of the lowest cell of its patch."""

    def __init__(self, ws, i):
        tab, grid = ws.table(i), ws.grid
        v = tab.v
        head = np.flatnonzero(np.diff(tab.line, prepend=-1))
        z_head = grid.centers.reshape(-1, 2)[tab.cells_flat[head]]
        s_head = ws.domain.exit_times(z_head, -v)
        steps = _n_steps(s_head * tab.speed, ws.h_s)
        m = np.arange(int(steps.max(initial=0)) + 1)[:, None]
        t = np.where(m < steps, m * (s_head / steps), s_head)
        pts = (z_head - s_head[:, None] * v)[None, :, :] + t[..., None] * v
        pts = np.where((m >= steps)[..., None], z_head, pts)
        assert np.array_equal(np.diff(t, axis=0), tab.entry.dt)
        self.flat, self.w = lower_left_stencil(grid, pts)
        up = np.flatnonzero(np.diff(tab.line) == 0)
        up = up[np.argsort(tab.slot[up + 1])]         # gaps in chain order
        iy, ix = np.divmod(tab.cells_flat, grid.nx)
        dy, dx = iy[up + 1] - iy[up], ix[up + 1] - ix[up]
        self.base = tab.cells_flat[up] + np.minimum(0, dy) * grid.nx + np.minimum(0, dx)
        self.grid, self.taps = grid, tab.taps

    def padded(self, values2d):
        return values2d.ravel()[self.grid.pad_flat]

    def entry(self, values2d):
        return gather(self.grid, self.padded(values2d), self.flat, self.w)

    def patches(self, values2d):
        padded = self.padded(values2d)
        P = np.empty((len(self.taps), len(self.base)))
        for k, o in enumerate(self.taps):
            np.take(padded[o:], self.base, out=P[k], mode="clip")
        return P


def pad_and_gather_lines(tab, ref, inflow, nu2d, gain2d, alpha):
    """The sweep of one table with pad-and-gather reads, otherwise as `_lines`."""
    F = np.empty(len(tab.slot))
    F[:tab.n_lines] = _transport(tab.entry, inflow,
                                 None if nu2d is None else ref.entry(nu2d),
                                 ref.entry(gain2d), alpha)
    if not tab.chain:
        return F[tab.slot]
    if nu2d is None:
        R = np.exp(-alpha * tab.t_rest)[:, None]
    else:
        A = _matmul(tab.MA, ref.patches(nu2d))
        R = np.exp(np.subtract(-alpha * tab.t_rest[:, None], A, out=A), out=A)
    loc = _matmul(tab.MG, ref.patches(gain2d))
    loc[:-1] *= R
    loc = loc.sum(axis=0)
    R0 = np.broadcast_to(R[0], loc.shape)
    for a, b, g, n in tab.chain:
        np.multiply(F[a:a + n], R0[g:g + n], out=F[b:b + n])
        F[b:b + n] += loc[g:g + n]
    return F[tab.slot]


@pytest.mark.parametrize("n", [24, 48])
@pytest.mark.parametrize("model", [
    dv.shifted_broadwell(), dv.classical_broadwell(),
    dv.VelocityModel.create([(1.0, math.sqrt(2.0))], []),
], ids=["shifted", "classical", "off-lattice"])
def test_table_reads_match_pad_and_gather(disk, model, n):
    ws = line_workspace(disk, model, n)
    grid = ws.grid
    vals = np.random.default_rng(n).uniform(0.0, 1.0, (grid.ny, grid.nx))
    for i in range(model.p):
        tab, ref = ws.table(i), PadAndGather(ws, i)
        at_entry_nodes, patches = tab.read(vals)
        assert np.array_equal(at_entry_nodes, ref.entry(vals))
        assert np.array_equal(patches, ref.patches(vals))
        # every gap read lies inside the grid, so the reference's clip never fired
        assert np.all(ref.base >= 0)
        assert np.all(ref.base + tab.taps.max() < grid.ny * grid.nx)


@pytest.mark.parametrize("n", [32, 64])
def test_sweep_matches_pad_and_gather_bitwise(disk, broadwell, n):
    ws = line_workspace(disk, broadwell, n)
    grid = ws.grid
    rng = np.random.default_rng(n)
    shape = (broadwell.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape)
    gain = rng.uniform(0.0, 2.0, shape)
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    refs = [PadAndGather(ws, i) for i in range(broadwell.p)]
    for alpha in (0.0, 0.25):
        for nu_of in (lambda i: nu[i], lambda i: None):
            got = ws.apply_exponential(entry, nu_of, gain, alpha)
            for i, ref in enumerate(refs):
                tab = ws.table(i)
                want = pad_and_gather_lines(tab, ref, entry[i], nu_of(i), gain[i], alpha)
                assert np.array_equal(got[i].ravel()[tab.cells_flat], want)


def test_repeated_sweeps_are_bit_identical(disk, broadwell):
    """A sweep depends on its inputs alone: repeats, a fresh workspace and inputs
    copied to other addresses give the same bits."""
    ws, fresh = line_workspace(disk, broadwell, 48), line_workspace(disk, broadwell, 48)
    grid = ws.grid
    rng = np.random.default_rng(11)
    shape = (broadwell.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape) * grid.mask
    gain = rng.uniform(0.0, 2.0, shape) * grid.mask
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    first = ws.apply_exponential(entry, nu, gain, 0.25)
    for shift in range(1, 4):
        buf = np.empty(2 * nu.size + shift)
        nu_moved = buf[shift:shift + nu.size].reshape(shape)
        gain_moved = buf[shift + nu.size:].reshape(shape)
        nu_moved[...], gain_moved[...] = nu, gain
        assert np.array_equal(ws.apply_exponential(entry, nu_moved, gain_moved, 0.25), first)
    assert np.array_equal(fresh.apply_exponential(entry, nu, gain, 0.25), first)


@pytest.mark.parametrize("model", [dv.shifted_broadwell(), dv.classical_broadwell()],
                         ids=["shifted", "classical"])
def test_gap_matrices_deterministic_and_monotone_to_one_ulp(disk, model):
    """The gap products MG P and MA P give the same bits for patches at any
    address and never decrease when patch entries grow by one ulp."""
    ws = line_workspace(disk, model, 48)
    rng = np.random.default_rng(2)
    for i in range(model.p):
        tab = ws.table(i)
        P = np.hstack([tab.read(rng.uniform(0.0, 2.0, (ws.grid.ny, ws.grid.nx)))[1]
                       for _ in range(4)])               # several gemm blocks wide
        bumped = np.where(rng.random(P.shape) < 0.5, np.nextafter(P, np.inf), P)
        for mat in (tab.MG, tab.MA):
            want = _matmul(mat, P)
            for shift in range(1, 8):
                buf = np.empty(P.size + shift)
                moved = buf[shift:].reshape(P.shape)
                moved[...] = P
                assert np.array_equal(_matmul(mat, moved), want)
            assert np.all(_matmul(mat, bumped) >= want)


def test_sweep_monotone_to_one_ulp(disk, broadwell):
    ws = line_workspace(disk, broadwell, 40)
    grid = ws.grid
    rng = np.random.default_rng(13)
    shape = (broadwell.p, grid.ny, grid.nx)
    nu = rng.uniform(0.0, 3.0, shape) * grid.mask
    gain = rng.uniform(0.0, 2.0, shape) * grid.mask
    pick = rng.random(shape) < 0.5
    entry = ws.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    for alpha in (0.0, 0.25):
        base = ws.apply_exponential(entry, nu, gain, alpha)
        nu_low = np.where(pick, np.nextafter(nu, 0.0), nu)
        gain_high = np.where(pick, np.nextafter(gain, np.inf), gain)
        assert np.all(ws.apply_exponential(entry, nu_low, gain, alpha) >= base)
        assert np.all(ws.apply_exponential(entry, nu, gain_high, alpha) >= base)


# -- inner monotone ladder -------------------------------------------------------

def test_inner_zero_boundary(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24)
    frozen = Field.constant(ws24.grid, [1.0] * 4)
    F, tr = inner_monotone_solve(disk, broadwell, BoundaryData.zero(4), frozen,
                                 cfg, workspace=ws24)
    assert F.mass() == 0.0
    assert tr.iterations == 1 and tr.converged


def test_inner_frozen_zero_is_damped_transport(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.5] * 4)
    frozen = Field.zeros(ws24.grid, 4)
    F, tr = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24)
    zero = Field.zeros(ws24.grid, 4)
    want = transport(ws24, bd, zero, zero, 0.25)
    assert np.array_equal(F.values, want.values)
    assert tr.converged


def test_inner_monotone_and_mass_capped(disk, broadwell, ws32):
    cfg = SolverConfig(alpha=0.5, k=10.0, grid_n=32)
    bd = BoundaryData.constant([1.0] * 4)
    frozen = Field.constant(ws32.grid, [1.0] * 4)
    F, tr = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws32)
    assert tr.converged
    assert tr.monotone_checked and tr.monotone_violations == 0
    assert np.all(np.diff(tr.masses) >= -1e-300)          # nondecreasing mass
    cap = compute_mass_cap(disk, broadwell, bd, 0.5)
    assert tr.masses[-1] <= cap * (1 + 1e-12)
    assert tr.mass_cap == pytest.approx(cap, rel=1e-12)


def test_inner_tightened_quadrature_agrees(disk, broadwell):
    """Self-oracle: halving h_s moves the ladder limit only at quadrature order."""
    bd = BoundaryData.constant([1.0] * 4)
    results = []
    for hs_factor in (0.5, 0.25):
        grid = dv.Grid(disk, 24)
        cfg = SolverConfig(alpha=0.5, k=10.0, grid_n=24, h_s=hs_factor * grid.h)
        ws = SolverWorkspace(disk, broadwell, grid, cfg)
        frozen = Field.constant(grid, [1.0] * 4)
        F, _ = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws)
        results.append(F)
    diff = results[0].l1_distance(results[1]) / results[1].mass()
    assert diff < 2e-4


def stage_rates(model, frozen, cfg):
    """Frequency source and truncated smoothed state of the stage map."""
    sm = mollify_field(frozen, cfg.alpha)
    return frequency_source(model, sm.values, cfg.k), truncated_factor(sm.values, cfg.k)


def jacobi_pass(ws, model, entry, source, tr_sm, F, cfg):
    """One Jacobi step of the stage map: every component from the previous iterate."""
    nu = source / (1.0 + F / cfg.k)
    gain = gain_truncated(model, truncated_factor(F, cfg.k), tr_sm)
    return ws.apply_exponential(entry, nu, gain, cfg.alpha)


def test_apply_exponential_callables_match_arrays(disk, broadwell, ws24):
    rng = np.random.default_rng(3)
    shape = (broadwell.p, ws24.grid.ny, ws24.grid.nx)
    nu = rng.uniform(0.0, 2.0, shape) * ws24.grid.mask
    gain = rng.uniform(0.0, 1.0, shape) * ws24.grid.mask
    entry = ws24.entry_values(BoundaryData.constant([0.5, 1.0, 1.5, 2.0]))
    want = ws24.apply_exponential(entry, nu, gain, 0.25)
    got = ws24.apply_exponential(entry, lambda i: nu[i], lambda i: gain[i], 0.25)
    assert np.array_equal(got, want)


def test_inner_pass_is_gauss_seidel(disk, broadwell, ws24):
    """Each inner step transports component i with the frequency of its own
    previous value and the gain of the components already updated."""
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 1.5])
    frozen = Field.constant(ws24.grid, [1.0, 0.8, 1.2, 0.9])
    source, tr_sm = stage_rates(broadwell, frozen, cfg)
    entry = ws24.entry_values(bd)
    G = np.zeros((broadwell.p, ws24.grid.ny, ws24.grid.nx))
    for q in (1, 2, 3):
        for i in range(broadwell.p):
            G[i] = jacobi_pass(ws24, broadwell, entry, source, tr_sm, G, cfg)[i]
        F, tr = inner_monotone_solve(disk, broadwell, bd, frozen,
                                     replace(cfg, max_inner=q), workspace=ws24)
        assert tr.iterations == q
        assert np.array_equal(F.values, G)


def test_gauss_seidel_and_jacobi_ladders_share_the_fixed_point(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.maxwellian(broadwell, 0.0, (0.1, -0.2), 0.05)
    frozen = Field.constant(ws24.grid, np.exp(broadwell.v @ [0.1, -0.2]
                                               + 0.05 * broadwell.speeds_sq))
    F_gs, tr = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24)
    source, tr_sm = stage_rates(broadwell, frozen, cfg)
    entry = ws24.entry_values(bd)
    F = np.zeros_like(F_gs.values)
    for jacobi_steps in range(1, cfg.max_inner + 1):
        new = jacobi_pass(ws24, broadwell, entry, source, tr_sm, F, cfg)
        inc = np.abs(new - F).sum()
        F = new
        if inc <= cfg.tol_inner * F.sum():
            break
    assert tr.converged and tr.iterations < jacobi_steps
    assert np.abs(F_gs.values - F).sum() <= 10 * cfg.tol_inner * F.sum()


def test_inner_max_inner_stops_the_ladder(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24, max_inner=2)
    F, tr = inner_monotone_solve(disk, broadwell, BoundaryData.constant([1.0] * 4),
                                 Field.constant(ws24.grid, [1.0] * 4), cfg, workspace=ws24)
    assert tr.termination == "max_inner" and not tr.converged
    assert tr.iterations == 2 and tr.tolerance == cfg.tol_inner


# -- certified ladder starts -------------------------------------------------------

def stage_inflow(disk, broadwell, maxwellian_params, inflow):
    return (BoundaryData.maxwellian(broadwell, *maxwellian_params) if inflow == "maxwellian"
            else step_inflow(disk, broadwell.p))


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_certified_start_ends_at_the_zero_start_limit(disk, broadwell, maxwellian_params,
                                                      ws24, inflow):
    """At the frozen state of a fourth outer iterate, the candidate the outer
    loop would try certifies, and its ladder ends within 10 tol_inner x mass
    of the zero-start ladder, in no more passes."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24, max_outer=4)
    frozen, outer = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    delta = LADDER_START_MARGIN * outer.increments[-1]
    assert delta < 1.0
    F0, tr0 = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24)
    F1, tr1 = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24,
                                   start=Field(ws24.grid, (1.0 - delta) * frozen.values))
    assert tr0.start == "zero" and tr1.start == "certified"
    assert tr0.converged and tr1.converged and tr1.monotone_violations == 0
    assert tr1.iterations <= tr0.iterations
    assert F1.l1_distance(F0) <= 10 * cfg.tol_inner * F0.mass()


def test_candidate_above_the_fixed_point_falls_back(disk, broadwell, maxwellian_params, ws24):
    """Twice the ladder's limit is no sub-solution: its pass is discarded and
    the ladder is bitwise the zero-start one, with one more pass counted."""
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.maxwellian(broadwell, *maxwellian_params)
    frozen = Field.constant(ws24.grid, [1.0, 0.8, 1.2, 0.9])
    F0, tr0 = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24)
    F1, tr1 = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24,
                                   start=Field(ws24.grid, 2.0 * F0.values))
    assert tr1.start == "fallback"
    assert np.array_equal(F1.values, F0.values)
    assert tr1.increments == tr0.increments and tr1.masses == tr0.masses
    assert tr1.iterations == tr0.iterations + 1


def allocating_ladder(ws, model, bd, frozen, cfg, start=None):
    """Reference ladder that allocates what it computes: nu, each gain row
    (np.zeros plus every entry in entry order) and each truncated factor
    k / (k / x + 1) per call, and a copy of F per pass.  Returns F, the
    increments and the start."""
    source, tr_sm = stage_rates(model, frozen, cfg)
    entry, area, k = ws.entry_values(bd), ws.grid.cell_area, cfg.k
    a, _, out1, out2, gamma = directed_entries(model)
    F = np.zeros((model.p, ws.grid.ny, ws.grid.nx))
    kind = "zero"
    if start is not None:
        kind = "certified"
        F[:, ws.grid.mask] = start.values[:, ws.grid.mask]
    with np.errstate(divide="ignore"):
        tr_F = k / (k / F + 1.0)

    def gain_of(i):
        with np.errstate(divide="ignore"):
            tr_F[i - 1] = k / (k / F[i - 1] + 1.0)
        g = np.zeros(F.shape[1:])
        for e in np.flatnonzero(a == i):
            g += gamma[e] * tr_F[out1[e]] * tr_sm[out2[e]]
        return g

    incs = []
    for q in range(cfg.max_inner):
        prev = F.copy()
        ws.apply_exponential(entry, lambda i: source[i] / (1.0 + F[i] / k), gain_of,
                             cfg.alpha, out=F)
        if q == 0 and kind == "certified" and not np.all(F >= prev):
            kind = "fallback"
            F[...] = 0.0
            tr_F[...] = 0.0
            continue
        incs.append(float(np.abs(F - prev).sum() * area))
        if incs[-1] <= cfg.tol_inner * (float(F.sum() * area) + 1e-300):
            break
    return F, incs, kind


@pytest.mark.parametrize("model_name", ["gamma 0.7", "three circles"])
def test_ladder_buffers_keep_the_allocating_pass_sequence(disk, three_circle_model,
                                                          model_name):
    """Zero, certified and fallback ladders give the reference's increments,
    start and final field bitwise."""
    model = (dv.shifted_broadwell(gamma=0.7) if model_name == "gamma 0.7"
             else three_circle_model)
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=16)
    ws = SolverWorkspace(disk, model, dv.Grid(disk, 16), cfg)
    bd = BoundaryData.constant(np.linspace(0.5, 2.0, model.p))
    frozen, outer = outer_fixed_point(disk, model, bd, replace(cfg, max_outer=4), workspace=ws)
    delta = LADDER_START_MARGIN * outer.increments[-1]
    assert delta < 1.0
    below = Field(ws.grid, (1.0 - delta) * frozen.values)
    F0, _ = inner_monotone_solve(disk, model, bd, frozen, cfg, workspace=ws)
    kinds = []
    for start in (None, below, Field(ws.grid, 2.0 * F0.values)):
        F, tr = inner_monotone_solve(disk, model, bd, frozen, cfg, workspace=ws, start=start)
        want, incs, kind = allocating_ladder(ws, model, bd, frozen, cfg, start)
        assert tr.start == kind and tr.increments == incs
        assert np.array_equal(F.values.view(np.int64), want.view(np.int64))
        kinds.append(kind)
    assert kinds == ["zero", "certified", "fallback"]


def test_discarded_pass_spends_a_step_of_max_inner(disk, broadwell, maxwellian_params, ws24):
    """With max_inner = q, a ladder whose start falls back makes q passes in
    all: the discarded one and the first q - 1 of the zero-start ladder."""
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.maxwellian(broadwell, *maxwellian_params)
    frozen = Field.constant(ws24.grid, [1.0, 0.8, 1.2, 0.9])
    F0, _ = inner_monotone_solve(disk, broadwell, bd, frozen, cfg, workspace=ws24)
    above = Field(ws24.grid, 2.0 * F0.values)
    for q in (1, 2, 3):
        F, tr = inner_monotone_solve(disk, broadwell, bd, frozen, replace(cfg, max_inner=q),
                                     workspace=ws24, start=above)
        assert tr.start == "fallback" and tr.termination == "max_inner"
        assert tr.iterations == q == len(tr.increments) + 1 == len(tr.wall_times) + 1
        if q == 1:
            assert not F.values.any()
        else:
            Z, _ = inner_monotone_solve(disk, broadwell, bd, frozen,
                                        replace(cfg, max_inner=q - 1), workspace=ws24)
            assert np.array_equal(F.values, Z.values)


def test_negative_ladder_start_is_refused(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    frozen = Field.constant(ws24.grid, [1.0] * 4)
    below_zero = Field.constant(ws24.grid, [1.0, -0.1, 1.0, 1.0])
    with pytest.raises(SolverError, match="must be nonnegative"):
        inner_monotone_solve(disk, broadwell, BoundaryData.constant([1.0] * 4), frozen, cfg,
                             workspace=ws24, start=below_zero)


def test_outer_ladders_try_a_start_only_while_delta_is_below_one(disk, broadwell, ws24):
    """Ladder n > 0 tries (1 - delta) x iterate n - 1 with delta =
    LADDER_START_MARGIN x rel_(n-1) only while delta < 1; the stage's first
    ladder and every ladder after a change with delta >= 1 start from zero."""
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 1.5])
    F, tr = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    starts = [c.start for c in tr.children]
    assert starts[0] == "zero" and "zero" in starts[1:] and "certified" in starts
    for n in range(1, len(starts)):
        tried = LADDER_START_MARGIN * tr.increments[n - 1] < 1.0
        assert (starts[n] != "zero") == tried
    assert tr.converged and tr.monotone_violations == 0


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_k_sweep_with_certified_starts_stays_at_the_zero_start_field(
        disk, broadwell, maxwellian_params, ws32, monkeypatch, inflow):
    """At 32^2 (nested on 16^2) the sweep's final field stays within 1e-9
    relative L1 of the sweep whose ladders all start from zero."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(grid_n=32, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    monkeypatch.setattr(solver, "LADDER_START_MARGIN", math.inf)    # delta >= 1 always
    want = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    starts = [c.start for st in sweep.stages for t in st.continuation.traces
              for c in t.children]
    assert "certified" in starts and sweep.converged
    assert all(c.start == "zero" for st in want.stages for t in st.continuation.traces
               for c in t.children)
    assert sweep.field.l1_distance(want.field) <= 1e-9 * want.field.mass()


def test_mass_cap_requires_damping(disk, broadwell):
    with pytest.raises(SolverError):
        compute_mass_cap(disk, broadwell, BoundaryData.constant([1.0] * 4), 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, error, message", [
    (lambda d, m, f: compute_mass_cap(d, m, BoundaryData.constant([1.0] * 4), NAN),
     SolverError, "mass cap requires positive damping"),
    (lambda d, m, f: mollify_field(f, NAN), FieldError, "mollifier radius must be positive"),
    (lambda d, m, f: truncate_and_mollify_boundary(BoundaryData.constant([1.0] * 4), NAN, d),
     FieldError, "truncation level k must exceed 1"),
    (lambda d, m, f: eval_convolved_truncated(m, f.values, f.values, NAN),
     CollisionDomainError, "truncation level k must exceed 1"),
    (lambda d, m, f: exceptional_sets(d, m, f, 8.0, NAN), ValueError, "epsilon must be positive"),
], ids=["compute_mass_cap", "mollify_field", "truncate_and_mollify_boundary",
        "eval_convolved_truncated", "exceptional_sets"])
def test_guards_refuse_nan(disk, broadwell, call, error, message):
    """A NaN damping, radius, truncation level or epsilon fails its module's
    guard, as a nonpositive one does, instead of reaching numpy."""
    field_ = Field.constant(dv.Grid(disk, 8), [1.0] * 4)
    with pytest.raises(error, match=message):
        call(disk, broadwell, field_)


# -- solver options ---------------------------------------------------------------

# What each option must be, in the words of the CLI's exit-2 message.
OPTION_RULES = {
    "alpha": "a positive number",
    "k": "a number above 1",
    "grid_n": "an integer of at least 4",
    "h_s": "a positive number or null",
    "tol_inner": "a positive number",
    "tol_outer": "a positive number",
    "max_inner": "a positive integer",
    "max_outer": "a positive integer",
    "alpha_schedule": "a nonempty, strictly decreasing list of positive numbers",
    "k_schedule": "a nonempty, strictly increasing list of numbers above 1",
}
BAD_OPTIONS = [
    ("alpha", NAN), ("alpha", 0.0), ("alpha", -0.5), ("alpha", INF), ("alpha", "0.5"),
    ("k", NAN), ("k", 1.0), ("k", -4.0),
    ("grid_n", 3), ("grid_n", 16.0), ("grid_n", True),
    ("h_s", NAN), ("h_s", 0.0), ("h_s", -0.1),
    ("tol_inner", NAN), ("tol_inner", 0.0),
    ("tol_outer", NAN), ("tol_outer", -1e-8),
    ("max_inner", 0), ("max_inner", 2.5),
    ("max_outer", 0), ("max_outer", -1),
    ("alpha_schedule", ()), ("alpha_schedule", (0.25, 0.5)), ("alpha_schedule", (0.5, 0.5)),
    ("alpha_schedule", (0.5, 0.0)), ("alpha_schedule", (0.5, NAN)),
    ("alpha_schedule", (INF, 0.5)),
    ("k_schedule", ()), ("k_schedule", (16.0, 4.0)), ("k_schedule", (1.0, 4.0)),
    ("k_schedule", (4.0, INF)), ("k_schedule", (NAN,)),
]


def test_every_option_has_one_rule():
    """Every field of SolverConfig has a rule with one wording (each bad value
    below gets exactly its field's OPTION_RULES text), and the least values
    each rule admits pass."""
    names = [f.name for f in dataclass_fields(SolverConfig)]
    assert sorted(OPTION_RULES) == sorted(names)
    assert {name for name, _ in BAD_OPTIONS} == set(names)
    SolverConfig().check()
    SolverConfig(alpha=5e-324, k=1.0 + 2.0 ** -52, grid_n=4, h_s=5e-324, tol_inner=5e-324,
                 tol_outer=5e-324, max_inner=1, max_outer=1, alpha_schedule=(5e-324,),
                 k_schedule=(1.0 + 2.0 ** -52,)).check()


@pytest.mark.parametrize("name, value", BAD_OPTIONS)
def test_bad_option_is_refused_before_any_table(disk, broadwell, name, value):
    """k_sweep, alpha_continuation and outer_fixed_point refuse a bad value of
    any option with the CLI's message before they build a characteristic table."""
    cfg = replace(SolverConfig(grid_n=8), **{name: value})
    want = f"bad solver option {name}: expected {OPTION_RULES[name]}, got {value!r}"
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 8), SolverConfig(grid_n=8))
    for run in (dv.k_sweep, dv.alpha_continuation, outer_fixed_point):
        with pytest.raises(SolverError) as err:
            run(disk, broadwell, BoundaryData.constant([1.0] * 4), cfg, workspace=ws)
        assert str(err.value) == want
        assert ws._tables == {}


# -- outer fixed point ------------------------------------------------------------

def test_outer_zero_inflow(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24)
    F, tr = outer_fixed_point(disk, broadwell, BoundaryData.zero(4), cfg,
                              workspace=ws24)
    assert F.mass() == 0.0 and tr.converged and tr.iterations == 1


def test_outer_constant_inflow(disk, broadwell, ws32):
    cfg = SolverConfig(alpha=0.5, k=10.0, grid_n=32)
    bd = BoundaryData.constant([1.0] * 4)
    F, tr = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws32)
    assert tr.converged
    assert tr.monotone_violations == 0
    cap = compute_mass_cap(disk, broadwell, bd, 0.5)
    assert max(tr.masses) <= cap * (1 + 1e-12)
    assert F.min_value() >= 0.0
    # damped mild-form residual of the converged stage
    assert tr.residual < 1e-3


def test_outer_no_false_convergence_without_inner_steps(disk, broadwell):
    """An inner ladder that never ran would leave the iterate at zero: no
    change, but no fixed point either.  A stage refuses max_inner = 0 before
    it runs; `test_outer_max_inner_never_converges` covers ladders cut short."""
    cfg = SolverConfig(grid_n=8, max_inner=0)
    with pytest.raises(SolverError, match="bad solver option max_inner: expected a positive "
                                          "integer, got 0"):
        outer_fixed_point(disk, broadwell, BoundaryData.constant([1.0] * 4), cfg)


def test_outer_inner_ladders_are_inexact(disk, broadwell, ws24):
    """Ladder n stops at max(tol_inner, 0.1 rel_{n-1}); the stage converges
    only after a ladder that ran at tol_inner."""
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 1.5])
    F, tr = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    assert tr.converged and tr.tolerance == cfg.tol_outer
    tols = [c.tolerance for c in tr.children]
    assert tols[0] == cfg.tol_inner and max(tols) > cfg.tol_inner
    for n in range(1, len(tols)):
        prev = tr.increments[n - 1]
        want = cfg.tol_inner if prev <= cfg.tol_outer else max(cfg.tol_inner, 0.1 * prev)
        assert tols[n] == want
    assert tols[-1] == cfg.tol_inner and tr.children[-1].converged
    assert tr.increments[-1] <= cfg.tol_outer
    assert all(rel > cfg.tol_outer for rel, t in zip(tr.increments[:-1], tols[:-1])
               if t == cfg.tol_inner)


def test_a_started_stage_runs_its_first_ladder_inexactly(disk, broadwell, ws24):
    """A stage from zero runs its first ladder at tol_inner; a stage started
    from a field runs it at max(tol_inner, INNER_FORCING), the forcing rule
    after a change of STARTED_CHANGE = 1, and its later ladders by the usual
    rule.  Both converge after a ladder at tol_inner, and the started stage
    ends at the fixed point of the same stage from zero."""
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 1.5])
    F0, tr0 = outer_fixed_point(disk, broadwell, bd, replace(cfg, alpha=0.5), workspace=ws24)
    F, tr = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24, start=F0)
    want, _ = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    assert solver.STARTED_CHANGE == 1.0
    assert tr0.children[0].tolerance == cfg.tol_inner
    assert tr.children[0].tolerance == max(cfg.tol_inner, solver.INNER_FORCING) > cfg.tol_inner
    assert tr.children[0].start == "zero"
    for n in range(1, len(tr.children)):
        prev = tr.increments[n - 1]
        assert tr.children[n].tolerance == (
            cfg.tol_inner if prev <= cfg.tol_outer
            else max(cfg.tol_inner, solver.INNER_FORCING * prev))
    for t in (tr0, tr):
        assert t.converged and t.children[-1].tolerance == cfg.tol_inner
        assert t.children[-1].converged and t.increments[-1] <= cfg.tol_outer
    assert F.l1_distance(want) <= 10 * cfg.tol_outer * want.mass()


def test_outer_max_inner_never_converges(disk, broadwell, ws24):
    """Ladders cut off by max_inner never let the stage count as converged."""
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24, max_inner=2, max_outer=40)
    F, tr = outer_fixed_point(disk, broadwell, BoundaryData.constant([1.0] * 4), cfg,
                              workspace=ws24)
    assert not tr.converged and tr.termination == "inner_not_converged"
    assert tr.children[-1].termination == "max_inner"
    assert tr.children[-1].tolerance == cfg.tol_inner


def test_outer_uniqueness_cross_check(disk, broadwell, ws24):
    """A zero start and a perturbed nonzero start reach the same fixed point."""
    bd = BoundaryData.constant([0.8] * 4)
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24, tol_outer=1e-9)
    F1, tr1 = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    rng = np.random.default_rng(7)
    start = Field(ws24.grid, F1.values * rng.uniform(0.0, 3.0, F1.values.shape))
    F2, tr2 = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24, start=start)
    assert tr1.converged and tr2.converged
    assert F1.l1_distance(F2) / F1.mass() <= 10 * cfg.tol_outer


def test_outer_deterministic(disk, broadwell, ws24):
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0] * 4)
    F1, _ = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    F2, _ = outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24)
    assert np.array_equal(F1.values, F2.values)


# -- alpha continuation --------------------------------------------------------------

def test_continuation_zero_inflow(disk, broadwell, ws24):
    cfg = SolverConfig(grid_n=24, k=8.0, alpha_schedule=(0.5, 0.25, 0.125))
    cont = dv.alpha_continuation(disk, broadwell, BoundaryData.zero(4), cfg,
                                 workspace=ws24)
    assert all(d == 0.0 for d in cont.cauchy_distances)
    assert cont.estimate.mass() == 0.0
    assert cont.final_residual == 0.0


def test_continuation_distances_shrink(disk, broadwell, ws24):
    cfg = SolverConfig(grid_n=24, k=8.0,
                       alpha_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125))
    bd = BoundaryData.constant([1.0] * 4)
    cont = dv.alpha_continuation(disk, broadwell, bd, cfg, workspace=ws24)
    assert cont.converged
    assert cont.cauchy_distances[-1] < cont.cauchy_distances[0]
    assert not cont.warnings


def test_continuation_runs_every_stage_at_tol_outer(disk, broadwell, ws24):
    """Every stage is the plain stage solve at tol_outer, bitwise, from the
    previous stage's field: no stage is relaxed as a warm start."""
    cfg = SolverConfig(grid_n=24, k=8.0,
                       alpha_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125))
    bd = BoundaryData.constant([1.0, 0.5, 2.0, 1.5])
    cont = dv.alpha_continuation(disk, broadwell, bd, cfg, workspace=ws24)
    assert cont.converged
    assert [t.termination for t in cont.traces] == ["converged"] * 5
    assert [t.tolerance for t in cont.traces] == [cfg.tol_outer] * 5
    prev = None
    for a, F, tr in zip(cfg.alpha_schedule, cont.fields, cont.traces):
        assert tr.children[-1].tolerance == cfg.tol_inner and tr.children[-1].converged
        want, _ = outer_fixed_point(disk, broadwell, bd, replace(cfg, alpha=a),
                                    workspace=ws24, start=prev)
        assert np.array_equal(F.values, want.values)
        prev = F


def test_continuation_schedule_validated(disk, broadwell, ws24):
    cfg = SolverConfig(grid_n=24, alpha_schedule=(0.25, 0.5))
    with pytest.raises(SolverError, match="bad solver option alpha_schedule"):
        dv.alpha_continuation(disk, broadwell, BoundaryData.zero(4), cfg,
                              workspace=ws24)


def test_continuation_builds_its_workspace_on_the_start_grid(disk, broadwell):
    start = Field.constant(dv.Grid(disk, 16), [0.5] * 4)
    cfg = SolverConfig(grid_n=24, k=8.0, alpha_schedule=(0.5, 0.25))
    cont = dv.alpha_continuation(disk, broadwell, BoundaryData.constant([1.0] * 4), cfg,
                                 start=start)
    assert cont.converged and cont.estimate.grid.n == 16


def test_field_on_another_grid_than_the_workspace_is_refused(disk, broadwell, ws24):
    """Grids match by domain and resolution: a fresh Grid(disk, 24) passes,
    a 16^2 disk grid and a 24^2 ellipse grid are refused before any work."""
    bd = BoundaryData.constant([1.0] * 4)
    cfg = SolverConfig(grid_n=24, k=8.0, alpha_schedule=(0.5, 0.25))
    same = Field.constant(dv.Grid(disk, 24), [1.0] * 4)
    calls = [
        lambda f: inner_monotone_solve(disk, broadwell, bd, f, cfg, workspace=ws24),
        lambda f: inner_monotone_solve(disk, broadwell, bd, same, cfg, workspace=ws24, start=f),
        lambda f: outer_fixed_point(disk, broadwell, bd, cfg, workspace=ws24, start=f),
        lambda f: dv.alpha_continuation(disk, broadwell, bd, cfg, workspace=ws24, start=f),
        lambda f: residual_mild(disk, broadwell, bd, f, k=8.0, workspace=ws24),
        lambda f: residual_renormalized(disk, broadwell, bd, f, k=8.0, workspace=ws24),
        lambda f: dv.exceptional_sets(disk, broadwell, f, 8.0, epsilon=0.1, workspace=ws24),
        lambda f: dv.integrated_collision_frequency(disk, broadwell, f, 8.0, workspace=ws24),
    ]
    assert residual_mild(disk, broadwell, bd, same, k=8.0, workspace=ws24).total_relative >= 0
    for grid in (dv.Grid(disk, 16), dv.Grid(dv.ConvexDomain.ellipse(1.0, 0.5), 24)):
        f = Field.constant(grid, [1.0] * 4)
        for call in calls:
            with pytest.raises(SolverError, match="does not match the workspace grid"):
                call(f)


def test_workspace_for_another_model_or_domain_is_refused(disk, broadwell):
    """Tables trace the workspace's own domain and velocities: a workspace
    for the classical model, a call on an ellipse through a disk workspace
    and a workspace whose grid lies on another domain are refused."""
    ellipse = dv.ConvexDomain.ellipse(1.0, 0.5)
    grid = dv.Grid(disk, 16)
    cfg = SolverConfig(grid_n=16, k=8.0, alpha=0.5)
    bd = BoundaryData.constant([1.0] * 4)
    f = Field.constant(grid, [1.0, 0.5, 2.0, 1.5])
    classical = SolverWorkspace(disk, dv.classical_broadwell(), grid, cfg)
    with pytest.raises(SolverError, match="workspace model in its velocities"):
        residual_mild(disk, broadwell, bd, f, k=8.0, workspace=classical)
    with pytest.raises(SolverError, match="does not match the workspace domain"):
        outer_fixed_point(ellipse, broadwell, bd, cfg, workspace=SolverWorkspace(
            disk, broadwell, grid, cfg))
    with pytest.raises(SolverError, match="not on its domain"):
        SolverWorkspace(ellipse, broadwell, grid, cfg)
    # an equal model and domain built anew pass
    same = SolverWorkspace(dv.ConvexDomain.disk(), dv.shifted_broadwell(), grid, cfg)
    assert residual_mild(disk, broadwell, bd, f, k=8.0, workspace=same).total_relative >= 0


@pytest.mark.parametrize("h_s", [-0.1, NAN, 0.0])
def test_workspace_refuses_a_bad_step(disk, broadwell, h_s):
    """A workspace's path step comes from its config; a bad one is refused with
    the option's rule, as the solves refuse it."""
    with pytest.raises(SolverError) as err:
        SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), SolverConfig(h_s=h_s))
    assert str(err.value) == f"bad solver option h_s: expected {OPTION_RULES['h_s']}, got {h_s!r}"


def test_workspace_at_another_step_than_the_config_is_refused(disk, broadwell):
    """An explicit h_s must be the passed workspace's step, checked before any
    table is built; the same step passes, and residuals (h_s None) accept any."""
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), SolverConfig(grid_n=16))
    bd = BoundaryData.constant([1.0] * 4)
    with pytest.raises(SolverError, match=f"path step h_s=0.05 does not match the workspace "
                                          f"step {ws.h_s!r}"):
        outer_fixed_point(disk, broadwell, bd, SolverConfig(grid_n=16, h_s=0.05), workspace=ws)
    assert ws._tables == {}
    F, tr = outer_fixed_point(disk, broadwell, bd, SolverConfig(grid_n=16, k=8.0, h_s=ws.h_s),
                              workspace=ws)
    assert tr.converged
    fine = SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), SolverConfig(h_s=0.05))
    assert residual_mild(disk, broadwell, bd, F, k=8.0, workspace=fine).total_relative >= 0


def test_continuation_gap_shrinks_with_alpha(disk, broadwell, ws24):
    """inflow - outflow tracks alpha * mass along the damping chain."""
    from dvmbvp.diagnostics import characteristic_balance, collision_grids
    cfg = SolverConfig(grid_n=24, k=8.0, alpha_schedule=(0.5, 0.25, 0.125))
    bd = BoundaryData.constant([1.0] * 4)
    cont = dv.alpha_continuation(disk, broadwell, bd, cfg, workspace=ws24)
    gaps = []
    for a, f in zip(cont.alphas, cont.fields):
        sm = mollify_field(f, a)
        nu, gain = collision_grids(broadwell, f, k=8.0, smoothed=sm)
        bal = characteristic_balance(disk, broadwell, f, bd, a, nu, gain)
        gaps.append(bal.gap)
        assert bal.gap == pytest.approx(a * bal.total_mass_path, rel=2e-3)
    assert gaps[-1] < gaps[0]


# -- k sweep ---------------------------------------------------------------------------

def test_k_sweep_zero_inflow(disk, broadwell):
    cfg = SolverConfig(grid_n=16, k_schedule=(4.0, 16.0),
                       alpha_schedule=(0.5, 0.25))
    sweep = dv.k_sweep(disk, broadwell, BoundaryData.zero(4), cfg)
    assert sweep.field.mass() == 0.0
    assert all(st.continuation.estimate.mass() == 0.0 for st in sweep.stages)


def test_k_sweep_maxwellian_residual_decreases(disk, broadwell, maxwellian_params):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    cfg = SolverConfig(grid_n=24, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125, 0.0625))
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    ws = SolverWorkspace(disk, broadwell, sweep.field.grid, cfg)
    residuals = [residual_mild(disk, broadwell, bd, st.continuation.estimate,
                               k=None, workspace=ws).total_relative
                 for st in sweep.stages]
    assert residuals[1] < residuals[0]
    assert residuals[2] < residuals[1]


def test_k_sweep_cap_active_lowers_mass(disk, broadwell, maxwellian_params,
                                        maxwellian_values):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    # cap k/2 = 1.25 bites below max(M) ~ 1.73
    cfg = SolverConfig(grid_n=16, k_schedule=(2.5,), alpha_schedule=(0.5, 0.25))
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    grid = sweep.field.grid
    exact = Field.constant(grid, maxwellian_values)
    assert sweep.field.mass() < exact.mass()


def full_schedule_sweep(domain, model, boundary, config, ws, pair_only=False):
    """Reference k sweep with every level on `ws`, each level starting from the
    previous level's last field: the whole alpha schedule at every level, or,
    with `pair_only`, only its Richardson pair, the last two stages."""
    estimates, prev = [], None
    for k in config.k_schedule:
        cfg = replace(config, k=k)
        if pair_only:
            cfg = replace(cfg, alpha_schedule=config.alpha_schedule[-2:])
        bd_k = truncate_and_mollify_boundary(boundary, k, domain)
        cont = dv.alpha_continuation(domain, model, bd_k, cfg, workspace=ws, start=prev)
        estimates.append(cont.estimate)
        prev = cont.last
    return estimates


def step_inflow(domain, p):
    """Per component i: 2 on half the boundary from i/p of a turn, else 0.25."""
    length = boundary_param(domain).total_length
    return BoundaryData(tuple(
        CallableTrace(lambda t, s=i / p * length:
                      np.where(np.mod(t - s, length) < 0.5 * length, 2.0, 0.25))
        for i in range(p)))


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_k_sweep_later_levels_run_the_richardson_pair(disk, broadwell, maxwellian_params,
                                                      inflow):
    """Every level, the first included, runs only the last two alpha stages,
    bitwise the pair-only reference; every level's estimate stays within
    1e-8 relative L1 of the full schedule's."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(grid_n=16, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), cfg)
    want = full_schedule_sweep(disk, broadwell, bd, cfg, ws)
    pair = full_schedule_sweep(disk, broadwell, bd, cfg, ws, pair_only=True)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws)
    assert sweep.converged
    assert [st.continuation.alphas for st in sweep.stages] == [
        list(cfg.alpha_schedule[-2:])] * 3
    assert [len(st.continuation.cauchy_distances) for st in sweep.stages] == [1, 1, 1]
    for st, ref, ref_pair in zip(sweep.stages, want, pair):
        assert np.array_equal(st.continuation.estimate.values, ref_pair.values)
        assert st.continuation.estimate.l1_distance(ref) <= 1e-8 * ref.mass()


def warm_up_sweep(domain, model, boundary, config):
    """The sweep as it ran with the alpha warm-up: the whole schedule at the
    first level, each stage before the last two stopping at
    max(tol_outer, 1e-5), and every later level from the previous level's
    last field; every level but the last on the max(16, n // 4) grid, whose
    fields are prolonged (run grids of 32 on), at the coarse tolerances
    max(tol_outer, COARSE_TOL_OUTER) and max(tol_inner, INNER_FORCING x
    COARSE_TOL_OUTER).  Returns the final field."""
    fine = SolverWorkspace(domain, model, dv.Grid(domain, config.grid_n), config)
    coarse = SolverWorkspace(domain, model, dv.Grid(domain, max(16, config.grid_n // 4)),
                             config)
    prev = None
    for j, k in enumerate(config.k_schedule):
        ws = fine if j == len(config.k_schedule) - 1 else coarse
        if prev is not None and prev.grid is not ws.grid:
            prev = solver._prolong(prev, ws.grid)
        bd_k = truncate_and_mollify_boundary(boundary, k, domain)
        cfg = replace(config, k=k)
        if ws is coarse:
            cfg = replace(cfg, tol_outer=max(cfg.tol_outer, solver.COARSE_TOL_OUTER),
                          tol_inner=max(cfg.tol_inner,
                                        solver.INNER_FORCING * solver.COARSE_TOL_OUTER))
        if j == 0:
            for a in config.alpha_schedule[:-2]:
                prev, _ = outer_fixed_point(
                    domain, model, bd_k, replace(cfg, alpha=a, tol_outer=max(cfg.tol_outer, 1e-5)),
                    workspace=ws, start=prev)
        cont = dv.alpha_continuation(domain, model, bd_k,
                                     replace(cfg, alpha_schedule=config.alpha_schedule[-2:]),
                                     workspace=ws, start=prev)
        prev = cont.last
    return cont.estimate


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_k_sweep_without_the_alpha_warm_up_keeps_the_final_field(disk, broadwell,
                                                                 maxwellian_params, inflow):
    """The default 32^2 sweep, which runs only the Richardson pair at its
    first level too, ends bitwise at the field of the sweep with the six-stage
    warm-up."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(grid_n=32)
    assert len(cfg.alpha_schedule) == 6
    sweep = dv.k_sweep(disk, broadwell, bd, cfg)
    assert sweep.converged
    assert np.array_equal(sweep.field.values, warm_up_sweep(disk, broadwell, bd, cfg).values)


def test_k_sweep_stops_coarse_levels_at_the_coarse_tolerance(disk, broadwell,
                                                             maxwellian_params, ws24, ws32):
    """Nested at 32^2, every coarse level's stages stop at COARSE_TOL_OUTER =
    1e-5 after a ladder at INNER_FORCING x 1e-5, while the run-grid pair, and
    every level of an unnested 24^2 sweep, keep tol_outer and tol_inner."""
    bd = BoundaryData.maxwellian(broadwell, *maxwellian_params)
    cfg = SolverConfig(grid_n=32, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    assert solver.COARSE_TOL_OUTER == 1e-5
    coarse_inner = max(cfg.tol_inner, solver.INNER_FORCING * solver.COARSE_TOL_OUTER)
    assert coarse_inner == pytest.approx(1e-6, rel=1e-12)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    unnested = dv.k_sweep(disk, broadwell, bd, replace(cfg, grid_n=24), workspace=ws24)
    assert sweep.converged and unnested.converged
    for st in sweep.stages[:-1]:
        assert st.continuation.last.grid is ws32.coarse.grid
        for tr in st.continuation.traces:
            assert tr.tolerance == 1e-5 and tr.increments[-1] <= 1e-5
            assert tr.children[-1].tolerance == coarse_inner
    fine = [tr for st in sweep.stages[-1:] + unnested.stages for tr in st.continuation.traces]
    assert [tr.tolerance for tr in fine] == [cfg.tol_outer] * 8
    assert all(tr.children[-1].tolerance == cfg.tol_inner for tr in fine)


def test_k_sweep_builds_the_coarse_workspace_once(disk, broadwell, monkeypatch):
    """Two nested sweeps through one run-grid workspace build one coarse grid,
    with its tables, on the first; a thin domain has no coarse workspace."""
    built = []
    monkeypatch.setattr(solver, "Grid", lambda *a: built.append(a) or dv.Grid(*a))
    cfg = SolverConfig(grid_n=32, k_schedule=(4.0, 16.0), alpha_schedule=(0.5, 0.25))
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 32), cfg)
    bd = BoundaryData.constant([1.0] * 4)
    first = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws)
    coarse_tables = dict(ws.coarse._tables)
    again = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws)
    assert built == [(disk, 16)] and len(coarse_tables) == broadwell.p
    assert all(ws.coarse._tables[i] is tab for i, tab in coarse_tables.items())
    assert np.array_equal(first.field.values, again.field.values)
    thin = SolverWorkspace(THIN_ELLIPSE, broadwell, dv.Grid(THIN_ELLIPSE, 32), cfg)
    assert thin.coarse is None


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_k_sweep_early_stops_keep_every_estimate(disk, broadwell, maxwellian_params, ws32,
                                                 monkeypatch, inflow):
    """The default 32^2 sweep's earlier-level estimates stay within 1e-6
    relative L1, and its final field within 1e-9, of the sweep that runs its
    coarse levels at tol_outer and a started stage's first ladder at
    tol_inner (both constants 0)."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(grid_n=32)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    monkeypatch.setattr(solver, "COARSE_TOL_OUTER", 0.0)
    monkeypatch.setattr(solver, "STARTED_CHANGE", 0.0)
    want = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    assert sweep.converged and want.converged
    for st, ref in zip(sweep.stages[:-1], want.stages[:-1]):
        ref_est = ref.continuation.estimate
        assert st.continuation.estimate.l1_distance(ref_est) <= 1e-6 * ref_est.mass()
    assert sweep.field.l1_distance(want.field) <= 1e-9 * want.field.mass()


def test_k_sweep_with_a_stage_pair_runs_it_at_every_level(disk, broadwell):
    """A two-stage schedule is its own Richardson pair: bitwise the reference."""
    cfg = SolverConfig(grid_n=16, k_schedule=(4.0, 16.0), alpha_schedule=(0.25, 0.125))
    bd = step_inflow(disk, broadwell.p)
    ws = SolverWorkspace(disk, broadwell, dv.Grid(disk, 16), cfg)
    want = full_schedule_sweep(disk, broadwell, bd, cfg, ws)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws)
    for st, ref in zip(sweep.stages, want):
        assert np.array_equal(st.continuation.estimate.values, ref.values)


@pytest.mark.parametrize("inflow", ["maxwellian", "step"])
def test_k_sweep_runs_earlier_levels_on_a_coarse_grid(disk, broadwell, maxwellian_params,
                                                      inflow, ws32):
    """At 32^2 every level but the last solves on 16^2; every estimate is
    prolonged to the run grid, and the final one stays within 1e-9 relative
    L1 of the sweep with every level on the run grid."""
    bd = stage_inflow(disk, broadwell, maxwellian_params, inflow)
    cfg = SolverConfig(grid_n=32, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    want = full_schedule_sweep(disk, broadwell, bd, cfg, ws32, pair_only=True)
    sweep = dv.k_sweep(disk, broadwell, bd, cfg, workspace=ws32)
    assert sweep.converged
    assert all(st.continuation.estimate.grid is ws32.grid for st in sweep.stages)
    assert [st.continuation.last.grid.n for st in sweep.stages] == [16, 16, 32]
    assert sweep.field.l1_distance(want[-1]) <= 1e-9 * want[-1].mass()


THIN_ELLIPSE = dv.ConvexDomain.ellipse(1.0, 0.02)


@pytest.mark.parametrize("domain,n", [("disk", 24), (THIN_ELLIPSE, 32)],
                         ids=["below 32", "no coarse interior cell"])
def test_k_sweep_without_a_coarse_grid_is_the_all_fine_sweep(disk, broadwell, domain, n):
    """Below a run grid of 32 no grid is coarse enough to nest, and the thin
    ellipse's first row of cell centres (y = 0.011 at 32^2) lies outside it at
    16^2 (y = 0.0425): either way bitwise the sweep with every level on the
    run grid."""
    domain = disk if domain == "disk" else domain
    cfg = SolverConfig(grid_n=n, k_schedule=(4.0, 16.0, 64.0),
                       alpha_schedule=(0.5, 0.25, 0.125))
    ws = SolverWorkspace(domain, broadwell, dv.Grid(domain, n), cfg)
    bd = step_inflow(domain, broadwell.p)
    want = full_schedule_sweep(domain, broadwell, bd, cfg, ws, pair_only=True)
    sweep = dv.k_sweep(domain, broadwell, bd, cfg, workspace=ws)
    for st, ref in zip(sweep.stages, want):
        assert st.continuation.last.grid is ws.grid
        assert np.array_equal(st.continuation.estimate.values, ref.values)


# -- residuals ----------------------------------------------------------------------------

def test_residual_mild_constant_maxwellian(disk, broadwell, maxwellian_params,
                                           maxwellian_values, ws32):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    F = Field.constant(ws32.grid, maxwellian_values)
    res = residual_mild(disk, broadwell, bd, F, k=None, workspace=ws32)
    assert res.total_relative < 1e-6


def test_residual_mild_constant_truncated(disk, broadwell, ws32):
    bd = BoundaryData.constant([2.0] * 4)
    F = Field.constant(ws32.grid, [2.0] * 4)
    for k in (2.0, 8.0, 100.0):
        res = residual_mild(disk, broadwell, bd, F, k=k, workspace=ws32)
        assert res.total_relative < 1e-6


def test_residual_mild_detects_perturbation(disk, broadwell, maxwellian_params,
                                            maxwellian_values, ws32):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    base = Field.constant(ws32.grid, maxwellian_values)
    bumped = Field.constant(ws32.grid, maxwellian_values * np.array([1.1, 1, 1, 1]))
    r0 = residual_mild(disk, broadwell, bd, base, k=None, workspace=ws32)
    r1 = residual_mild(disk, broadwell, bd, bumped, k=None, workspace=ws32)
    assert r1.total_relative > 10 * r0.total_relative


def test_residual_renormalized_zero(disk, broadwell, ws24):
    F = Field.zeros(ws24.grid, 4)
    defects = residual_renormalized(disk, broadwell, BoundaryData.zero(4), F,
                                    workspace=ws24)
    assert all(d.total == 0.0 for d in defects)


def test_residual_renormalized_constant_maxwellian(disk, broadwell,
                                                   maxwellian_params,
                                                   maxwellian_values, ws32):
    a, b, c = maxwellian_params
    bd = BoundaryData.maxwellian(broadwell, a, b, c)
    F = Field.constant(ws32.grid, maxwellian_values)
    defects = residual_renormalized(disk, broadwell, bd, F, workspace=ws32)
    named = {d.name: abs(d.total) for d in defects}
    assert named["1"] < 1e-10   # flux balance of ln(1+F) on symmetric arcs


def renormalized_per_test_function(domain, model, boundary, field_, k, grid):
    """Reference: the weak-form defects with every boundary trace taken again
    for each test function and component."""
    ev = eval_untruncated(model, field_.values) if k is None else eval_truncated(
        model, field_.values, k)
    ratio = ev.net / (1.0 + field_.values)
    X, Y = grid.centers[..., 0], grid.centers[..., 1]
    lnF = np.log1p(field_.values)
    out = []
    for tf in default_test_functions():
        phi = np.asarray(tf.fn(X, Y), dtype=float)
        gx, gy = tf.grad(X, Y)
        per_comp = np.zeros(model.p)
        for i in range(model.p):
            v = model.v[i]
            arc_out = boundary_quadrature(domain, v, -1)
            arc_in = boundary_quadrature(domain, v, +1)
            ln_out = np.log1p(grid.interpolate(field_.values[i], arc_out.points))
            phi_out = np.asarray(tf.fn(arc_out.points[:, 0], arc_out.points[:, 1]))
            out_term = arc_out.integrate_flux(phi_out * ln_out)
            ln_in = np.log1p(np.asarray(boundary.eval(i, arc_in.t_params)))
            phi_in = np.asarray(tf.fn(arc_in.points[:, 0], arc_in.points[:, 1]))
            in_term = arc_in.integrate_flux(phi_in * ln_in)
            adv = float(np.sum(lnF[i][grid.mask]
                               * (v[0] * np.asarray(gx) + v[1] * np.asarray(gy))[grid.mask])
                        * grid.cell_area)
            vol = float(np.sum((phi * ratio[i])[grid.mask]) * grid.cell_area)
            per_comp[i] = out_term - in_term - adv - vol
        out.append(per_comp)
    return out


@pytest.mark.parametrize("k", [None, 8.0])
def test_residual_renormalized_interpolates_each_outflow_once(disk, broadwell, ws32,
                                                              monkeypatch, k):
    """One outflow interpolation per component, not per test function and
    component; the defects are bitwise those of the per-test-function loop."""
    grid = ws32.grid
    F = Field.from_function(grid, [
        lambda x, y, c=c: c * (1.0 + 0.3 * np.sin(2.0 * x + c) * np.cos(y - c))
        for c in (0.7, 1.1, 1.3, 0.9)])
    bd = step_inflow(disk, broadwell.p)
    want = renormalized_per_test_function(disk, broadwell, bd, F, k, grid)
    calls = []
    interpolate = dv.Grid.interpolate
    monkeypatch.setattr(dv.Grid, "interpolate",
                        lambda self, *a: calls.append(1) or interpolate(self, *a))
    got = residual_renormalized(disk, broadwell, bd, F, k=k, workspace=ws32)
    assert len(calls) == broadwell.p
    assert [d.name for d in got] == [tf.name for tf in default_test_functions()]
    for d, ref in zip(got, want):
        assert np.array_equal(d.per_component, ref)
        assert d.total == float(np.sum(ref))


def test_solve_on_ellipse(broadwell):
    """Full stage on a 2:1 ellipse: converges, monotone, balanced."""
    from dvmbvp.diagnostics import characteristic_balance, collision_grids
    dom = dv.ConvexDomain.ellipse(2.0, 1.0)
    cfg = SolverConfig(alpha=0.25, k=8.0, grid_n=24)
    bd = BoundaryData.constant([1.0] * 4)
    F, tr = outer_fixed_point(dom, broadwell, bd, cfg)
    assert tr.converged and tr.monotone_violations == 0
    assert F.min_value() >= 0.0
    sm = mollify_field(F, cfg.alpha)
    nu, gain = collision_grids(broadwell, F, k=8.0, smoothed=sm)
    bal = characteristic_balance(dom, broadwell, F, bd, 0.25, nu, gain)
    assert np.max(bal.scheme_residual_relative) < 1e-12
    assert bal.defect <= 5e-3 * (0.25 * bal.total_mass_path)


def test_solve_on_superellipse(broadwell):
    dom = dv.ConvexDomain.superellipse(1.2, 1.0, 4.0)
    cfg = SolverConfig(alpha=0.5, k=8.0, grid_n=20, max_outer=60)
    bd = BoundaryData.constant([0.5] * 4)
    F, tr = outer_fixed_point(dom, broadwell, bd, cfg)
    assert tr.converged and tr.monotone_violations == 0
    assert F.min_value() >= 0.0
    assert F.mass() <= tr.mass_cap * (1 + 1e-12)


def test_residual_renormalized_refines(disk, broadwell):
    """Weak-form defect of converged fields decreases under grid refinement."""
    bd = BoundaryData.constant([1.0] * 4)
    totals = []
    for n in (16, 32):
        cfg = SolverConfig(grid_n=n, k=8.0,
                           alpha_schedule=(0.5, 0.25, 0.125, 0.0625))
        cont = dv.alpha_continuation(disk, broadwell, bd, cfg)
        defects = residual_renormalized(disk, broadwell, bd, cont.estimate, k=8.0)
        totals.append(max(abs(d.total) for d in defects))
    assert totals[1] < totals[0]
