"""Damped, truncated fixed-point solver in exponential characteristic form.

One stage solves, for fixed damping alpha > 0 and truncation level k > 1,

    alpha F_a + v_a . grad F_a = gain_a(F, frozen * mu) - F_a freq_a(F, frozen * mu)

with prescribed inflow, by the monotone inner iteration: starting from zero
or from a certified sub-solution, each transport sweep integrates gain and
frequency along every backward characteristic in exponential
(integrating-factor) form.  The sweep is a Gauss-Seidel pass over the
components: component i is transported with its frequency from its own
current value and its gain from the components already updated in the same
pass.  The stage map is isotone (the frequency falls and the gain grows as F
grows), so from zero every operand of a pass is at least its value in the
previous pass, and the iterates still increase bitwise, each at least the
Jacobi iterate of the same step (Ortega & Rheinboldt 1970, 13.2).  The same
holds from any start S whose first pass is at least S in every cell, bitwise
(Amann 1976): the ladder then climbs from S to the least fixed point at or
above S, which is the zero-start limit whenever the stage map has a single
fixed point.

The outer loop updates the frozen convolved state until the map reaches its
fixed point.  Its inner ladders are inexact: each stops at
max(tol_inner, INNER_FORCING x the previous outer relative change), the
forcing term of inexact Newton methods (Dembo, Eisenstat & Steihaug 1982),
and a stage converges only after a ladder that ran at tol_inner itself.  A
stage that starts from a field runs its first ladder as if that change had
been STARTED_CHANGE; a stage from zero runs it at tol_inner.
Every ladder of a stage after its first tries to start just below the
previous outer iterate, at (1 - LADDER_START_MARGIN x that change) times it,
and runs from zero when that start fails its certification.
Continuation then sends alpha -> 0 at fixed k, and the last two stages feed
the Richardson extrapolation.  An outer sweep raises k, and every level runs
only that Richardson pair, the last two entries of the alpha schedule: the
first from zero, every later one from the previous level's last field (a
stage's fixed point does not depend on where its outer iteration starts, and
the earlier entries, run as a warm-up, changed no bit of the final field of
the default sweep).  The sweep nests its grids
(nested iteration; Brandt 1977, Hackbusch 1985, ch. 5): from a run grid of
32 cells on up, every level but the last runs on a grid a quarter as fine
(16 cells at least; the run grid if the domain has no interior cell there),
each only to max(tol_outer, COARSE_TOL_OUTER), since its estimate sits
further than that from the run-grid solve; only the last level's pair runs
on the run grid, at tol_outer, from the prolonged last coarse field.  Every
level's estimate is prolonged to the run grid, so what a sweep returns lives
on one grid.

Cells that share a backward characteristic share one line (the method of
long characteristics): one transport sweep advances a single exponential
trapezoid recursion per line, with steps of at most h/2 and a node at
every cell centre, from the inflow at the line's entry point, gap by gap.
A node ladder covers the gap from the entry point to the first cell; on the
integer velocities of the shifted Broadwell lattice every gap between
consecutive cells has the same nodes relative to its cells, so one stencil
matrix per velocity gives each gap's transfer in closed form (one
attenuation factor and one source per gap, as method-of-characteristics
codes advance per track segment), and a chain over the gaps reads each
cell.  A line holds many cells there, so a sweep costs O(n^2); a velocity
off the lattice gets one cell per line, hence no interior gaps, through the
same code.  A sweep is deterministic for fixed inputs.

A sweep reads each field once per velocity: the table holds one index of
every node sample it needs, the entry ladder's four bilinear corners and
each interior gap's stencil taps, composed with the grid's nearest-interior
continuation, so a single `take` gives them all, with no padded copy of the
field and no per-call index arithmetic.
"""

from __future__ import annotations

import math
import time
import warnings
import weakref
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .collision import (eval_convolved_truncated, eval_truncated, eval_untruncated,
                        frequency_source, gain_truncated, row_entries, truncated_factor)
from .fields import (BoundaryData, Field, FieldError, Grid, kernel_reach, mollify_field,
                     truncate_and_mollify_boundary)
from .geometry import ConvexDomain, boundary_param, boundary_quadrature
from .model import VelocityModel, is_real

# An inner ladder stops at max(tol_inner, INNER_FORCING x the previous outer
# relative change).
INNER_FORCING = 0.1
# A nested sweep solves its earlier levels on a coarse grid only to
# max(tol_outer, COARSE_TOL_OUTER), their ladders to max(tol_inner,
# INNER_FORCING x COARSE_TOL_OUTER): their prolonged estimates sit 2e-5 to
# 3e-2 relative L1 from the run-grid solves, so tighter digits never reach
# the sweep's answer, and the last level, on the run grid, keeps tol_outer.
COARSE_TOL_OUTER = 1e-5
# A stage that starts from a field runs its first ladder by the forcing rule
# as if the outer change before it had been STARTED_CHANGE: on the default
# sweep the next outer iterate moves the frozen state by about 5e-3, so that
# ladder's digits below INNER_FORCING never reach the stage's fixed point.  A
# stage from zero runs its first ladder at tol_inner.
STARTED_CHANGE = 1.0
# Every inner ladder of a stage after its first tries the start (1 - delta) x
# the previous outer iterate, delta = LADDER_START_MARGIN x that same change,
# while delta < 1.  On the default 32^2 Maxwellian sweep, 18 of 88 starts
# failed their certification at 10 and none at 30; at 300 the starts sat so
# low that the sweep took 515 passes, against 441 at 30 and 651 from zero.
LADDER_START_MARGIN = 30.0


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters for one stage and for the continuation loops.

    The partner factor is mollified with radius alpha and the inflow trace
    is smoothed over 1/k of the boundary arclength.  A config that breaks a
    field's rule cannot be made, by the constructor or by `replace`, except
    for `alpha`, whose rule every solve checks first (`damping()`).
    """

    alpha: float = 0.5
    k: float = 16.0
    grid_n: int = 64
    tol_inner: float = 1e-9
    tol_outer: float = 1e-8
    max_inner: int = 400
    max_outer: int = 120
    alpha_schedule: tuple = (0.03125, 0.015625)
    k_schedule: tuple = (4.0, 16.0, 64.0, 256.0)

    def __post_init__(self) -> None:
        def count(x):
            return isinstance(x, int) and not isinstance(x, bool)

        def listed(x):
            return isinstance(x, (tuple, list)) and len(x) > 0 and all(map(is_real, x))

        c = self
        alphas, ks = c.alpha_schedule, c.k_schedule
        c._refuse([
            ("k", is_real(c.k) and c.k > 1, "a number above 1"),
            ("grid_n", count(c.grid_n) and c.grid_n >= 4, "an integer of at least 4"),
            ("tol_inner", is_real(c.tol_inner) and c.tol_inner > 0, "a positive number"),
            ("tol_outer", is_real(c.tol_outer) and c.tol_outer > 0, "a positive number"),
            ("max_inner", count(c.max_inner) and c.max_inner >= 1, "a positive integer"),
            ("max_outer", count(c.max_outer) and c.max_outer >= 1, "a positive integer"),
            ("alpha_schedule", listed(alphas)
             and all(a2 < a1 for a1, a2 in zip(alphas, alphas[1:])) and alphas[-1] > 0,
             "a nonempty, strictly decreasing list of positive numbers"),
            ("k_schedule", listed(ks)
             and all(k2 > k1 for k1, k2 in zip(ks, ks[1:])) and ks[0] > 1,
             "a nonempty, strictly increasing list of numbers above 1"),
        ])

    def damping(self) -> float:
        """`alpha`, refused unless it is a positive number."""
        self._refuse([("alpha", is_real(self.alpha) and self.alpha > 0, "a positive number")])
        return self.alpha

    def _refuse(self, rules) -> None:
        """SolverError, in the CLI's words, naming the first option whose rule fails."""
        for name, ok, want in rules:
            if not ok:
                raise SolverError(f"bad solver option {name}: expected {want}, "
                                  f"got {getattr(self, name)!r}")


def compute_mass_cap(domain: ConvexDomain, model: VelocityModel,
                     boundary: BoundaryData, alpha: float) -> float:
    """Total inflow flux divided by alpha: the invariant-region mass bound.

    Recomputed from the boundary data of the problem actually being solved
    (for a truncated stage that is the truncated trace).
    """
    if not alpha > 0:
        raise SolverError("mass cap requires positive damping")
    total = 0.0
    for i in range(model.p):
        arc = boundary_quadrature(domain, model.v[i], +1)
        total += arc.integrate_flux(boundary.eval(i, arc.t_params))
    return total / alpha


# ---------------------------------------------------------------------------
# characteristic tables
# ---------------------------------------------------------------------------

# A length within this relative tolerance of a multiple of h_s takes that
# multiple's step count, so rounding in the length never adds a step.
_STEP_RTOL = 1e-12


def _n_steps(length, h_s: float):
    """Equal steps of length at most h_s (to _STEP_RTOL) that cover `length`; at least 1."""
    return np.maximum(1, np.ceil(length / h_s * (1.0 - _STEP_RTOL))).astype(np.int64)


# OpenBLAS runs a gemm of at most 2^18 multiply-adds on the calling thread and
# a larger one on its worker threads, whose wake-ups stalled 128^2 sweeps
# three-fold on a busy two-core host; the gap products stay below the bound.
_GEMM_BLOCK = 1 << 18


def _matmul(W: np.ndarray, P: np.ndarray) -> np.ndarray:
    """W @ P in column blocks of at most _GEMM_BLOCK multiply-adds each."""
    width = max(1, _GEMM_BLOCK // W.size)
    if P.shape[1] <= width:
        return np.matmul(W, P)
    out = np.empty((W.shape[0], P.shape[1]))
    for c in range(0, P.shape[1], width):
        np.matmul(W, P[:, c:c + width], out=out[:, c:c + width])
    return out


class _Ladder(NamedTuple):
    dt: np.ndarray          # (L - 1, rays) step times
    reads: np.ndarray       # (4, L, rays) bilinear stencil of every node ...
    W: np.ndarray           # ... and its four corner weights (`Grid.interp_weights`)


def _ladder_nodes(start: np.ndarray, t_end: np.ndarray, v, h_s: float,
                  end_pts: np.ndarray | None = None):
    """Step times (L - 1, rays) and node points (L, rays, 2) of the node
    ladders along the rays start + t v, 0 <= t <= t_end.

    Each ray is split into equal steps of spatial length at most h_s.  Nodes
    are padded to L per ray and stored transposed: row m holds node m of
    every ray.  Padding repeats a ray's end node, so padding steps have zero
    length and the last row holds every ray's end, at `end_pts` when given
    (exact end points in place of the computed ones).
    """
    steps = _n_steps(t_end * float(np.hypot(v[0], v[1])), h_s)
    m = np.arange(int(steps.max(initial=0)) + 1)[:, None]
    t = np.where(m < steps, m * (t_end / steps), t_end)
    # one coordinate plane at a time: a broadcast over the trailing axis of
    # length 2 runs numpy's inner loop two elements at a time
    pts = np.empty(t.shape + (2,))
    for c in (0, 1):
        plane = np.multiply(t, v[c], out=pts[..., c])
        plane += start[:, c]
        if end_pts is not None:
            np.copyto(plane, end_pts[:, c], where=m >= steps)
    return np.diff(t, axis=0), pts


def _ladder(grid: Grid, start: np.ndarray, t_end: np.ndarray, v, h_s: float,
            end_pts: np.ndarray | None = None) -> _Ladder:
    """The `_ladder_nodes` ladders with the bilinear stencil of every node."""
    dt, pts = _ladder_nodes(start, t_end, v, h_s, end_pts)
    return _Ladder(dt, *grid.interp_weights(pts))


class _Rays(NamedTuple):
    """The balance's inflow rays of one velocity (`SolverWorkspace.rays`)."""
    t_params: np.ndarray    # (rays,) arclength parameter of each ray's start
    flux_w: np.ndarray      # (rays,) its flux weight |v . n| dsigma
    dt: np.ndarray          # (L - 1, rays) step times of the node ladders
    flat: np.ndarray        # (L, rays) compact bilinear stencil of every node:
    fx: np.ndarray          # its lower-left cell and fractions (`Grid.stencil`)
    fy: np.ndarray


def _transport(lad: _Ladder, inflow: np.ndarray, nu_s, gain_s: np.ndarray,
               alpha: float, steps=None, out: np.ndarray | None = None) -> np.ndarray:
    """Exponential-form trapezoid recursion along every ray of a ladder.

    F_0 = inflow and F_{m+1} = F_m E_m + (dt_m / 2)(g_m E_m + g_{m+1}) with
    E_m = exp(-(alpha + (nu_m + nu_{m+1}) / 2) dt_m), from the node samples
    nu_s and gain_s (nu_s None is a zero frequency); returns F at the end of
    every ray, written into `out` when given.  Padding steps have E_m = 1 and
    add exactly 0.  `steps` is the ladder's (-dt, dt / 2) when the caller
    keeps them (`_CharTable.entry_steps`); negation and halving are exact, so
    the products are the same either way.

    E and the sources are built in place: a sweep then holds few
    ladder-sized temporaries, so the C heap does not grow and shrink
    (and page-fault) on every component.
    """
    neg_dt, half_dt = (-lad.dt, 0.5 * lad.dt) if steps is None else steps
    if nu_s is None:
        E = np.multiply(neg_dt, alpha)
    else:
        E = np.add(nu_s[:-1], nu_s[1:])
        E *= 0.5
        E += alpha
        E *= neg_dt
    np.exp(E, out=E)
    C = np.multiply(gain_s[:-1], E)
    C += gain_s[1:]
    C *= half_dt
    F = np.empty(E.shape[1:]) if out is None else out
    F[...] = inflow
    for m in range(len(E)):
        F *= E[m]
        F += C[m]
    return F


class _CharTable:
    """Characteristic lines of one velocity on one grid.

    Interior cells are grouped by their offset normal to v: cells with the
    same offset (to rounding) lie on one backward characteristic, a line.  On
    the shifted Broadwell lattice a line holds many cells; a velocity off the
    lattice gives one cell per line.  Each line is traced once, through its
    most upstream cell; every other cell on it sits at its projection onto v
    along the same chord.

    A line is transported gap by gap: the entry gap from its entry point on
    the boundary to its first cell, one interior gap from each cell to the
    next and the exit gap from its last cell to its exit point.  The two
    boundary gaps are node ladders (`_ladder`) of shape (L, lines): `entry`,
    and the exit ladder that `exit_ladder` builds from `exit_t` and
    `exit_pts` for the chords, its only reader.  Consecutive cells of a line
    differ by one integer cell vector, the same on every line of the
    velocity, so every interior gap has the same S + 1 nodes, S equal steps
    of time `dt` apart, relative to its cells.  Their bilinear weights over
    the K cell offsets `taps` form one (S + 1, K) matrix `M` per velocity;
    `MG` is M with the trapezoid weights (dt / 2)(1, 2, ..., 2, 1) folded in,
    and `MA` (S, K) holds the trapezoid partial sums of the frequency, so
    that node j of a gap is attenuated by R_j = exp(-A_j) with
    A_j = (MA nu_patch)_j + alpha `t_rest`_j, t_rest_j = (S - j) dt.

    Every node sample a sweep needs comes through one int64 index, `reads`,
    composed with `Grid.pad_flat` so that it reads the (ny, nx) field itself:
    first the entry ladder's four bilinear corners, shape (4, L, lines),
    then tap k of every interior gap's patch, shape (K, gaps).  `read` takes
    a field through it once and returns the entry nodes' bilinear values
    (with the ladder's stacked weights, corners added in stencil order) and
    the (K, gaps) patch matrix.  `entry` keeps the ladder's step times and
    weights; its corner indices live only in `reads`.

    Lines are numbered longest first, so the lines that hold an r-th cell
    are lines 0, 1, ...: transport chains the cells row by row in a ragged
    array, rank r of every line in one block.  Interior gaps are stored in
    the order of their downstream cells there, and `chain` lists per row
    r + 1 the start of row r, of row r + 1 and of its gaps, and its length.
    Per-cell arrays (`cells_flat`, `s_plus`, `line`, `slot`) run in line
    order, cells in a line by increasing entry time; `slot` is each cell's
    place in the chain and `last` the last cell of each line.
    """

    def __init__(self, domain: ConvexDomain, grid: Grid, v, h_s: float):
        v = np.asarray(v, dtype=float)
        speed = float(np.hypot(v[0], v[1]))
        interior, zs = grid.interior_flat, grid.interior_centers

        # Lines: a jump in the sorted normal offsets beyond rounding starts a
        # new line.  Cells are ordered by integer line id, never by the raw
        # offset, whose rounding noise would scramble the order along a line,
        # and within a line by their projection onto v.
        offset = (zs[:, 0] * v[1] - zs[:, 1] * v[0]) / speed
        by_offset = np.argsort(offset, kind="stable")
        sorted_offset = offset[by_offset]
        line = np.empty(len(zs), dtype=np.int64)
        line[by_offset] = np.cumsum(
            np.diff(sorted_offset, prepend=sorted_offset[:1]) > 1e-9 * grid.h)
        line = np.argsort(np.argsort(-np.bincount(line), kind="stable"))[line]  # longest first
        proj = (zs @ v) / (speed * speed)
        order = np.lexsort((proj, line))
        line, proj, zs = line[order], proj[order], zs.take(order, axis=0)
        head = np.flatnonzero(np.diff(line, prepend=-1) != 0)
        last = np.append(head[1:], len(line)) - 1

        # One trace per line, through its most upstream cell.
        z_head = zs.take(head, axis=0)
        s_head = domain.exit_times(z_head, -v)
        tau = s_head + domain.exit_times(z_head, v)       # chord time per line
        s = s_head[line] + (proj - proj[head][line])
        entry = z_head - s_head[:, None] * v
        e = _ladder(grid, entry, s_head, v, h_s, z_head)
        self.exit_t = np.maximum(tau, s[last]) - s[last]
        self.exit_pts = entry + tau[:, None] * v

        rank = np.arange(len(line)) - head[line]          # position of a cell on its line
        in_row = np.bincount(rank)                        # lines holding an r-th cell
        row = np.concatenate(([0], np.cumsum(in_row)))
        self.slot = row[rank] + line
        self.chain = [(int(a), int(b), int(b) - len(head), int(n))
                      for a, b, n in zip(row[:-2], row[1:-1], in_row[1:])]
        up = np.flatnonzero(np.diff(line) == 0)           # upstream cell of each gap
        up = up[np.argsort(self.slot[up + 1])]
        gap_reads = self._interior_gaps(grid, interior[order], up, v, speed, h_s)
        self.reads = np.concatenate([e.reads.ravel(), gap_reads.ravel()])
        self.entry = e._replace(reads=None)
        self.entry_steps = (-e.dt, 0.5 * e.dt)    # the step constants of `_transport`

        self.v, self.speed = v, speed
        self.cells_flat = interior[order]
        self.s_plus = s
        self.line = line
        self.last = last
        self.t_entry = boundary_param(domain).t_of_point(entry)

    def _interior_gaps(self, grid: Grid, cells, up, v, speed: float, h_s: float):
        """Step count S, step time dt, matrices M and MA and taps; returns the
        (K, gaps) read index of the gap patches."""
        iy, ix = np.divmod(cells, grid.nx)
        dy, dx = iy[up + 1] - iy[up], ix[up + 1] - ix[up]
        if not len(up):               # one cell per line: no gaps, a zero vector
            dy = dx = np.zeros(1, dtype=np.int64)
        if np.any(dy != dy[0]) or np.any(dx != dx[0]):
            raise SolverError("cells of one velocity's lines are not one cell vector apart")
        dy, dx = int(dy[0]), int(dx[0])
        gap_t = grid.h * (dx * v[0] + dy * v[1]) / (speed * speed)
        S = int(_n_steps(gap_t * speed, h_s))
        # Node j of a gap is its upstream cell + (j / S)(dx, dy) cells; the
        # patch's lowest cell is the upstream cell + (min(0, dx), min(0, dy)).
        j = np.arange(S + 1)
        qy, ry = np.divmod(j * dy - S * min(0, dy), S)
        qx, rx = np.divmod(j * dx - S * min(0, dx), S)
        corner_w = grid.weights(rx / S, ry / S)
        corner = (qy + [[0], [0], [1], [1]]) * grid.nx + qx + [[0], [1], [0], [1]]
        used = corner_w > 0.0
        self.taps, col = np.unique(corner[used], return_inverse=True)
        M = np.zeros((S + 1, len(self.taps)))
        M[np.nonzero(used)[1], col] = corner_w[used]
        self.S, self.dt = S, gap_t / S
        self.M = M
        trapezoid = np.full(S + 1, self.dt)
        trapezoid[[0, -1]] *= 0.5
        self.MG = trapezoid[:, None] * M
        self.MA = (0.5 * self.dt) * np.cumsum((M[:-1] + M[1:])[::-1], axis=0)[::-1]
        self.t_rest = self.dt * (S - j[:-1])
        base = cells[up] + min(0, dy) * grid.nx + min(0, dx)   # lowest cell of each patch
        return grid.pad_flat[self.taps[:, None] + base]

    def exit_ladder(self, grid: Grid, h_s: float) -> _Ladder:
        """Node ladder of every line's exit gap, from its last cell to its exit
        point.  Only full chords read it, so it is built when they ask: a
        one-cell line then stores a single ladder."""
        start = grid.centers.reshape(-1, 2).take(self.cells_flat[self.last], axis=0)
        return _ladder(grid, start, self.exit_t, self.v, h_s, self.exit_pts)

    @property
    def n_lines(self) -> int:
        return len(self.t_entry)

    def read(self, values2d: np.ndarray):
        """Every node sample of a (ny, nx) field, from one take through
        `reads`: the entry ladder's node values, shape (L, lines), and the
        (K, gaps) patch matrix."""
        vals = values2d.ravel().take(self.reads)
        W = self.entry.W
        corner_vals = vals[:W.size].reshape(W.shape)
        at_nodes = np.multiply(corner_vals, W, out=corner_vals).sum(axis=0)
        return at_nodes, vals[W.size:].reshape(len(self.taps), -1)


# A weak reference to the first of each grid's workspaces still alive, which a
# call without a workspace uses; an entry goes with its grid.
_LIVE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _live_workspace(grid: Grid) -> SolverWorkspace | None:
    ref = _LIVE.get(grid)
    return None if ref is None else ref()


class SolverWorkspace:
    """Shared per-(domain, model, grid) precomputation for solver passes and
    diagnostics, each part built on first use: per velocity, the
    characteristic table (`table`) and the balance's inflow rays (`rays`).

    Stored rays stay for the life of the workspace: a compact stencil of 3
    values per ladder node and the step times, 256 x 65 nodes per velocity
    at 32^2, so 2.1 MB for 4 velocities (1.6 MB of it stencils), growing as
    n (8.4 MB at 128^2).  The first live workspace on a grid also serves the
    calls on it that pass none (`_workspace_on`) and keeps what they build.
    """

    def __init__(self, domain: ConvexDomain, model: VelocityModel, grid: Grid,
                 config: SolverConfig):
        if grid.domain != domain:
            raise SolverError(f"workspace grid is on {grid.domain}, not on its domain {domain}")
        self.domain = domain
        self.model = model
        self.grid = grid
        self.config = config
        self.h_s = 0.5 * grid.h           # the path quadrature step of every ladder
        self._tables: dict[int, _CharTable] = {}
        self._rays: dict[int, _Rays] = {}
        if _live_workspace(grid) is None:     # a later workspace never replaces a live one
            _LIVE[grid] = weakref.ref(self)

    def table(self, i: int) -> _CharTable:
        tab = self._tables.get(i)
        if tab is None:
            tab = _CharTable(self.domain, self.grid, self.model.v[i], self.h_s)
            self._tables[i] = tab
        return tab

    def rays(self, i: int) -> _Rays:
        """Velocity i's inflow rays for `characteristic_balance`, one from each
        of 256 midpoint nodes of its inflow arc (`boundary_quadrature`) to its
        exit point, on a node ladder with steps of at most `h_s`.
        Built on first use and kept for later calls."""
        rays = self._rays.get(i)
        if rays is None:
            v = self.model.v[i]
            arc = boundary_quadrature(self.domain, v, +1, 256)
            dt, pts = _ladder_nodes(arc.points, self.domain.exit_times(arc.points, v), v,
                                    self.h_s)
            rays = _Rays(arc.t_params, np.abs(arc.vdotn) * arc.dsigma, dt,
                         *self.grid.stencil(pts))
            for a in rays:
                a.setflags(write=False)
            self._rays[i] = rays
        return rays

    @cached_property
    def coarse(self) -> SolverWorkspace | None:
        """The workspace of a nested sweep's earlier levels, built on first use:
        coarse_n = max(16, n // 4) cells once 2 coarse_n <= n, None below that
        or when the domain has no interior cell at coarse_n."""
        coarse_n = max(16, self.grid.n // 4)
        if 2 * coarse_n > self.grid.n:
            return None
        try:
            return SolverWorkspace(self.domain, self.model, Grid(self.domain, coarse_n),
                                   self.config)
        except FieldError:      # a domain too thin for any interior cell at coarse_n
            return None

    def entry_values(self, boundary: BoundaryData) -> list[np.ndarray]:
        """Inflow trace at the entry point of every characteristic line."""
        return [np.asarray(boundary.eval(i, self.table(i).t_entry), dtype=float)
                for i in range(self.model.p)]

    def _lines(self, tab: _CharTable, inflow, nu2d, gain2d, alpha: float) -> np.ndarray:
        """Exponential-form transport along every line of `tab`: F per cell, in table order.

        The recursion of `_transport`, from the entry ladder on, regrouped per
        interior gap: with R_j = exp(-A_j) (R_S = 1) and G = M gain_patch, a
        gap maps F at its upstream cell to
        F R_0 + (dt / 2)(G_0 R_0 + 2 sum_{0<j<S} G_j R_j + G_S) at the next.
        Every operation adds or multiplies nonnegative numbers or takes exp of
        a negated nonnegative sum, so F never decreases when the gain or the
        inflow grows or the frequency shrinks.  `nu2d` None is a zero frequency.
        """
        gain_e, gain_p = tab.read(gain2d)
        nu_e, nu_p = (None, None) if nu2d is None else tab.read(nu2d)
        F = np.empty(len(tab.slot))
        _transport(tab.entry, inflow, nu_e, gain_e, alpha, tab.entry_steps, F[:tab.n_lines])
        if not tab.chain:
            return F[tab.slot]
        if nu2d is None:
            R = np.exp(-alpha * tab.t_rest)[:, None]
        else:
            A = _matmul(tab.MA, nu_p)
            R = np.exp(np.subtract(-alpha * tab.t_rest[:, None], A, out=A), out=A)
        loc = _matmul(tab.MG, gain_p)
        loc[:-1] *= R
        loc = loc.sum(axis=0)
        R0 = np.broadcast_to(R[0], loc.shape) if nu2d is None else R[0]
        for a, b, g, n in tab.chain:
            row = np.multiply(F[a:a + n], R0[g:g + n], out=F[b:b + n])
            row += loc[g:g + n]
        return F[tab.slot]

    def apply_exponential(self, entry_vals, nu, gain, alpha: float,
                          out: np.ndarray | None = None) -> np.ndarray:
        """One transport sweep of the exponential form, component by component.

        `nu` and `gain` are (p, ny, nx) arrays, or callables that return
        component i's (ny, nx) values.  For i = 0, ..., p-1 in index order,
        nu(i) and then gain(i) are called exactly once, just before component
        i is transported, when components 0..i-1 of `out` hold this sweep's
        values and i..p-1 the previous ones; with callables that read `out`,
        the sweep is a Gauss-Seidel pass (inner_monotone_solve relies on this
        order to refresh one truncated factor per gain call).  `nu` may be an
        array made before the pass when frequency i reads only component i of
        `out`, which the pass has not yet written when it transports i: that
        is the same pass, and the gain callables keep their order.  The interior
        cells of `out` (a new zero array by default; C-contiguous, as it is
        written through views) are overwritten.
        """
        grid = self.grid
        if out is None:
            out = np.zeros((self.model.p, grid.ny, grid.nx))
        for i in range(self.model.p):
            tab = self.table(i)
            nu_i = nu(i) if callable(nu) else nu[i]
            gain_i = gain(i) if callable(gain) else gain[i]
            out[i].ravel()[tab.cells_flat] = self._lines(tab, entry_vals[i], nu_i, gain_i,
                                                         alpha)
        return out

    def path_integral(self, i: int, values2d: np.ndarray, alpha: float = 0.0) -> np.ndarray:
        """Trapezoid integral of `values2d` from the entry point to each interior
        cell, in table order, its integrand at line time s damped by
        exp(-alpha (s+ - s)), s+ the cell's time (alpha 0: the plain integral)."""
        tab = self.table(i)
        return self._lines(tab, np.zeros(tab.n_lines), None, values2d, alpha)

    # The benchmark's traced run (bench/tracing.py) wraps this name too.
    path_integral_attenuated = path_integral

    def chord(self, i: int, integrand2d: np.ndarray, exit2d: np.ndarray):
        """Full chords, entry to exit, through every interior cell.

        Per line: the trapezoid integral of `integrand2d` from the entry point
        to the last cell, continued along the exit ladder to the exit point,
        and the bilinear value of `exit2d` at the exit point; every cell on
        the line gets the line's values.  Returns two (ny, nx) arrays.
        """
        tab = self.table(i)
        grid = self.grid
        x = tab.exit_ladder(grid, self.h_s)
        to_last = self.path_integral(i, integrand2d)[tab.last]
        integral = _transport(x, to_last, None, grid.sample(integrand2d, x.reads, x.W), 0.0)
        at_exit = grid.sample(exit2d, x.reads[:, -1], x.W[:, -1])
        return self.scatter(i, integral[tab.line]), self.scatter(i, at_exit[tab.line])

    def scatter(self, i: int, per_cell: np.ndarray) -> np.ndarray:
        """Place per-interior-cell values back onto the full lattice."""
        out = np.zeros(self.grid.ny * self.grid.nx)
        out[self.table(i).cells_flat] = per_cell
        return out.reshape(self.grid.ny, self.grid.nx)


def _workspace_on(domain: ConvexDomain, model: VelocityModel, grid: Grid | None,
                  config: SolverConfig, workspace: SolverWorkspace | None) -> SolverWorkspace:
    """`workspace`; without one, the live workspace on this `grid` object if
    it was built for an equal domain and model, else a new one on `grid` (on
    config.grid_n when `grid` is None).

    A field on `grid` is read through the workspace's tables, which trace the
    workspace's domain and velocities, so a workspace passed on another grid
    (another domain or resolution), for another domain or for another model
    is a SolverError.
    """
    if workspace is None:
        grid = grid if grid is not None else Grid(domain, config.grid_n)
        live = _live_workspace(grid)
        same = live is not None and (live.domain, live.model) == (domain, model)
        return live if same else SolverWorkspace(domain, model, grid, config)
    have = workspace.grid
    if grid is not None and (grid.domain, grid.n) != (have.domain, have.n):
        raise SolverError(f"field grid (n={grid.n} on {grid.domain}) does not match the "
                          f"workspace grid (n={have.n} on {have.domain})")
    if domain != workspace.domain:
        raise SolverError(f"domain {domain} does not match the workspace domain "
                          f"{workspace.domain}")
    if model != workspace.model:
        differ = [f.name for f in dataclass_fields(model)
                  if getattr(model, f.name) != getattr(workspace.model, f.name)]
        raise SolverError(f"velocity model differs from the workspace model in its "
                          f"{' and '.join(differ)}")
    return workspace


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass
class SolveTrace:
    increments: list = field(default_factory=list)
    masses: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    termination: str = ""
    tolerance: float = float("nan")     # relative change at which the loop stops
    converged: bool = False
    monotone_violations: int = 0
    mass_cap: float = float("nan")
    mass_cap_max_ratio: float = 0.0
    children: list = field(default_factory=list)
    residual: float = float("nan")
    # inner ladders: "zero", "certified" (from a candidate that passed) or
    # "fallback" (from zero, after one certification pass it discarded)
    start: str = ""

    @property
    def iterations(self) -> int:
        """Loop steps; for an inner ladder, transport passes, the discarded one included."""
        return len(self.increments) + (self.start == "fallback")


# ---------------------------------------------------------------------------
# single stage
# ---------------------------------------------------------------------------

def inner_monotone_solve(domain: ConvexDomain, model: VelocityModel,
                         boundary: BoundaryData, frozen: Field, config: SolverConfig,
                         workspace: SolverWorkspace | None = None,
                         entry_vals=None, mass_cap: float | None = None,
                         start: Field | None = None):
    """Monotone ladder for the stage map at one frozen convolved state.

    The frozen state is mollified with radius alpha.  Each step is one
    Gauss-Seidel transport pass: component i is transported with the
    truncated frequency of its own current value and the truncated gain of
    the components already updated in the pass (the truncated factor of each
    component is refreshed once, after it is written).  The ladder starts
    from zero, or from the candidate `start` S (its interior cells) when S
    is a certified sub-solution: the first pass from S becomes the ladder's
    first step only if it is at least S, bitwise, in every cell.  The pass
    map is isotone, so every later pass then increases too and the ladder
    climbs to the least fixed point at or above S, the zero-start limit when
    the stage map has a single fixed point (Amann 1976; Ortega & Rheinboldt
    1970, 13.2).  Otherwise the pass is discarded and the ladder runs from
    zero, as if no candidate had been given but with one step of
    config.max_inner spent; the trace's `start` says which, and its
    `iterations` count the discarded pass, so they never exceed max_inner.  The
    ladder stops when the relative L1 increment of a pass is at most
    config.tol_inner, and at once, as "not_finite", when that increment is
    not finite.  The iterates increase cellwise and their mass stays
    below the damping cap; both properties are monitored, and a cellwise
    decrease beyond 1e-12 (1 + max F) is a hard failure.
    """
    if np.any(frozen.values < 0) or (start is not None and np.any(start.values < 0)):
        raise SolverError("frozen state and ladder start must be nonnegative")
    ws = _workspace_on(domain, model, frozen.grid, config, workspace)
    if start is not None:
        _workspace_on(domain, model, start.grid, config, ws)
    alpha, k = config.damping(), config.k
    smoothed = mollify_field(frozen, alpha)
    if entry_vals is None:
        entry_vals = ws.entry_values(boundary)
    if mass_cap is None:
        mass_cap = compute_mass_cap(domain, model, boundary, alpha)

    source = frequency_source(model, smoothed.values, k)
    tr_sm = truncated_factor(smoothed.values, k)

    trace = SolveTrace(mass_cap=mass_cap, tolerance=config.tol_inner, start="zero")
    F = np.zeros((model.p, ws.grid.ny, ws.grid.nx))
    if start is not None:
        trace.start = "certified"        # until its first pass says otherwise
        np.copyto(F, start.values, where=ws.grid.mask)
    tr_F = truncated_factor(F, k)        # truncated factors of F, refreshed per component
    # Per-ladder buffers: a pass writes nu, the gain and its bookkeeping in place.
    rows = row_entries(model)
    nu, gain = np.empty_like(F), np.empty(F.shape[1:])
    prev, diff, fell = np.empty_like(F), np.empty_like(F), np.empty(F.shape, dtype=bool)

    def gain_of(i):
        # component i - 1 was written last (for i = 0: the last component, by
        # the previous pass)
        truncated_factor(F[i - 1], k, out=tr_F[i - 1])
        return gain_truncated(model, tr_F, tr_sm, component=i, out=gain, rows=rows)

    area = ws.grid.cell_area
    t0 = time.perf_counter()
    # truncated_factor divides by zero where F is 0; an overflowing pass ends
    # the ladder as "not_finite"
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for q in range(config.max_inner):
            np.copyto(prev, F)
            # frequency i reads only component i, which the pass has not yet
            # written when it transports i, so all are formed before the pass
            np.divide(F, k, out=nu)
            nu += 1.0
            np.divide(source, nu, out=nu)
            ws.apply_exponential(entry_vals, nu, gain_of, alpha, out=F)
            if q == 0 and trace.start == "certified" and not np.all(F >= prev):
                # T(S) >= S fails somewhere: run from zero.  The discarded pass
                # spends one step of max_inner, and its time goes to the next step.
                trace.start = "fallback"
                F[...] = 0.0
                tr_F[...] = 0.0
                continue
            viol = int(np.count_nonzero(np.less(F, prev, out=fell)))
            trace.monotone_violations += viol
            if viol:
                worst = float(np.max(prev - F))
                if worst > 1e-12 * (1.0 + float(np.max(prev))):
                    raise SolverError(
                        f"monotone ladder decreased by {worst:.3e} at iteration {q}; "
                        "this indicates a quadrature defect")
            np.subtract(F, prev, out=diff)
            if viol:                         # otherwise every difference is >= 0
                np.abs(diff, out=diff)
            inc = float(diff.sum() * area)
            mass = float(F.sum() * area)
            trace.increments.append(inc)
            trace.masses.append(mass)
            now = time.perf_counter()
            trace.wall_times.append(now - t0)
            t0 = now
            if mass_cap > 0:
                trace.mass_cap_max_ratio = max(trace.mass_cap_max_ratio, mass / mass_cap)
            if not math.isfinite(inc):
                trace.termination = "not_finite"     # it would never meet the tolerance
                break
            if inc <= config.tol_inner * (mass + 1e-300):
                trace.termination = "converged"
                trace.converged = True
                break
        else:
            trace.termination = "max_inner"
    if trace.mass_cap_max_ratio > 1.0 + 1e-9:
        warnings.warn(f"inner iterate mass exceeded the damping cap by factor "
                      f"{trace.mass_cap_max_ratio:.12f}", stacklevel=2)
    return Field(ws.grid, F), trace


@np.errstate(over="ignore", invalid="ignore")   # an overflowing stage is "not_finite"
def outer_fixed_point(domain: ConvexDomain, model: VelocityModel,
                      boundary: BoundaryData, config: SolverConfig,
                      workspace: SolverWorkspace | None = None,
                      start: Field | None = None):
    """Picard iteration of the stage map (frozen state -> transported state).

    The inner ladders are inexact: each stops at max(tol_inner,
    INNER_FORCING x rel), rel the previous relative change, so early
    ladders, whose frozen state is still far from the fixed point, stop
    early.  The first ladder takes rel = STARTED_CHANGE when the stage starts
    from `start` (the next outer iterate moves that frozen state anyway) and
    runs at tol_inner when it starts from zero.  Each later ladder also gets
    the candidate start (1 - delta) x the previous iterate, delta =
    LADDER_START_MARGIN x rel, while delta < 1: the previous iterate
    straddles the new fixed point, and a start pushed below it by a margin
    that shrinks with the outer change usually certifies (`inner_monotone_solve`); one that does
    not costs one discarded pass.  Convergence of this loop is monitored, not
    guaranteed; a stall after max_outer steps is reported through the trace,
    never asserted away; a relative change that is not finite ends the loop
    at once, as "not_finite".  The stage counts as converged only when the
    relative change falls below tol_outer after an inner ladder that ran at
    tol_inner and converged, and the final residual is finite; a relaxed
    ladder that meets tol_outer is followed by one more outer iteration at
    tol_inner.
    """
    ws = _workspace_on(domain, model, None if start is None else start.grid, config, workspace)
    kernel_reach(config.damping(), ws.grid.h)  # an unaffordable kernel fails before any table
    entry_vals = ws.entry_values(boundary)
    mass_cap = compute_mass_cap(domain, model, boundary, config.alpha)
    f = start.copy() if start is not None else Field.zeros(ws.grid, model.p)
    trace = SolveTrace(mass_cap=mass_cap, tolerance=config.tol_outer)
    tol_inner = (config.tol_inner if start is None
                 else max(config.tol_inner, INNER_FORCING * STARTED_CHANGE))
    below = None                         # the next ladder's candidate start
    for it in range(config.max_outer):
        t0 = time.perf_counter()
        F, itrace = inner_monotone_solve(
            domain, model, boundary, f, replace(config, tol_inner=tol_inner),
            workspace=ws, entry_vals=entry_vals, mass_cap=mass_cap, start=below)
        change = F.l1_distance(f)
        rel = change / max(F.mass(), 1e-300)
        trace.increments.append(rel)
        trace.masses.append(F.mass())
        trace.wall_times.append(time.perf_counter() - t0)
        trace.children.append(itrace)
        trace.monotone_violations += itrace.monotone_violations
        trace.mass_cap_max_ratio = max(trace.mass_cap_max_ratio, itrace.mass_cap_max_ratio)
        f = F
        if not math.isfinite(rel):
            trace.termination = "not_finite"
            break
        if rel <= config.tol_outer and tol_inner == config.tol_inner:
            # an inner ladder cut off by max_inner can leave the iterate unchanged
            # without reaching the stage map's fixed point
            trace.termination = "converged" if itrace.converged else "inner_not_converged"
            break
        tol_inner = (config.tol_inner if rel <= config.tol_outer
                     else max(config.tol_inner, INNER_FORCING * rel))
        delta = LADDER_START_MARGIN * rel
        below = Field(ws.grid, (1.0 - delta) * f.values) if delta < 1.0 else None
    else:
        trace.termination = "max_outer"
    res = residual_mild(domain, model, boundary, f, k=config.k, alpha=config.alpha,
                        smoothed=mollify_field(f, config.alpha), workspace=ws)
    trace.residual = res.total_relative
    if trace.termination == "converged" and not math.isfinite(trace.residual):
        trace.termination = "residual_not_finite"
    trace.converged = trace.termination == "converged"
    return f, trace


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

@dataclass
class ContinuationResult:
    """The stages of one damping continuation and their extrapolated estimate.

    Run inside a nested `k_sweep`, an earlier level's `fields`, `traces`,
    `cauchy_distances` and `final_residual` describe the coarse grid it ran
    on, at the coarse tolerances, while its `estimate` is prolonged to the
    run grid.
    """

    alphas: list
    fields: list               # per-alpha converged stages
    traces: list
    cauchy_distances: list     # L1 distance between consecutive stages
    estimate: Field            # extrapolated (or last) alpha -> 0 estimate
    final_residual: float      # undamped truncated mild residual of the estimate
    warnings: list

    @property
    def converged(self) -> bool:
        return all(t.converged for t in self.traces)

    @property
    def last(self) -> Field:
        return self.fields[-1]


def alpha_continuation(domain: ConvexDomain, model: VelocityModel,
                       boundary: BoundaryData, config: SolverConfig,
                       workspace: SolverWorkspace | None = None,
                       start: Field | None = None) -> ContinuationResult:
    """Drive the damping to zero along config.alpha_schedule at fixed k.

    Each stage runs at tol_outer from the previous stage's solution (the
    first from `start`, or from zero); consecutive L1 distances are reported
    as an empirical convergence (Cauchy) monitor.  With two or more stages
    the returned estimate removes the leading linear damping bias by
    Richardson extrapolation of the last two stages (clipped at zero to
    preserve positivity).  `k_sweep` passes only those two.
    """
    config.damping()
    schedule = list(config.alpha_schedule)
    ws = _workspace_on(domain, model, None if start is None else start.grid, config, workspace)
    for a in schedule:
        kernel_reach(a, ws.grid.h)             # an unaffordable kernel fails before any table
    fields_, traces, alphas = [], [], []
    notes = []
    prev = start
    for a in schedule:
        F, tr = outer_fixed_point(domain, model, boundary, replace(config, alpha=a),
                                  workspace=ws, start=prev)
        if not tr.converged:
            notes.append(f"stage alpha={a} did not converge ({tr.termination})")
        fields_.append(F)
        traces.append(tr)
        alphas.append(a)
        prev = F
    dists = [fields_[j].l1_distance(fields_[j - 1]) for j in range(1, len(fields_))]
    for j in range(1, len(dists)):
        if dists[j] > dists[j - 1]:
            notes.append(f"Cauchy distances increased at stage {j + 1}; "
                         "consider refining the grid")
            break
    estimate = fields_[-1]
    if len(fields_) >= 2:
        r = alphas[-2] / alphas[-1]
        vals = (r * fields_[-1].values - fields_[-2].values) / (r - 1.0)
        estimate = Field(estimate.grid, np.maximum(vals, 0.0))
    res = residual_mild(domain, model, boundary, estimate, k=config.k, alpha=0.0,
                        workspace=ws)
    return ContinuationResult(alphas, fields_, traces, dists, estimate,
                              res.total_relative, notes)


@dataclass
class KStage:
    """One truncation level of a sweep.

    `continuation.estimate` and `diagnostics` are on the run grid.  In a
    nested sweep every level but the last solved on the coarse grid, which
    its `continuation.last.grid` names: there `continuation.fields`,
    `traces`, `cauchy_distances` and `final_residual` describe that solve.
    """

    k: float
    boundary: BoundaryData
    continuation: ContinuationResult
    diagnostics: dict


@dataclass
class SweepResult:
    stages: list
    k_distances: list      # L1 distances between consecutive k estimates
    field: Field           # final solution estimate

    @property
    def converged(self) -> bool:
        return all(s.continuation.converged for s in self.stages)


def _prolong(field_: Field, grid: Grid) -> Field:
    """Bilinear prolongation to another grid of the same domain: every
    component interpolated at `grid`'s centres, clipped at 0 and zeroed off
    its mask."""
    vals = np.stack([field_.grid.interpolate(v, grid.centers) for v in field_.values])
    return Field(grid, np.where(grid.mask, np.maximum(vals, 0.0), 0.0))


def k_sweep(domain: ConvexDomain, model: VelocityModel, boundary: BoundaryData,
            config: SolverConfig, workspace: SolverWorkspace | None = None) -> SweepResult:
    """Raise the truncation level along config.k_schedule.

    Each level caps and smooths the inflow trace, runs the damping
    continuation and collects the level diagnostics: mass, energy,
    dissipation, entropy functionals and translation moduli of the integrated
    collision frequency.  Every level runs only the last two stages of
    config.alpha_schedule, the Richardson pair, so it reports one Cauchy
    distance: the first level from zero, every later one from the previous
    level's last field.  The earlier entries of the schedule are not run;
    as a warm-up of the first level they changed no bit of the default
    sweep's final field, at 32^2 to 128^2, on the Maxwellian and a step
    inflow.

    The grids are nested.  With run grid n and coarse_n = max(16, n // 4),
    once 2 coarse_n <= n every level but the last runs on the workspace's
    `coarse` workspace, with coarse_n cells, built once per run-grid
    workspace.  Those levels stop their outer loops at max(tol_outer,
    COARSE_TOL_OUTER) and their ladders at max(tol_inner, INNER_FORCING x
    COARSE_TOL_OUTER): their prolonged estimates sit 2e-5 (Maxwellian) to
    3e-2 (step inflow) relative L1 from the run-grid solves, so tighter
    digits would not reach the answer.  The last coarse field is prolonged
    (`_prolong`) to the run grid, and only the last level's pair runs there,
    at tol_outer and tol_inner.  Each earlier level's estimate is prolonged
    to the run grid before its diagnostics, so every estimate, diagnostic
    and k distance is on the run grid.  Smaller run grids, and domains with
    no interior cell at coarse_n, run every level on the run grid at
    tol_outer.
    """
    config.damping()
    ks = list(config.k_schedule)
    ws = _workspace_on(domain, model, None, config, workspace)
    for a in config.alpha_schedule[-2:]:
        kernel_reach(a, ws.grid.h)             # checked on the run grid, before the coarse one
    bds = [truncate_and_mollify_boundary(boundary, k, domain) for k in ks]   # and each inflow
    from . import diagnostics as diag   # deferred: diagnostics imports solver

    coarse = (ws.coarse if len(ks) > 1 else None) or ws
    coarse_cfg = replace(config, tol_outer=max(config.tol_outer, COARSE_TOL_OUTER),
                         tol_inner=max(config.tol_inner, INNER_FORCING * COARSE_TOL_OUTER))
    stages = []
    prev_field = None
    for j, (k, bd_k) in enumerate(zip(ks, bds)):
        stage_ws = ws if j == len(ks) - 1 else coarse
        if prev_field is not None and prev_field.grid is not stage_ws.grid:
            prev_field = _prolong(prev_field, stage_ws.grid)
        cfg = replace(config if stage_ws is ws else coarse_cfg, k=k,
                      alpha_schedule=config.alpha_schedule[-2:])
        cont = alpha_continuation(domain, model, bd_k, cfg, workspace=stage_ws,
                                  start=prev_field)
        prev_field = cont.last
        if stage_ws is not ws:
            cont.estimate = _prolong(cont.estimate, ws.grid)
        info = diag.stage_diagnostics(domain, model, cont.estimate, bd_k, k=k, workspace=ws)
        stages.append(KStage(k, bd_k, cont, info))
    dists = [stages[j].continuation.estimate.l1_distance(stages[j - 1].continuation.estimate)
             for j in range(1, len(stages))]
    return SweepResult(stages, dists, stages[-1].continuation.estimate)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _collision(model: VelocityModel, field_: Field, k: float | None,
               smoothed: Field | None = None):
    """The collision operator on `field_`: untruncated for `k` None,
    convolved-truncated when `smoothed` is given, truncated otherwise.  The
    `eval_*` names are looked up at each call, so wrappers on them apply."""
    if k is None:
        return eval_untruncated(model, field_.values)
    if smoothed is not None:
        return eval_convolved_truncated(model, field_.values, smoothed.values, k)
    return eval_truncated(model, field_.values, k)


@dataclass
class MildResidual:
    total_relative: float
    max_cell: float


@np.errstate(over="ignore")     # an overflowing defect is inf
def residual_mild(domain: ConvexDomain, model: VelocityModel, boundary: BoundaryData,
                  field_: Field, k: float | None = None, alpha: float = 0.0,
                  smoothed: Field | None = None,
                  workspace: SolverWorkspace | None = None) -> MildResidual:
    """Defect of the integral (mild) form along backward characteristics.

    Per cell: F_a(z) - inflow(entry) * e^(-alpha s+) - integral of the net
    collision term (damped by e^(alpha (s - s+)) when alpha > 0).  The net
    term is evaluated on the grid first (gain - loss as arrays), so exact
    algebraic cancellations survive interpolation.  `k=None` selects the
    untruncated operator; passing `smoothed` selects the convolved one.
    """
    ws = _workspace_on(domain, model, field_.grid, SolverConfig(), workspace)
    net = _collision(model, field_, k, smoothed).net
    entry_vals = ws.entry_values(boundary)
    area = ws.grid.cell_area
    l1 = np.zeros(model.p)
    worst = 0.0
    for i in range(model.p):
        tab = ws.table(i)
        coll = ws.path_integral(i, net[i], alpha)
        predicted = entry_vals[i][tab.line] * np.exp(-alpha * tab.s_plus) + coll
        actual = field_.values[i].ravel()[tab.cells_flat]
        r = np.abs(actual - predicted)
        l1[i] = float(np.sum(r) * area)
        worst = max(worst, float(np.max(r)))
    total = float(np.sum(l1) / max(field_.mass(), 1e-300))
    return MildResidual(total, worst)


@dataclass
class TestFunction:
    name: str
    fn: object            # callable (x, y) -> values
    grad: object          # callable (x, y) -> (2,) gradient arrays


def default_test_functions() -> list[TestFunction]:
    """Polynomials up to degree two; C1 on the closed domain."""
    zero = lambda x, y: np.zeros_like(x)
    one = lambda x, y: np.ones_like(x)
    return [
        TestFunction("1", lambda x, y: np.ones_like(x), lambda x, y: (zero(x, y), zero(x, y))),
        TestFunction("x", lambda x, y: x, lambda x, y: (one(x, y), zero(x, y))),
        TestFunction("y", lambda x, y: y, lambda x, y: (zero(x, y), one(x, y))),
        TestFunction("x^2", lambda x, y: x * x, lambda x, y: (2.0 * x, zero(x, y))),
        TestFunction("x*y", lambda x, y: x * y, lambda x, y: (y, x)),
        TestFunction("y^2", lambda x, y: y * y, lambda x, y: (zero(x, y), 2.0 * y)),
    ]


@dataclass
class RenormalizedDefect:
    name: str
    total: float
    per_component: np.ndarray


def residual_renormalized(domain: ConvexDomain, model: VelocityModel,
                          boundary: BoundaryData, field_: Field, k: float | None = None,
                          workspace: SolverWorkspace | None = None):
    """Weak-form defect of the logarithmic (renormalized) formulation.

    For each test function phi of `default_test_functions`: outflow of
    phi ln(1+F) minus inflow of phi ln(1+inflow trace), minus the volume
    advection of ln(1+F) against v . grad phi, minus the volume collision
    term phi Q(F)/(1+F).  All four pieces vanish together exactly for an
    exact solution.
    """
    ws = _workspace_on(domain, model, field_.grid, SolverConfig(), workspace)
    grid = ws.grid
    # the volume terms read interior cells only: the test functions are
    # evaluated there and the fields read there once
    ratio = _collision(model, field_, k).net / (1.0 + field_.values)
    ratio = ratio.reshape(model.p, -1).take(grid.interior_flat, axis=1)
    X, Y = grid.interior_centers[:, 0], grid.interior_centers[:, 1]
    area = grid.cell_area
    lnF = np.log1p(field_.values).reshape(model.p, -1).take(grid.interior_flat, axis=1)
    # The traces on both arcs do not depend on the test function.
    arcs = []
    for i in range(model.p):
        arc_out = boundary_quadrature(domain, model.v[i], -1)
        arc_in = boundary_quadrature(domain, model.v[i], +1)
        arcs.append((arc_out, np.log1p(grid.interpolate(field_.values[i], arc_out.points)),
                     arc_in, np.log1p(np.asarray(boundary.eval(i, arc_in.t_params)))))
    out = []
    for tf in default_test_functions():
        phi = np.asarray(tf.fn(X, Y), dtype=float)
        gx, gy = tf.grad(X, Y)
        per_comp = np.zeros(model.p)
        for i, (arc_out, ln_out, arc_in, ln_in) in enumerate(arcs):
            v = model.v[i]
            phi_out = np.asarray(tf.fn(arc_out.points[:, 0], arc_out.points[:, 1]))
            out_term = arc_out.integrate_flux(phi_out * ln_out)
            phi_in = np.asarray(tf.fn(arc_in.points[:, 0], arc_in.points[:, 1]))
            in_term = arc_in.integrate_flux(phi_in * ln_in)
            adv = float(np.sum(lnF[i] * (v[0] * np.asarray(gx) + v[1] * np.asarray(gy))) * area)
            vol = float(np.sum(phi * ratio[i]) * area)
            per_comp[i] = out_term - in_term - adv - vol
        out.append(RenormalizedDefect(tf.name, float(np.sum(per_comp)), per_comp))
    return out
