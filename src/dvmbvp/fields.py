"""Grids, density fields, boundary traces and smoothing operators.

Fields live on a uniform cell-centered lattice clipped to the domain.  Off
the interior mask the field is continued by the value of the nearest interior
cell (a discrete stand-in for continuation along the inward normal), which
gives every interpolation and convolution a defined, order-preserving value
near the boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexDomain, boundary_param


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

class Grid:
    """Uniform cell-centered lattice over the domain bounding box."""

    def __init__(self, domain: ConvexDomain, n: int):
        if n < 4:
            raise FieldError("grid resolution must be at least 4")
        x0, x1, y0, y1 = domain.bbox
        h = max(x1 - x0, y1 - y0) / n
        if not np.finfo(float).tiny <= h * h < math.inf:
            raise FieldError(f"grid_n {n} on semi-axes {domain.semi_axes} gives cell width "
                             f"{h:g}, whose area is not a positive, normal, finite float")
        # quadratic test functions (x^2, xy, y^2) are evaluated on the box
        reach = max(abs(x0), abs(x1), abs(y0), abs(y1))
        if not reach * reach < math.inf:
            raise FieldError(f"the bounding box of semi-axes {domain.semi_axes} about "
                             f"{domain.center} reaches {reach:g}, whose square is not a "
                             f"finite float")
        nx = max(4, int(round((x1 - x0) / h)))
        ny = max(4, int(round((y1 - y0) / h)))
        self.domain = domain
        self.n = n
        self.h = h
        self.nx, self.ny = nx, ny
        self.x0, self.y0 = x0, y0
        self.xs = x0 + (np.arange(nx) + 0.5) * h
        self.ys = y0 + (np.arange(ny) + 0.5) * h
        X, Y = np.meshgrid(self.xs, self.ys, indexing="xy")
        self.centers = np.stack([X, Y], axis=-1)          # (ny, nx, 2)
        self.mask = domain.contains(self.centers)          # (ny, nx)
        if not np.any(self.mask):
            raise FieldError("no interior cells; increase the resolution")
        self.pad_flat = self._nearest_interior_map()
        # pad_flat of the four bilinear corners of every cell taken as a
        # lower-left cell; no lower-left cell lies in the last row or column,
        # whose corners are clamped only to stay in range
        corners = np.arange(ny * nx) + np.array([[0], [1], [nx], [nx + 1]])
        self._corner_reads = self.pad_flat[np.minimum(corners, ny * nx - 1)]
        # flat index and centre of every interior cell, in raster order
        self.interior_flat = np.flatnonzero(self.mask)
        self.interior_centers = self.centers.reshape(-1, 2).take(self.interior_flat, axis=0)
        self.n_interior = len(self.interior_flat)

    def _nearest_interior_map(self) -> np.ndarray:
        """Flat index of the nearest interior cell for every lattice cell.

        Ties are broken lexicographically in (iy, ix), so the continuation
        of fields past the boundary is a deterministic contract rather than
        an artifact of the distance transform's scan order.

        Only interior cells with an exterior 8-neighbour are candidates.  A
        nearest interior cell, and every cell tied with it, has one: its
        neighbour one step toward the target is strictly closer, so it cannot
        be interior.
        """
        ny, nx = self.ny, self.nx
        flat = np.arange(ny * nx, dtype=np.int64)
        ext = np.pad(~self.mask, 1)
        near_ext = np.zeros_like(self.mask)
        for dy in (0, 1, 2):
            for dx in (0, 1, 2):
                near_ext |= ext[dy:dy + ny, dx:dx + nx]
        cand = np.argwhere(self.mask & near_ext)           # row-major = lexicographic
        cand_flat = cand[:, 0] * nx + cand[:, 1]
        exterior = np.argwhere(~self.mask)
        out = flat.copy()
        chunk = max(1, 10_000_000 // max(1, len(cand)))
        for lo in range(0, len(exterior), chunk):
            e = exterior[lo:lo + chunk]
            d2 = ((e[:, None, 0] - cand[None, :, 0]) ** 2
                  + (e[:, None, 1] - cand[None, :, 1]) ** 2)
            nearest = np.argmin(d2, axis=1)               # first minimum = lexicographic
            out[e[:, 0] * nx + e[:, 1]] = cand_flat[nearest]
        return out

    @property
    def cell_area(self) -> float:
        return self.h * self.h

    def stencil(self, points):
        """Compact bilinear stencil for arbitrary points, each part of shape
        points.shape[:-1]: the flat index of the lower-left corner cell and
        the fractions fx, fy toward the next column and row.

        Points beyond the outermost cell centers are clamped, which keeps the
        fractions, and so the weights, in [0, 1] and the scheme
        order-preserving.
        """
        pts = np.asarray(points, dtype=float)
        gx = (pts[..., 0] - self.x0) / self.h - 0.5
        gy = (pts[..., 1] - self.y0) / self.h - 0.5
        ix = np.clip(np.floor(gx).astype(np.int64), 0, self.nx - 2)
        iy = np.clip(np.floor(gy).astype(np.int64), 0, self.ny - 2)
        fx = np.clip(gx - ix, 0.0, 1.0)
        fy = np.clip(gy - iy, 0.0, 1.0)
        return iy * self.nx + ix, fx, fy

    @staticmethod
    def weights(fx, fy):
        """The four nonnegative corner weights of a `stencil`'s fractions,
        stacked as (4, *fx.shape) in corner order (0, 0), (1, 0), (0, 1), (1, 1)."""
        W = np.empty((4,) + fx.shape)
        ex, ey = 1.0 - fx, 1.0 - fy
        np.multiply(ex, ey, out=W[0])
        np.multiply(fx, ey, out=W[1])
        np.multiply(ex, fy, out=W[2])
        np.multiply(fx, fy, out=W[3])
        return W

    def interp_weights(self, points):
        """Bilinear stencil for arbitrary points, each part stacked as
        (4, *points.shape[:-1]) in corner order: the flat index of every
        corner cell of the `stencil`, continued past the boundary through
        `pad_flat`, and its weight (`weights`)."""
        flat, fx, fy = self.stencil(points)
        return self._corner_reads.take(flat, axis=1), self.weights(fx, fy)

    @staticmethod
    def sample(values2d, reads, W):
        """Bilinear values of a (ny, nx) array through an `interp_weights`
        stencil: one take, then the corner products added in corner order."""
        corner_vals = values2d.ravel().take(reads)
        return np.multiply(corner_vals, W, out=corner_vals).sum(axis=0)

    def sample_stencil(self, values2d, flat, W):
        """`sample` through a compact `stencil`'s lower-left cells `flat` and
        their `weights` W, bitwise: every cell's four corner values, then
        those of the cells in `flat`."""
        corner_vals = values2d.ravel().take(self._corner_reads).take(flat, axis=1)
        return np.multiply(corner_vals, W, out=corner_vals).sum(axis=0)

    def interpolate(self, values2d, points):
        """Bilinear interpolation of a cell array at arbitrary points."""
        return self.sample(values2d, *self.interp_weights(points))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass
class Field:
    """p nonnegative density components on a shared grid."""

    grid: Grid
    values: np.ndarray    # (p, ny, nx), zero off the interior mask

    @staticmethod
    def zeros(grid: Grid, p: int) -> "Field":
        return Field(grid, np.zeros((p, grid.ny, grid.nx)))

    @staticmethod
    def constant(grid: Grid, vals) -> "Field":
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        data = np.zeros((len(vals), grid.ny, grid.nx))
        np.copyto(data, vals[:, None, None], where=grid.mask)
        return Field(grid, data)

    @staticmethod
    def from_function(grid: Grid, funcs) -> "Field":
        """Build from callables f(x, y); one per component."""
        data = np.zeros((len(funcs), grid.ny, grid.nx))
        X = grid.centers[..., 0]
        Y = grid.centers[..., 1]
        for i, f in enumerate(funcs):
            vals = np.asarray(f(X, Y), dtype=float)
            data[i][grid.mask] = vals[grid.mask]
        return Field(grid, data)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    def component_mass(self) -> np.ndarray:
        return self.values.sum(axis=(1, 2)) * self.grid.cell_area

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.cell_area)

    def l1_distance(self, other: "Field") -> float:
        return float(np.abs(self.values - other.values).sum() * self.grid.cell_area)

    def min_value(self) -> float:
        return float(self.values.reshape(self.p, -1).take(self.grid.interior_flat, axis=1).min())

    def save_csv(self, path) -> None:
        """Rows x, y, component, value for every interior cell."""
        g = self.grid
        ys, xs = np.nonzero(g.mask)
        cells = [f"{x!r},{y!r}," for x, y in zip(g.xs[xs].tolist(), g.ys[ys].tolist())]
        with open(path, "w") as fh:
            fh.write("x,y,component,value\n")
            for i in range(self.p):
                fh.write("".join(f"{cell}{i + 1},{v!r}\n" for cell, v in
                                 zip(cells, self.values[i, ys, xs].tolist())))

    @staticmethod
    def load_csv(path, grid: Grid, p: int) -> "Field":
        """Read rows written by `save_csv`; every row must name a component
        in 1..p and an interior cell of `grid`, with a finite, nonnegative
        density, and every (component, interior cell) must appear once."""
        data = np.zeros((p, grid.ny, grid.nx))
        seen = np.zeros(data.shape, dtype=np.int64)
        with open(path) as fh:
            header = fh.readline()
            if not header.startswith("x,y,component,value"):
                raise FieldError(f"unexpected field CSV header: {header!r}")
            for line in fh:
                sx, sy, sc, sv = line.rstrip("\n").split(",")
                x, y, c, v = float(sx), float(sy), int(sc), float(sv)
                ix = int(round((x - grid.x0) / grid.h - 0.5))
                iy = int(round((y - grid.y0) / grid.h - 0.5))
                if not 1 <= c <= p:
                    raise FieldError(f"component {c} outside 1..{p}")
                if not (0 <= ix < grid.nx and 0 <= iy < grid.ny and grid.mask[iy, ix]):
                    raise FieldError(f"cell ({x!r}, {y!r}) is not an interior cell of the grid")
                if not 0 <= v < math.inf:
                    raise FieldError(f"density {v!r} is not finite and nonnegative")
                data[c - 1, iy, ix] = v
                seen[c - 1, iy, ix] += 1
        seen = seen.reshape(p, -1).take(grid.interior_flat, axis=1)
        repeated, missing = int(np.sum(seen > 1)), int(np.sum(seen == 0))
        if repeated or missing:
            raise FieldError(f"the rows repeat {repeated} and miss {missing} of the "
                             f"{seen.size} (component, interior cell) pairs")
        return Field(grid, data)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def bump_profile(r):
    """C-infinity bump exp(1 / (r^2 - 1)) on r < 1, zero outside."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 / (r[inside] ** 2 - 1.0))
    return out


# Building a bump kernel evaluates (reach + 1)^2 weights, reach = floor(radius / h),
# one quadrant row at a time: about 0.2 s at this many, the most a radius may cost.
KERNEL_BUDGET = 2 ** 24


def kernel_reach(radius: float, h: float) -> int:
    """floor(radius / h), the reach of the bump kernel in cells; a FieldError
    when building it would evaluate more than KERNEL_BUDGET weights."""
    if not radius > 0:
        raise FieldError("mollifier radius must be positive")
    cells = radius / h
    if not cells < math.isqrt(KERNEL_BUDGET):
        raise FieldError(f"mollifier radius {radius:g} spans {cells:.4g} cells of width "
                         f"{h:g}; its kernel would take more than {KERNEL_BUDGET} weights "
                         f"to build: use a coarser grid or a smaller radius")
    return int(cells)


def _bump_kernel(radius: float, h: float, fold=None):
    """Discrete bump kernel: the (m, 2) cell offsets (dy, dx) of its nonzero
    weights, in row-major order, and the weights, scaled to unit sum.

    With `fold=(ny, nx)` every offset is clamped to |dy| <= ny - 1 and
    |dx| <= nx - 1 and the weights landing on one offset are summed: on an
    edge-continued field those offsets read the same cells.  The kernel is
    built one quadrant row at a time and mirrored, so it is exactly
    symmetric and never holds more than its folded size.
    """
    reach = kernel_reach(radius, h)
    ry, rx = (reach, reach) if fold is None else (min(reach, fold[0] - 1),
                                                  min(reach, fold[1] - 1))
    dx = np.arange(reach + 1) * h
    quad = np.zeros((ry + 1, rx + 1))
    for dy in range(reach + 1):
        row = bump_profile(np.hypot(dx, dy * h) / radius)
        acc = quad[min(dy, ry)]
        acc[:rx] += row[:rx]
        acc[rx] += row[rx:].sum()
    quad = np.concatenate([quad[:0:-1], quad])
    full = np.concatenate([quad[:, :0:-1], quad], axis=1)
    offs = np.argwhere(full > 0.0) - (ry, rx)
    w = full[full > 0.0]
    return offs, w / w.sum()


def _fft_size(n: int) -> int:
    """The least number at least n with no prime factor above 11: pocketfft
    has a pass for each of those radices, and runs a larger prime factor
    through a much slower general pass."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@functools.lru_cache(maxsize=16)
def _kernel_transform(radius: float, h: float, ny: int, nx: int):
    """The folded kernel of a (ny, nx) grid as the FFT product needs it: its
    reach (ry, rx), the FFT shape (the edge-padded shape (ny + 2 ry,
    nx + 2 rx) rounded up by `_fft_size`) and its real transform at that
    shape; None for the one-cell kernel."""
    offs, w = _bump_kernel(radius, h, fold=(ny, nx))
    if len(offs) == 1:
        return None
    ry, rx = np.abs(offs).max(axis=0).tolist()
    kernel = np.zeros((2 * ry + 1, 2 * rx + 1))
    kernel[offs[:, 0] + ry, offs[:, 1] + rx] = w
    shape = (_fft_size(ny + 2 * ry), _fft_size(nx + 2 * rx))
    kt = np.fft.rfft2(kernel, s=shape)
    kt.setflags(write=False)
    return ry, rx, shape, kt


def mollify_field(field: Field, radius: float) -> Field:
    """Convolve every component with the interior bump kernel.

    Stencil points outside the interior take the nearest-interior-cell value,
    the discrete version of continuing the field past the boundary with its
    boundary value.  The discrete kernel is normalised to unit sum, so
    constants are reproduced to rounding.  A radius up to h leaves the
    one-cell kernel, the identity, which returns the interior values as they
    are.  Otherwise the kernel is folded onto the grid's (2 ny - 1, 2 nx - 1)
    offsets (`_bump_kernel`), all components are continued and edge-padded
    by its reach with one read through `Grid.pad_flat`, and convolved with
    one FFT product (convolution theorem; Cooley & Tukey 1965), so a call
    costs O(n^2 log n) whatever radius / h is.  The product is clipped at 0,
    which removes the FFT's rounding below zero, and zeroed off the mask.
    """
    grid = field.grid
    kernel = _kernel_transform(radius, grid.h, grid.ny, grid.nx)
    if kernel is None:
        return Field(grid, np.where(grid.mask, field.values, 0.0))
    ry, rx, shape, kt = kernel
    ny, nx = grid.ny, grid.nx
    rows = np.clip(np.arange(-ry, ny + ry), 0, ny - 1) * nx
    cols = np.clip(np.arange(-rx, nx + rx), 0, nx - 1)
    reads = grid.pad_flat[rows[:, None] + cols]
    padded = field.values.reshape(field.p, ny * nx).take(reads, axis=1)
    # the symmetric kernel sits at offset (ry, rx) of its array, so the
    # circular product holds cell (y, x) at (y + 2 ry, x + 2 rx), clear of
    # the wrap-around, which only reaches the first 2 ry rows and 2 rx columns
    conv = np.fft.irfft2(np.fft.rfft2(padded, s=shape) * kt, s=shape)
    out = np.maximum(conv[:, 2 * ry:2 * ry + ny, 2 * rx:2 * rx + nx], 0.0)
    return Field(grid, np.where(grid.mask, out, 0.0))


# ---------------------------------------------------------------------------
# boundary data
# ---------------------------------------------------------------------------

class BoundaryTrace:
    """Nonnegative inflow profile on the global boundary arclength."""

    def eval(self, t):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantTrace(BoundaryTrace):
    value: float

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.value)


@dataclass(frozen=True)
class SampledTrace(BoundaryTrace):
    """Periodic linear interpolation of arclength samples."""

    ts: np.ndarray
    values: np.ndarray
    period: float

    def eval(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.values,
                         period=self.period)


@dataclass(frozen=True)
class CallableTrace(BoundaryTrace):
    fn: object

    def eval(self, t):
        return np.asarray(self.fn(np.asarray(t, dtype=float)), dtype=float)


@dataclass(frozen=True)
class BoundaryData:
    """Per-component inflow traces, evaluated on the arclength parameter."""

    traces: tuple[BoundaryTrace, ...]

    @property
    def p(self) -> int:
        return len(self.traces)

    def eval(self, i: int, t):
        vals = self.traces[i].eval(t)
        if not np.all((vals >= 0) & (vals < np.inf)):
            raise FieldError(f"boundary trace {i} produced a NaN, infinite or negative value")
        return vals

    @staticmethod
    def zero(p: int) -> "BoundaryData":
        return BoundaryData(tuple(ConstantTrace(0.0) for _ in range(p)))

    @staticmethod
    def constant(values) -> "BoundaryData":
        return BoundaryData(tuple(ConstantTrace(float(v)) for v in np.atleast_1d(values)))

    @staticmethod
    def maxwellian(model, a, b, c) -> "BoundaryData":
        """Constant-in-space equilibrium profile exp(a + b.v + c |v|^2)."""
        b = np.asarray(b, dtype=float)
        vals = np.exp(a + model.v @ b + c * model.speeds_sq)
        return BoundaryData.constant(vals)


def truncate_and_mollify_boundary(bd: BoundaryData, k: float,
                                  domain: ConvexDomain) -> BoundaryData:
    """Cap each trace at k/2, then smooth along the boundary.

    The smoothing kernel is a bump supported on 1/k of the total arclength.
    A trace is sampled at n = max(2048, ceil(16 k)) <= KERNEL_BUDGET equally
    spaced points, so the kernel reaches several samples either side (n / (2k) >= 8).
    Constant traces are closed under both steps and pass through exactly.
    """
    if not k > 1:
        raise FieldError("truncation level k must exceed 1")
    bp = boundary_param(domain)
    L = bp.total_length
    support = (1.0 / k) * L
    cap = 0.5 * k
    n_samples = max(2048, int(math.ceil(16.0 * k)))
    traces = []
    for tr in bd.traces:
        if isinstance(tr, ConstantTrace):
            traces.append(ConstantTrace(min(tr.value, cap)))
            continue
        if n_samples > KERNEL_BUDGET:
            raise FieldError(f"truncation level k = {k:g} needs {n_samples:.3g} samples "
                             f"per inflow trace, more than {KERNEL_BUDGET}")
        ts = np.arange(n_samples) * (L / n_samples)
        vals = np.minimum(np.asarray(tr.eval(ts), dtype=float), cap)
        half = support / 2.0
        reach = int(math.floor(half / (L / n_samples)))
        offs = np.arange(-reach, reach + 1)
        w = bump_profile(offs * (L / n_samples) / half)
        w = w / w.sum()
        wrapped = np.pad(vals, reach, mode="wrap")     # wrapped[reach + t] = vals[t mod n]
        sm = np.zeros_like(vals)
        for off, wk in zip(offs, w):
            sm += wk * wrapped[reach + off: reach + off + n_samples]
        sm = np.minimum(sm, cap)   # guard against 1-ulp drift of the kernel sum
        traces.append(SampledTrace(ts, sm, L))
    return BoundaryData(tuple(traces))
