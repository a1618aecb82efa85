"""Grid, mollifier and boundary-trace tests."""

import math

import numpy as np
import pytest

from dvmbvp.fields import (BoundaryData, Field, FieldError, Grid, SampledTrace,
                           _bump_kernel, bump_profile, mollify_field,
                           truncate_and_mollify_boundary)
from dvmbvp.geometry import ConvexDomain, boundary_param


# -- grid ------------------------------------------------------------------------

def test_grid_mask_matches_phi(disk, grid24):
    centers = grid24.centers[grid24.mask]
    assert np.all(disk.phi(centers) < 0)
    outside = grid24.centers[~grid24.mask]
    assert np.all(disk.phi(outside) >= 0)


def test_pad_is_identity_inside(grid24):
    vals = np.zeros((grid24.ny, grid24.nx))
    vals[grid24.mask] = np.arange(grid24.n_interior, dtype=float)
    padded = vals.ravel()[grid24.pad_flat].reshape(vals.shape)
    assert np.array_equal(padded[grid24.mask], vals[grid24.mask])


@pytest.mark.parametrize("domain", [
    ConvexDomain.disk(),
    ConvexDomain.ellipse(2.0, 1.0, center=(0.3, -0.2)),
    ConvexDomain.superellipse(1.0, 0.7, 4.0),
])
@pytest.mark.parametrize("n", [5, 9, 17, 33])
def test_nearest_interior_map_matches_bruteforce(domain, n):
    """Every exterior cell against every interior cell, first minimum in
    row-major order (the lexicographic tie-break)."""
    grid = Grid(domain, n)
    interior = np.argwhere(grid.mask)
    want = np.arange(grid.ny * grid.nx)
    for iy, ix in np.argwhere(~grid.mask):
        d2 = (interior[:, 0] - iy) ** 2 + (interior[:, 1] - ix) ** 2
        jy, jx = interior[np.argmin(d2)]
        want[iy * grid.nx + ix] = jy * grid.nx + jx
    assert np.array_equal(grid.pad_flat, want)


def test_interpolation_exact_on_linears(grid24):
    f = Field.from_function(grid24, [lambda x, y: 1.0 + 2.0 * x - 0.5 * y])
    pts = np.array([[0.1, 0.2], [-0.3, 0.05], [0.0, 0.0]])
    got = grid24.interpolate(f.values[0], pts)
    want = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
    assert np.allclose(got, want, atol=1e-13)


# -- mollifier ----------------------------------------------------------------------

def test_bump_profile_support():
    assert bump_profile(np.array([1.0, 1.5])).tolist() == [0.0, 0.0]
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))


def test_mollify_constant_exact(disk, grid24):
    f = Field.constant(grid24, [3.5])
    out = mollify_field(f, 4 * grid24.h).values[0]
    assert np.allclose(out[grid24.mask], 3.5, atol=1e-13)


def mollify_one_component(values2d, radius, grid):
    """Reference: one component at a time, as mollify_field did component by component."""
    offs, w = _bump_kernel(radius, grid.h)
    reach = max(max(abs(dy), abs(dx)) for dy, dx in offs)
    continued = values2d.ravel()[grid.pad_flat].reshape(grid.ny, grid.nx)
    padded = np.pad(continued, reach, mode="edge")
    out = np.zeros((grid.ny, grid.nx))
    for (dy, dx), wk in zip(offs, w):
        out += wk * padded[reach + dy: reach + dy + grid.ny, reach + dx: reach + dx + grid.nx]
    result = np.zeros_like(out)
    result[grid.mask] = out[grid.mask]
    return result


@pytest.mark.parametrize("n, radii", [(32, (0.5, 0.125, 1 / 64)), (64, (0.125,))])
def test_mollify_field_stack_matches_per_component_bitwise(disk, n, radii):
    grid = Grid(disk, n)
    values = np.random.default_rng(n).uniform(0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask
    f = Field(grid, values)
    for radius in radii:
        got = mollify_field(f, radius).values
        for i in range(4):
            want = mollify_one_component(values[i], radius, grid)
            assert np.array_equal(got[i], want)
            one = mollify_field(Field(grid, values[i][None]), radius).values[0]
            assert np.array_equal(one, want)


def test_mollify_linear_interior_unchanged(disk):
    grid = Grid(disk, 32)
    radius = 3 * grid.h
    f = Field.from_function(grid, [lambda x, y: 2.0 + x])
    out = mollify_field(f, radius).values[0]
    # deep interior: stencil fully inside, symmetric kernel kills odd moments
    rr = np.linalg.norm(grid.centers, axis=-1)
    deep = grid.mask & (rr < 1.0 - radius - 2 * grid.h)
    assert np.max(np.abs(out[deep] - f.values[0][deep])) < 1e-12


def test_mollify_halfplane_indicator_transition(disk):
    grid = Grid(disk, 48)
    radius = 4 * grid.h
    f = Field.from_function(grid, [lambda x, y: (x > 0).astype(float)])
    out = mollify_field(f, radius).values[0]
    row = grid.ny // 2
    xs = grid.xs
    vals = out[row]
    inside = grid.mask[row]
    # monotone transition confined to |x| <= radius
    assert np.all(np.diff(vals[inside]) > -1e-12)
    assert np.all(vals[inside & (xs < -radius)] < 1e-12)
    assert np.all(vals[inside & (xs > radius)] > 1.0 - 1e-12)


def test_mollify_mass_against_bruteforce_oracle(disk):
    grid = Grid(disk, 20)
    radius = 3 * grid.h
    f = Field.from_function(grid, [lambda x, y: 1.0 + 0.5 * x + 0.25 * y * y])
    out = mollify_field(f, radius).values[0]

    # independent dense oracle: explicit nearest-interior search (min distance,
    # lexicographic tie-break) and direct python sums
    offs, w = _bump_kernel(radius, grid.h)
    interior = [tuple(rc) for rc in np.argwhere(grid.mask)]
    vals = f.values[0]

    def nearest(yy, xx):
        return min(interior, key=lambda rc: ((rc[0] - yy) ** 2 + (rc[1] - xx) ** 2,
                                             rc[0], rc[1]))

    oracle = np.zeros_like(vals)
    for iy, ix in interior:
        acc = 0.0
        for (dy, dx), wk in zip(offs, w):
            yy, xx = iy + dy, ix + dx
            if 0 <= yy < grid.ny and 0 <= xx < grid.nx and grid.mask[yy, xx]:
                acc += wk * vals[yy, xx]
            else:
                yy_c = min(max(yy, 0), grid.ny - 1)
                xx_c = min(max(xx, 0), grid.nx - 1)
                ny_, nx_ = nearest(yy_c, xx_c)
                acc += wk * vals[ny_, nx_]
        oracle[iy, ix] = acc
    mass_out = out.sum() * grid.cell_area
    mass_oracle = oracle.sum() * grid.cell_area
    assert abs(mass_out - mass_oracle) <= 1e-6 * mass_oracle


def test_mollify_positivity_and_interior_mass(disk):
    grid = Grid(disk, 32)
    radius = 4 * grid.h
    rng = np.random.default_rng(1)
    # smooth nonnegative field supported away from the boundary: the kernel
    # never leaves the interior, so mass is preserved up to rounding
    f = Field.from_function(grid, [
        lambda x, y: np.maximum(0.0, 0.55 - np.hypot(x, y)) * (2 + np.sin(3 * x))])
    out = mollify_field(f, radius).values[0]
    assert out[grid.mask].min() >= 0.0
    mass_in = f.values[0].sum() * grid.cell_area
    mass_out = out.sum() * grid.cell_area
    assert mass_out <= mass_in * (1 + 1e-6)


def test_mollify_boundary_mass_growth_is_curvature_bounded(disk):
    # with the normal extension, boundary-heavy profiles may gain mass at
    # order (radius/R)^2; check the measured growth stays in that regime
    grid = Grid(disk, 32)
    radius = 4 * grid.h
    f = Field.from_function(grid, [lambda x, y: 1.0 + x * x + y * y])
    out = mollify_field(f, radius).values[0]
    growth = out.sum() / f.values[0].sum() - 1.0
    assert growth <= (radius / 1.0) ** 2
    assert out[grid.mask].min() >= 0.0


@pytest.mark.parametrize("radius", [0.0, -0.1])
def test_mollify_rejects_nonpositive_radius(grid24, radius):
    f = Field.constant(grid24, [1.0])
    with pytest.raises(FieldError, match="radius"):
        mollify_field(f, radius)


# -- boundary traces -------------------------------------------------------------------

def test_truncate_constant_above_cap(disk):
    bd = BoundaryData.constant([10.0])
    out = truncate_and_mollify_boundary(bd, 4.0, disk)
    ts = np.linspace(0, 5, 11)
    assert np.allclose(out.eval(0, ts), 2.0, atol=1e-14)
    assert np.all(out.eval(0, ts) <= 2.0)


def test_truncate_constant_below_cap(disk):
    bd = BoundaryData.constant([1.0])
    out = truncate_and_mollify_boundary(bd, 4.0, disk)
    assert np.allclose(out.eval(0, np.linspace(0, 6, 13)), 1.0, atol=1e-14)


def test_truncate_step_profile(disk):
    L = boundary_param(disk).total_length
    ts = np.arange(4096) * (L / 4096)
    step = np.where((ts > 1.0) & (ts < 4.0), 10.0, 0.0)
    bd = BoundaryData((SampledTrace(ts, step, L),))
    k = 4.0
    out = truncate_and_mollify_boundary(bd, k, disk)
    vals = out.eval(0, ts)
    assert np.all(vals >= -1e-15) and np.all(vals <= 2.0)
    support = L / k
    # transition from flat 0 to flat cap within twice the kernel support
    lo = ts[(vals > 0.02) & (ts < 2.0)]
    hi = ts[(vals > 1.98) & (ts < 2.0)]
    assert len(lo) and len(hi) and hi.min() - lo.min() <= 2 * support


def test_truncate_matches_1d_convolution_oracle(disk):
    L = boundary_param(disk).total_length
    k = 6.0
    n = 2048                        # the sample count at k = 6, max(2048, ceil(16 k))
    ts = np.arange(n) * (L / n)
    profile = 1.5 + np.sin(2 * np.pi * ts / L) + np.cos(6 * np.pi * ts / L) ** 2
    bd = BoundaryData((SampledTrace(ts, profile, L),))
    out = truncate_and_mollify_boundary(bd, k, disk)
    got = out.eval(0, ts)

    capped = np.minimum(profile, k / 2)
    half = L / (2 * k)
    reach = int(math.floor(half / (L / n)))
    offs = np.arange(-reach, reach + 1)
    w = bump_profile(offs * (L / n) / half)
    w = w / w.sum()
    want = np.zeros_like(capped)
    for off, wk in zip(offs, w):
        want += wk * np.roll(capped, -off)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("k", [6.0, 16.0, 1.5, 1.01, 256.0])
def test_truncate_smoothing_matches_roll_bitwise(disk, k):
    """The wrapped-slice sum adds the same terms in the same order as np.roll,
    at 2048 samples and, for k = 256, at ceil(16 k) = 4096."""
    L = boundary_param(disk).total_length
    n = max(2048, math.ceil(16 * k))
    ts = np.arange(n) * (L / n)
    profile = 1.5 + np.sin(2 * np.pi * ts / L) + np.cos(6 * np.pi * ts / L) ** 2
    out = truncate_and_mollify_boundary(BoundaryData((SampledTrace(ts, profile, L),)), k,
                                        disk)
    assert len(out.traces[0].values) == n
    capped = np.minimum(profile, k / 2)
    half = L / (2 * k)
    reach = int(math.floor(half / (L / n)))
    offs = np.arange(-reach, reach + 1)
    w = bump_profile(offs * (L / n) / half)
    w = w / w.sum()
    want = np.zeros_like(capped)
    for off, wk in zip(offs, w):
        want += wk * np.roll(capped, -int(off))
    assert np.array_equal(out.traces[0].values, np.minimum(want, k / 2))


def test_truncate_requires_k_above_one(disk):
    with pytest.raises(FieldError):
        truncate_and_mollify_boundary(BoundaryData.constant([1.0]), 0.5, disk)


def test_maxwellian_boundary_values(broadwell, maxwellian_values):
    bd = BoundaryData.maxwellian(broadwell, 0.0, (0.1, -0.2), 0.05)
    got = np.array([bd.eval(i, np.array([0.3]))[0] for i in range(4)])
    assert np.allclose(got, maxwellian_values, rtol=1e-15)


# -- field csv -----------------------------------------------------------------------------

def test_field_csv_roundtrip(tmp_path, grid24):
    rng = np.random.default_rng(4)
    f = Field.zeros(grid24, 3)
    f.values[:, grid24.mask] = rng.uniform(0, 5, size=(3, grid24.n_interior))
    path = tmp_path / "field.csv"
    f.save_csv(path)
    g = Field.load_csv(path, grid24, 3)
    assert np.array_equal(f.values, g.values)
    assert abs(f.mass() - g.mass()) == 0.0


@pytest.mark.parametrize("row, match", [
    ("0,0,0,1.0", "component"),          # component 0 would wrap to index -1
    ("0,0,4,1.0", "component"),          # one past p = 3
    ("-1.5,0,1,1.0", "interior cell"),   # column -2 would wrap to nx - 2
    ("0,1.5,1,1.0", "interior cell"),    # row past the lattice
    ("0.875,0.875,1,1.0", "interior cell"),     # corner cell centre, outside the disk
    ("0,0,1,-1.0", "density"),
    ("0,0,1,nan", "density"),
    ("0.125,0.125,1,3.0", "repeat 1 and miss 155 of the 156"),   # the first row again
])
def test_field_csv_rejects_cells_off_the_grid(tmp_path, disk, row, match):
    grid = Grid(disk, 8)
    path = tmp_path / "field.csv"
    path.write_text("x,y,component,value\n0.125,0.125,1,2.0\n" + row + "\n")
    with pytest.raises(FieldError, match=match):
        Field.load_csv(path, grid, 3)
