"""Grid, mollifier and boundary-trace tests."""

import math

import numpy as np
import pytest

from dvmbvp.fields import (KERNEL_BUDGET, BoundaryData, Field, FieldError, Grid,
                           SampledTrace, _bump_kernel, _kernel_transform, bump_profile,
                           kernel_reach, mollify_field, truncate_and_mollify_boundary)
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


@pytest.mark.parametrize("domain", [ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 0.8, (0.1, -0.2)),
                                    ConvexDomain.superellipse(1.0, 0.9, 4.0)],
                         ids=["disk", "shifted ellipse", "superellipse"])
def test_interior_cells_are_the_masked_cells_in_raster_order(domain):
    """The grid's interior indices and centres, built with `take`, are the
    boolean-masked ones, bitwise."""
    for n in (5, 24, 33):
        grid = Grid(domain, n)
        assert np.array_equal(grid.interior_flat, np.flatnonzero(grid.mask.ravel()))
        want = grid.centers[grid.mask]
        assert grid.interior_centers.shape == want.shape
        assert np.array_equal(grid.interior_centers.view(np.int64), want.view(np.int64))
        assert grid.n_interior == int(np.sum(grid.mask))


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


@pytest.mark.parametrize("radius, ok", [(1e-150, True), (1e150, True), (1e-160, False),
                                        (1e-320, False), (1e160, False)])
def test_grid_needs_a_normal_finite_cell_area(radius, ok):
    """A cell area h^2 that underflows below the smallest normal float or
    overflows is refused; grids on domains far from unit size still build."""
    if ok:
        grid = Grid(ConvexDomain.disk(radius), 8)
        assert grid.n_interior > 0 and grid.h == radius / 4
    else:
        with pytest.raises(FieldError, match="whose area"):
            Grid(ConvexDomain.disk(radius), 8)


@pytest.mark.parametrize("radius, ok", [(1e150, True), (1e155, False)])
def test_grid_needs_coordinates_with_finite_squares(radius, ok):
    """At 16 cells a disk of radius 1e155 has a finite cell area, but the
    squares of its coordinates, which the quadratic test functions take,
    overflow: refused."""
    if ok:
        assert Grid(ConvexDomain.disk(radius), 16).n_interior > 0
    else:
        with pytest.raises(FieldError, match="whose square"):
            Grid(ConvexDomain.disk(radius), 16)


def test_interpolation_exact_on_linears(grid24):
    f = Field.from_function(grid24, [lambda x, y: 1.0 + 2.0 * x - 0.5 * y])
    pts = np.array([[0.1, 0.2], [-0.3, 0.05], [0.0, 0.0]])
    got = grid24.interpolate(f.values[0], pts)
    want = 1.0 + 2.0 * pts[:, 0] - 0.5 * pts[:, 1]
    assert np.allclose(got, want, atol=1e-13)


def test_compact_stencil_samples_bitwise_as_the_full_one(grid24):
    """Corners read through every cell's corner reads and a compact `stencil`,
    with its `weights`, give `sample`'s values bitwise, clamped points and
    points past the boundary included."""
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 5.0, (grid24.ny, grid24.nx))
    pts = rng.uniform(-1.2, 1.2, (7, 40, 2))
    flat, fx, fy = grid24.stencil(pts)
    got = grid24.sample_stencil(values, flat, Grid.weights(fx, fy))
    want = grid24.interpolate(values, pts)
    assert got.shape == (7, 40) and np.array_equal(got, want)


# -- mollifier ----------------------------------------------------------------------

def test_bump_profile_support():
    assert bump_profile(np.array([1.0, 1.5])).tolist() == [0.0, 0.0]
    assert bump_profile(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))


def test_mollify_constant_exact(disk, grid24):
    f = Field.constant(grid24, [3.5])
    out = mollify_field(f, 4 * grid24.h).values[0]
    assert np.allclose(out[grid24.mask], 3.5, atol=1e-13)


def mollify_one_component(values2d, radius, grid):
    """Reference: one component at a time, one pass over the kernel offsets."""
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
    """A component mollified in a stack and alone gives the same bits, and
    both match the offset loop to rounding (the FFT product sums in
    another order)."""
    grid = Grid(disk, n)
    values = np.random.default_rng(n).uniform(0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask
    f = Field(grid, values)
    for radius in radii:
        got = mollify_field(f, radius).values
        for i in range(4):
            want = mollify_one_component(values[i], radius, grid)
            assert np.max(np.abs(got[i] - want)) <= 1e-13 * np.max(np.abs(want))
            one = mollify_field(Field(grid, values[i][None]), radius).values[0]
            assert np.array_equal(one, got[i])


@pytest.mark.parametrize("radius", [0.05, 0.5])
def test_folded_kernel_matches_the_unfolded_sum(radius):
    """On a disk of radius 0.01 at grid_n 8 the kernel reaches 20 and 200
    cells, far past the 8-cell box, so nearly all of it is folded onto the
    edge offsets.  Reference: every cell sums the whole unfolded kernel,
    built on its own mesh, over the edge-padded continued field."""
    grid = Grid(ConvexDomain.disk(0.01), 8)
    values = np.random.default_rng(8).uniform(0.0, 2.0, (2, grid.ny, grid.nx)) * grid.mask
    got = mollify_field(Field(grid, values), radius).values
    reach = int(radius / grid.h)
    d = np.arange(-reach, reach + 1) * grid.h
    w = bump_profile(np.hypot(d[:, None], d[None, :]) / radius)
    w /= w.sum()
    for i in range(2):
        continued = values[i].ravel()[grid.pad_flat].reshape(grid.ny, grid.nx)
        padded = np.pad(continued, reach, mode="edge")
        want = np.zeros((grid.ny, grid.nx))
        for iy, ix in np.argwhere(grid.mask):
            want[iy, ix] = np.sum(w * padded[iy:iy + 2 * reach + 1, ix:ix + 2 * reach + 1])
        assert np.max(np.abs(got[i] - want)) <= 1e-13 * np.max(np.abs(want))


def test_mollify_spike_among_zeros_stays_nonnegative(disk):
    """The FFT product leaves rounding of either sign where the exact
    convolution is 0; the mollifier clips it."""
    grid = Grid(disk, 32)
    values = np.zeros((1, grid.ny, grid.nx))
    values[0, 16, 16] = 1.0
    out = mollify_field(Field(grid, values), 0.25).values
    assert out.min() >= 0.0
    assert out.max() > 0.0 and abs(out.sum() - 1.0) < 1e-12


def test_mollify_repeats_its_bits(disk):
    grid = Grid(disk, 48)
    values = np.random.default_rng(3).uniform(0.0, 2.0, (3, grid.ny, grid.nx)) * grid.mask
    first = mollify_field(Field(grid, values), 0.3).values
    _kernel_transform.cache_clear()
    for _ in range(2):
        again = mollify_field(Field(grid, values), 0.3).values
        assert np.array_equal(first.view(np.int64), again.view(np.int64))


def test_mollify_refuses_a_kernel_above_the_build_budget():
    """A radius of 0.5 on a disk of radius 1e-4 at grid_n 8 spans 20,000
    cells: the kernel would take 4e8 weights, so it is refused at once."""
    grid = Grid(ConvexDomain.disk(1e-4), 8)
    with pytest.raises(FieldError, match="weights to build"):
        mollify_field(Field.constant(grid, [1.0]), 0.5)
    assert (kernel_reach(0.5, 0.5 / 4095.5) + 1) ** 2 <= KERNEL_BUDGET
    with pytest.raises(FieldError):
        kernel_reach(0.5, 0.5 / 4096)


@pytest.mark.parametrize("n", [16, 32])
def test_mollify_below_one_cell_returns_the_field_bitwise(disk, n):
    """A radius up to h leaves the one-cell kernel: the interior values come
    back with their bits, and zeros off the mask."""
    grid = Grid(disk, n)
    values = np.random.default_rng(n).uniform(0.0, 2.0, (4, grid.ny, grid.nx)) * grid.mask
    for radius in (1e-6, grid.h / 2, grid.h):
        assert len(_bump_kernel(radius, grid.h)[0]) == 1
        got = mollify_field(Field(grid, values), radius).values
        assert np.array_equal(got.view(np.int64), values.view(np.int64))


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


def save_csv_per_row(field_, path):
    """The per-row writer `Field.save_csv` replaced, kept as its oracle."""
    g = field_.grid
    ys, xs = np.nonzero(g.mask)
    with open(path, "w") as fh:
        fh.write("x,y,component,value\n")
        for i in range(field_.p):
            for x, y, v in zip(g.xs[xs], g.ys[ys], field_.values[i, ys, xs]):
                fh.write(f"{float(x)!r},{float(y)!r},{i + 1},{float(v)!r}\n")


@pytest.mark.parametrize("domain", [ConvexDomain.disk(), ConvexDomain.ellipse(1.5, 0.8)],
                         ids=["disk", "ellipse"])
@pytest.mark.parametrize("n", [24, 61])
def test_field_csv_is_bytewise_the_per_row_writer(tmp_path, domain, n):
    """Random values on a 4-component field, with 0, 5e-324, 1e-300 and
    1e300 at interior cells of every component."""
    grid = Grid(domain, n)
    values = np.random.default_rng(n).uniform(0.0, 5.0, (4, grid.ny, grid.nx)) * grid.mask
    ys, xs = np.nonzero(grid.mask)
    for i in range(4):
        values[i, ys[i::4][:4], xs[i::4][:4]] = [0.0, 5e-324, 1e-300, 1e300]
    f = Field(grid, values)
    f.save_csv(tmp_path / "field.csv")
    save_csv_per_row(f, tmp_path / "oracle.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


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
