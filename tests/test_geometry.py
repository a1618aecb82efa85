"""Domain, tracing, normals and boundary quadrature tests.

Closed-form conic intersections serve as oracles for the bisection tracer.
"""

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.geometry import (ConvexDomain, GeometryError, OutsideDomainError,
                             boundary_param, tangency_thetas)


def disk_entry_time(z, v, r=1.0):
    """Closed-form backward exit time for the disk |z - s v| = r."""
    z = np.asarray(z, float)
    v = np.asarray(v, float)
    a = v @ v
    b = z @ v
    c = z @ z - r * r
    disc = b * b - a * c
    return (b + np.sqrt(disc)) / a


# -- tracing -------------------------------------------------------------------

def test_trace_disk_center(disk):
    seg = disk.trace((0.0, 0.0), (1.0, 0.0))
    assert abs(seg.s_plus - 1.0) < 1e-12 and abs(seg.s_minus - 1.0) < 1e-12
    assert np.allclose(seg.z_plus, [-1, 0], atol=1e-12)
    assert np.allclose(seg.z_minus, [1, 0], atol=1e-12)


def test_trace_disk_offset(disk):
    seg = disk.trace((0.5, 0.0), (1.0, 0.0))
    assert abs(seg.s_plus - 1.5) < 1e-12
    assert abs(seg.s_minus - 0.5) < 1e-12


def test_trace_ellipse_closed_form():
    dom = ConvexDomain.ellipse(2.0, 1.0)
    v = np.array([2.0, 1.0]) / np.sqrt(5.0)
    seg = dom.trace((0.0, 0.0), v)
    # (2t/sqrt5)^2/4 + (t/sqrt5)^2 = 1  =>  t = sqrt(5/2)
    t = np.sqrt(2.5)
    assert abs(seg.s_plus - t) < 1e-12 and abs(seg.s_minus - t) < 1e-12


def test_trace_result_on_boundary(disk):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(-0.6, 0.6, 2)
        v = rng.normal(size=2)
        seg = disk.trace(z, v)
        assert abs(disk.phi(seg.z_plus)) < 1e-12
        assert abs(disk.phi(seg.z_minus)) < 1e-12


def test_trace_outside_raises(disk):
    with pytest.raises(OutsideDomainError):
        disk.trace((2.0, 0.0), (1.0, 0.0))


def test_trace_roundtrip(disk):
    """Re-tracing from the chord midpoint reproduces the chord length."""
    rng = np.random.default_rng(11)
    for _ in range(30):
        z = rng.uniform(-0.5, 0.5, 2)
        v = rng.normal(size=2)
        seg = disk.trace(z, v)
        mid = seg.z_plus + 0.5 * seg.length_time * seg.v
        seg2 = disk.trace(mid, v)
        assert abs(seg2.length_time - seg.length_time) < 1e-10


def test_exit_times_match_closed_form(disk):
    rng = np.random.default_rng(5)
    zs = rng.uniform(-0.5, 0.5, size=(40, 2))
    v = np.array([3.0, 2.0])
    got = disk.exit_times(zs, -v)
    want = np.array([disk_entry_time(z, v) for z in zs])
    assert np.max(np.abs(got - want)) < 1e-12


def bisection_exit_times(dom, zs, v, steps=80):
    """Reference: bracketed bisection on phi along z + s v."""
    hi = np.full(len(zs), 2.0 * (dom.diameter + np.max(np.abs(zs))) / np.hypot(*v))
    lo = np.zeros(len(zs))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        outside = dom.phi(zs + mid[:, None] * v) > 0.0
        hi = np.where(outside, mid, hi)
        lo = np.where(outside, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("dom", [ConvexDomain.disk(),
                                 ConvexDomain.ellipse(1.3, 0.7, (0.2, -0.1))],
                         ids=["disk", "ellipse"])
def test_quadratic_exit_times_match_bisection(dom):
    """The closed-form exit time on a disk or ellipse agrees with bisection,
    from interior points and from boundary points whose ray enters (the
    chord) or leaves (time 0)."""
    rng = np.random.default_rng(2)
    a, b = dom.semi_axes
    r = np.sqrt(rng.uniform(0.0, 1.0, 2000))
    th = rng.uniform(0.0, 2.0 * np.pi, 2000)
    interior = np.c_[a * r * np.cos(th), b * r * np.sin(th)]
    th = rng.uniform(0.0, 2.0 * np.pi, 500)
    boundary = np.c_[a * np.cos(th), b * np.sin(th)]
    zs = np.r_[interior, boundary] + dom.center
    normals = np.r_[np.zeros((len(interior), 2)), boundary_param(dom).normals_of_theta(th)]
    for v in [(3.0, 2.0), (1.0, 2.0), (2.0, 3.0), (2.0, 1.0), (1.0, 0.0),
              (1.0, np.sqrt(2.0))]:
        for w in (np.array(v), -np.array(v)):
            got = dom.exit_times(zs, w)
            assert np.max(np.abs(got - bisection_exit_times(dom, zs, w))) <= (
                1e-12 * dom.diameter)
            leaving = normals @ w < -1e-3 * np.hypot(*w)
            assert leaving.any() and np.all(got[leaving] <= 1e-12 * dom.diameter)


# -- normals ---------------------------------------------------------------------

def test_inward_normal_disk(disk):
    normals = boundary_param(disk).normals_of_theta
    assert np.allclose(normals(0.0), [-1, 0], atol=1e-12)           # at (1, 0)
    assert np.allclose(normals(1.5 * np.pi), [0, 1], atol=1e-12)    # at (0, -1)


def test_inward_normal_ellipse():
    dom = ConvexDomain.ellipse(2.0, 1.0)
    normals = boundary_param(dom).normals_of_theta
    assert np.allclose(normals(0.0), [-1, 0], atol=1e-12)           # at (2, 0)
    # gradient direction (x/2, 2y) normalised at a generic point
    x, y = 2.0 * np.cos(0.7), np.sin(0.7)
    n = normals(0.7)
    g = np.array([x / 2.0, 2.0 * y])
    assert np.allclose(n, -g / np.linalg.norm(g), atol=1e-10)
    assert abs(np.linalg.norm(n) - 1.0) < 1e-14


def test_normal_unit_norm_superellipse():
    dom = ConvexDomain.superellipse(1.5, 1.0, 4.0)
    for n in boundary_param(dom).normals_of_theta(np.linspace(0.1, 6.0, 17)):
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14


@pytest.mark.parametrize("dom", [ConvexDomain.disk(2.0, (0.5, -1.0)),
                                 ConvexDomain.ellipse(1.3, 0.7, (0.2, -0.1)),
                                 ConvexDomain.superellipse(1.2, 0.9, 4.0, (-0.3, 0.4))],
                         ids=["disk", "ellipse", "superellipse"])
def test_domain_spec_round_trip(dom):
    assert ConvexDomain.from_spec(dom.to_spec()) == dom


def test_superellipse_exponent_validation():
    with pytest.raises(GeometryError):
        ConvexDomain.superellipse(1.0, 1.0, 1.0)
    with pytest.raises(GeometryError):
        ConvexDomain.superellipse(1.0, 1.0, 9.5)


# -- boundary quadrature ------------------------------------------------------------

def test_boundary_quadrature_disk_projected_width(disk):
    arc = dv.boundary_quadrature(disk, (1.0, 0.0), +1)
    # inflow arc of v = (1, 0) is the left half circle
    assert np.all(arc.points[:, 0] < 0)
    assert np.all(arc.vdotn > 0)
    width = arc.integrate_flux(np.ones(len(arc.dsigma)))
    assert abs(width - 2.0) < 1e-4


def test_boundary_quadrature_inflow_equals_outflow(disk):
    v = (3.0, 2.0)
    win = dv.boundary_quadrature(disk, v, +1).integrate_flux(1.0)
    wout = dv.boundary_quadrature(disk, v, -1).integrate_flux(1.0)
    assert abs(win - wout) < 1e-8 * win


def test_boundary_quadrature_ellipse_projected_width():
    dom = ConvexDomain.ellipse(2.0, 1.0)
    arc = dv.boundary_quadrature(dom, (0.0, 1.0), +1)
    width = arc.integrate_flux(np.ones(len(arc.dsigma)))
    assert abs(width - 4.0) < 1e-4


def test_boundary_quadrature_signs(disk, broadwell):
    for i in range(broadwell.p):
        plus = dv.boundary_quadrature(disk, broadwell.v[i], +1)
        minus = dv.boundary_quadrature(disk, broadwell.v[i], -1)
        assert np.all(plus.vdotn > 0)
        assert np.all(minus.vdotn < 0)


def test_projected_width_identity_superellipse():
    dom = ConvexDomain.superellipse(1.2, 0.9, 1.8)
    v = (1.0, 0.4)
    win = dv.boundary_quadrature(dom, v, +1).integrate_flux(1.0)
    wout = dv.boundary_quadrature(dom, v, -1).integrate_flux(1.0)
    assert abs(win - wout) < 1e-5 * win


def test_tangency_thetas_disk(disk):
    th = sorted(tangency_thetas(disk, (1.0, 0.0)))
    assert np.allclose(th, [np.pi / 2, 3 * np.pi / 2], atol=1e-8)


def scanned_tangency_thetas(dom, v, n=8192, steps=60):
    """Reference: the sign changes of v.n on n equal theta intervals, each
    bisected `steps` times."""
    normals = boundary_param(dom).normals_of_theta
    theta = np.linspace(0.0, 2.0 * np.pi, n + 1)
    g = normals(theta) @ v
    lo = np.flatnonzero(g[:-1] * g[1:] <= 0.0)
    lo = lo[np.r_[True, np.diff(lo) > 1]]         # a zero on a node ends two intervals
    lo, hi = theta[lo], theta[lo + 1]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = (normals(mid) @ v) * (normals(lo) @ v) <= 0.0
        hi, lo = np.where(left, mid, hi), np.where(left, lo, mid)
    return 0.5 * (lo + hi)


TANGENCY_DOMAINS = [ConvexDomain.disk(), ConvexDomain.ellipse(1.3, 0.7, (0.2, -0.1)),
                    *(ConvexDomain.superellipse(1.2, 0.9, q, (-0.3, 0.4))
                      for q in (1.05, 1.8, 4.0, 8.0)),
                    ConvexDomain.disk(1e-200), ConvexDomain.disk(1e200)]


@pytest.mark.parametrize("dom", TANGENCY_DOMAINS, ids=[
    "disk", "ellipse", "q1.05", "q1.8", "q4", "q8", "tiny disk", "huge disk"])
def test_tangency_thetas_match_a_scan_of_the_normals(dom):
    """The closed-form tangency points agree with a bracket scan and bisection
    of v.n, also on disks of radius 1e-200 and 1e200, where the squared
    gradient of the implicit function would underflow or overflow, and the
    normals have unit norm."""
    theta = np.linspace(0.0, 2.0 * np.pi, 1001)
    assert np.max(np.abs(np.linalg.norm(
        boundary_param(dom).normals_of_theta(theta), axis=1) - 1.0)) < 1e-14
    for v in [(1.0, 0.0), (0.0, -2.0), (-3.0, 0.0), (3.0, 2.0), (-1.0, np.sqrt(2.0)),
              (0.3, -2.7), (-1.0, -1.0)]:
        got = tangency_thetas(dom, v)
        assert got[0] < got[1]
        assert np.max(np.abs(np.array(got) - scanned_tangency_thetas(dom, v))) < 1e-14


def test_tangency_of_zero_velocity_is_refused(disk):
    with pytest.raises(GeometryError):
        tangency_thetas(disk, (0.0, 0.0))


def test_arcs_and_tangency_points_are_built_once(broadwell):
    dom = ConvexDomain.ellipse(1.3, 0.8)
    v = broadwell.v[1]
    key = (float(v[0]), float(v[1]))
    arc = dv.boundary_quadrature(dom, v, +1)
    assert dv.boundary_quadrature(dom, key, +1) is arc
    assert dv.boundary_quadrature(ConvexDomain.ellipse(1.3, 0.8), v, +1) is arc
    assert dv.boundary_quadrature(dom, v, -1) is not arc
    assert dv.boundary_quadrature(dom, v, +1, 256) is not arc
    assert tangency_thetas(dom, key) == tangency_thetas(dom, v)


def test_boundary_arc_arrays_are_read_only(disk):
    arc = dv.boundary_quadrature(disk, (1.0, 0.5), +1)
    for a in (arc.v, arc.points, arc.t_params, arc.dsigma, arc.vdotn):
        with pytest.raises(ValueError):
            a[0] = 0.0


# -- strict convexity proxy -----------------------------------------------------------

@pytest.mark.parametrize("dom", [
    ConvexDomain.disk(),
    ConvexDomain.ellipse(2.0, 1.0),
    ConvexDomain.superellipse(1.0, 1.3, 4.0),
])
def test_midpoints_strictly_interior(dom):
    bp = boundary_param(dom)
    rng = np.random.default_rng(2)
    th = rng.uniform(0, 2 * np.pi, size=(60, 2))
    pts_a = bp.point_of_theta(th[:, 0])
    pts_b = bp.point_of_theta(th[:, 1])
    sep = np.linalg.norm(pts_a - pts_b, axis=1) > 1e-6
    mids = 0.5 * (pts_a + pts_b)[sep]
    assert np.all(dom.phi(mids) < 0)


# -- double-characteristic change of variables ----------------------------------------

def test_jacobian_check_disk(disk, broadwell):
    dev = dv.change_of_variables_jacobian_check(disk, broadwell.v[0], broadwell.v[2])
    assert dev <= 1e-6


def test_jacobian_check_rejects_parallel(disk, broadwell):
    with pytest.raises(GeometryError):
        dv.change_of_variables_jacobian_check(disk, broadwell.v[0], broadwell.v[0])


def test_jacobian_check_center_and_near_boundary(disk, broadwell):
    dev_c = dv.change_of_variables_jacobian_check(disk, broadwell.v[1], broadwell.v[3],
                                                  z=(0.0, 0.0))
    dev_b = dv.change_of_variables_jacobian_check(disk, broadwell.v[1], broadwell.v[3],
                                                  z=(0.7, 0.3))
    assert dev_c <= 1e-6 and dev_b <= 1e-6


def test_parameter_recovery_roundtrip():
    for dom in (ConvexDomain.disk(), ConvexDomain.ellipse(2.0, 1.0),
                ConvexDomain.superellipse(1.0, 1.0, 3.0)):
        bp = boundary_param(dom)
        th = np.linspace(0.05, 2 * np.pi - 0.05, 37)
        pts = bp.point_of_theta(th)
        back = bp.theta_of_point(pts)
        assert np.max(np.abs(back - th)) < 1e-10
