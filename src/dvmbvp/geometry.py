"""Strictly convex planar domains with characteristic tracing.

Supported shapes are disks, ellipses and superellipses |x/a|^q + |y/b|^q = 1
with q in (1, 8].  Boundary points, inward normals and the tangency points
of a velocity come in closed form from the parametrization theta ->
(a sgn(c)|c|^(2/q), b sgn(s)|s|^(2/q)), c = cos theta, s = sin theta.  A ray
leaves a disk or an ellipse at the larger root of a quadratic and a
superellipse by bracketed bisection on phi = |x/a|^q + |y/b|^q - 1."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


class OutsideDomainError(GeometryError):
    pass


def _as_point(p):
    a = np.asarray(p, dtype=float)
    if a.shape != (2,):
        raise GeometryError(f"expected a 2-vector, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ConvexDomain:
    """Strictly convex bounded open region with C1 boundary.

    `exponent` is 2 for disks and ellipses; superellipses take q in (1, 8].
    """

    kind: str
    center: tuple[float, float]
    semi_axes: tuple[float, float]
    exponent: float = 2.0

    def __post_init__(self):
        if self.kind not in ("disk", "ellipse", "superellipse"):
            raise GeometryError(f"unsupported domain kind {self.kind!r}")
        if len(self.center) != 2 or not all(map(math.isfinite, self.center)):
            raise GeometryError(f"center must be two finite numbers, got {self.center}")
        a, b = self.semi_axes
        if not (0 < a < math.inf and 0 < b < math.inf):
            raise GeometryError(f"semi-axes must be positive and finite, got {self.semi_axes}")
        x0, x1, y0, y1 = self.bbox
        if not (0 < x1 - x0 < math.inf and 0 < y1 - y0 < math.inf):
            raise GeometryError(f"bounding box of semi-axes {self.semi_axes} about "
                                f"{self.center} has no finite, positive width")
        if self.kind == "superellipse" and not (1.0 < self.exponent <= 8.0):
            raise GeometryError("superellipse exponent must lie in (1, 8]")
        if self.kind != "superellipse" and self.exponent != 2.0:
            raise GeometryError("exponent is only meaningful for superellipses")

    # -- factories ---------------------------------------------------------

    @staticmethod
    def disk(radius=1.0, center=(0.0, 0.0)) -> "ConvexDomain":
        return ConvexDomain("disk", tuple(map(float, center)), (float(radius), float(radius)))

    @staticmethod
    def ellipse(a, b, center=(0.0, 0.0)) -> "ConvexDomain":
        return ConvexDomain("ellipse", tuple(map(float, center)), (float(a), float(b)))

    @staticmethod
    def superellipse(a, b, exponent, center=(0.0, 0.0)) -> "ConvexDomain":
        return ConvexDomain("superellipse", tuple(map(float, center)),
                            (float(a), float(b)), float(exponent))

    @staticmethod
    def from_spec(spec: dict) -> "ConvexDomain":
        """Build from a config mapping: `kind`, an optional `center`, and
        `radius` for a disk, `semi_axes` for an ellipse, `semi_axes` and
        `exponent` for a superellipse.  Any other key is refused."""
        kind = spec.get("kind")
        keys = {"disk": {"radius"}, "ellipse": {"semi_axes"},
                "superellipse": {"semi_axes", "exponent"}}.get(kind)
        if keys is None:
            raise GeometryError(f"unsupported domain kind {kind!r}")
        unknown = set(spec) - keys - {"kind", "center"}
        if unknown:
            raise GeometryError(f"unknown keys {sorted(unknown)} for a {kind} domain")
        center = spec.get("center", (0.0, 0.0))
        if kind == "disk":
            return ConvexDomain.disk(spec.get("radius", 1.0), center)
        a, b = spec["semi_axes"]
        if kind == "ellipse":
            return ConvexDomain.ellipse(a, b, center)
        return ConvexDomain.superellipse(a, b, spec["exponent"], center)

    def to_spec(self) -> dict:
        spec = {"kind": self.kind, "center": list(self.center)}
        if self.kind == "disk":
            spec["radius"] = self.semi_axes[0]
        else:
            spec["semi_axes"] = list(self.semi_axes)
        if self.kind == "superellipse":
            spec["exponent"] = self.exponent
        return spec

    # -- implicit function -------------------------------------------------

    @property
    def scale(self) -> float:
        return max(self.semi_axes)

    @property
    def diameter(self) -> float:
        return 2.0 * self.scale

    @property
    def bounding_radius(self) -> float:
        a, b = self.semi_axes
        return math.hypot(a, b)

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        cx, cy = self.center
        a, b = self.semi_axes
        return (cx - a, cx + a, cy - b, cy + b)

    @np.errstate(over="ignore")     # +inf too far out, in semi-axes, for a float
    def phi(self, points):
        """Implicit function: negative inside, zero on the boundary."""
        p = np.asarray(points, dtype=float)
        x = (p[..., 0] - self.center[0]) / self.semi_axes[0]
        y = (p[..., 1] - self.center[1]) / self.semi_axes[1]
        q = self.exponent
        return np.abs(x) ** q + np.abs(y) ** q - 1.0

    def contains(self, points):
        return self.phi(points) < 0.0

    # -- ray tracing ---------------------------------------------------------

    def exit_times(self, zs, v):
        """Exit time per point of an (n, 2) array: smallest s > 0 with z + s v
        on the boundary.

        Assumes phi(z) <= 0 (inside or on the boundary with the ray entering).
        On a disk or ellipse phi(z + s v) is quadratic in s and the exit time
        is its larger root; superellipses bisect.
        """
        zs = np.asarray(zs, dtype=float)
        v = _as_point(v)
        speed = float(np.hypot(v[0], v[1]))
        if speed == 0.0:
            raise GeometryError("zero velocity has no characteristic")
        if self.exponent == 2.0:
            return self._quadratic_exit_times(zs, v)
        c = np.asarray(self.center)
        # |z + hi v - c| >= bounding_radius + scale: beyond every boundary point
        hi = (np.linalg.norm(zs - c, axis=1) + self.bounding_radius + self.scale) / speed
        lo = np.zeros(len(zs))
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            outside = self.phi(zs + mid[:, None] * v) > 0.0
            hi = np.where(outside, mid, hi)
            lo = np.where(outside, lo, mid)
        return 0.5 * (lo + hi)

    def _quadratic_exit_times(self, zs, v):
        """Larger root of A s^2 + B s + C = 0, with phi(z + s v) = that
        quadratic, in the form without cancellation (Press et al., Numerical
        Recipes, 5.6): -2C / (B + sqrt(D)) for B >= 0, (sqrt(D) - B) / (2A)
        otherwise.  D and s are clamped at 0, so a ray that leaves from the
        boundary exits at 0.
        """
        a, b = self.semi_axes
        x = (zs[:, 0] - self.center[0]) / a
        y = (zs[:, 1] - self.center[1]) / b
        vx, vy = v[0] / a, v[1] / b
        A = vx * vx + vy * vy
        B = 2.0 * (x * vx + y * vy)
        C = x * x + y * y - 1.0
        root = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        den = B + root
        far = np.where(B >= 0.0, -2.0 * C / np.where(den > 0.0, den, 1.0),
                       (root - B) / (2.0 * A))
        return np.maximum(far, 0.0)

    def trace(self, z, v):
        """Characteristic segment through z in direction v.

        Entry/exit are measured in the time parameter s of z + s*v; the entry
        point lies at z - s_plus*v and the exit point at z + s_minus*v.
        """
        z = _as_point(z)
        v = _as_point(v)
        p = self.phi(z)
        if p > 1e-12 * self.scale:
            raise OutsideDomainError(f"point {z} lies outside the domain (phi={p:.3e})")
        s_minus = float(self.exit_times(z[None, :], v)[0])
        s_plus = float(self.exit_times(z[None, :], -v)[0])
        return CharacteristicSegment(z=z, v=v, s_plus=s_plus, s_minus=s_minus,
                                     z_plus=z - s_plus * v, z_minus=z + s_minus * v)


@dataclass(frozen=True)
class CharacteristicSegment:
    """Chord of the domain through `z` along velocity `v`.

    s_plus and s_minus are nonnegative times to the upstream (entry) and
    downstream (exit) boundary points.
    """

    z: np.ndarray
    v: np.ndarray
    s_plus: float
    s_minus: float
    z_plus: np.ndarray
    z_minus: np.ndarray

    @property
    def length_time(self) -> float:
        return self.s_plus + self.s_minus


# ---------------------------------------------------------------------------
# boundary parameterisation
# ---------------------------------------------------------------------------

class BoundaryParam:
    """Arclength parameterisation of the boundary of a ConvexDomain.

    The curve is sampled on a theta grid of 8192 intervals; arclength
    lookups go through a monotone cumulative table, which keeps every
    evaluation deterministic.
    """

    def __init__(self, domain: ConvexDomain):
        self.domain = domain
        n = 8192
        theta = np.linspace(0.0, 2.0 * np.pi, n + 1)
        pts = self.point_of_theta(theta)
        d = np.diff(pts, axis=0)
        seg = np.hypot(d[:, 0], d[:, 1])       # no overflow of the squares on huge domains
        t = np.concatenate([[0.0], np.cumsum(seg)])
        self.theta_grid = theta
        self.t_grid = t
        self.total_length = float(t[-1])

    def point_of_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        d = self.domain
        a, b = d.semi_axes
        c, s = np.cos(theta), np.sin(theta)
        e = 2.0 / d.exponent
        x = a * np.sign(c) * np.abs(c) ** e
        y = b * np.sign(s) * np.abs(s) ** e
        return np.stack([d.center[0] + x, d.center[1] + y], axis=-1)

    def theta_of_point(self, points):
        """Recover the parameter of boundary points (exact up to rounding)."""
        d = self.domain
        p = np.asarray(points, dtype=float)
        x = (p[..., 0] - d.center[0]) / d.semi_axes[0]
        y = (p[..., 1] - d.center[1]) / d.semi_axes[1]
        e = d.exponent / 2.0
        u = np.sign(x) * np.abs(x) ** e
        w = np.sign(y) * np.abs(y) ** e
        return np.mod(np.arctan2(w, u), 2.0 * np.pi)

    def t_of_theta(self, theta):
        theta = np.mod(np.asarray(theta, dtype=float), 2.0 * np.pi)
        return np.interp(theta, self.theta_grid, self.t_grid)

    def theta_of_t(self, t):
        t = np.mod(np.asarray(t, dtype=float), self.total_length)
        return np.interp(t, self.t_grid, self.theta_grid)

    def t_of_point(self, points):
        return self.t_of_theta(self.theta_of_point(points))

    def normals_of_theta(self, theta):
        """Inward unit normals at the points of theta: there -grad phi is
        parallel to -(b sgn(c)|c|^r, a sgn(s)|s|^r), with r = 2 - 2/q."""
        theta = np.asarray(theta, dtype=float)
        a, b = self.domain.semi_axes
        c, s = np.cos(theta), np.sin(theta)
        r = 2.0 - 2.0 / self.domain.exponent
        g = np.stack([b * np.sign(c) * np.abs(c) ** r, a * np.sign(s) * np.abs(s) ** r], axis=-1)
        return -g / np.hypot(g[..., 0], g[..., 1])[..., None]

    def midpoint_rule(self, lo: float, hi: float, n: int):
        """Midpoint rule of n equal theta intervals of [lo, hi]: the midpoints'
        thetas, points and inward normals, and each interval's arclength from
        the secant of the curve."""
        edges = np.linspace(lo, hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        dsig = np.linalg.norm(np.diff(self.point_of_theta(edges), axis=0), axis=1)
        return mids, self.point_of_theta(mids), self.normals_of_theta(mids), dsig


@functools.lru_cache(maxsize=32)
def boundary_param(domain: ConvexDomain) -> BoundaryParam:
    return BoundaryParam(domain)


def _velocity_key(v) -> tuple[float, float]:
    v = _as_point(v)
    return float(v[0]), float(v[1])


def tangency_thetas(domain: ConvexDomain, v) -> tuple[float, float]:
    """Parameters of the two boundary points where v is tangent (v.n = 0), in
    increasing order.  There (sgn(c)|c|^r, sgn(s)|s|^r) is parallel to
    +-(v_y a, -v_x b) (see `BoundaryParam.normals_of_theta`): c and s are that
    pair, scaled to a largest magnitude of 1, to the power 1/r."""
    vx, vy = _velocity_key(v)
    vmax = max(abs(vx), abs(vy))
    if not 0.0 < vmax < math.inf:
        raise GeometryError(f"velocity ({vx}, {vy}) must be finite and nonzero")
    a, b = domain.semi_axes
    u, w = vy / vmax * a, -vx / vmax * b
    top = max(abs(u), abs(w))
    inv_r = 1.0 / (2.0 - 2.0 / domain.exponent)
    c = math.copysign(abs(u / top) ** inv_r, u)
    s = math.copysign(abs(w / top) ** inv_r, w)
    return tuple(sorted(math.atan2(y, x) % (2.0 * math.pi) for x, y in ((c, s), (-c, -s))))


@dataclass(frozen=True)
class BoundaryArc:
    """Quadrature nodes on the inflow or outflow arc of one velocity.

    Weights `dsigma` integrate against the arclength measure; `vdotn` carries
    the signed projection, so flux integrals use abs(vdotn) * dsigma.
    """

    v: np.ndarray
    sign: int
    points: np.ndarray       # (n, 2)
    t_params: np.ndarray     # (n,) global arclength parameter
    dsigma: np.ndarray       # (n,) arclength weights
    vdotn: np.ndarray        # (n,) signed v . n(Z)

    @np.errstate(over="ignore", invalid="ignore")     # not finite where it overflows
    def integrate_flux(self, values) -> float:
        """Integral of values * |v.n| dsigma over the arc."""
        return float(np.sum(np.asarray(values) * np.abs(self.vdotn) * self.dsigma))


def boundary_quadrature(domain: ConvexDomain, v, sign, n_nodes=1024) -> BoundaryArc:
    """Midpoint-rule quadrature on the arc where sign(v.n) matches `sign`.

    The arc endpoints are the two tangency points of v; midpoint nodes keep
    the integrand |v.n| away from its zeros at the endpoints.  Each arc is
    built once per (domain, v, sign, n_nodes) and shared by every caller, so
    its arrays are read-only.
    """
    if sign not in (+1, -1):
        raise GeometryError("sign must be +1 (inflow) or -1 (outflow)")
    return _boundary_quadrature(domain, _velocity_key(v), sign, n_nodes)


@functools.lru_cache(maxsize=256)
def _boundary_quadrature(domain: ConvexDomain, key: tuple[float, float], sign,
                         n_nodes) -> BoundaryArc:
    v = np.array(key)
    bp = boundary_param(domain)
    th1, th2 = tangency_thetas(domain, key)
    # decide which of the two arcs carries the requested sign
    mid = 0.5 * (th1 + th2)
    g_mid = float(bp.normals_of_theta(mid) @ v)
    if (g_mid > 0) == (sign > 0):
        lo, hi = th1, th2
    else:
        lo, hi = th2, th1 + 2.0 * np.pi
    mids, pts, nrm, dsig = bp.midpoint_rule(lo, hi, n_nodes)
    arc = BoundaryArc(v=v, sign=sign, points=pts, t_params=bp.t_of_theta(mids),
                      dsigma=dsig, vdotn=nrm @ v)
    for a in (arc.v, arc.points, arc.t_params, arc.dsigma, arc.vdotn):
        a.setflags(write=False)
    return arc


def change_of_variables_jacobian_check(domain: ConvexDomain, vi, vj, z=None):
    """Max |det - 1| of the double-characteristic map in the (vi, vj) basis.

    The map sends (s, sigma) to the point reached by entering along vi,
    advancing s, re-entering along vj and advancing sigma.  Its Jacobian in
    the (vi, vj) coordinate frame is identically one; the finite-difference
    estimate quantifies the geometric error of the tracer.  It is taken by
    central differences of step 1e-5 on a 20 x 20 grid of (s, sigma) that
    leaves out 8 % of each chord at either end; the vi chord runs through z
    (by default a point just off the domain's centre).
    """
    vi = _as_point(vi)
    vj = _as_point(vj)
    cross = vi[0] * vj[1] - vi[1] * vj[0]
    if cross == 0.0:
        raise GeometryError("velocities must be non-parallel")
    if z is None:
        z = np.asarray(domain.center) + 0.05 * domain.scale
    z = _as_point(z)

    seg_i = domain.trace(z, vi)
    entry_i = seg_i.z_plus

    def forward(s, sigma):
        w = entry_i + s[..., None] * vi
        si_j = domain.exit_times(w.reshape(-1, 2), -vj).reshape(s.shape)
        return (w - si_j[..., None] * vj) + sigma[..., None] * vj

    n, margin, delta = 20, 0.08, 1e-5
    tau_i = seg_i.length_time
    s_vals = np.linspace(margin * tau_i, (1 - margin) * tau_i, n)
    w = entry_i + s_vals[:, None] * vi
    tau_j = domain.exit_times(w, -vj) + domain.exit_times(w, vj)
    sig = np.linspace(margin * tau_j, (1 - margin) * tau_j, n, axis=1)
    s = np.repeat(s_vals[:, None], n, axis=1)
    dzs = (forward(s + delta, sig) - forward(s - delta, sig)) / (2 * delta)
    dzg = (forward(s, sig + delta) - forward(s, sig - delta)) / (2 * delta)
    det = (dzs[..., 0] * dzg[..., 1] - dzs[..., 1] * dzg[..., 0]) / cross
    return float(np.max(np.abs(det - 1.0)))
