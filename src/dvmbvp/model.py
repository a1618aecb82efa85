"""Coplanar discrete-velocity models: validation, certification, generators.

A model is a finite set of planar velocities plus quadratic collision rules
(i, j) <-> (l, m) with nonnegative coefficients.  Certification checks the
structural hypotheses the solver relies on: momentum/energy conservation per
rule, pairwise non-parallel velocities, existence of a direction n0 with
v . n0 > 0 for every v, and normality of the collision-invariant space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class ModelError(ValueError):
    pass


class StructuralError(ModelError):
    """Malformed input (bad indices, inconsistent duplicates), as opposed to
    a physics violation reported by validate_rules."""


@dataclass(frozen=True)
class Velocity:
    vx: float
    vy: float


def _canonical_key(i, j, l, m):
    """Canonical representative of the symmetry class of (i,j;l,m)."""
    pair_in = tuple(sorted((i, j)))
    pair_out = tuple(sorted((l, m)))
    return min((pair_in, pair_out), (pair_out, pair_in))


@dataclass(frozen=True)
class CollisionRule:
    i: int
    j: int
    l: int
    m: int
    gamma: float

    @property
    def key(self):
        return _canonical_key(self.i, self.j, self.l, self.m)


@dataclass(frozen=True)
class VelocityModel:
    """Velocity set + canonicalised collision rules.

    Rules are stored once per symmetry class; the full symmetric expansion is
    derived when collision terms are evaluated.
    """

    velocities: tuple[Velocity, ...]
    rules: tuple[CollisionRule, ...]
    positive_direction: tuple[float, float] | None = None

    @staticmethod
    def create(velocities, rules, positive_direction=None) -> "VelocityModel":
        """Build a model from raw (vx, vy) pairs and rule tuples.

        Duplicate rules in the same symmetry class must agree on gamma;
        they are collapsed to one canonical entry.
        """
        vels = tuple(v if isinstance(v, Velocity) else Velocity(float(v[0]), float(v[1]))
                     for v in velocities)
        for a, w in enumerate(vels):
            if not (math.isfinite(w.vx) and math.isfinite(w.vy)):
                raise StructuralError(f"velocity {a + 1} = ({w.vx}, {w.vy}) is not finite")
        p = len(vels)
        canon: dict = {}
        for r in rules:
            if not isinstance(r, CollisionRule):
                i, j, l, m, g = r
                r = CollisionRule(int(i), int(j), int(l), int(m), float(g))
            for idx in (r.i, r.j, r.l, r.m):
                if not (1 <= idx <= p):
                    raise StructuralError(f"rule {r} uses velocity index {idx} outside 1..{p}")
            key = r.key
            prev = canon.get(key)
            if prev is not None and prev.gamma != r.gamma:
                raise StructuralError(
                    f"rules {prev} and {r} are symmetry images with different gamma")
            if prev is None:
                (ci, cj), (cl, cm) = key
                canon[key] = CollisionRule(ci, cj, cl, cm, r.gamma)
        pd = None
        if positive_direction is not None:
            pd = np.asarray(positive_direction, dtype=float)
            if not np.all(np.isfinite(pd)):
                raise StructuralError(f"positive_direction {pd.tolist()} is not finite")
            nrm = float(np.hypot(pd[0], pd[1]))
            if nrm == 0.0:
                raise StructuralError("positive_direction must be a nonzero vector")
            pd = tuple(pd / nrm)
        return VelocityModel(vels, tuple(canon[k] for k in sorted(canon)), pd)

    @property
    def p(self) -> int:
        return len(self.velocities)

    @cached_property
    def v(self) -> np.ndarray:
        """(p, 2) velocity array."""
        return np.array([[w.vx, w.vy] for w in self.velocities])

    @cached_property
    def speeds_sq(self) -> np.ndarray:
        return np.sum(self.v * self.v, axis=1)

    @cached_property
    def is_integer_valued(self) -> bool:
        return bool(np.all(self.v == np.round(self.v)))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

CONS_REL_TOL = 1e-12   # relative tolerance for non-integer velocity data


@dataclass(frozen=True)
class RuleViolation:
    rule: CollisionRule
    kind: str            # "nonnegativity" | "momentum" | "energy"
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[RuleViolation, ...]
    flags: tuple[str, ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations


def validate_rules(model: VelocityModel) -> ValidationReport:
    """Check nonnegativity plus momentum and energy conservation per rule.

    Conservation is exact for integer-valued velocity sets and uses a
    relative tolerance of 1e-12 otherwise.
    """
    if model.p < 1:
        raise StructuralError("model must contain at least one velocity")
    v = model.v
    tol = 0.0 if model.is_integer_valued else CONS_REL_TOL
    out = []
    flags = []
    for r in model.rules:
        if r.gamma < 0:
            out.append(RuleViolation(r, "nonnegativity", f"gamma={r.gamma}"))
        vi, vj, vl, vm = v[r.i - 1], v[r.j - 1], v[r.l - 1], v[r.m - 1]
        dp = (vi + vj) - (vl + vm)
        scale = max(1.0, float(np.max(np.abs([vi, vj, vl, vm]))))
        if np.max(np.abs(dp)) > tol * scale:
            out.append(RuleViolation(r, "momentum", f"defect={dp.tolist()}"))
        de = (vi @ vi + vj @ vj) - (vl @ vl + vm @ vm)
        if abs(de) > tol * scale * scale:
            out.append(RuleViolation(r, "energy", f"defect={de}"))
        if r.i == r.j or r.l == r.m:
            flags.append(f"rule {(r.i, r.j, r.l, r.m)} couples a velocity with itself")
    return ValidationReport(tuple(out), tuple(flags))


def check_genericity(model: VelocityModel):
    """True iff no two velocities are parallel (all pairwise cross products
    nonzero).  Returns (ok, offending_pair_or_None)."""
    v = model.v
    tol = 0.0 if model.is_integer_valued else 1e-12
    scale = max(1.0, float(np.max(np.abs(v)))) if model.p else 1.0
    for a in range(model.p):
        for b in range(a + 1, model.p):
            cross = v[a, 0] * v[b, 1] - v[a, 1] * v[b, 0]
            if abs(cross) <= tol * scale * scale:
                return False, (a + 1, b + 1)
    return True, None


def find_positive_direction(model: VelocityModel):
    """Unit vector n0 with v . n0 > 0 for every velocity, or None.

    The admissible set is the intersection of open half-planes; it is
    nonempty iff all velocity directions fit in an open half-circle.  The
    returned direction bisects the minimal enclosing arc.
    """
    v = model.v
    if model.p == 0:
        return None
    if np.any(np.all(v == 0.0, axis=1)):
        return None
    theta = np.sort(np.arctan2(v[:, 1], v[:, 0]))
    if model.p == 1:
        ang = theta[0]
        return np.array([math.cos(ang), math.sin(ang)])
    gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
    g_idx = int(np.argmax(gaps))
    if gaps[g_idx] <= np.pi:
        return None
    # minimal enclosing arc = complement of the largest angular gap
    start = theta[(g_idx + 1) % model.p]
    arc = 2.0 * np.pi - gaps[g_idx]
    mid = start + 0.5 * arc
    n0 = np.array([math.cos(mid), math.sin(mid)])
    if np.min(v @ n0) <= 0.0:
        return None
    return n0


RANK_TOL = 1e-10   # singular values below RANK_TOL * sigma_max count as zero


@dataclass(frozen=True)
class NormalityCertificate:
    normal: bool
    d_inv: int                    # dimension of the collision-invariant space
    d_max: int                    # dimension of span{1, vx, vy, |v|^2}


def check_normality(model: VelocityModel) -> NormalityCertificate:
    """Compare the collision-invariant space with span{1, vx, vy, |v|^2}.

    The model is normal iff the two spaces coincide, i.e. every function
    satisfying all rule constraints is a combination of mass, momentum and
    energy.  Ranks use an SVD threshold of 1e-10 * sigma_max.
    """
    report = validate_rules(model)
    if not report.valid:
        raise StructuralError(f"cannot certify a model with invalid rules: {report.violations}")
    p = model.p
    rows = []
    for r in model.rules:
        if r.gamma > 0:
            row = np.zeros(p)
            row[r.i - 1] += 1.0
            row[r.j - 1] += 1.0
            row[r.l - 1] -= 1.0
            row[r.m - 1] -= 1.0
            rows.append(row)
    A = np.array(rows) if rows else np.zeros((0, p))
    E = np.column_stack([np.ones(p), model.v[:, 0], model.v[:, 1], model.speeds_sq])

    if A.shape[0]:
        sv = np.linalg.svd(A, compute_uv=False)
        rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0
        defect = float(np.max(np.abs(A @ E))) if E.size else 0.0
    else:
        rank = defect = 0
    d_inv = p - rank
    sv_e = np.linalg.svd(E, compute_uv=False)
    d_max = int(np.sum(sv_e > RANK_TOL * sv_e[0]))
    scale = max(1.0, float(np.max(np.abs(E))))
    contained = defect <= 1e-9 * scale * max(1, A.shape[0])
    return NormalityCertificate(normal=(d_inv == d_max) and contained,
                                d_inv=d_inv, d_max=d_max)


@dataclass(frozen=True)
class ModelCertificate:
    validation: ValidationReport
    generic: bool
    offending_pair: tuple[int, int] | None
    positive_direction: np.ndarray | None
    normality: NormalityCertificate | None

    @property
    def certified(self) -> bool:
        return (self.validation.valid and self.generic
                and self.positive_direction is not None
                and self.normality is not None and self.normality.normal)


def certify_model(model: VelocityModel) -> ModelCertificate:
    """Run all structural checks and bundle the results."""
    rep = validate_rules(model)
    ok, pair = check_genericity(model)
    n0 = find_positive_direction(model)
    cert = check_normality(model) if rep.valid else None
    return ModelCertificate(rep, ok, pair, n0, cert)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_shifted_model(base_velocities, rules, c0, n0) -> VelocityModel:
    """Shift a conservative model by c0 * n0 so it becomes generic with a
    common positive direction.

    Requires c0 > max |v_i| and that c0 * n0 avoids every line
    -v_j + R (v_i - v_j); those lines are exactly where a shifted pair
    turns parallel.
    """
    base = np.array([[float(v[0]), float(v[1])] for v in base_velocities])
    n0 = np.asarray(n0, dtype=float)
    nn = float(np.hypot(n0[0], n0[1]))
    if abs(nn - 1.0) > 1e-9:
        raise ModelError(f"n0 must be a unit vector (|n0|={nn})")
    speeds = np.linalg.norm(base, axis=1)
    if c0 <= float(np.max(speeds)):
        raise ModelError(f"shift magnitude c0={c0} must exceed max speed {np.max(speeds)}")
    shift = c0 * n0
    p = len(base)
    scale = max(1.0, float(np.max(np.abs(base))), abs(c0))
    for a in range(p):
        for b in range(p):
            if a == b:
                continue
            d = base[a] - base[b]
            dn = float(np.hypot(d[0], d[1]))
            if dn == 0.0:
                continue
            rel = shift + base[b]     # shift - (-v_b)
            dist = abs(rel[0] * d[1] - rel[1] * d[0]) / dn
            if dist <= 1e-9 * scale:
                raise ModelError(
                    f"shift {shift.tolist()} lies on the excluded line of pair "
                    f"({a + 1}, {b + 1})")
    shifted = base + shift
    model = VelocityModel.create(shifted, rules, positive_direction=n0)
    cert = certify_model(model)
    if not cert.certified:
        raise ModelError(f"shifted model failed certification: {cert}")
    return model


def generate_circle_model(quadruples, gammas) -> VelocityModel:
    """Build a model from diameter/diametrically-opposed point quadruples.

    Each quadruple (A_i, A_j, A_l, A_m) must have A_l, A_m diametrically
    opposed on the circle with diameter [A_i, A_j]; that geometry is exactly
    momentum and energy conservation for the four induced velocities.
    Quadruples may share points; shared velocities are deduplicated.
    """
    if np.isscalar(gammas):
        gammas = [float(gammas)] * len(quadruples)
    if len(gammas) != len(quadruples):
        raise ModelError("need one gamma per quadruple")
    pts: list[tuple[float, float]] = []

    def point_index(q):
        q = (float(q[0]), float(q[1]))
        for idx, existing in enumerate(pts):
            if math.hypot(existing[0] - q[0], existing[1] - q[1]) <= 1e-12 * max(
                    1.0, abs(q[0]), abs(q[1])):
                return idx + 1
        pts.append(q)
        return len(pts)

    rules = []
    for nq, quad in enumerate(quadruples):
        ai, aj, al, am = (np.asarray(pt, dtype=float) for pt in quad)
        if np.allclose(ai, aj):
            raise ModelError(f"quadruple {nq}: A_i and A_j must differ")
        same = (np.array_equal(al, ai) and np.array_equal(am, aj)) or \
               (np.array_equal(al, aj) and np.array_equal(am, ai))
        if same:
            raise ModelError(f"quadruple {nq}: (A_l, A_m) must differ from (A_i, A_j)")
        center = 0.5 * (ai + aj)
        radius = float(np.linalg.norm(ai - center))
        scale = max(1.0, radius)
        if np.linalg.norm(al + am - 2.0 * center) > 1e-9 * scale:
            raise ModelError(f"quadruple {nq}: A_l, A_m are not diametrically opposed "
                             f"on the circle of diameter [A_i, A_j]")
        if abs(np.linalg.norm(al - center) - radius) > 1e-9 * scale:
            raise ModelError(f"quadruple {nq}: A_l does not lie on the circle")
        idx = [point_index(q) for q in (ai, aj, al, am)]
        rules.append(CollisionRule(idx[0], idx[1], idx[2], idx[3], gammas[nq]))

    model = VelocityModel.create(pts, rules)
    rep = validate_rules(model)
    if not rep.valid:
        raise ModelError(f"circle construction produced invalid rules: {rep.violations}")
    ok, pair = check_genericity(model)
    if not ok:
        raise ModelError(f"circle construction produced parallel velocities {pair}")
    n0 = find_positive_direction(model)
    if n0 is None:
        raise ModelError("points do not fit in an open half-plane through the origin")
    return VelocityModel(model.velocities, model.rules, tuple(n0))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def model_to_dict(model: VelocityModel) -> dict:
    return {
        "velocities": [[w.vx, w.vy] for w in model.velocities],
        "rules": [{"i": r.i, "j": r.j, "l": r.l, "m": r.m, "gamma": r.gamma}
                  for r in model.rules],
        "n0": list(model.positive_direction) if model.positive_direction else None,
    }


def is_real(x) -> bool:
    """True for an int or float, not a bool, with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:          # an int beyond the float range
        return False


def _numbers(x, n: int, what: str) -> list:
    """`x` if it is a list of n finite numbers, else StructuralError naming `what`."""
    if not (isinstance(x, list) and len(x) == n and all(map(is_real, x))):
        raise StructuralError(f"{what} must be a list of {n} finite numbers, got {x!r}")
    return x


def _rule(r, n: int) -> list:
    """Rule n of a model file, {i, j, l, m, gamma} or [i, j, l, m, gamma], as a
    list, or StructuralError."""
    entries = [r.get(key) for key in ("i", "j", "l", "m", "gamma")] if isinstance(r, dict) else r
    if not (isinstance(entries, list) and len(entries) == 5 and all(map(is_real, entries))
            and all(x == int(x) for x in entries[:4])):
        raise StructuralError(f"rule {n} must give integer indices i, j, l, m and a finite "
                              f"gamma, got {r!r}")
    return entries


def model_from_dict(data) -> VelocityModel:
    """Model from its JSON form; StructuralError on any malformed entry."""
    if not isinstance(data, dict):
        raise StructuralError("model data must be an object")
    vels, rules, n0 = data.get("velocities"), data.get("rules", []), data.get("n0")
    if not (isinstance(vels, list) and vels):
        raise StructuralError(f"model velocities must be a nonempty list, got {vels!r}")
    if not isinstance(rules, list):
        raise StructuralError(f"model rules must be a list, got {rules!r}")
    return VelocityModel.create(
        [_numbers(v, 2, f"velocity {a + 1}") for a, v in enumerate(vels)],
        [_rule(r, n + 1) for n, r in enumerate(rules)],
        positive_direction=None if n0 is None else _numbers(n0, 2, "n0"))


def save_model(model: VelocityModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> VelocityModel:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructuralError(f"cannot parse model file {path}: {exc}") from exc
    return model_from_dict(data)


# canonical 4-velocity test model: the classical orthogonal-pair model
# shifted by (2, 2).  Built directly so the coordinates stay exact integers
# (a float c0 * n0 product would leave ~1e-16 residue on every component).
def shifted_broadwell(gamma=1.0) -> VelocityModel:
    s = 1.0 / math.sqrt(2.0)
    return VelocityModel.create(
        [(3, 2), (1, 2), (2, 3), (2, 1)],
        [CollisionRule(1, 2, 3, 4, gamma)],
        positive_direction=(s, s),
    )


def classical_broadwell(gamma=1.0) -> VelocityModel:
    return VelocityModel.create(
        [(1, 0), (-1, 0), (0, 1), (0, -1)],
        [CollisionRule(1, 2, 3, 4, gamma)],
    )
