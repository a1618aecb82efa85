"""Model validation, certification and generator tests.

Exact-arithmetic oracles (fractions-based Gaussian elimination, hand
cross products) back every derived expectation.
"""

from fractions import Fraction

import numpy as np
import pytest

import dvmbvp as dv
from dvmbvp.model import (CollisionRule, StructuralError, VelocityModel,
                          classical_broadwell, model_from_dict, model_to_dict)


# -- exact-arithmetic oracles ------------------------------------------------

def frac_rank(rows):
    """Gaussian elimination rank over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


# -- validate_rules ----------------------------------------------------------

def test_validate_shifted_broadwell(broadwell):
    rep = dv.validate_rules(broadwell)
    assert rep.valid
    # momentum (4,4) on both sides, energy 18 on both sides
    v = broadwell.v
    assert np.array_equal(v[0] + v[1], v[2] + v[3])
    assert v[0] @ v[0] + v[1] @ v[1] == 18 == v[2] @ v[2] + v[3] @ v[3]


def test_validate_identity_rule():
    m = VelocityModel.create([(3, 2), (1, 2)], [CollisionRule(1, 2, 1, 2, 2.5)])
    assert dv.validate_rules(m).valid


def test_validate_momentum_violation():
    m = VelocityModel.create([(1, 0), (0, 1), (1, 1), (0, 1)],
                             [CollisionRule(1, 2, 3, 4, 1.0)])
    rep = dv.validate_rules(m)
    assert not rep.valid
    assert any(v.kind == "momentum" for v in rep.violations)


def test_out_of_range_index_is_structural():
    with pytest.raises(StructuralError):
        VelocityModel.create([(1, 0)], [CollisionRule(1, 2, 1, 1, 1.0)])


@pytest.mark.parametrize("velocities, direction", [
    ([(float("nan"), 0), (-1, 0), (0, 1), (0, -1)], None),
    ([(1, 0), (-1, 0), (0, float("inf")), (0, -1)], None),
    ([(3, 2), (1, 2), (2, 3), (2, 1)], (float("nan"), 1.0)),
    ([(3, 2), (1, 2), (2, 3), (2, 1)], (float("inf"), 1.0)),
], ids=["nan-velocity", "inf-velocity", "nan-direction", "inf-direction"])
def test_non_finite_model_data_is_structural(velocities, direction):
    with pytest.raises(StructuralError, match="not finite"):
        VelocityModel.create(velocities, [CollisionRule(1, 2, 3, 4, 1.0)],
                             positive_direction=direction)


def test_negative_gamma_reported():
    m = VelocityModel.create([(3, 2), (1, 2), (2, 3), (2, 1)],
                             [CollisionRule(1, 2, 3, 4, -1.0)])
    rep = dv.validate_rules(m)
    assert any(v.kind == "nonnegativity" for v in rep.violations)


def test_self_coupling_flagged():
    m = VelocityModel.create([(1, 1), (2, 0)], [CollisionRule(1, 1, 1, 1, 1.0)])
    rep = dv.validate_rules(m)
    assert rep.valid and rep.flags


def test_inconsistent_symmetric_duplicates_rejected():
    with pytest.raises(StructuralError):
        VelocityModel.create(
            [(3, 2), (1, 2), (2, 3), (2, 1)],
            [CollisionRule(1, 2, 3, 4, 1.0), CollisionRule(3, 4, 1, 2, 2.0)])


def test_consistent_duplicates_collapse(broadwell):
    m = VelocityModel.create(
        [(3, 2), (1, 2), (2, 3), (2, 1)],
        [CollisionRule(1, 2, 3, 4, 1.0), CollisionRule(2, 1, 4, 3, 1.0)])
    assert len(m.rules) == 1


# -- genericity ----------------------------------------------------------------

def test_genericity_shifted(broadwell):
    ok, pair = dv.check_genericity(broadwell)
    assert ok and pair is None
    # hand oracle: all six pairwise cross products over the rationals
    vels = [(3, 2), (1, 2), (2, 3), (2, 1)]
    crosses = [cross(vels[a], vels[b]) for a in range(4) for b in range(a + 1, 4)]
    assert crosses == [4, 5, -1, -1, -3, -4]
    assert all(c != 0 for c in crosses)


def test_genericity_classical_fails():
    ok, pair = dv.check_genericity(classical_broadwell())
    assert not ok and pair == (1, 2)


def test_genericity_single_velocity():
    m = VelocityModel.create([(1, 0)], [])
    ok, pair = dv.check_genericity(m)
    assert ok and pair is None


# -- positive direction --------------------------------------------------------

def test_positive_direction_shifted(broadwell):
    n0 = dv.find_positive_direction(broadwell)
    root_half = 1.0 / np.sqrt(2.0)
    assert np.allclose(n0, [root_half, root_half], atol=1e-12)
    dots = broadwell.v @ n0
    assert np.allclose(sorted(dots), sorted([5 * root_half, 3 * root_half,
                                             5 * root_half, 3 * root_half]))


def test_positive_direction_antipodal_none():
    m = VelocityModel.create([(1, 0), (-1, 0)], [])
    assert dv.find_positive_direction(m) is None


def test_positive_direction_single():
    m = VelocityModel.create([(1, 0)], [])
    assert np.allclose(dv.find_positive_direction(m), [1.0, 0.0])


def test_positive_direction_matches_sampling_oracle():
    rng = np.random.default_rng(7)
    thetas = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for _ in range(50):
        p = rng.integers(1, 6)
        v = rng.normal(size=(p, 2)) * 2
        v = v[np.linalg.norm(v, axis=1) > 1e-3]
        if len(v) == 0:
            continue
        m = VelocityModel.create(v, [])
        n0 = dv.find_positive_direction(m)
        sampled_ok = np.any(np.all(dirs @ v.T > 1e-9, axis=1))
        if n0 is not None:
            assert np.min(v @ n0) > 0
        else:
            assert not sampled_ok


# -- normality ------------------------------------------------------------------

def test_normality_shifted(broadwell):
    cert = dv.check_normality(broadwell)
    assert cert.normal and cert.d_inv == 3 and cert.d_max == 3
    # oracle: the 4x4 evaluation matrix [1, vx, vy, |v|^2] has rank 3 over Q
    vels = [(3, 2), (1, 2), (2, 3), (2, 1)]
    E = [[1, vx, vy, vx * vx + vy * vy] for vx, vy in vels]
    assert frac_rank(E) == 3
    # and the constraint matrix has rank 1 -> nullity 3
    A = [[1, 1, -1, -1]]
    assert frac_rank(A) == 1


def test_normality_without_rules_fails(broadwell):
    empty = VelocityModel(broadwell.velocities, (), broadwell.positive_direction)
    cert = dv.check_normality(empty)
    assert cert.d_inv == 4 and cert.d_max == 3 and not cert.normal


def test_normality_single_point():
    m = VelocityModel.create([(1, 0)], [])
    cert = dv.check_normality(m)
    assert cert.normal and cert.d_inv == 1 and cert.d_max == 1


def test_normality_rank_nullity(two_circle_model):
    cert = dv.check_normality(two_circle_model)
    rows = []
    for r in two_circle_model.rules:
        row = [0] * two_circle_model.p
        row[r.i - 1] += 1
        row[r.j - 1] += 1
        row[r.l - 1] -= 1
        row[r.m - 1] -= 1
        rows.append(row)
    assert cert.d_inv + frac_rank(rows) == two_circle_model.p


def test_two_circle_model_normal(two_circle_model):
    cert = dv.check_normality(two_circle_model)
    assert two_circle_model.p == 6
    assert cert.normal and cert.d_inv == 4 and cert.d_max == 4


# -- shifted generator ------------------------------------------------------------

def test_generate_shifted_classical():
    c0 = 2.0 * np.sqrt(2.0)
    s = 1.0 / np.sqrt(2.0)
    m = dv.generate_shifted_model([(1, 0), (-1, 0), (0, 1), (0, -1)],
                                  [(1, 2, 3, 4, 1.0)], c0, (s, s))
    assert np.allclose(m.v, [(3, 2), (1, 2), (2, 3), (2, 1)], atol=1e-12)
    assert dv.certify_model(m).certified


def test_generate_shifted_small_c0_rejected():
    with pytest.raises(dv.ModelError):
        dv.generate_shifted_model([(1, 0), (-1, 0), (0, 1), (0, -1)],
                                  [(1, 2, 3, 4, 1.0)], 0.5, (1.0, 0.0))


def test_generate_shifted_forbidden_line_rejected():
    # the line through -v_2 with direction v_1 - v_2 is the x-axis; the
    # shift 3 * (1, 0) lies on it
    with pytest.raises(dv.ModelError, match="pair"):
        dv.generate_shifted_model([(1, 0), (-1, 0), (0, 1), (0, -1)],
                                  [(1, 2, 3, 4, 1.0)], 3.0, (1.0, 0.0))


# -- circle generator ---------------------------------------------------------------

def test_circle_model_reproduces_shifted(broadwell):
    m = dv.generate_circle_model([[(3, 2), (1, 2), (2, 3), (2, 1)]], 1.0)
    assert m.p == 4
    assert np.allclose(np.sort(m.v, axis=0), np.sort(broadwell.v, axis=0))
    assert dv.validate_rules(m).valid


def test_circle_model_rejects_equal_pairs():
    with pytest.raises(dv.ModelError):
        dv.generate_circle_model([[(3, 2), (1, 2), (3, 2), (1, 2)]], 1.0)


def test_circle_model_merges_shared_points(two_circle_model):
    assert two_circle_model.p == 6
    assert len(two_circle_model.rules) == 2
    assert two_circle_model.positive_direction is not None


def test_circle_quadruples_conserve_exactly(two_circle_model):
    """Conservation holds in rational arithmetic for integer quadruples."""
    v = [(Fraction(int(x)), Fraction(int(y))) for x, y in two_circle_model.v]
    for r in two_circle_model.rules:
        vi, vj, vl, vm = v[r.i - 1], v[r.j - 1], v[r.l - 1], v[r.m - 1]
        assert (vi[0] + vj[0], vi[1] + vj[1]) == (vl[0] + vm[0], vl[1] + vm[1])
        energy_in = vi[0] ** 2 + vi[1] ** 2 + vj[0] ** 2 + vj[1] ** 2
        energy_out = vl[0] ** 2 + vl[1] ** 2 + vm[0] ** 2 + vm[1] ** 2
        assert energy_in == energy_out


def test_circle_model_rejects_off_circle_points():
    with pytest.raises(dv.ModelError, match="circle"):
        dv.generate_circle_model([[(3, 2), (1, 2), (2, 3.5), (2, 0.5)]], 1.0)


# -- file format -----------------------------------------------------------------

def test_model_json_roundtrip(tmp_path, broadwell):
    path = tmp_path / "model.json"
    dv.save_model(broadwell, path)
    loaded = dv.load_model(path)
    assert loaded == broadwell


def test_model_dict_uses_one_based_indices(broadwell):
    d = model_to_dict(broadwell)
    assert d["rules"][0] == {"i": 1, "j": 2, "l": 3, "m": 4, "gamma": 1.0}
    assert model_from_dict(d) == broadwell


def test_load_malformed_model(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(StructuralError):
        dv.load_model(path)
