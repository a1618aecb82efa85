"""Collision operator tests: hand expansions, equilibria, truncation algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dvmbvp as dv
from dvmbvp.collision import (CollisionDomainError, _partner_sum, eval_convolved_truncated,
                              eval_truncated, eval_untruncated,
                              gain_truncated, row_entries, truncated_factor)

from conftest import directed_entries


def test_hand_expansion_single_rule(broadwell):
    ev = eval_untruncated(broadwell, np.array([1.0, 2.0, 0.0, 0.0]))
    assert ev.gain[0] == 0.0
    assert ev.frequency[0] == 2.0
    assert ev.net[0] == -2.0
    assert ev.net.tolist() == [-2.0, -2.0, 2.0, 2.0]


def test_equal_components_annihilate(broadwell):
    ev = eval_untruncated(broadwell, np.full(4, 3.7))
    assert np.all(ev.net == 0.0)


def test_maxwellian_annihilates(broadwell, maxwellian_values):
    ev = eval_untruncated(broadwell, maxwellian_values)
    assert np.max(np.abs(ev.net)) < 1e-12 * np.max(ev.gain)


def test_negative_state_rejected(broadwell):
    with pytest.raises(CollisionDomainError):
        eval_untruncated(broadwell, np.array([1.0, -0.1, 0.0, 0.0]))


# -- truncated -----------------------------------------------------------------

def test_truncated_equal_components(broadwell):
    ev = eval_truncated(broadwell, np.full(4, 2.0), 8.0)
    # gain and loss follow two algebraic routes to the same value; equality
    # holds to the last bit or two
    assert np.max(np.abs(ev.net)) <= 4 * np.finfo(float).eps * np.max(ev.gain)


def test_truncated_at_level_k(broadwell):
    k = 10.0
    ev = eval_truncated(broadwell, np.full(4, k), k)
    # every truncated factor equals k/2; one gain entry per component
    assert np.allclose(ev.gain, (k / 2) ** 2, rtol=1e-14)


def test_truncated_factor_bounded_and_limits():
    x = np.array([0.0, 1.0, 5.0, 1e12])
    k = 7.0
    tr = truncated_factor(x, k)
    assert tr[0] == 0.0
    assert np.all(tr <= k)
    assert tr[-1] == pytest.approx(k, rel=1e-9)
    assert np.allclose(tr, x / (1.0 + x / k), rtol=1e-14)


def test_truncation_error_bound(broadwell):
    """|gain_k - gain| <= sum gamma * f_out1 f_out2 (f_out1 + f_out2)/k."""
    rng = np.random.default_rng(12)
    k = 50.0
    for _ in range(200):
        f = rng.uniform(0, 5, 4)
        full = eval_untruncated(broadwell, f)
        trunc = eval_truncated(broadwell, f, k)
        # per component of the single-rule model the bound is elementary
        outs = {0: (2, 3), 1: (3, 2), 2: (0, 1), 3: (1, 0)}
        for a, (o1, o2) in outs.items():
            bound = f[o1] * f[o2] * (f[o1] + f[o2]) / k
            assert full.gain[a] - trunc.gain[a] <= bound + 1e-12
            assert trunc.gain[a] <= full.gain[a] + 1e-15


def test_k_to_infinity_recovers_untruncated(broadwell):
    f = np.array([1.0, 2.0, 0.5, 3.0])
    full = eval_untruncated(broadwell, f)
    for k in (1e2, 1e4, 1e6):
        tr = eval_truncated(broadwell, f, k)
        assert np.max(np.abs(tr.gain - full.gain)) < 20.0 / k


# -- convolved -----------------------------------------------------------------

def test_convolved_reduces_to_truncated(broadwell):
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 4, size=(4, 13))
    a = eval_truncated(broadwell, f, 6.0)
    b = eval_convolved_truncated(broadwell, f, f, 6.0)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.frequency, b.frequency)


def test_convolved_zero_smoothed(broadwell):
    f = np.array([1.0, 2.0, 3.0, 4.0])
    ev = eval_convolved_truncated(broadwell, f, np.zeros(4), 5.0)
    assert np.all(ev.gain == 0.0)
    assert np.all(ev.frequency == 0.0)


def test_convolved_hand_case(broadwell):
    ev = eval_convolved_truncated(broadwell, np.ones(4), np.full(4, 2.0), 10.0)
    want = (1.0 / 1.1) * (2.0 / 1.2)
    assert np.allclose(ev.gain, want, rtol=1e-14)


# -- conservation identity -------------------------------------------------------

def test_mass_symmetry_truncated(broadwell):
    rng = np.random.default_rng(0)
    f = rng.uniform(0, 10, size=(4, 10_000))
    f[:, :100] = 0.0   # include zeros
    ev = eval_truncated(broadwell, f, 8.0)
    num = np.abs(ev.gain.sum(axis=0) - ev.loss.sum(axis=0))
    den = np.maximum(ev.gain.sum(axis=0), 1e-300)
    assert np.max(num / np.maximum(den, 1e-30)) < 1e-12


def test_mass_symmetry_convolved_mixed_states(two_circle_model):
    rng = np.random.default_rng(1)
    f = rng.uniform(0, 6, size=(6, 5000))
    g = rng.uniform(0, 6, size=(6, 5000))
    ev = eval_convolved_truncated(two_circle_model, f, g, 12.0)
    num = np.abs(ev.gain.sum(axis=0) - ev.loss.sum(axis=0))
    den = np.maximum(ev.gain.sum(axis=0), 1e-30)
    assert np.max(num / den) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
       st.floats(1.5, 500.0))
def test_mass_symmetry_hypothesis(broadwell_state, k):
    m = dv.shifted_broadwell(gamma=0.7)
    f = np.asarray(broadwell_state)
    ev = eval_truncated(m, f, k)
    lhs, rhs = ev.gain.sum(), ev.loss.sum()
    assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


@pytest.mark.parametrize("shape", [(), (7, 9)])
def test_gain_row_equals_full_sum_bitwise(broadwell, two_circle_model, shape):
    """The Gauss-Seidel pass reads one gain row at a time, built from that
    row's entries alone; it equals the row of the full sum, which equals the
    entry-ordered np.add.at reference, bitwise.  The two-circle model has
    several rules per component."""
    rng = np.random.default_rng(5)
    for model in (broadwell, dv.classical_broadwell(), two_circle_model,
                  dv.shifted_broadwell(gamma=0.7)):
        x = truncated_factor(rng.uniform(0.0, 6.0, (model.p,) + shape), 12.0)
        y = truncated_factor(rng.uniform(0.0, 6.0, (model.p,) + shape), 12.0)
        full = gain_truncated(model, x, y)
        a, _, out1, out2, gamma = directed_entries(model)
        ref = np.zeros_like(x)
        np.add.at(ref, a, gamma.reshape((-1,) + (1,) * len(shape)) * x[out1] * y[out2])
        assert np.array_equal(full, ref)
        for i in range(model.p):
            row = gain_truncated(model, x, y, component=i)
            assert row.shape == shape and np.array_equal(row, full[i])


@pytest.mark.parametrize("shape", [(), (7, 9)])
def test_partner_sum_equals_add_at_bitwise(broadwell, two_circle_model, three_circle_model,
                                           shape):
    """Per-row sums in entry order are the entry-ordered np.add.at reference,
    bitwise; the circle models have several rules per component."""
    rng = np.random.default_rng(6)
    for model in (broadwell, dv.classical_broadwell(), two_circle_model, three_circle_model,
                  dv.shifted_broadwell(gamma=0.7)):
        x = rng.uniform(0.0, 6.0, (model.p,) + shape)
        a, partner, _, _, gamma = directed_entries(model)
        ref = np.zeros_like(x)
        np.add.at(ref, a, gamma.reshape((-1,) + (1,) * len(shape)) * x[partner])
        got = _partner_sum(model, x)
        assert got.shape == ref.shape and np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_row_entries_group_the_directed_entries(broadwell, two_circle_model,
                                               three_circle_model):
    """Each component's row holds its directed entries in entry order; the
    circle models have several rules per component."""
    for model in (broadwell, two_circle_model, three_circle_model):
        a, partner, out1, out2, gamma = directed_entries(model)
        want = tuple(tuple((gamma[e], partner[e], out1[e], out2[e])
                           for e in np.flatnonzero(a == c)) for c in range(model.p))
        assert row_entries(model) == want


def test_in_place_factor_and_gain_rows_are_bitwise_the_allocating_ones(three_circle_model):
    """The forms a transport pass uses, written into buffers with the model's
    row entries looked up once, give the bits of k / (k / x + 1) and of the
    full gain sum; zeros pass through the division by zero to 0."""
    rng = np.random.default_rng(7)
    model = three_circle_model
    x = rng.uniform(0.0, 6.0, (model.p, 7, 9))
    x[:, 0] = 0.0
    y = truncated_factor(rng.uniform(0.0, 6.0, x.shape), 12.0)
    got = np.full_like(x, np.nan)
    with np.errstate(divide="ignore", over="ignore"):
        want = 12.0 / (12.0 / x + 1.0)
        truncated_factor(x, 12.0, out=got)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(truncated_factor(x, 12.0).view(np.int64), want.view(np.int64))
    full = gain_truncated(model, want, y)
    rows, buf = row_entries(model), np.full(x.shape[1:], np.nan)
    for i in range(model.p):
        row = gain_truncated(model, want, y, component=i, out=buf, rows=rows)
        assert np.shares_memory(row, buf)
        assert np.array_equal(row.view(np.int64), full[i].view(np.int64))


# -- monotonicity ------------------------------------------------------------------

def test_gain_monotone_in_outputs(broadwell):
    f = np.array([1.0, 2.0, 1.5, 0.7])
    k = 9.0
    base = eval_truncated(broadwell, f, k)
    for comp in (2, 3):   # the output slots of component 0
        g = f.copy()
        g[comp] += 0.5
        up = eval_truncated(broadwell, g, k)
        assert up.gain[0] >= base.gain[0]


def test_frequency_monotone_directions(broadwell):
    f = np.array([1.0, 2.0, 1.5, 0.7])
    k = 9.0
    base = eval_truncated(broadwell, f, k)
    g = f.copy()
    g[1] += 0.5   # partner of component 0
    assert eval_truncated(broadwell, g, k).frequency[0] >= base.frequency[0]
    h = f.copy()
    h[0] += 0.5   # own density lowers the truncated frequency
    assert eval_truncated(broadwell, h, k).frequency[0] <= base.frequency[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0), st.floats(1e-6, 50.0))
def test_truncated_factor_weakly_monotone(x, y, dx):
    k = 4.0
    lo, hi = min(x, y), max(x, y) + dx
    assert truncated_factor(np.array([lo]), k)[0] <= truncated_factor(np.array([hi]), k)[0]
