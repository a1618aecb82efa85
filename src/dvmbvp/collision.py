"""Quadratic collision terms: gain, loss, frequency and truncated variants.

Each canonical rule class {(i,j),(l,m)} is expanded once into four directed
entries, one per participating slot:

    (a=i, partner=j, out=(l,m))    (a=j, partner=i, out=(m,l))
    (a=l, partner=m, out=(i,j))    (a=m, partner=l, out=(j,i))

With this slot pairing the total gain equals the total loss as a float-exact
identity for any state, also in the convolved variant where the second factor
of every product comes from a smoothed field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import VelocityModel


class CollisionDomainError(ValueError):
    pass


@dataclass
class CollisionEval:
    """Componentwise gain, collision frequency, loss and net term."""

    gain: np.ndarray
    frequency: np.ndarray
    loss: np.ndarray

    @property
    def net(self) -> np.ndarray:
        return self.gain - self.loss


def _check_state(values, p):
    f = np.asarray(values, dtype=float)
    if f.shape[0] != p:
        raise CollisionDomainError(f"state has {f.shape[0]} components, model has {p}")
    if np.any(f < 0):
        raise CollisionDomainError("negative density in collision input")
    return f


def truncated_factor(x, k, out=None):
    """x / (1 + x/k), computed as k / (k/x + 1).

    The second form is a chain of operations each monotone under rounding,
    so larger inputs can never yield smaller outputs; the monotone inner
    iteration relies on that.  x = 0 passes through the inf branch to 0.
    With `out` the result is written there, and the caller sets the
    floating-point error state for that division by zero.
    """
    if out is None:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return truncated_factor(x, k, np.empty_like(x))
    np.divide(k, x, out=out)
    out += 1.0
    return np.divide(k, out, out=out)


@lru_cache(maxsize=64)
def row_entries(model: VelocityModel) -> tuple:
    """Per component a, the (gamma, partner, out1, out2) of its directed entries
    in entry order: rule by rule, the four slots of the module docstring in turn."""
    rows = [[] for _ in range(model.p)]
    for r in model.rules:
        i, j, l, m = r.i - 1, r.j - 1, r.l - 1, r.m - 1
        for a, partner, out1, out2 in ((i, j, l, m), (j, i, m, l), (l, m, i, j), (m, l, j, i)):
            rows[a].append((float(r.gamma), partner, out1, out2))
    return tuple(map(tuple, rows))


def _partner_sum(model: VelocityModel, x) -> np.ndarray:
    """Per-component sum gamma * x_partner, each row in entry order."""
    out = np.empty_like(x)
    for a, entries in enumerate(row_entries(model)):
        row = out[a:a + 1]               # a view, also for a single state
        if not entries:
            row[...] = 0.0
        for n, (gamma, partner, _, _) in enumerate(entries):
            if n:
                row += gamma * x[partner]
            else:                        # 0 + x is x: the first term is assigned
                np.multiply(gamma, x[partner], out=row)
    return out


def gain_truncated(model: VelocityModel, tr_local, tr_smoothed,
                   component: int | None = None, out=None, rows=None) -> np.ndarray:
    """Per-component sum gamma * tr_local_out1 * tr_smoothed_out2.

    With pre-truncated factor arrays this is the truncated gain (solver fast
    path); with the plain state in both slots it is the untruncated gain.
    Each row adds its own entries in entry order, its first product
    assigned (0 + x is x); with `component` = i only row i is computed, so
    it equals row i of the full sum bitwise.  `out` receives the result, and
    `rows`, `row_entries(model)`, spares a caller that evaluates one row per
    call the cache lookup, which hashes the model.
    """
    rows = row_entries(model) if rows is None else rows
    if component is None:
        picked = range(model.p)
        gain = np.empty_like(tr_local) if out is None else out
    else:
        picked = (component,)
        gain = (np.empty_like(tr_local[component]) if out is None else out)[None]
    for j, a in enumerate(picked):
        row = gain[j:j + 1]              # a view, also for a single state
        if not rows[a]:
            row[...] = 0.0
        for n, (gamma, _, out1, out2) in enumerate(rows[a]):
            if n:
                row += gamma * tr_local[out1] * tr_smoothed[out2]
            else:
                np.multiply(gamma, tr_local[out1], out=row)
                row *= tr_smoothed[out2]
    return gain if component is None else gain[0]


def eval_untruncated(model: VelocityModel, values) -> CollisionEval:
    """Plain quadratic collision operator at one state or a stack of states.

    `values` has shape (p,) or (p, ...); gain_a = sum gamma f_out1 f_out2,
    frequency_a = sum gamma f_partner, loss_a = f_a * frequency_a.
    """
    f = _check_state(values, model.p)
    freq = _partner_sum(model, f)
    return CollisionEval(gain=gain_truncated(model, f, f), frequency=freq, loss=f * freq)


def eval_truncated(model: VelocityModel, values, k: float) -> CollisionEval:
    """k-truncated operator: every density enters through f/(1 + f/k)."""
    return eval_convolved_truncated(model, values, values, k)


def eval_convolved_truncated(model: VelocityModel, local, smoothed, k: float) -> CollisionEval:
    """Truncated operator with the second factor taken from a smoothed state.

    gain_a  = sum gamma * tr(local_out1) * tr(smoothed_out2)
    freq_a  = sum gamma * tr(smoothed_partner) / (1 + local_a / k)
    loss_a  = local_a * freq_a

    With smoothed == local this reduces exactly to eval_truncated.
    """
    if not k > 1:
        raise CollisionDomainError("truncation level k must exceed 1")
    f = _check_state(local, model.p)
    sm = _check_state(smoothed, model.p)
    if f.shape != sm.shape:
        raise CollisionDomainError("local and smoothed states must share a shape")
    tr_sm = truncated_factor(sm, k)
    gain = gain_truncated(model, truncated_factor(f, k), tr_sm)
    freq = _partner_sum(model, tr_sm) / (1.0 + f / k)
    return CollisionEval(gain=gain, frequency=freq, loss=f * freq)


def frequency_source(model: VelocityModel, smoothed, k: float) -> np.ndarray:
    """Per-component sum gamma * tr(smoothed_partner).

    Dividing by (1 + f_a / k) turns this into the truncated collision
    frequency; the solver precomputes it once per frozen smoothed state.
    """
    return _partner_sum(model, truncated_factor(_check_state(smoothed, model.p), k))
