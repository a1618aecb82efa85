"""Measured quantities and bound checks for computed density fields.

Everything the solver's analysis controls is made measurable here: mass,
energy and flux balances, entropy dissipation and its sign, the capped
entropy functionals, exceptional characteristic sets with their measures,
and translation-difference moduli used as L1 compactness proxies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# The eval_* names are unused here; the benchmark's traced run (bench/tracing.py) wraps them.
from .collision import eval_convolved_truncated, eval_truncated, eval_untruncated, truncated_factor
from .fields import BoundaryData, Field, Grid
from .geometry import ConvexDomain, boundary_param, boundary_quadrature, tangency_thetas
from .model import VelocityModel, find_positive_direction
from .solver import SolverConfig, SolverWorkspace, _collision, _ladder, _workspace_on


# ---------------------------------------------------------------------------
# collision grids for a chosen operator variant
# ---------------------------------------------------------------------------

def collision_grids(model: VelocityModel, field_: Field, k: float | None = None,
                    smoothed: Field | None = None):
    """(frequency, gain) cell arrays of the collision operator that
    `solver._collision` picks for `k` and `smoothed`."""
    ev = _collision(model, field_, k, smoothed)
    return ev.frequency, ev.gain


# ---------------------------------------------------------------------------
# characteristic balance
# ---------------------------------------------------------------------------

@dataclass
class BalanceReport:
    """Mass bookkeeping along the inflow characteristic families.

    Per component: the inflow flux, the outflow carried to the exit points,
    the mass and the net collision transfer, all measured with the same
    boundary-node quadrature and a piecewise-exact path integrator.  With
    that construction `scheme_residual` (inflow - outflow - alpha*mass +
    collision_net) vanishes to rounding for any frequency/gain pair; the
    physical three-term defect |gap - alpha*mass| carries the genuine
    quadrature error of the gain/loss cancellation across families.
    """

    alpha: float
    inflow: np.ndarray
    outflow: np.ndarray
    mass_path: np.ndarray
    collision_net: np.ndarray
    scheme_residual: np.ndarray
    mass_cells: np.ndarray

    @property
    def gap(self) -> float:
        return float(np.sum(self.inflow - self.outflow))

    @property
    def total_mass_path(self) -> float:
        return float(np.sum(self.mass_path))

    @property
    def defect(self) -> float:
        """|inflow - outflow - alpha * mass| with path-measured mass."""
        return abs(self.gap - self.alpha * self.total_mass_path)

    @property
    def scheme_residual_relative(self) -> np.ndarray:
        scale = np.maximum.reduce([self.inflow, self.outflow,
                                   np.abs(self.alpha) * self.mass_path,
                                   np.full_like(self.inflow, 1e-300)])
        return np.abs(self.scheme_residual) / scale


def characteristic_balance(domain: ConvexDomain, model: VelocityModel, field_: Field,
                           boundary: BoundaryData, alpha: float,
                           nu: np.ndarray, gain: np.ndarray) -> BalanceReport:
    """Integrate the stage dynamics along full inflow->outflow chords.

    One chord starts at each of 256 inflow-arc nodes and runs to its exit
    point on a node ladder (`_ladder`) with steps of at most h/2.  Every
    chord is advanced with piecewise-constant frequency and gain per step
    and the exact single-interval solution, and the interval mass is
    recovered from the same update; zero-length padding steps add exactly 0.
    The per-component damped balance then telescopes identically, making the
    report a quadrature-consistency check as well as a physical measurement.
    """
    grid = field_.grid
    inflow = np.zeros(model.p)
    outflow = np.zeros(model.p)
    mass_path = np.zeros(model.p)
    coll = np.zeros(model.p)
    resid = np.zeros(model.p)
    for i in range(model.p):
        v = model.v[i]
        arc = boundary_quadrature(domain, v, +1, 256)
        w = np.abs(arc.vdotn) * arc.dsigma
        b = np.asarray(boundary.eval(i, arc.t_params), dtype=float)
        steps, reads, W = _ladder(grid, arc.points, domain.exit_times(arc.points, v), v,
                                  0.5 * grid.h)
        nu_s = grid.sample(nu[i], reads, W)
        g_s = grid.sample(gain[i], reads, W)
        del reads, W            # the largest arrays here; freed before the coefficients
        # Step coefficients of every ray at once, shape (L - 1, rays), built in
        # place: over a step of length dt with frequency nu_bar and gain g_bar,
        # x = (alpha + nu_bar) dt, F -> a F + c with a = 1 - em1, em1 = 1 - e^-x,
        # c = g_bar dt r, and the step's mass is dt (g_bar dt g2 + F r), with
        # r = em1 / x and g2 = (x - em1) / x^2 (their series for small x).
        nu_bar = np.add(nu_s[:-1], nu_s[1:])
        nu_bar *= 0.5
        c = np.add(g_s[:-1], g_s[1:])
        c *= 0.5
        c *= steps                                  # g_bar dt
        x = np.add(nu_bar, alpha, out=nu_s[:-1])
        x *= steps
        a = np.negative(x)
        np.expm1(a, out=a)                          # -em1, accurate
        with np.errstate(divide="ignore", invalid="ignore"):
            g2 = np.add(x, a)
            g2 /= x
            g2 /= x
            r = np.divide(a, x)
        np.negative(r, out=r)
        tiny = x <= 1e-12
        r[tiny] = 1.0 - 0.5 * x[tiny]
        tiny = x <= 1e-6
        g2[tiny] = 0.5 - x[tiny] / 6.0
        a += 1.0
        g2 *= c                                     # g_bar dt g2
        g_total = c.sum(axis=0)
        c *= r
        # F before every step, in the rows of g_s, which no one reads again
        F = g_s
        F[0] = b
        for m in range(len(a)):
            np.multiply(F[m], a[m], out=F[m + 1])
            F[m + 1] += c[m]
        seg_mass = np.multiply(F[:-1], r, out=r)
        seg_mass += g2
        seg_mass *= steps
        I_mass = seg_mass.sum(axis=0)
        I_net = g_total - np.multiply(nu_bar, seg_mass, out=nu_bar).sum(axis=0)
        F = F[-1]
        inflow[i] = float(np.sum(w * b))
        outflow[i] = float(np.sum(w * F))
        mass_path[i] = float(np.sum(w * I_mass))
        coll[i] = float(np.sum(w * I_net))
        resid[i] = inflow[i] - outflow[i] - alpha * mass_path[i] + coll[i]
    return BalanceReport(
        alpha=alpha, inflow=inflow, outflow=outflow, mass_path=mass_path,
        collision_net=coll, scheme_residual=resid,
        mass_cells=field_.component_mass(),
    )


# ---------------------------------------------------------------------------
# mass / energy / flux with the slab identity
# ---------------------------------------------------------------------------

def _frame_angle(model: VelocityModel) -> float:
    """Rotation angle whose axes stay away from every velocity direction."""
    vth = np.mod(np.arctan2(model.v[:, 1], model.v[:, 0]), np.pi)
    best, best_score = 0.0, -1.0
    for ang in np.linspace(0.0, np.pi, 180, endpoint=False):
        score = np.inf
        for axis in (ang % np.pi, (ang + 0.5 * np.pi) % np.pi):
            d = np.abs(vth - axis)
            d = np.minimum(d, np.pi - d)
            score = min(score, float(np.min(d)))
        if score > best_score:
            best, best_score = float(ang), score
    return best


@dataclass
class SlabRow:
    lhs: float           # sum xi_i^2 * chord integral of F_i
    boundary_term: float
    alpha_term: float

    @property
    def defect(self) -> float:
        return abs(self.lhs - (self.boundary_term - self.alpha_term))


def slab_energy_rows(domain: ConvexDomain, model: VelocityModel, field_: Field,
                     alpha: float) -> list[SlabRow]:
    """Directional second-moment identity on half-domain slabs.

    In a rotated frame (chosen so no axis is parallel to a velocity), the
    weighted chord integral of the field must match the boundary flux moment
    minus the damping volume term; collision transfer cancels through
    momentum conservation.  The identity is checked at 9 evenly spaced cuts,
    with 256 trapezoid nodes per chord and 2048 boundary midpoints.
    """
    ang = _frame_angle(model)
    ex = np.array([math.cos(ang), math.sin(ang)])
    ey = np.array([-math.sin(ang), math.cos(ang)])
    xi = model.v @ ex
    grid = field_.grid
    center = np.asarray(domain.center)
    c_proj = float(center @ ex)
    reach_plus = float(domain.exit_times(center[None, :], ex)[0])
    reach_minus = float(domain.exit_times(center[None, :], -ex)[0])
    positions = c_proj + np.linspace(-reach_minus, reach_plus, 9 + 2)[1:-1]

    _, bpts, bnrm, dsig = boundary_param(domain).midpoint_rule(0.0, 2.0 * np.pi, 2048)
    bproj = bpts @ ex
    at_bpts = grid.interp_weights(bpts)
    F_bnd = np.stack([grid.sample(field_.values[i], *at_bpts) for i in range(model.p)])
    vdotn = model.v @ bnrm.T        # (p, 2048)

    cells_proj = np.einsum("yxc,c->yx", grid.centers, ex)
    area = grid.cell_area

    rows = []
    for a in positions:
        base = center + (a - c_proj) * ex
        t_plus = float(domain.exit_times(base[None, :], ey)[0])
        t_minus = float(domain.exit_times(base[None, :], -ey)[0])
        ts = np.linspace(-t_minus, t_plus, 256)
        at_chord = grid.interp_weights(base[None, :] + ts[:, None] * ey)
        lhs = 0.0
        for i in range(model.p):
            vals = grid.sample(field_.values[i], *at_chord)
            lhs += xi[i] ** 2 * float(np.trapezoid(vals, ts))
        bmask = bproj <= a
        boundary_term = float(np.sum(
            xi[:, None] * vdotn[:, bmask] * F_bnd[:, bmask] * dsig[None, bmask]))
        inmask = grid.mask & (cells_proj <= a)
        alpha_term = alpha * float(np.sum(
            xi[:, None, None] * field_.values * inmask[None, :, :]) * area)
        rows.append(SlabRow(lhs, boundary_term, alpha_term))
    return rows


@dataclass
class MassEnergyReport:
    balance: BalanceReport
    energy: float
    total_mass: float
    slab_rows: list


def mass_energy_flux(domain: ConvexDomain, model: VelocityModel, field_: Field,
                     boundary: BoundaryData, alpha: float,
                     k: float | None = None) -> MassEnergyReport:
    """Mass, energy, per-component fluxes, damped balance, slab identity."""
    nu, gain = collision_grids(model, field_, k=k)
    bal = characteristic_balance(domain, model, field_, boundary, alpha, nu, gain)
    energy = float(np.sum(model.speeds_sq * bal.mass_cells))
    rows = slab_energy_rows(domain, model, field_, alpha)
    return MassEnergyReport(balance=bal, energy=energy,
                            total_mass=float(np.sum(bal.mass_cells)), slab_rows=rows)


# ---------------------------------------------------------------------------
# entropy dissipation and capped entropy
# ---------------------------------------------------------------------------

@dataclass
class DissipationReport:
    value: float
    termwise_min: float
    singular_cells: int


# |log(X / Y)| is capped here; a zero density gives an infinite log.
_LOG_CAP = 500.0


def entropy_dissipation(model: VelocityModel, field_: Field, k: float) -> DissipationReport:
    """Nonnegative dissipation of the k-truncated dynamics.

    Per rule class and cell the integrand is (X - Y) log(X / Y) with X, Y the
    truncated in/out pair products; zero densities follow x log 0 -> -inf
    capped at +-500 with the cell counted as singular.
    """
    g = field_.grid
    mask = g.mask
    tr = truncated_factor(field_.values, k)
    area = g.cell_area
    total = 0.0
    term_min = np.inf
    singular = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in model.rules:
            X = tr[r.i - 1][mask] * tr[r.j - 1][mask]
            Y = tr[r.l - 1][mask] * tr[r.m - 1][mask]
            logdiff = np.log(X) - np.log(Y)
            capped = np.clip(logdiff, -_LOG_CAP, _LOG_CAP)
            equal = X == Y
            capped = np.where(equal, 0.0, capped)
            hit = (~equal) & (~np.isfinite(logdiff) | (np.abs(logdiff) >= _LOG_CAP))
            singular += int(np.sum(hit))
            integrand = (X - Y) * capped
            term_min = min(term_min, float(np.min(integrand)))
            total += r.gamma * float(np.sum(integrand)) * area
    if not np.isfinite(term_min):
        term_min = 0.0
    return DissipationReport(total, term_min, singular)


@dataclass
class EntropyBoundReport:
    per_component: np.ndarray | None
    weighted_sum: float | None
    skipped: bool = False
    note: str = ""


def entropy_bound_check(domain: ConvexDomain, model: VelocityModel, field_: Field,
                        k: float) -> EntropyBoundReport:
    """Capped entropy functional per component plus its n0-weighted sum.

    Below the truncation level the plain F log F integral is used; above it
    the mass is weighted by log(k/2).  n0 is the model's positive direction
    (v . n0 > 0 for every velocity); without one the check is skipped with
    a notice.
    """
    n0 = (np.asarray(model.positive_direction)
          if model.positive_direction is not None
          else find_positive_direction(model))
    if n0 is None:
        return EntropyBoundReport(None, None, skipped=True,
                                  note="model has no positive direction; "
                                       "the capped entropy bound does not apply")
    g = field_.grid
    area = g.cell_area
    vals = field_.values[:, g.mask]
    out = np.zeros(model.p)
    for i in range(model.p):
        f = vals[i]
        below = f < k
        fb = f[below]
        with np.errstate(divide="ignore", invalid="ignore"):
            flnf = np.where(fb > 0, fb * np.log(np.where(fb > 0, fb, 1.0)), 0.0)
        out[i] = float(np.sum(flnf)) * area + math.log(k / 2.0) * float(np.sum(f[~below])) * area
    weighted = float(np.sum((model.v @ np.asarray(n0)) * out))
    return EntropyBoundReport(out, weighted)


# ---------------------------------------------------------------------------
# exceptional sets
# ---------------------------------------------------------------------------

@dataclass
class ExceptionalSets:
    measure: np.ndarray                 # per component, union
    measure_exit: np.ndarray
    measure_nu: np.ndarray
    measure_strips: np.ndarray          # transverse-distance strips
    measure_strips_boundary: np.ndarray  # along-boundary distance variant
    chi: np.ndarray                     # (p, ny, nx) complement masks
    bound_violations: int


def exceptional_sets(domain: ConvexDomain, model: VelocityModel, field_: Field,
                     k: float, epsilon: float,
                     workspace: SolverWorkspace | None = None) -> ExceptionalSets:
    """Mark characteristics with large exit value or large integrated
    frequency, plus the two tangency strips, and measure the union.

    Each characteristic line of the workspace carries one full chord: the
    trapezoid integral of the truncated frequency from entry to exit and the
    field's value at the exit point, shared by every cell on the line.  A
    line is marked when either exceeds 1/eps.  On the complement the
    pointwise bound F <= (1/eps) exp(1/eps), which follows from those two
    marks, is verified directly.  Both strip-distance notions (transverse
    Euclidean and along-boundary arclength) are measured; the mask uses the
    transverse one.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    threshold = 1.0 / epsilon
    grid = field_.grid
    ws = _workspace_on(domain, model, grid, SolverConfig(), workspace)
    nu, _ = collision_grids(model, field_, k)
    bp = boundary_param(domain)
    area = grid.cell_area
    p = model.p
    chi = np.zeros((p, grid.ny, grid.nx), dtype=bool)
    meas = np.zeros(p)
    meas_exit = np.zeros(p)
    meas_nu = np.zeros(p)
    meas_strip = np.zeros(p)
    meas_strip_b = np.zeros(p)
    violations = 0
    cells = grid.centers[grid.mask]
    bound = threshold * math.exp(threshold)
    for i in range(p):
        v = model.v[i]
        speed = float(np.hypot(v[0], v[1]))
        I_nu, F_exit = ws.chord(i, nu[i], field_.values[i])
        I_nu, F_exit = I_nu[grid.mask], F_exit[grid.mask]

        mark_exit = F_exit > threshold
        mark_nu = I_nu > threshold

        perp = np.array([-v[1], v[0]]) / speed
        th1, th2 = tangency_thetas(domain, v)
        tang_pts = bp.point_of_theta(np.array([th1, th2]))
        w_t = tang_pts @ perp
        w_lo, w_hi = float(np.min(w_t)), float(np.max(w_t))
        w_cells = cells @ perp
        strip = (w_cells < w_lo + epsilon) | (w_cells > w_hi - epsilon)

        # along-boundary variant: strip bounded by the characteristics through
        # the boundary points at arclength distance epsilon from tangency
        widths = []
        for th in (th1, th2):
            t0 = float(bp.t_of_theta(th))
            off_pts = bp.point_of_theta(bp.theta_of_t(np.array([t0 - epsilon, t0 + epsilon])))
            w_off = off_pts @ perp
            w_ref = float(bp.point_of_theta(th) @ perp)
            widths.append(float(np.max(np.abs(w_off - w_ref))))
        strip_b = (w_cells < w_lo + widths[0 if w_t[0] < w_t[1] else 1]) | \
                  (w_cells > w_hi - widths[1 if w_t[0] < w_t[1] else 0])

        union = mark_exit | mark_nu | strip
        meas[i] = float(np.sum(union)) * area
        meas_exit[i] = float(np.sum(mark_exit)) * area
        meas_nu[i] = float(np.sum(mark_nu)) * area
        meas_strip[i] = float(np.sum(strip)) * area
        meas_strip_b[i] = float(np.sum(strip_b)) * area
        chi[i][grid.mask] = ~union
        violations += int(np.sum(field_.values[i][chi[i]] > bound * (1.0 + 1e-9)))
    return ExceptionalSets(meas, meas_exit, meas_nu, meas_strip, meas_strip_b, chi, violations)


# ---------------------------------------------------------------------------
# translation moduli
# ---------------------------------------------------------------------------

def translation_modulus(values, grid: Grid, direction, h_list) -> np.ndarray:
    """Relative L1 translation differences of grid quantities, shape
    (components, shifts); a single (ny, nx) array is one component.

    For each shift h the integral of |g(z + h d) - g(z)| runs over cells
    whose shifted image stays strictly interior, normalised by the L1 norm
    of g; the decay of the table in h is the empirical equicontinuity
    modulus of g.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 2:
        vals = vals[None, :, :]
    d = np.asarray(direction, dtype=float)
    d = d / float(np.hypot(d[0], d[1]))
    shifts = np.asarray(list(h_list), dtype=float)
    area = grid.cell_area
    cells = grid.centers[grid.mask]
    out = np.zeros((vals.shape[0], len(shifts)))
    for si, h in enumerate(shifts):
        pts = cells + h * d
        valid = grid.domain.contains(pts)
        at_pts = grid.interp_weights(pts[valid])
        for c in range(vals.shape[0]):
            base = vals[c][grid.mask]
            shifted = grid.sample(vals[c], *at_pts)
            num = float(np.sum(np.abs(shifted - base[valid]))) * area
            den = float(np.sum(np.abs(base))) * area
            out[c, si] = num / max(den, 1e-300)
    return out


def integrated_collision_frequency(domain: ConvexDomain, model: VelocityModel,
                                   field_: Field, k: float,
                                   workspace: SolverWorkspace | None = None) -> np.ndarray:
    """Cell grids of the entry->cell integral of the truncated frequency."""
    ws = _workspace_on(domain, model, field_.grid, SolverConfig(), workspace)
    nu, _ = collision_grids(model, field_, k)
    out = np.zeros_like(field_.values)
    for i in range(model.p):
        out[i] = ws.scatter(i, ws.path_integral(i, nu[i]))
    return out


# ---------------------------------------------------------------------------
# per-stage bundle used by the k sweep
# ---------------------------------------------------------------------------

def field_report(model: VelocityModel, bal: BalanceReport, diss: DissipationReport,
                 ent: EntropyBoundReport) -> dict:
    """The per-field entries, as JSON values, of a level report and of the
    `diagnose` report (entropy entries None when the check was skipped)."""
    return {
        "mass": float(np.sum(bal.mass_cells)),
        "mass_per_component": bal.mass_cells.tolist(),
        "energy": float(np.sum(model.speeds_sq * bal.mass_cells)),
        "inflow": bal.inflow.tolist(),
        "outflow": bal.outflow.tolist(),
        "gap": bal.gap,
        "collision_net_total": float(np.sum(bal.collision_net)),
        "scheme_residual_max_rel": float(np.max(bal.scheme_residual_relative)),
        "dissipation": diss.value,
        "dissipation_termwise_min": diss.termwise_min,
        "dissipation_singular_cells": diss.singular_cells,
        "entropy_functional": None if ent.skipped else ent.per_component.tolist(),
        "entropy_weighted": None if ent.skipped else ent.weighted_sum,
    }


def stage_diagnostics(domain: ConvexDomain, model: VelocityModel, field_: Field,
                      boundary: BoundaryData, k: float,
                      workspace: SolverWorkspace | None = None) -> dict:
    """Standard measurement bundle for one truncation level.

    `field_` is the level estimate (damping already continued to ~0), so the
    balance uses the unconvolved truncated operator at alpha = 0; the
    per-stage damped balance is checked separately on stage solutions.  The
    translation moduli use one shift of diameter / 32.
    """
    nu, gain = collision_grids(model, field_, k=k)
    bal = characteristic_balance(domain, model, field_, boundary, 0.0, nu, gain)
    diss = entropy_dissipation(model, field_, k)
    ent = entropy_bound_check(domain, model, field_, k)
    shift = domain.diameter / 32.0
    intnu = integrated_collision_frequency(domain, model, field_, k, workspace=workspace)
    moduli = [float(np.max(translation_modulus(intnu, field_.grid, model.v[i], [shift])))
              for i in range(model.p)]
    return {
        "k": k,
        **field_report(model, bal, diss, ent),
        "moduli_shift": shift,
        "moduli_integrated_frequency": moduli,
    }


def sweep_soft_checks(stage_infos: list[dict]) -> list[str]:
    """Cross-level non-explosion heuristics; violations become warnings."""
    notes = []
    ent = [s["entropy_weighted"] for s in stage_infos if s.get("entropy_weighted") is not None]
    if len(ent) >= 2:
        med = float(np.median(np.abs(ent)))
        if med > 0 and abs(ent[-1]) > 2.0 * med:
            notes.append(
                f"entropy functional grew to {ent[-1]:.3e}, above twice the median {med:.3e}")
    mods = [max(s["moduli_integrated_frequency"]) for s in stage_infos
            if s.get("moduli_integrated_frequency")]
    if len(mods) >= 2:
        lo, hi = min(mods), max(mods)
        if lo > 0 and hi / lo > 2.0:
            notes.append(
                f"integrated-frequency moduli vary by {hi / lo:.2f}x across levels")
    for n in notes:
        warnings.warn(n, stacklevel=2)
    return notes
