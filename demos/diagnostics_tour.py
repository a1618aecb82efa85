#!/usr/bin/env python3
"""Tour of the diagnostics: dissipation, entropy caps, exceptional sets,
translation moduli.

Runs every measurement on constructed fields whose answers are known in
closed form, then on a computed solution.
"""

import numpy as np

import dvmbvp as dv
from dvmbvp.diagnostics import (entropy_bound_check, entropy_dissipation,
                                exceptional_sets, integrated_collision_frequency,
                                mass_energy_flux, translation_modulus)

model = dv.shifted_broadwell()
domain = dv.ConvexDomain.disk()
grid = dv.Grid(domain, 32)
k = 16.0

print("=" * 70)
print("entropy dissipation")
print("=" * 70)
const = dv.Field.constant(grid, [2.0] * 4)
rep = entropy_dissipation(model, const, k)
print(f"equal constants : D = {rep.value} (exact zero), "
      f"termwise min {rep.termwise_min}")
M = np.exp(model.v @ np.array([0.1, -0.2]) + 0.05 * model.speeds_sq)
rep = entropy_dissipation(model, dv.Field.constant(grid, M), k)
print(f"equilibrium     : D = {rep.value:.3e} (truncation residue, >= 0)")
bumped = dv.Field.constant(grid, M * np.array([2.0, 1.0, 1.0, 1.0]))
rep = entropy_dissipation(model, bumped, k)
print(f"one comp doubled: D = {rep.value:.3e} (strictly positive)\n")

print("=" * 70)
print("capped entropy functional (needs the positive direction n0)")
print("=" * 70)
c = 2.0
repE = entropy_bound_check(domain, model, dv.Field.constant(grid, [c] * 4), k)
area = grid.n_interior * grid.cell_area
print(f"constant {c}: per-component value {repE.per_component[0]:.6f} "
      f"(closed form |domain| c ln c = {area * c * np.log(c):.6f})")
print(f"n0-weighted sum: {repE.weighted_sum:.6f}\n")

print("=" * 70)
print("exceptional characteristic sets")
print("=" * 70)
F = dv.Field.constant(grid, M)
for eps in (0.2, 0.1, 0.05):
    exc = exceptional_sets(domain, model, F, k, epsilon=eps)
    print(f"eps = {eps:4}: union measures {np.round(exc.measure, 4).tolist()} "
          f"(strips {np.round(exc.measure_strips, 4).tolist()}, "
          f"bound violations {exc.bound_violations})")
print("the two strip-distance notions (transverse / along-boundary):")
exc = exceptional_sets(domain, model, F, k, epsilon=0.1)
print(f"  transverse     : {np.round(exc.measure_strips, 4).tolist()}")
print(f"  along boundary : {np.round(exc.measure_strips_boundary, 4).tolist()}\n")

print("=" * 70)
print("translation moduli (L1 compactness proxy)")
print("=" * 70)
shifts = [domain.diameter / d for d in (32, 16, 8)]
lin = dv.Field.from_function(grid, [lambda x, y: 4.0 + x])
moduli = translation_modulus(lin.values[0], grid, (1.0, 0.0), shifts)
print(f"linear field, shifts {np.round(shifts, 4).tolist()}: "
      f"moduli {np.round(moduli[0], 5).tolist()} (linear in the shift)")
intnu = integrated_collision_frequency(domain, model, F, k)
moduli = translation_modulus(intnu, grid, model.v[0], shifts)
print(f"integrated collision frequency, direction v1: "
      f"{np.round(moduli.max(axis=0), 5).tolist()}\n")

print("=" * 70)
print("mass / energy / flux report on a computed solution")
print("=" * 70)
bd = dv.BoundaryData.maxwellian(model, 0.0, (0.1, -0.2), 0.05)
cfg = dv.SolverConfig(alpha=0.125, k=k, grid_n=32)
sol, trace = dv.outer_fixed_point(domain, model, bd, cfg)
rep = mass_energy_flux(domain, model, sol, bd, alpha=0.125, k=k)
print(f"total mass {rep.total_mass:.6f}, energy {rep.energy:.6f}")
print(f"inflow - outflow = {rep.balance.gap:.6f}")
print(f"slab identity defects: "
      f"{[f'{r.defect:.2e}' for r in rep.slab_rows[:5]]} ...")
