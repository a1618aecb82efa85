#!/usr/bin/env python3
"""Damping continuation and truncation sweep against a known solution.

With constant equilibrium inflow exp(a + b.v + c|v|^2) the exact stationary
solution is that same constant state, which makes the full pipeline
measurable end to end: the damping chain is extrapolated to alpha -> 0 per
truncation level, and the level estimates converge to the constant as the
truncation is lifted.  Every level runs only the last two damping stages
(the Richardson pair), each later level starting from the previous level's
last field.  The grids are nested: at 32^2 every level but
the last solves on 16^2, and only the last level's pair runs on 32^2, from
the prolonged last 16^2 field.  Every level estimate is prolonged to 32^2.
"""

import numpy as np

import dvmbvp as dv

model = dv.shifted_broadwell()
domain = dv.ConvexDomain.disk()
a, b, c = 0.0, np.array([0.1, -0.2]), 0.05
boundary = dv.BoundaryData.maxwellian(model, a, b, c)
M = np.exp(a + model.v @ b + c * model.speeds_sq)
print(f"equilibrium state per velocity: {np.round(M, 6).tolist()}")
ev = dv.eval_untruncated(model, M)
print(f"collision term on it (annihilation check): max |net| = "
      f"{np.max(np.abs(ev.net)):.2e}\n")

config = dv.SolverConfig(grid_n=32,
                         k_schedule=(4.0, 16.0, 64.0, 256.0),
                         alpha_schedule=(0.5, 0.25, 0.125, 0.0625, 0.03125,
                                         0.015625))
print("running the truncation sweep at 32^2, every level but the last on 16^2 "
      "(about half a second)...\n")
sweep = dv.k_sweep(domain, model, boundary, config)

grid = sweep.field.grid
exact = dv.Field.constant(grid, M)
print(f"{'k':>6} {'solved on':>9} {'rel L1 error':>14} {'dissipation':>13} {'mass':>10} "
      f"{'alphas run':>10}  Cauchy distances between the stages run")
for st in sweep.stages:
    err = st.continuation.estimate.l1_distance(exact) / exact.mass()
    dists = ", ".join(f"{d:.2e}" for d in st.continuation.cauchy_distances)
    solved_on = f"{st.continuation.last.grid.n}^2"
    print(f"{st.k:6.0f} {solved_on:>9} {err:14.3e} {st.diagnostics['dissipation']:13.3e} "
          f"{st.diagnostics['mass']:10.5f} {len(st.continuation.alphas):10d}  [{dists}]")

print(f"\nL1 distances between consecutive level estimates: "
      f"{[f'{d:.3e}' for d in sweep.k_distances]}")

ws = dv.SolverWorkspace(domain, model, grid, config)
mild = dv.residual_mild(domain, model, boundary, sweep.field, k=None, workspace=ws)
print(f"untruncated mild-form residual of the final estimate: "
      f"{mild.total_relative:.3e}")
renorm = dv.residual_renormalized(domain, model, boundary, sweep.field, workspace=ws)
print("weak-form (renormalized) defects per test function:")
for d in renorm:
    print(f"  phi = {d.name:4s}: {d.total: .3e}")

out = "sweep_final_field.csv"
sweep.field.save_csv(out)
print(f"\nfinal field written to {out} (columns x, y, component, value)")
