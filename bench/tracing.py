"""Spans around the calls into each dvmbvp module, recorded from outside.

`Tracer.patched()` replaces the public functions listed in `PATCHES` with
wrappers that record a span per call, and restores the originals on exit.
A function is patched in every module that calls it: `solver` imports the
collision and fields helpers by name, so `dvmbvp.solver.gain_truncated` is
the name its loop looks up, not `dvmbvp.collision.gain_truncated`.

Spans are kept in memory.  A span's self time is its duration minus the
time its child spans cover, so the self times of all spans, roots included,
add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

from workloads import diagnostics, fields, geometry, solver  # also puts ./src on the path

# (owner, attribute, span name); methods are patched on their class.
PATCHES = [
    (solver.SolverWorkspace, "apply_exponential", "solver.apply_exponential"),
    (solver.SolverWorkspace, "path_integral", "solver.path_integral"),
    (solver.SolverWorkspace, "path_integral_attenuated", "solver.path_integral"),
    (solver, "inner_monotone_solve", "solver.inner_monotone_solve"),
    (solver, "outer_fixed_point", "solver.outer_fixed_point"),
    (solver, "residual_mild", "solver.residual_mild"),
    (solver, "residual_renormalized", "solver.residual_renormalized"),
    (solver, "gain_truncated", "collision.gain_truncated"),
    (solver, "frequency_source", "collision.frequency_source"),
    (solver, "truncated_factor", "collision.truncated_factor"),
    (diagnostics, "truncated_factor", "collision.truncated_factor"),
    (solver, "eval_untruncated", "collision.eval"),
    (solver, "eval_truncated", "collision.eval"),
    (solver, "eval_convolved_truncated", "collision.eval"),
    (diagnostics, "eval_untruncated", "collision.eval"),
    (diagnostics, "eval_truncated", "collision.eval"),
    (diagnostics, "eval_convolved_truncated", "collision.eval"),
    (solver, "mollify_field", "fields.mollify_field"),
    (solver, "truncate_and_mollify_boundary", "fields.truncate_boundary"),
    (fields, "truncate_and_mollify_boundary", "fields.truncate_boundary"),
    (fields.Grid, "interpolate", "fields.interpolate"),
    (geometry.ConvexDomain, "exit_times", "geometry.exit_times"),
    (solver, "boundary_quadrature", "geometry.boundary_quadrature"),
    (diagnostics, "boundary_quadrature", "geometry.boundary_quadrature"),
    (diagnostics, "stage_diagnostics", "diagnostics.stage_diagnostics"),
    (diagnostics, "characteristic_balance", "diagnostics.characteristic_balance"),
    (diagnostics, "exceptional_sets", "diagnostics.exceptional_sets"),
    (diagnostics, "slab_energy_rows", "diagnostics.slab_energy_rows"),
    (diagnostics, "integrated_collision_frequency",
     "diagnostics.integrated_collision_frequency"),
    (diagnostics, "translation_modulus", "diagnostics.translation_modulus"),
    (diagnostics, "entropy_dissipation", "diagnostics.entropy"),
    (diagnostics, "entropy_bound_check", "diagnostics.entropy"),
]
# Every layer span: the wrapped functions plus the two set-up spans that
# `workloads.build_workspace` opens itself.
LAYER_SPANS = sorted({name for _, _, name in PATCHES}
                     | {"fields.grid_build", "solver.table_build"})


class Tracer:
    """In-memory span recorder: one entry [name, start, end, parent index] per span."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    @contextmanager
    def patched(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PATCHES]
        try:
            for owner, attr, name in PATCHES:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own
