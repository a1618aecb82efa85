"""The traced benchmark run (`bench/run.py --trace 1`) wraps program names that exist."""

from pathlib import Path

import dvmbvp

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    assert Path(tracing.solver.__file__).parent == Path(dvmbvp.__file__).parent
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_merged_paths_still_feed_the_traced_spans(monkeypatch):
    """The diagnostics' collision grids go through the solver's `eval_*` names
    and every path integral, the chords' included, through `path_integral`, so
    the traced run still records `collision.eval` and `solver.path_integral`
    under each call."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    disk, model = dvmbvp.ConvexDomain.disk(), dvmbvp.shifted_broadwell()
    f = dvmbvp.Field.constant(dvmbvp.Grid(disk, 12), [1.0, 0.5, 2.0, 1.5])
    ws = dvmbvp.SolverWorkspace(disk, model, f.grid, dvmbvp.SolverConfig(grid_n=12))
    bd = dvmbvp.BoundaryData.constant([1.0] * 4)
    diag, solver = tracing.diagnostics, tracing.solver     # the modules the tracer patches
    calls = {
        "diagnostics.integrated_collision_frequency":
            lambda: diag.integrated_collision_frequency(disk, model, f, 8.0, workspace=ws),
        "diagnostics.exceptional_sets":
            lambda: diag.exceptional_sets(disk, model, f, 8.0, epsilon=0.1, workspace=ws),
        "solver.residual_mild":
            lambda: solver.residual_mild(disk, model, bd, f, k=8.0, workspace=ws),
    }
    for root, call in calls.items():
        tracer = tracing.Tracer()
        with tracer.patched():
            call()
        names = {name for name, *_ in tracer.spans}
        assert {root, "collision.eval", "solver.path_integral"} <= names, root
    assert dvmbvp.SolverWorkspace.path_integral_attenuated is dvmbvp.SolverWorkspace.path_integral
