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
