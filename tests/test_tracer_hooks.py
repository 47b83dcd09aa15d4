"""The benchmark tracer (perfbench/tracer.py) patches qcert functions by
name.  Every name in its tables must exist, so that a rename fails here
instead of only when the benchmark runs with tracing on."""

import sys
from pathlib import Path

from qcert import combinatorics, genfun, series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_hook_names_exist(monkeypatch):
    # importing tracer reads its name tables only; it imports qcert
    # lazily in install(), which this test never calls
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    for name in tracer.GENFUN_CACHED:
        assert hasattr(getattr(genfun, name), "cache_info"), name
    for name in tracer.GENFUN_PLAIN:
        assert callable(getattr(genfun, name)), name
    for name in tracer.BUILDERS:
        assert callable(getattr(series, name)), name
    for method in tracer.KERNELS.values():
        assert callable(getattr(series.QSeries, method)), method
    for name in tracer.SWEEPS:
        assert hasattr(getattr(combinatorics, name), "cache_info"), name
