"""The benchmark tracer (perfbench/tracer.py) patches qcert functions by
name.  Every name in its tables must exist, so that a rename fails here
instead of only when the benchmark runs with tracing on."""

import sys
from pathlib import Path

import pytest

from qcert import combinatorics, genfun, series

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    # importing tracer reads its name tables only; it imports qcert
    # lazily in install(), which these tests never call
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_tracer_hook_names_exist(tracer):
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
    for name in tracer.TALLIES:
        assert callable(getattr(combinatorics, name)), name


def test_tracer_sweep_object_counts(tracer):
    # each object-count lambda reads result keys of its sweep; a renamed
    # key must fail here, not in a traced benchmark run
    objects = {
        "partition_sweep": combinatorics.count_partitions(4),
        "overpartition_sweep": combinatorics.count_overpartitions(4),
        "distinct_odd_sweep": combinatorics.count_distinct_odd(4),
        "pair_sweep": combinatorics.count_overpartition_pairs(4),
        "pair_profile": combinatorics.count_overpartition_pairs(4),
    }
    assert set(tracer.SWEEPS) == set(objects)
    for name, count in tracer.SWEEPS.items():
        assert count(getattr(combinatorics, name)(4)) == objects[name], name
