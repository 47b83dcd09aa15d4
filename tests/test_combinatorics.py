"""Enumeration oracles and statistics: counts against series, worked
examples, symmetry, and the joint pair profile."""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
import qcert
from bruteforce import decode
from qcert.combinatorics import (
    DEFAULT_BOUNDS,
    TALLY_FAMILIES,
    Overpartition,
    OverpartitionPair,
    count_distinct_odd,
    count_ones,
    count_overpartition_pairs,
    count_overpartitions,
    count_partitions,
    crank,
    distinct_odd_sweep,
    dyson_rank,
    enumerate_distinct_odd,
    enumerate_overpartition_pairs,
    enumerate_overpartitions,
    enumerate_partitions,
    m2_rank_distinct_odd,
    m2_rank_overpartition,
    ov_rank,
    overpartition_sweep,
    pair_profile,
    pair_rank,
    pair_sweep,
    partition_sweep,
    raw_tally,
    require_limit,
    tally,
)
from qcert.errors import BoundExceeded, RepeatedOddPart
from qcert.genfun import Family, closed_form, rank_gf


def ov(*parts):
    return Overpartition(tuple(parts))


# -- enumeration counts vs series oracles ------------------------------------


def test_partitions_of_four():
    got = sorted(enumerate_partitions(4), reverse=True)
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts_against_recurrence():
    p = bf.partition_numbers(20)
    for n in range(21):
        assert count_partitions(n) == p[n]
    assert count_partitions(10) == 42


def test_overpartitions_of_four_worked_list():
    expected = {
        ((4, False),), ((4, True),),
        ((3, False), (1, False)), ((3, True), (1, False)),
        ((3, False), (1, True)), ((3, True), (1, True)),
        ((2, False), (2, False)), ((2, True), (2, False)),
        ((2, False), (1, False), (1, False)), ((2, True), (1, False), (1, False)),
        ((2, False), (1, True), (1, False)), ((2, True), (1, True), (1, False)),
        ((1, False),) * 4, ((1, True),) + ((1, False),) * 3,
    }
    got = {o.parts for o in enumerate_overpartitions(4)}
    assert got == expected
    assert len(got) == 14


@pytest.mark.parametrize("n", range(13))
def test_counts_match_series(n):
    assert count_partitions(n) == int(closed_form("partition-gf", 12).coeffs[n])
    assert count_overpartitions(n) == int(closed_form("overpartition-gf", 12).coeffs[n])
    assert count_distinct_odd(n) == int(closed_form("distinct-odd-gf", 12).coeffs[n])
    assert count_overpartition_pairs(n) == int(
        closed_form("overpartition-pair-gf", 12).coeffs[n]
    )


def test_empty_weight_enumerations():
    assert list(enumerate_partitions(0)) == [()]
    assert [o.parts for o in enumerate_overpartitions(0)] == [()]
    assert len(list(enumerate_overpartition_pairs(0))) == 1
    assert list(enumerate_distinct_odd(0)) == [()]


def test_distinct_odd_examples():
    assert sorted(enumerate_distinct_odd(3)) == [(2, 1), (3,)]
    assert sorted(enumerate_distinct_odd(2)) == [(2,)]


@pytest.mark.parametrize("n", range(10))
def test_enumerators_match_naive_references(n):
    for got, want in (
        (list(enumerate_partitions(n)), bf.partitions(n)),
        (list(enumerate_distinct_odd(n)), bf.distinct_odd_partitions(n)),
        ([o.parts for o in enumerate_overpartitions(n)], bf.overpartitions(n)),
    ):
        assert len(got) == len(set(got))
        assert set(got) == want
    # partitions come in reverse lexicographic order
    for enum in (enumerate_partitions, enumerate_distinct_odd):
        got = list(enum(n))
        assert got == sorted(got, reverse=True)


def test_no_duplicates_in_enumerations():
    for n in range(9):
        ps = list(enumerate_partitions(n))
        assert len(ps) == len(set(ps))
        os_ = [o.parts for o in enumerate_overpartitions(n)]
        assert len(os_) == len(set(os_))


# -- statistics ---------------------------------------------------------------


def test_dyson_rank_examples():
    assert dyson_rank((4,)) == 3
    assert dyson_rank((1, 1, 1, 1)) == -3
    assert dyson_rank((2, 2)) == 0
    assert dyson_rank(()) == 0


def test_pair_rank_worked_examples():
    lam = ov((6, True), (6, False), (5, False), (4, False), (4, False),
             (4, False), (3, True), (1, True))
    mu = ov((7, False), (7, False), (5, True), (2, False), (2, False), (2, False))
    assert pair_rank(OverpartitionPair(lam, mu)) == -3
    lam = ov((4, False), (3, True), (3, False), (2, True), (1, False))
    mu = ov((4, False), (4, False), (4, False), (1, True))
    assert pair_rank(OverpartitionPair(lam, mu)) == -2


def test_pair_rank_reduces_to_dyson():
    # mu empty and lam overline-free: the pair rank is the partition rank
    for n in range(8):
        for parts in enumerate_partitions(n):
            lam = ov(*((v, False) for v in parts))
            pr = pair_rank(OverpartitionPair(lam, ov()))
            assert pr == dyson_rank(parts)


def test_m2_rank_overpartition_examples():
    assert m2_rank_overpartition(ov((2, False))) == 0
    assert m2_rank_overpartition(ov((1, False))) == 0
    assert m2_rank_overpartition(ov((1, True))) == 0


def test_m2_rank_distinct_odd_examples():
    assert m2_rank_distinct_odd((4,)) == 1
    assert m2_rank_distinct_odd((3, 2, 1)) == -1
    with pytest.raises(RepeatedOddPart):
        m2_rank_distinct_odd((3, 3, 2))


def test_crank_and_ones_examples():
    assert crank((4,)) == 4 and count_ones((4,)) == 0
    assert crank((1,)) == -1
    assert crank((2, 1, 1)) == -2 and count_ones((2, 1, 1)) == 2
    assert crank((5, 4, 2)) == 5


def _pair_parts(pair):
    return pair.lam.num_parts() + pair.mu.num_parts()


# sweep -> (largest n checked, objects of weight n,
#           {counter key: (statistic, weight per object)})
_SWEEP_DEFINITIONS = {
    partition_sweep: (30, enumerate_partitions, {
        "rank_count": (dyson_rank, lambda p: 1),
        "rank_parts": (dyson_rank, len),
        "crank_count": (crank, lambda p: 1),
        "crank_ones": (crank, count_ones),
    }),
    overpartition_sweep: (24, enumerate_overpartitions, {
        "rank_count": (ov_rank, lambda o: 1),
        "rank_parts": (ov_rank, Overpartition.num_parts),
        "m2_count": (m2_rank_overpartition, lambda o: 1),
        "m2_parts": (m2_rank_overpartition, Overpartition.num_parts),
    }),
    distinct_odd_sweep: (30, enumerate_distinct_odd, {
        "m2_count": (m2_rank_distinct_odd, lambda p: 1),
        "m2_parts": (m2_rank_distinct_odd, len),
    }),
    pair_sweep: (12, enumerate_overpartition_pairs, {
        "rank_count": (pair_rank, lambda pr: 1),
        "rank_parts": (pair_rank, _pair_parts),
    }),
}


@pytest.mark.parametrize("n", range(31))
def test_sweeps_match_public_statistics(n):
    # every counter of every sweep is the public statistic applied to the
    # enumerated objects, with no zero-valued entry (dict equality is strict)
    for sweep, (reach, enum, counters) in _SWEEP_DEFINITIONS.items():
        if n > reach:
            continue
        got = sweep(n)
        assert set(got) == set(counters), sweep.__name__
        objects = list(enum(n))
        for key, (stat, weight) in counters.items():
            want = Counter()
            for obj in objects:
                want[stat(obj)] += weight(obj)
            assert dict(got[key]) == {m: c for m, c in want.items() if c}, (
                sweep.__name__, key)


@pytest.mark.parametrize("sweep", [partition_sweep, overpartition_sweep,
                                   distinct_odd_sweep, pair_sweep, pair_profile])
def test_sweeps_refuse_negative_weight(sweep):
    with pytest.raises(ValueError, match="weight must be >= 0"):
        sweep(-1)


@pytest.mark.parametrize("family", TALLY_FAMILIES)
def test_tallies_refuse_negative_weight(family):
    with pytest.raises(ValueError, match="weight must be >= 0"):
        tally(family, -2, 3)
    with pytest.raises(ValueError, match="weight must be >= 0"):
        raw_tally(family, -2)


# -- the chi convention, validated against the generating function -----------


@pytest.mark.parametrize("n", range(11))
def test_m2_overpartition_distribution_matches_series(n):
    g = decode(rank_gf(Family.OV_M2, 10))
    dist = Counter()
    for o in enumerate_overpartitions(n):
        dist[m2_rank_overpartition(o)] += 1
    got = {e: v for e, v in g.coeffs[n].items()} if g.coeffs[n] else {}
    assert got == {m: Fraction(c) for m, c in dist.items()}


@pytest.mark.parametrize("n", range(11))
def test_m2_distinct_odd_distribution_matches_series(n):
    g = decode(rank_gf(Family.DO_M2, 10))
    dist = Counter()
    for parts in enumerate_distinct_odd(n):
        dist[m2_rank_distinct_odd(parts)] += 1
    got = {e: v for e, v in g.coeffs[n].items()} if g.coeffs[n] else {}
    assert got == {m: Fraction(c) for m, c in dist.items()}


# -- tallies ------------------------------------------------------------------


def test_tally_weight_zero_conventions():
    assert tally("NT", 0, 5) == [0, 0, 0, 0, 0]
    assert tally("N", 0, 5) == [1, 0, 0, 0, 0]
    assert tally("Momega", 0, 7) == [0] * 7
    assert tally("Nbar2", 0, 3) == [1, 0, 0]


def test_part_count_congruence_at_weight_one():
    t = tally("NT", 1, 5)
    assert (t[1] - t[4] + 2 * t[2] - 2 * t[3]) % 5 == 0


def test_tally_total_parts_double_count():
    for n in range(9):
        total_parts = sum(len(p) for p in enumerate_partitions(n))
        assert sum(tally("NT", n, 5)) == total_parts
        ov_parts = sum(o.num_parts() for o in enumerate_overpartitions(n))
        assert sum(tally("NTbar", n, 7)) == ov_parts
        assert sum(tally("NTbar2", n, 7)) == ov_parts


def test_tally_counts_sum_to_object_counts():
    for n in range(9):
        assert sum(tally("N", n, 4)) == count_partitions(n)
        assert sum(tally("Nbar", n, 4)) == count_overpartitions(n)
        assert sum(tally("N2", n, 4)) == count_distinct_odd(n)


def test_momega_sums_all_ones():
    for n in range(10):
        total_ones = sum(count_ones(p) for p in enumerate_partitions(n))
        assert sum(tally("Momega", n, 5)) == total_ones


def test_rank_symmetry_object_counts():
    # object-count symmetry #(rank = m) = #(rank = -m); the part-count
    # asymmetry is exactly what the difference series measure
    for n in range(11):
        raw = raw_tally("N", n)
        for m in list(raw):
            assert raw[m] == raw[-m]


def test_tally_unknown_family():
    with pytest.raises(ValueError):
        tally("nonsense", 3, 5)
    with pytest.raises(ValueError, match="known: "):
        raw_tally("nonsense", 3)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=9))
@settings(max_examples=60, deadline=None)
def test_tally_residue_reduction_consistent(n, k):
    raw = raw_tally("NT", n)
    reduced = tally("NT", n, k)
    for m in range(k):
        assert reduced[m] == sum(v for r, v in raw.items() if r % k == m)


_COLD_CACHE_SCRIPT = """
from qcert import combinatorics as C, verify

verify.registry()
CONSTANTS = {"DEFAULT_BOUNDS", "TALLY_FAMILIES", "_TALLY_TABLE"}


def filled():
    return {k: v.cache_info().currsize for k, v in vars(C).items()
            if hasattr(v, "cache_info") and v.cache_info().currsize}


def data():
    return {k: repr(v) for k, v in vars(C).items()
            if isinstance(v, (dict, list, set, tuple)) and not k.startswith("__")}


constants = data()
assert set(constants) == CONSTANTS, set(constants) ^ CONSTANTS
assert not filled(), filled()
first = [C.raw_tally(f, 12) for f in C.TALLY_FAMILIES] + [C.pair_profile(8)]
assert filled()
C.clear_caches()
assert not filled() and data() == constants, filled()
assert [C.raw_tally(f, 12) for f in C.TALLY_FAMILIES] + [C.pair_profile(8)] == first
"""


def test_sweeps_start_cold_and_clear_caches_empties_them():
    # the benchmark worker checks only lru_cache sizes before it times a
    # run, so counts may live only in lru_caches: none filled by importing
    # qcert and building the registry, all emptied by clear_caches, and
    # rebuilt identically afterwards.  A fresh interpreter sees the import.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qcert

    env = dict(os.environ, PYTHONPATH=str(Path(qcert.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _COLD_CACHE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# -- pair profile -------------------------------------------------------------


def test_pair_profile_weight_zero():
    assert pair_profile(0) == Counter({(0, 0, 0, 0): 1})


def test_pair_profile_bound():
    with pytest.raises(BoundExceeded, match="n=25, limit is 24"):
        pair_profile(DEFAULT_BOUNDS["pair"] + 1)


def test_require_limit_is_inclusive_and_takes_the_tightest():
    require_limit("t", ["NT", "Momega"], 80)  # a limit is itself allowed
    with pytest.raises(BoundExceeded, match="^t needs enumeration to n=41, limit is 40$"):
        require_limit("t", ["NT", "NTbar"], 41)
    require_limit("t", ["NT", "NTbar"], 41, unsafe=True)


def test_pair_weight_one_structure():
    pairs = list(enumerate_overpartition_pairs(1))
    assert len(pairs) == 4
    assert Counter(pair_rank(p) for p in pairs) == Counter({0: 4})


def test_pair_profile_marginals_match_sweep():
    for n in range(7):
        prof = pair_profile(n)
        by_rank = Counter()
        parts_by_rank = Counter()
        for (r, s, t, m), cnt in prof.items():
            by_rank[m] += cnt
            parts_by_rank[m] += cnt * t
        sweep = pair_sweep(n)
        assert by_rank == +sweep["rank_count"]
        assert parts_by_rank == +sweep["rank_parts"]


def test_pair_profile_matches_direct_enumeration():
    for n in range(11):
        direct = Counter()
        for pr in enumerate_overpartition_pairs(n):
            r = pr.lam.overlined_count() + (
                pr.mu.num_parts() - pr.mu.overlined_count()
            )
            s = pr.mu.num_parts()
            t = pr.lam.num_parts() + pr.mu.num_parts()
            direct[(r, s, t, pair_rank(pr))] += 1
        assert direct == pair_profile(n)


def test_pair_profile_generating_polynomial_sampled_points():
    # joint profile vs the generic series at integer weights
    from qcert.genfun import genovpair_series

    # negative weights give negative digits in the packed series
    for d, e, x in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 3, 1), (1, 1, 2), (-2, 3, 1), (2, -1, -3)]:
        series = decode(genovpair_series(d, e, x, 6))
        for n in range(7):
            want: dict[int, Fraction] = {}
            for (r, s, t, m), cnt in pair_profile(n).items():
                w = cnt * Fraction(d) ** r * Fraction(e) ** s * Fraction(x) ** t
                want[m] = want.get(m, Fraction(0)) + w
            got = dict(series.coeffs[n].items())
            assert got == {m: v for m, v in want.items() if v}


# every module of the package, read from its directory
_QCERT_MODULES = sorted(p.stem for p in Path(qcert.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module,forbidden", [
    ("combinatorics", {"series", "genfun", "rings"}),
    ("rings", {"combinatorics"}),
    ("series", {"combinatorics"}),
    ("genfun", {"combinatorics"}),
    ("memo", {"series", "genfun", "rings", "combinatorics"}),
    *[(m, {"fractions"}) for m in _QCERT_MODULES],
], ids=["combinatorics", "rings", "series", "genfun", "memo",
        *[f"{m}-no-fractions" for m in _QCERT_MODULES]])
def test_enumeration_oracle_imports_no_series_code(module, forbidden):
    # the oracle must stay an independent second route: it may not
    # import the series engine, the generating functions or the rings,
    # and none of those may import the oracle; the store both routes
    # share imports neither route; and no module computes over
    # rationals, so none imports fractions
    import ast
    import importlib

    dotted = "qcert" if module == "__init__" else f"qcert.{module}"
    path = Path(importlib.import_module(dotted).__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                f"{node.module or ''}.{a.name}" for a in node.names
            ]
        else:
            continue
        for name in names:
            assert not forbidden & set(name.split(".")), f"{module} imports {name}"
