"""The counting oracle's tables: one per statistic row, holding every
weight up to the last weight a caller reads.  Each table is pinned
against the public statistics over the enumerators and against the per-n
dynamic program it replaced (bruteforce.tabulate_at), and each row's
cache holds one table however many weights are read from it."""

from collections import Counter

import pytest

import bruteforce as bf
from qcert import combinatorics as C
from qcert.combinatorics import (
    TALLY_FAMILIES,
    Overpartition,
    count_ones,
    crank,
    dyson_rank,
    enumerate_distinct_odd,
    enumerate_overpartition_pairs,
    enumerate_overpartitions,
    enumerate_partitions,
    m2_rank_distinct_odd,
    m2_rank_overpartition,
    ov_rank,
    pair_profile,
    pair_rank,
    raw_tally,
)


def _one(obj):
    return 1


def _pair_parts(pair):
    return pair.lam.num_parts() + pair.mu.num_parts()


# family -> (largest n enumerated, objects of weight n, statistic, weight per object)
_DEFINITIONS = {
    "N": (30, enumerate_partitions, dyson_rank, _one),
    "NT": (30, enumerate_partitions, dyson_rank, len),
    "M": (30, enumerate_partitions, crank, _one),
    "Momega": (30, enumerate_partitions, crank, count_ones),
    "Nbar": (24, enumerate_overpartitions, ov_rank, _one),
    "NTbar": (24, enumerate_overpartitions, ov_rank, Overpartition.num_parts),
    "Nbar2": (24, enumerate_overpartitions, m2_rank_overpartition, _one),
    "NTbar2": (24, enumerate_overpartitions, m2_rank_overpartition, Overpartition.num_parts),
    "N2": (30, enumerate_distinct_odd, m2_rank_distinct_odd, _one),
    "NT2": (30, enumerate_distinct_odd, m2_rank_distinct_odd, len),
    "Npair": (12, enumerate_overpartition_pairs, pair_rank, _one),
    "NTpair": (12, enumerate_overpartition_pairs, pair_rank, _pair_parts),
}

# family -> (the per-n reference at weight n, index of the family's counter)
_PER_N = {
    "N": (lambda n: bf.tabulate_at(C._dyson_kinds, n), 0),
    "NT": (lambda n: bf.tabulate_at(C._dyson_kinds, n), 1),
    "M": (lambda n: bf.crank_at(C._crank_kinds, n), 0),
    "Momega": (lambda n: bf.crank_at(C._crank_kinds, n), 1),
    "Nbar": (lambda n: bf.tabulate_at(C._ov_rank_kinds, n), 0),
    "NTbar": (lambda n: bf.tabulate_at(C._ov_rank_kinds, n), 1),
    "Nbar2": (lambda n: bf.tabulate_at(C._ov_m2_kinds, n), 0),
    "NTbar2": (lambda n: bf.tabulate_at(C._ov_m2_kinds, n), 1),
    "N2": (lambda n: bf.tabulate_at(C._do_m2_kinds, n), 0),
    "NT2": (lambda n: bf.tabulate_at(C._do_m2_kinds, n), 1),
    "Npair": (lambda n: bf.tabulate_at(C._pair_kinds, n), 0),
    "NTpair": (lambda n: bf.tabulate_at(C._pair_kinds, n), 1),
}


def per_n(family: str, n: int) -> Counter:
    """The family's counter at weight n from the per-n dynamic program."""
    reference, index = _PER_N[family]
    return reference(n)[index]


@pytest.fixture
def builds(monkeypatch):
    """The weight N of every _tabulate pass, from cold caches on."""
    seen = []
    real = C._tabulate

    def spy(kinds, N):
        seen.append(N)
        return real(kinds, N)

    monkeypatch.setattr(C, "_tabulate", spy)
    C.clear_caches()
    yield seen
    C.clear_caches()


def test_every_family_is_defined():
    assert set(_DEFINITIONS) == set(_PER_N) == set(TALLY_FAMILIES)


@pytest.mark.parametrize("family", TALLY_FAMILIES)
def test_table_matches_per_n_program(family, builds):
    # one table at 30 holds, at every weight, exactly what the per-n
    # program counts at that weight alone (dict equality: no zero entries)
    for n in range(31):
        assert dict(raw_tally(family, n, 30)) == dict(per_n(family, n)), (family, n)


@pytest.mark.parametrize("family", TALLY_FAMILIES)
def test_table_matches_public_statistics(family, builds):
    reach, objects, stat, weight = _DEFINITIONS[family]
    for n in range(reach + 1):
        want = Counter()
        for obj in objects(n):
            want[stat(obj)] += weight(obj)
        assert dict(raw_tally(family, n, reach)) == {m: c for m, c in want.items() if c}, (
            family, n)


def test_pair_profile_table_matches_per_n_program_and_enumeration(builds):
    upto = C.DEFAULT_BOUNDS["pair"]
    for n in range(upto + 1):
        assert pair_profile(n, upto) == bf.pair_profile_at(C._pair_kinds, n), n
    assert builds == [upto]
    C.clear_caches()
    for n in range(9):
        direct = Counter()
        for pr in enumerate_overpartition_pairs(n):
            r = pr.lam.overlined_count() + pr.mu.num_parts() - pr.mu.overlined_count()
            direct[(r, pr.mu.num_parts(), _pair_parts(pr), pair_rank(pr))] += 1
        assert pair_profile(n, 8) == direct, n


def _reader(family: str, upto: int):
    if family == "pair_profile":
        return lambda n: pair_profile(n, upto)
    return lambda n: raw_tally(family, n, upto)


@pytest.mark.parametrize("family", TALLY_FAMILIES + ("pair_profile",))
def test_reading_every_n_to_upto_keeps_one_table(family, builds):
    upto = 14
    read = _reader(family, upto)
    first = read(upto)
    # the crank's one table takes one pass per ones count, the others one
    assert sorted(builds) == (list(range(upto + 1)) if family in ("M", "Momega") else [upto])
    built = list(builds)
    values = [read(n) for n in range(upto + 1)]
    assert builds == built, "a read at n <= upto rebuilt the table"
    assert values[upto] == first
    assert C._table.cache_info().currsize == 1
    C.clear_caches()
    assert C._table.cache_info().currsize == 0
    assert pair_profile.cache_info().currsize == 0
    assert [read(n) for n in range(upto + 1)] == values


def test_a_read_past_the_table_rebuilds_it_at_the_new_reach(builds):
    low = [raw_tally("NT", n, 6) for n in range(7)]
    assert raw_tally("NT", 11) == per_n("NT", 11)
    assert builds == [6, 11]
    assert [raw_tally("NT", n) for n in range(7)] == low
    assert raw_tally("NT", 11, 11) == per_n("NT", 11)
    info = C._table.cache_info()
    assert builds == [6, 11] and (info.currsize, info.misses) == (1, 2)


def test_clear_caches_empties_every_table_cache(builds):
    for family in TALLY_FAMILIES:
        raw_tally(family, 5, 8)
    pair_profile(3, 6)
    C.partition_sweep(4)
    assert C._table.cache_info().currsize == 7  # six rows and the pair profile
    C.clear_caches()
    filled = {name: fn.cache_info().currsize for name, fn in vars(C).items()
              if hasattr(fn, "cache_info") and fn.cache_info().currsize}
    assert not filled, filled
