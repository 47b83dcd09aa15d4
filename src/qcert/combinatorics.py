"""Partition-like objects, their statistics, and exact counts of them.

This module is the second route for the whole project: every generating
function is checked against counts and statistic tallies computed here
from the statistics' definitions, with no series code.

One iterative generator, ``_non_increasing``, walks the partitions of n
(optionally without repeated odd parts) in reverse lexicographic order;
overpartitions are expanded from it.  The tests hold the tallies to these
enumerators.  The tallies count without walking: a statistic's row writes
it as a head term of the largest part plus a term per part (the crank's,
once its number of ones is fixed), and one pass of a dynamic program over
part values, ``_tabulate``, counts a row's objects of every weight.  Each
row holds one table in the shared store (``memo.widest``), built to the
widest reach read; the per-n sweeps are views into it.

Conventions for objects a definition leaves open:

* the empty partition / overpartition / pair has every rank statistic 0;
  it contributes one object to residue class 0 of count-type tallies and
  nothing to part-count or ones-count tallies;
* in an overpartition whose largest value occurs both overlined and
  non-overlined, the overlined copy is taken as "the largest part", so
  the chi adjustments below see an overlined largest part.  This choice
  is validated against the rank generating functions by the test suite.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

from .errors import BoundExceeded, RepeatedOddPart
from .memo import widest

# Weight limits of the tallies, the one counting-limit rule (require_limit).
# A cold row table to each takes at most 0.23 s (the pair profile's, 0.41 s);
# they guard only --order overrides, and --unsafe-bounds lifts them.
DEFAULT_BOUNDS = {
    "partition": 80,
    "distinct_odd": 80,
    "overpartition": 40,
    "pair": 24,
}


# ---------------------------------------------------------------------------
# Object types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Overpartition:
    """Parts as (value, overlined) pairs in canonical order.

    Canonical order: values non-increasing, and at equal value the
    overlined copy (at most one per value) precedes the plain copies.
    """

    parts: tuple[tuple[int, bool], ...]

    def num_parts(self) -> int:
        return len(self.parts)

    def largest(self) -> int:
        return self.parts[0][0] if self.parts else 0

    def overlined_count(self) -> int:
        return sum(1 for _, ov in self.parts if ov)


@dataclass(frozen=True, slots=True)
class OverpartitionPair:
    """A pair (lam, mu) of overpartitions."""

    lam: Overpartition
    mu: Overpartition


# ---------------------------------------------------------------------------
# Enumerators.  All stream objects; none materializes a full level.
# ---------------------------------------------------------------------------


def _non_increasing(n: int, odd_once: bool = False) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of positive integers summing to n, in reverse
    lexicographic order; with `odd_once`, no odd value repeats.

    One parts list is extended greedily by the largest allowed part and
    backtracked by popping: the last part that exceeds 1 is lowered by
    one and the remainder refilled.  `cap` is the largest value the next
    part may take.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    parts: list[int] = []
    rem = cap = n
    while True:
        while rem and cap:
            v = rem if rem < cap else cap
            parts.append(v)
            rem -= v
            cap = v - 1 if odd_once and v & 1 else v
        if not rem:
            yield tuple(parts)
        while parts:
            v = parts.pop()
            rem += v
            if v > 1:
                v -= 1
                parts.append(v)
                rem -= v
                cap = v - 1 if odd_once and v & 1 else v
                break
        else:
            return


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples, each exactly once."""
    return _non_increasing(n)


def enumerate_distinct_odd(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n in which no odd part repeats."""
    return _non_increasing(n, odd_once=True)


def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """All overpartitions of n, each exactly once, canonically ordered.

    Each partition is expanded by every subset of its distinct values:
    bit j of the mask overlines the first copy of the j-th distinct value,
    which is where the canonical order puts the overlined copy.
    """
    for parts in _non_increasing(n):
        plain = [(v, False) for v in parts]
        firsts = [(i, (v, True)) for i, v in enumerate(parts)
                  if not i or v != parts[i - 1]]
        for mask in range(1 << len(firsts)):
            buf = plain[:]
            for j, (i, over) in enumerate(firsts):
                if mask >> j & 1:
                    buf[i] = over
            yield Overpartition(tuple(buf))


def enumerate_overpartition_pairs(n: int) -> Iterator[OverpartitionPair]:
    """All overpartition pairs of total weight n."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    for j in range(n + 1):
        mus = list(enumerate_overpartitions(n - j))
        for lam in enumerate_overpartitions(j):
            for mu in mus:
                yield OverpartitionPair(lam, mu)


def count_partitions(n: int) -> int:
    return sum(1 for _ in enumerate_partitions(n))


def count_distinct_odd(n: int) -> int:
    return sum(1 for _ in enumerate_distinct_odd(n))


def count_overpartitions(n: int) -> int:
    return sum(1 for _ in enumerate_overpartitions(n))


def count_overpartition_pairs(n: int) -> int:
    return sum(1 for _ in enumerate_overpartition_pairs(n))


# ---------------------------------------------------------------------------
# Statistics, each with its row for the counting tables: `kinds(v)` lists
# the kinds of part of value v, lowest precedence first (the last kind
# present at the largest value is "the largest part"), each as (at most one
# copy, per-part term, head term when it is the largest part).
# ---------------------------------------------------------------------------


def dyson_rank(parts: tuple[int, ...]) -> int:
    """Largest part minus number of parts; 0 for the empty partition."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def _dyson_kinds(v: int) -> tuple:
    return ((False, -1, v),)


def ov_rank(op: Overpartition) -> int:
    """Dyson's rank carried over verbatim to overpartitions."""
    if not op.parts:
        return 0
    return op.parts[0][0] - len(op.parts)


def _ov_rank_kinds(v: int) -> tuple:
    return ((False, -1, v), (True, -1, v))


def m2_rank_overpartition(op: Overpartition) -> int:
    """ceil(largest/2) - #parts + #(odd plain parts) - chi.

    chi is 1 exactly when the largest part is odd and non-overlined;
    with canonical ordering that means the leading entry is plain.
    """
    if not op.parts:
        return 0
    largest, lead_ov = op.parts[0]
    odd_plain = sum(1 for v, ov in op.parts if v % 2 and not ov)
    chi = 1 if (largest % 2 and not lead_ov) else 0
    return -(-largest // 2) - len(op.parts) + odd_plain - chi


def _ov_m2_kinds(v: int) -> tuple:
    odd, half = v % 2, (v + 1) // 2
    return ((False, odd - 1, half - odd), (True, -1, half))


def m2_rank_distinct_odd(parts: tuple[int, ...]) -> int:
    """ceil(largest/2) - #parts for partitions without repeated odd parts."""
    if not parts:
        return 0
    odds = [v for v in parts if v % 2]
    if len(odds) != len(set(odds)):
        raise RepeatedOddPart(f"partition {parts} repeats an odd part")
    return -(-parts[0] // 2) - len(parts)


def _do_m2_kinds(v: int) -> tuple:
    return ((v % 2 == 1, -1, (v + 1) // 2),)


def pair_rank(pair: OverpartitionPair) -> int:
    """Largest part of the pair, minus #parts of lam, minus #overlined of
    mu, minus chi; chi is 1 when the largest part is plain and lives in mu.

    Parts are ranked overlined-lam > plain-lam > overlined-mu > plain-mu
    at equal value, so "the largest part" is in mu only when mu strictly
    exceeds lam in value.  The empty pair has rank 0.
    """
    lam, mu = pair.lam, pair.mu
    largest, chi = lam.largest(), 0
    if mu.largest() > largest:
        largest, chi = mu.largest(), int(not mu.parts[0][1])
    return largest - lam.num_parts() - mu.overlined_count() - chi


def _pair_kinds(v: int, base: int = 0) -> tuple:
    """Plain-mu, overlined-mu, plain-lam, overlined-lam.  A nonzero `base`
    packs the pair profile's r, s and t into each term as digits above the
    rank m: term = m + base*(r + base*(s + base*t))."""
    r, s, t = base, base**2, base**3
    return ((False, r + s + t, v - 1), (True, -1 + s + t, v),
            (False, -1 + t, v), (True, -1 + r + t, v))


def crank(parts: tuple[int, ...]) -> int:
    """Largest part when 1 is absent; otherwise #(parts > #ones) - #ones."""
    if not parts:
        return 0
    ones = count_ones(parts)
    if ones == 0:
        return parts[0]
    bigger = sum(1 for v in parts if v > ones)
    return bigger - ones


def _crank_kinds(ones: int, v: int) -> tuple:
    """The parts >= 2 of a partition with `ones` ones; the caller adds -ones."""
    if v == 1:
        return ()
    return ((False, 0, v),) if not ones else ((False, int(v > ones), 0),)


def count_ones(parts: tuple[int, ...]) -> int:
    ones = 0
    for v in reversed(parts):
        if v != 1:
            break
        ones += 1
    return ones


# ---------------------------------------------------------------------------
# One table per row: counters of every weight up to the widest reach asked, keyed
# by statistic value, of objects, parts or ones, never holding a zero entry.
# ---------------------------------------------------------------------------


def _tabulate(kinds, N: int) -> list[tuple[Counter, Counter]]:
    """Objects and parts by statistic over a row's objects of each weight
    w <= N, in one pass.  Kinds are added in ascending order of (value,
    precedence); acc[w] maps the head-free term sum of the objects of
    weight w built so far to [objects, parts], while a part still fits.  An
    object that lands on w with a copy of the current kind has that kind as
    its largest part, so each landing also goes, head added, into out[w]."""
    acc, out = [{} for _ in range(N + 1)], [{} for _ in range(N + 1)]
    acc[0][0], out[0][0] = [1, 0], [1, 0]
    for v in range(1, N + 1):
        for once, term, head in kinds(v):
            # one copy extends the objects without this kind (weights
            # descending), any number those with it (ascending)
            for w in range(N, v - 1, -1) if once else range(v, N + 1):
                src = acc[w - v].items()
                for dst, shift in ((out[w], term + head), (acc[w], term))[: 1 + (w + v <= N)]:
                    for s, (c, p) in src:
                        e = dst.setdefault(s + shift, [0, 0])
                        e[0] += c
                        e[1] += p + c
    return [(Counter({m: c for m, (c, _) in o.items()}),
             Counter({m: p for m, (_, p) in o.items() if p})) for o in out]


def _crank_table(N: int) -> list[tuple[Counter, Counter]]:
    """Partitions and ones by crank at each weight <= N: o ones, the rest parts >= 2."""
    table = [(Counter(), Counter()) for _ in range(N + 1)]
    for o in range(N + 1):
        for w, (counts, _) in enumerate(_tabulate(partial(_crank_kinds, o), N - o)):
            for c, cnt in counts.items():
                table[w + o][0][c - o] += cnt
                if o:
                    table[w + o][1][c - o] += cnt * o
    return table


def _pair_profiles(N: int) -> list[Counter]:
    """The pair profile at each weight <= N, from one table whose terms
    pack r, s and t as digits above the rank m (`_pair_kinds`)."""
    base, profiles = 2 * N + 2, []  # every digit has |value| <= N
    for counts, _ in _tabulate(partial(_pair_kinds, base=base), N):
        profiles.append(profile := Counter())
        for key, cnt in counts.items():
            rst, m = divmod(key + N, base)
            profile[(rst % base, rst // base % base, rst // base**2, m - N)] = cnt
    return profiles


@widest(lambda table, N: table)
def _table(row, N: int) -> list:
    """The one table of `row` (a module-level function, so a stable key),
    built to weight N; a longer one serves every weight below its reach."""
    return row(N) if row in (_crank_table, _pair_profiles) else _tabulate(row, N)


def _read(row, n: int, upto: int | None = None):
    """Row `row`'s counters at n, from its table built to the reach
    max(n, `upto`); a read past the table rebuilds it there."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    return _table(row, max(n, upto or 0))[n]


def _view(n: int, **families) -> dict[str, Counter]:
    """The raw tallies of the families at n, each under its key."""
    return {key: _raw(family, n, None) for key, family in families.items()}


@lru_cache(maxsize=None)
def partition_sweep(n: int) -> dict[str, Counter]:
    return _view(n, rank_count="N", rank_parts="NT", crank_count="M", crank_ones="Momega")


@lru_cache(maxsize=None)
def overpartition_sweep(n: int) -> dict[str, Counter]:
    return _view(n, rank_count="Nbar", rank_parts="NTbar", m2_count="Nbar2", m2_parts="NTbar2")


@lru_cache(maxsize=None)
def distinct_odd_sweep(n: int) -> dict[str, Counter]:
    return _view(n, m2_count="N2", m2_parts="NT2")


@lru_cache(maxsize=None)
def pair_sweep(n: int) -> dict[str, Counter]:
    return _view(n, rank_count="Npair", rank_parts="NTpair")


@lru_cache(maxsize=None)
def pair_profile(n: int, upto: int | None = None) -> Counter:
    """Joint distribution over pairs of weight n, keyed by (r, s, t, m):
    r = overlined-in-lam + plain-in-mu, s = #parts of mu, t = total
    parts, m = pair rank.  `upto` is the last weight the caller reads."""
    require_limit("pair_profile", ("NTpair",), max(n, upto or 0))
    return _read(_pair_profiles, n, upto)


# ---------------------------------------------------------------------------
# Tallies by residue class.
# ---------------------------------------------------------------------------

# family -> (row, index of its counter, DEFAULT_BOUNDS key): a count family
# reads the objects, its part-count family (Momega: the ones) the weights
_TALLY_TABLE = {
    "NT": (_dyson_kinds, 1, "partition"), "N": (_dyson_kinds, 0, "partition"),
    "NTbar": (_ov_rank_kinds, 1, "overpartition"), "Nbar": (_ov_rank_kinds, 0, "overpartition"),
    "NTbar2": (_ov_m2_kinds, 1, "overpartition"), "Nbar2": (_ov_m2_kinds, 0, "overpartition"),
    "NT2": (_do_m2_kinds, 1, "distinct_odd"), "N2": (_do_m2_kinds, 0, "distinct_odd"),
    "Momega": (_crank_table, 1, "partition"), "M": (_crank_table, 0, "partition"),
    "NTpair": (_pair_kinds, 1, "pair"), "Npair": (_pair_kinds, 0, "pair"),
}

TALLY_FAMILIES = tuple(_TALLY_TABLE)


def require_limit(who: str, families, n: int, unsafe: bool = False) -> int:
    """The tightest weight limit of `families`; raise BoundExceeded when
    counting them to weight n passes it, unless `unsafe` lifts it."""
    limit = min(DEFAULT_BOUNDS[_TALLY_TABLE[f][2]] for f in families)
    if n > limit and not unsafe:
        raise BoundExceeded(f"{who} needs enumeration to n={n}, limit is {limit}")
    return limit


def _raw(family: str, n: int, upto: int | None) -> Counter:
    try:
        row, index, _ = _TALLY_TABLE[family]
    except KeyError:
        raise ValueError(f"unknown statistic family {family!r}; "
                         f"known: {sorted(_TALLY_TABLE)}") from None
    return _read(row, n, upto)[index]


def tally(family: str, n: int, k: int, upto: int | None = None) -> list[int]:
    """Exact counters by residue class mod k for the family at weight n,
    from its table built to `upto`, the caller's reach (at least n).  Part
    counts sum parts, count families count objects, Momega sums ones."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    out = [0] * k
    for value, weight in _raw(family, n, upto).items():
        out[value % k] += weight
    return out


def raw_tally(family: str, n: int, upto: int | None = None) -> Counter:
    """Counter keyed by the raw statistic value (no residue reduction)."""
    return _raw(family, n, upto)


def clear_caches():
    """Drop all memoized tables and sweeps (mainly for tests)."""
    for cache in (_table, partition_sweep, overpartition_sweep, distinct_odd_sweep, pair_sweep, pair_profile):
        cache.cache_clear()
