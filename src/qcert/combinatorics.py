"""Partition-like objects, their statistics, and exact counts of them.

This module is the second route for the whole project: every generating
function is checked against counts and statistic tallies computed here
from the statistics' definitions, with no series code.

One iterative generator, ``_non_increasing``, walks the partitions of n
(optionally without repeated odd parts) in reverse lexicographic order;
overpartitions are expanded from it.  The tests hold the sweeps to these
enumerators.  The sweeps count without walking: a statistic's row writes
it as a head term of the largest part plus a term per part (the crank's,
once its number of ones is fixed), and one dynamic program over part
values, ``_tabulate``, counts a row's objects by statistic.

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

# Weight limits of the tallies, the one counting-limit rule (require_limit).
# A cold sweep at each takes at most 0.12 s; they guard only --order
# overrides, whose cost grows fast, and --unsafe-bounds lifts them.
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
# Cached per-n sweeps, counted from the rows, serve every statistic and
# modulus.  Counters are keyed by the raw statistic value; weights are object
# counts, part counts, or ones, and no counter holds a zero-valued entry.
# ---------------------------------------------------------------------------


def _tabulate(kinds, n: int) -> tuple[Counter, Counter]:
    """Objects and parts by statistic over the objects of weight n of a row.

    Kinds are added in ascending order of (value, precedence); acc[w] maps
    the term sum of the objects of weight w built so far to [objects,
    parts].  An object that reaches weight n with a copy of the current
    kind has that kind as its largest part, so its head is added there.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    acc: list[dict] = [{} for _ in range(n + 1)]
    acc[0][0] = [1, 0]
    for v in range(1, n + 1):
        for once, term, head in kinds(v):
            # one copy extends the objects without this kind (weights
            # descending), any number those with it (ascending)
            for w in range(n, v - 1, -1) if once else range(v, n + 1):
                dst, shift = acc[w], term + head if w == n else term
                for s, (c, p) in acc[w - v].items():
                    e = dst.setdefault(s + shift, [0, 0])
                    e[0] += c
                    e[1] += p + c
    return (Counter({m: c for m, (c, _) in acc[n].items()}),
            Counter({m: p for m, (_, p) in acc[n].items() if p}))


def _counters(n: int, **rows) -> dict[str, Counter]:
    """The `<name>_count` and `<name>_parts` counters of each row at n."""
    sweep = {}
    for name, kinds in rows.items():
        sweep[f"{name}_count"], sweep[f"{name}_parts"] = _tabulate(kinds, n)
    return sweep


@lru_cache(maxsize=None)
def partition_sweep(n: int) -> dict[str, Counter]:
    sweep = _counters(n, rank=_dyson_kinds)
    crank_count = sweep["crank_count"] = Counter()
    crank_ones = sweep["crank_ones"] = Counter()
    for ones in range(n + 1):
        for c, cnt in _tabulate(partial(_crank_kinds, ones), n - ones)[0].items():
            crank_count[c - ones] += cnt
            if ones:
                crank_ones[c - ones] += cnt * ones
    return sweep


@lru_cache(maxsize=None)
def overpartition_sweep(n: int) -> dict[str, Counter]:
    return _counters(n, rank=_ov_rank_kinds, m2=_ov_m2_kinds)


@lru_cache(maxsize=None)
def distinct_odd_sweep(n: int) -> dict[str, Counter]:
    return _counters(n, m2=_do_m2_kinds)


@lru_cache(maxsize=None)
def pair_sweep(n: int) -> dict[str, Counter]:
    return _counters(n, rank=_pair_kinds)


@lru_cache(maxsize=None)
def pair_profile(n: int) -> Counter:
    """Joint distribution over pairs of weight n, keyed by (r, s, t, m):
    r = overlined-in-lam + plain-in-mu, s = #parts of mu, t = total
    parts, m = pair rank."""
    require_limit("pair_profile", ("NTpair",), n)
    base = 2 * n + 2  # every digit has |value| <= n
    profile: Counter = Counter()
    for key, cnt in _tabulate(partial(_pair_kinds, base=base), n)[0].items():
        m = (key + n) % base - n
        rst = (key - m) // base
        profile[(rst % base, rst // base % base, rst // base**2, m)] = cnt
    return profile


# ---------------------------------------------------------------------------
# Tallies by residue class.
# ---------------------------------------------------------------------------

# family -> (sweep function, raw-counter key, DEFAULT_BOUNDS key)
_TALLY_TABLE = {
    "NT": (partition_sweep, "rank_parts", "partition"),
    "N": (partition_sweep, "rank_count", "partition"),
    "NTbar": (overpartition_sweep, "rank_parts", "overpartition"),
    "Nbar": (overpartition_sweep, "rank_count", "overpartition"),
    "NTbar2": (overpartition_sweep, "m2_parts", "overpartition"),
    "Nbar2": (overpartition_sweep, "m2_count", "overpartition"),
    "NT2": (distinct_odd_sweep, "m2_parts", "distinct_odd"),
    "N2": (distinct_odd_sweep, "m2_count", "distinct_odd"),
    "Momega": (partition_sweep, "crank_ones", "partition"),
    "M": (partition_sweep, "crank_count", "partition"),
    "NTpair": (pair_sweep, "rank_parts", "pair"),
    "Npair": (pair_sweep, "rank_count", "pair"),
}

TALLY_FAMILIES = tuple(_TALLY_TABLE)


def require_limit(who: str, families, n: int, unsafe: bool = False):
    """Raise BoundExceeded when counting `families` to weight n passes the
    tightest of their limits, unless `unsafe` lifts them."""
    limit = min(DEFAULT_BOUNDS[_TALLY_TABLE[f][2]] for f in families)
    if n > limit and not unsafe:
        raise BoundExceeded(f"{who} needs enumeration to n={n}, limit is {limit}")


def _raw(family: str, n: int) -> Counter:
    try:
        sweep, key, _ = _TALLY_TABLE[family]
    except KeyError:
        raise ValueError(
            f"unknown statistic family {family!r}; known: {sorted(_TALLY_TABLE)}"
        ) from None
    return sweep(n)[key]


def tally(family: str, n: int, k: int) -> list[int]:
    """Exact counters by residue class mod k for the given family at
    weight n.  Part-count families sum parts, count families count
    objects, Momega sums ones."""
    if k < 1:
        raise ValueError("modulus must be >= 1")
    out = [0] * k
    for value, weight in _raw(family, n).items():
        out[value % k] += weight
    return out


def raw_tally(family: str, n: int) -> Counter:
    """Counter keyed by the raw statistic value (no residue reduction)."""
    return _raw(family, n)


def clear_caches():
    """Drop all memoized sweeps (mainly for tests)."""
    partition_sweep.cache_clear()
    overpartition_sweep.cache_clear()
    distinct_odd_sweep.cache_clear()
    pair_sweep.cache_clear()
    pair_profile.cache_clear()
