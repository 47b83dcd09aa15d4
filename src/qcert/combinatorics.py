"""Exhaustive enumeration of partition-like objects and their statistics.

This module is the brute-force oracle for the whole project: every
generating function is checked against counts and statistic tallies
computed here by walking actual objects.

One iterative generator, ``_non_increasing``, walks the partitions of n
(optionally without repeated odd parts) in reverse lexicographic order;
overpartitions are expanded from it.  Each statistic has one definition,
shared by its public function and the sweeps (the pair rank works on
per-overpartition summaries, `_pair_rank`).

Conventions for objects a definition leaves open live in the statistic
functions, not in the sweeps:

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
from functools import lru_cache
from typing import Iterator

from .errors import BoundExceeded, RepeatedOddPart

# Default sweep limits: full sweeps up to these weights finish in minutes.
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

    def weight(self) -> int:
        return sum(v for v, _ in self.parts)

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

    def weight(self) -> int:
        return self.lam.weight() + self.mu.weight()


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
# Statistics.
# ---------------------------------------------------------------------------


def dyson_rank(parts: tuple[int, ...]) -> int:
    """Largest part minus number of parts; 0 for the empty partition."""
    if not parts:
        return 0
    return parts[0] - len(parts)


def ov_rank(op: Overpartition) -> int:
    """Dyson's rank carried over verbatim to overpartitions."""
    if not op.parts:
        return 0
    return op.parts[0][0] - len(op.parts)


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


def m2_rank_distinct_odd(parts: tuple[int, ...]) -> int:
    """ceil(largest/2) - #parts for partitions without repeated odd parts."""
    if not parts:
        return 0
    odds = [v for v in parts if v % 2]
    if len(odds) != len(set(odds)):
        raise RepeatedOddPart(f"partition {parts} repeats an odd part")
    return -(-parts[0] // 2) - len(parts)


def _ov_summary(op: Overpartition) -> tuple[int, int, int, int, int]:
    """(largest, leading part overlined, #parts, #overlined, #plain); all
    zero for the empty overpartition."""
    parts = op.parts
    if not parts:
        return (0, 0, 0, 0, 0)
    t = len(parts)
    ovc = sum(1 for _, ov in parts if ov)
    return (parts[0][0], int(parts[0][1]), t, ovc, t - ovc)


def _pair_rank(lam: tuple, mu: tuple) -> int:
    """The pair rank from the `_ov_summary` of lam and of mu."""
    chi = 1 if (mu[0] > lam[0] and not mu[1]) else 0
    return (lam[0] if lam[0] >= mu[0] else mu[0]) - lam[2] - mu[3] - chi


def pair_rank(pair: OverpartitionPair) -> int:
    """Largest part of the pair, minus #parts of lam, minus #overlined of
    mu, minus chi; chi is 1 when the largest part is plain and lives in mu.

    Parts are ranked overlined-lam > plain-lam > overlined-mu > plain-mu
    at equal value, so "the largest part" is in mu only when mu strictly
    exceeds lam in value.  The empty pair has rank 0.
    """
    return _pair_rank(_ov_summary(pair.lam), _ov_summary(pair.mu))


def crank(parts: tuple[int, ...]) -> int:
    """Largest part when 1 is absent; otherwise #(parts > #ones) - #ones."""
    if not parts:
        return 0
    ones = count_ones(parts)
    if ones == 0:
        return parts[0]
    bigger = sum(1 for v in parts if v > ones)
    return bigger - ones


def count_ones(parts: tuple[int, ...]) -> int:
    ones = 0
    for v in reversed(parts):
        if v != 1:
            break
        ones += 1
    return ones


# ---------------------------------------------------------------------------
# Cached raw sweeps: one enumeration pass per (object family, n) serves
# every statistic and every modulus.  Counters are keyed by the raw
# statistic value; weights are object counts, part counts, or ones, and
# no counter holds a zero-valued entry.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partition_sweep(n: int) -> dict[str, Counter]:
    rank_count: Counter = Counter()
    rank_parts: Counter = Counter()
    crank_count: Counter = Counter()
    crank_ones: Counter = Counter()
    for parts in enumerate_partitions(n):
        r = dyson_rank(parts)
        rank_count[r] += 1
        if parts:
            rank_parts[r] += len(parts)
        c = crank(parts)
        crank_count[c] += 1
        ones = count_ones(parts)
        if ones:
            crank_ones[c] += ones
    return {
        "rank_count": rank_count,
        "rank_parts": rank_parts,
        "crank_count": crank_count,
        "crank_ones": crank_ones,
    }


@lru_cache(maxsize=None)
def overpartition_sweep(n: int) -> dict[str, Counter]:
    rank_count: Counter = Counter()
    rank_parts: Counter = Counter()
    m2_count: Counter = Counter()
    m2_parts: Counter = Counter()
    for op in enumerate_overpartitions(n):
        r = ov_rank(op)
        m2 = m2_rank_overpartition(op)
        rank_count[r] += 1
        m2_count[m2] += 1
        t = len(op.parts)
        if t:
            rank_parts[r] += t
            m2_parts[m2] += t
    return {
        "rank_count": rank_count,
        "rank_parts": rank_parts,
        "m2_count": m2_count,
        "m2_parts": m2_parts,
    }


@lru_cache(maxsize=None)
def distinct_odd_sweep(n: int) -> dict[str, Counter]:
    m2_count: Counter = Counter()
    m2_parts: Counter = Counter()
    for parts in enumerate_distinct_odd(n):
        m2 = m2_rank_distinct_odd(parts)
        m2_count[m2] += 1
        if parts:
            m2_parts[m2] += len(parts)
    return {"m2_count": m2_count, "m2_parts": m2_parts}


@lru_cache(maxsize=None)
def _ov_summaries(n: int) -> list[tuple[int, int, int, int, int]]:
    """The `_ov_summary` of every overpartition of n."""
    return [_ov_summary(op) for op in enumerate_overpartitions(n)]


def _pair_joint(n: int) -> Counter:
    """One uncached pass over the pairs of weight n; see `pair_profile`."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    joint: Counter = Counter()
    for j in range(n + 1):
        mus = _ov_summaries(n - j)
        for lam in _ov_summaries(j):
            for mu in mus:
                joint[(lam[3] + mu[4], mu[2], lam[2] + mu[2], _pair_rank(lam, mu))] += 1
    return joint


@lru_cache(maxsize=None)
def pair_sweep(n: int) -> dict[str, Counter]:
    rank_count: Counter = Counter()
    rank_parts: Counter = Counter()
    for (_r, _s, t, m), cnt in _pair_joint(n).items():
        rank_count[m] += cnt
        if t:
            rank_parts[m] += cnt * t
    return {"rank_count": rank_count, "rank_parts": rank_parts}


@lru_cache(maxsize=None)
def pair_profile(n: int) -> Counter:
    """Joint distribution over pairs of weight n, keyed by (r, s, t, m):
    r = overlined-in-lam + plain-in-mu, s = #parts of mu, t = total
    parts, m = pair rank."""
    bound = DEFAULT_BOUNDS["pair"]
    if n > bound:
        raise BoundExceeded(f"pair profile at n={n} exceeds bound {bound}")
    return _pair_joint(n)


# ---------------------------------------------------------------------------
# Tallies by residue class.
# ---------------------------------------------------------------------------

# family -> (sweep function, raw-counter key, enumeration bound key)
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

# family -> which enumeration bound governs it
FAMILY_BOUND_KEY = {family: row[2] for family, row in _TALLY_TABLE.items()}


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
    _ov_summaries.cache_clear()
    pair_sweep.cache_clear()
    pair_profile.cache_clear()
