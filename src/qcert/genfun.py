"""Rank generating functions, part-count difference series, and the
closed forms they are checked against.

The central objects are the four specializations of the overpartition-pair
rank generating function

    sum_{n>=0} (-1/d, -1/e)_n (x d e q)^n / (z q, x q / z)_n

obtained at (d, e) = (0, 0), (1, 0), (1, 1/q with q -> q^2) and
(0, 1/q with q -> q^2).  The two q^2 families absorb the base change
into every Pochhammer argument, which is what makes their coefficient
distributions match the enumeration oracle.  ``Family`` names exactly
these four; the generic pair series, at sampled int weights, is
``genovpair_series``.

Part-count difference series (total parts in objects with statistic
congruent to b, minus those congruent to k - b) are the x-derivative at
x = 1.  Every inner term vanishes at x = 1, so A(1) = 0 by construction,
A'(1) = sum_n C_n(1) * g_n'(1), and the prefactor enters at x = 1 only:
integers packed along q, one int per summand on its window
(``_packed_difference``), each C_n(1) a few shift-adds of its level
factors, which cancel at x = 1 to O(1) factors over at most one 1 +- q^m
(``_inner_residues``).  Each A'(1) build asserts every digit within the
bound that set its width.  At x = 1 the prefactor is one over a theta
series with O(sqrt N) terms (Euler's pentagonal theorem, Gauss's phi and
psi), so a series is A'(1) divided by it, once per theta series.
Each series is a reader of the one store (``memo.widest``): one build per
key, at the widest order read, that lower reads cut.  The readers are
A'(1) and the difference series per (family, b, k), the theta series,
level factors and rank sum per family, and each closed form by its id;
``_CACHES`` lists them, for ``clear_caches``.

Everything here is computed over the integers.  The generic helpers
take the coefficient ring, which carries x: x = 1 over ``RAT``, 1 + eps
over ``DualRing``, and x itself over the tests' oracle ring.  The
z-refined builders (the rank sums, the inner terms, the transformed
side and its prefactor) take a ``_ZMap``, which says where a term
c z^e q^m goes: packed, z = 2^W after the twist q -> zq (Kronecker
substitution); over a ``DualRing`` they build a ``DualSeries``.  The
tests pass a map with z formal, over their Laurent ring: that generic
route is the reference for every packed build.  ``rank_gf`` and
``genovpair_series`` are built packed over ``RAT`` and read in place
(``PackedZ``): a distribution is compared as one packed int, residue
sums mod k are the digits of the int folded mod 2^(Wk) - 1, and only a
witness reads the digits back, as text (``z_text``).  The samples of
the pair series share one width (``genovpair_samples``).
``thmain_check`` compares its sides packed over ``DualRing(RAT)``, each
two int series (value and derivative); it builds the prefactor once,
untwisted, for the majorant and the packed side, and twists it in the
product as shifts.  Each W comes from a bound on the digits, the
majorant of the same build, asserted by ``_packing_width``.

The closed forms live in one table, ``_FORM_BUILDERS``.  Every infinite
product in a closed form is one ``pochhammer_quotient`` call, its powers
stated by repeating factor rows (``_poch``, ``_bracket``), which it
merges into net powers.  The forms that multiply a generating function
by an alternating kernel sum all come from one builder,
``_kernel_product``, over a three-row table keyed by kernel family.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import count, takewhile
from math import prod
from operator import lshift
from typing import Callable

from .errors import UnknownFormId
from .memo import widest
from .rings import RAT, DualRing, term_text
from .series import (
    DualSeries,
    Monomial,
    QSeries,
    add_shifted,
    balanced_digits,
    folded_digits,
    lerch_sum,
    mono,
    pochhammer_quotient,
    series_type,
)


class Family(str, Enum):
    """Rank statistic families, named by object family and statistic."""

    DYSON = "dyson"
    OV_RANK = "ov-rank"
    OV_M2 = "ov-m2"
    DO_M2 = "do-m2"


@dataclass(frozen=True)
class _FamilyData:
    qstep: int
    count_form: str  # the closed form of the object counts, the rank gf at z = 1
    # rank gf summand: extras(n) * x^n * q^{lhs_quad(n)} / (z-product)
    lhs_extra: tuple[Monomial, ...]
    lhs_quad: Callable[[int], int]
    # prefactor of the transformed sum, as a quotient of infinite products
    pref_num: tuple[tuple[Monomial, int], ...]
    pref_den: tuple[tuple[Monomial, int], ...]
    theta: Callable[[int], int]  # at x = 1: 1 / sum_{n in Z} (-1)^n q^{theta(n)}
    # inner summand: (-x)^n q^{inner_quad(n)} prod_{j<=n} nums(j) / dens(j) / (q^s; q^s)_{n-1},
    # a row entry a is the factor 1 - a q^{(j-1)s} of level j; at x = 1 most cancel (`_inner_residues`)
    inner_num: tuple[Monomial, ...]
    inner_den: tuple[Monomial, ...]
    inner_quad: Callable[[int], int]


_X = 1  # marker for readability: monomials with xexp=1 carry one power of x


_FAMILY_DATA = {
    Family.DYSON: _FamilyData(
        qstep=1,
        count_form="partition-gf",
        lhs_extra=(),
        lhs_quad=lambda n: n * n,
        pref_num=(),
        pref_den=((mono(1, 1, xexp=_X), 1),),
        theta=lambda n: n * (3 * n - 1) // 2,  # (q;q)_inf, Euler
        inner_num=(mono(1, 1, xexp=_X),),
        inner_den=(),
        inner_quad=lambda n: (3 * n * n + n) // 2,
    ),
    Family.OV_RANK: _FamilyData(
        qstep=1,
        count_form="overpartition-gf",
        lhs_extra=(mono(-1, 0),),
        lhs_quad=lambda n: n * (n + 1) // 2,
        pref_num=((mono(-1, 1, xexp=_X), 1),),
        pref_den=((mono(1, 1, xexp=_X), 1),),
        theta=lambda n: n * n,  # (q;q)_inf / (-q;q)_inf, Gauss
        inner_num=(mono(1, 1, xexp=_X), mono(-1, 0)),
        inner_den=(mono(-1, 1, xexp=_X),),
        inner_quad=lambda n: n * n + n,
    ),
    # the base-q^2 split (-xq^2, -xq; q^2)_inf / (xq^2, xq; q^2)_inf of
    # the specialized prefactor, merged into base q
    Family.OV_M2: _FamilyData(
        qstep=2,
        count_form="overpartition-gf",
        lhs_extra=(mono(-1, 0), mono(-1, 1)),
        lhs_quad=lambda n: n,
        pref_num=((mono(-1, 1, xexp=_X), 1),),
        pref_den=((mono(1, 1, xexp=_X), 1),),
        theta=lambda n: n * n,
        inner_num=(mono(1, 2, xexp=_X), mono(-1, 0), mono(-1, 1)),
        inner_den=(mono(-1, 2, xexp=_X), mono(-1, 1, xexp=_X)),
        inner_quad=lambda n: n * n + 2 * n,
    ),
    Family.DO_M2: _FamilyData(
        qstep=2,
        count_form="distinct-odd-gf",
        lhs_extra=(mono(-1, 1),),
        lhs_quad=lambda n: n * n,
        pref_num=((mono(-1, 1, xexp=_X), 2),),
        pref_den=((mono(1, 2, xexp=_X), 2),),
        theta=lambda n: 2 * n * n + n,  # (q^2;q^2)_inf / (-q;q^2)_inf, Gauss
        inner_num=(mono(1, 2, xexp=_X), mono(-1, 1)),
        inner_den=(mono(-1, 1, xexp=_X),),
        inner_quad=lambda n: 2 * n * n + n,
    ),
}


class _ZMap:
    """Where the z-refined builders send a term c * z^e * q^m, over `ring`.

    z is packed: after the twist q -> zq every z-exponent is >= 0, and
    z = 2^width, so c z^e q^m carries c * 2^(width*(e+m)) and the
    coefficient of q^j is an int whose base-2^width digits are the
    coefficients of z^-j..z^j (`z_digits`); a z-free build takes width
    0.  The tests' formal z is a subclass whose `mul` keeps z^e as a
    Laurent monomial, at width 0, so that no twist is applied.  The
    `majorant` (z = 1) sends every factor (1 + c q^m) to (1 + |c| q^m)
    and every divisor to (1 - |c| q^m), so each of its coefficients
    bounds the absolute sum of the z-coefficients of the same build, and
    with it every digit.
    The builders make `series` over the ring: a DualSeries over a DualRing.
    """

    __slots__ = ("ring", "width", "majorant", "series")

    def __init__(self, ring, width: int = 0, majorant: bool = False):
        self.ring, self.width, self.majorant = ring, width, majorant
        self.series = series_type(ring)

    def mul(self, c, e: int = 0, m: int = 0):
        """c z^e q^m as a scalar, a summand or a factor (1 + c z^e q^m)."""
        if self.majorant:
            return self.ring.lift(abs(c))
        return self.ring.lift(c << self.width * (e + m))

    def div(self, c, e: int = 0, m: int = 0):
        """c z^e q^m as a divisor (1 + c z^e q^m)."""
        return self.ring.lift(-abs(c)) if self.majorant else self.mul(c, e, m)

    def factor(self, a: Monomial, m: int, div: bool = False):
        """The c of (1 + c q^m) = (1 - a) with a's q-power at q^m, a divisor
        when `div` (as ``pochhammer_quotient`` reads its factors)."""
        c = (self.div if div else self.mul)(-a.coeff, m=m)
        return c * self.ring.x_power(a.xexp) if a.xexp else c


def _width(bound: int) -> int:
    """The least digit width whose balanced digits hold |d| <= bound."""
    return bound.bit_length() + 1


def _packing_width(bounds) -> int:
    """The width of z = 2^width for a build whose digits at q^n are at most
    bounds[n] in absolute value; each bound is asserted below half a digit,
    so that a width short of its bound is an error, never aliased digits."""
    width = _width(max(bounds))
    for n, b in enumerate(bounds):
        if b >> (width - 1):
            raise AssertionError(f"packed width {width} cannot hold the digit bound {b} at q^{n}")
    return width


def z_digits(c: int, width: int, j: int) -> dict:
    """A packed coefficient of q^j read back to z, for witnesses: its
    nonzero balanced digits as {m: digit}, lowest m first, digit i being
    the coefficient of z^(i-j)."""
    ds = balanced_digits(c, width, abs(c).bit_length() // width + 2)
    return {i - j: d for i, d in enumerate(ds) if d}


def z_text(c: int, width: int, j: int) -> str:
    """`z_digits` as the text of a Laurent polynomial in z, lowest power
    first: "z^-1 + 3 - 2*z^2", "0" when every digit is 0."""
    bits = [term_text(str(d), "z", m) for m, d in z_digits(c, width, j).items()]
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


class PackedZ:
    """A z-refined series over RAT at z = 2^width after the twist q -> zq,
    read in place: coefficient j is an int whose balanced base-2^width
    digits are the coefficients of z^-j..z^j, and the majorant that chose
    the width bounds their absolute sum below half a digit.  `matches` and
    `residue_sums` read it as ints; only a witness reads its digits back
    (`z_text`)."""

    __slots__ = ("coeffs", "width")

    def __init__(self, coeffs: list, width: int):
        self.coeffs, self.width = coeffs, width

    def matches(self, j: int, dist) -> bool:
        """Whether coefficient j is sum_m dist[m] z^m: dist packed the same
        way, compared as one int.  A value of half a digit or more, or an
        exponent below -j, which the packing cannot hold, is a mismatch;
        values below half a digit make the packed int's balanced digits
        dist itself, so an exponent above j is a digit that coefficient j
        does not have."""
        width = self.width
        if max(map(abs, dist.values()), default=0) >> (width - 1):
            return False
        try:
            packed = sum(map(lshift, dist.values(), [width * (m + j) for m in dist]))
        except ValueError:  # a negative shift: an exponent below -j
            return False
        return packed == self.coeffs[j]

    def residue_sums(self, j: int, k: int) -> list:
        """Coefficient j's z-coefficients summed by exponent mod k: the int
        folded mod 2^(width k) - 1 (`folded_digits`), its digit r the sum at
        the exponents = r - j, rotated by j.  Each folded digit is bounded
        by the same majorant as the digits."""
        d, s = folded_digits(self.coeffs[j], self.width, k), j % k
        return d[s:] + d[:s]

    def text(self, j: int) -> str:
        return z_text(self.coeffs[j], self.width, j)


def _inner_terms(family: Family, z: _ZMap, order: int, margin=None):
    """Yield (n, common, quad) where common is the inner summand at level
    n without its q^{quad} shift and without the residue bracket.

    `margin(n)` is how far below q^{quad(n)} the caller's bracket can
    reach; iteration continues while quad(n) - margin(n) <= order, and
    level n's term is known to q^(order - quad(n) + margin(n)), the most
    its summand reads.
    """
    d = _FAMILY_DATA[family]
    s = d.qstep
    neg_x = z.mul(-1) * z.ring.x_power(1)
    cur = z.series.one(z.ring, order)
    for n in count(1):
        quad = d.inner_quad(n)
        reach = order - quad + (margin(n) if margin else 0)
        if reach < 0:
            return
        cur = cur.truncate(reach)
        for a in d.inner_num:
            m = a.qexp + (n - 1) * s
            cur = cur.mul_binomial(z.factor(a, m), m)
        cur = cur.mul_scalar(neg_x)
        if n >= 2:
            cur = cur.div_binomial(z.div(-1, 0, s * (n - 1)), s * (n - 1))
        for a in d.inner_den:
            m = a.qexp + (n - 1) * s
            cur = cur.div_binomial(z.factor(a, m, div=True), m)
        yield n, cur, quad


def _inner_residues(family: Family, order: int):
    """Yield (n, quad, scalar, nums, div) per level of `_inner_terms`, with
    C_n(1) = scalar * prod_{(c, m) in nums} (1 + c q^m) / (1 + c' q^m') for
    div = (c', m'), or None: the level factors at x = 1, equal factors and
    divisors cancelled, the m = 0 factors in scalar.  A divisor other than
    one 1 +- q^m, m > 0, is an AssertionError."""
    d, net = _FAMILY_DATA[family], {}
    rows = [(-a.coeff, a.qexp, 1) for a in d.inner_num] + [(-a.coeff, a.qexp, -1) for a in d.inner_den]
    for n in takewhile(lambda n: d.inner_quad(n) <= order, count(1)):
        for c, e, by in rows + [(-1, 0, -1)] * (n > 1):  # and (q^s; q^s)_(n-1)
            f = (c, e + (n - 1) * d.qstep)
            net[f] = net.get(f, 0) + by
        net = {f: v for f, v in net.items() if v}
        scalar = (-1) ** n * prod(1 + c for (c, m), v in net.items() if not m for _ in range(v))
        nums = [(c, m) for (c, m), v in net.items() if m for _ in range(v)]
        divs = [f for f, v in net.items() if v < 0 for _ in range(-v)]
        if len(divs) > 1 or divs and (abs(divs[0][0]) != 1 or not divs[0][1]):
            raise AssertionError(f"inner term {n} of {family.value} keeps the divisors {divs}")
        yield n, d.inner_quad(n), scalar, nums, divs[0] if divs else None


@widest(lambda levels, n: [lv for lv in levels if lv[1] <= n])
def _level_table(family: Family, order: int) -> list:
    """The levels of `_inner_residues`, each with its `_residue_bound` appended."""
    return [(*lv, _residue_bound(*lv[2:])) for lv in _inner_residues(family, order)]


def _residue_bound(scalar: int, nums, div) -> int:
    """The largest |coefficient| of the numerator, or with a divisor 1 +- q^m,
    whose quotient sums them with signs, their sum: a bound on C_n(1)."""
    poly = {0: scalar}
    for c, m in nums:
        for e, v in list(poly.items()):
            poly[e + m] = poly.get(e + m, 0) + c * v
    return (sum if div else max)(map(abs, poly.values()))


def _packed_term(scalar: int, nums, div, width: int, span: int) -> int:
    """C_n(1) at q = 2^width: a shift-add per factor; a divisor 1 + c q^m, c = +-1, is
    (1 - c q^m) / (1 - q^(2m)), one more shift-add and one `_div_packed` mod 2^span."""
    x = scalar
    for c, m in nums + [(-div[0], div[1])] if div else nums:
        x += (c * x) << width * m
    return _div_packed(x, width, 2 * div[1], span) if div else x


@widest(lambda terms, n: tuple(takewhile(lambda ec: ec[0] <= n, terms)))
def _theta(family: Family, order: int) -> tuple:
    """The family's theta series sum_{n in Z} (-1)^n q^{theta(n)} to q^order,
    one over its prefactor at x = 1 (Euler's pentagonal theorem, Gauss's
    phi and psi): its O(sqrt N) nonzero terms (e, c), ascending."""
    t, terms = _FAMILY_DATA[family].theta, {0: 1}
    for n in takewhile(lambda n: min(t(n), t(-n)) <= order, count(1)):  # both grow
        for e in (t(n), t(-n)):
            if e <= order:
                terms[e] = terms.get(e, 0) + (-1) ** n
    return tuple(sorted(terms.items()))


# ---------------------------------------------------------------------------
# Rank generating functions.
# ---------------------------------------------------------------------------


def _rank_sum(z: _ZMap, extras, quad, qstep: int, scalar, x, order: int) -> QSeries:
    """sum_{n>=0} prod_{(lead, a) in extras} prod_{k<n} (lead - a q^(ks))
    scalar^n q^{quad(n)} / (z q^s, x q^s / z; q^s)_n, with x a value of
    the ring (quad(0) = 0); the running product is kept only to
    q^(order - quad(n)), the most level n reads, and carries the twist of
    q^quad(n) from one level to the next."""
    acc = z.series.one(z.ring, order)
    cur = z.series.one(z.ring, order)
    for n in takewhile(lambda n: quad(n) <= order, count(1)):
        cur = cur.truncate(order - quad(n))
        for lead, a in extras:
            m = a.qexp + (n - 1) * qstep
            if lead == 1:
                cur = cur.mul_binomial(z.factor(a, m), m)
            else:
                nxt = cur.mul_scalar(lead)
                nxt.add_shifted(cur, m, z.factor(a, m))
                cur = nxt
        cur = cur.mul_scalar(scalar * z.mul(1, 0, quad(n) - quad(n - 1)))
        m = qstep * n
        cur = cur.div_binomial(z.div(-1, 1, m), m).div_binomial(z.div(-1, -1, m) * x, m)
        acc.add_shifted(cur, quad(n))
    return acc


def _rank_sum_of(family: Family, z: _ZMap, order: int) -> QSeries:
    d = _FAMILY_DATA[family]
    x = z.ring.x_power(1)
    return _rank_sum(z, [(1, a) for a in d.lhs_extra], d.lhs_quad, d.qstep, x, x, order)


@widest(lambda g, n: PackedZ(g.coeffs[: n + 1], g.width))
def rank_gf(family: Family, order: int) -> PackedZ:
    """z-refined rank generating function at x = 1, packed (`PackedZ`):
    coefficient of z^m q^n counts objects of weight n with statistic m.

    A lower read cuts the family's one build (`widest`); a wider read
    rebuilds it, its width from the majorant of the same build.  Each
    coefficient c is asserted as an int: its digits lie in the rank range,
    -H_n <= c < 2^(width(2n+1)) - H_n with H_n half a digit in each of the
    2n + 1 places, and their sum, the balanced residue of c mod
    2^width - 1, is the count form's coefficient."""
    width = _packing_width(_rank_sum_of(family, _ZMap(RAT, 0, majorant=True), order).coeffs)
    g = PackedZ(_rank_sum_of(family, _ZMap(RAT, width), order).coeffs, width)
    counts = closed_form(_FAMILY_DATA[family].count_form, order).coeffs
    half = 1 << (width - 1)
    offset, step = half, half + (half << width)
    for n, c in enumerate(g.coeffs):
        if n:
            offset += step << width * (2 * n - 1)
        if (c + offset) >> width * (2 * n + 1):
            found = list(z_digits(c, width, n))
            raise AssertionError(f"rank exponent out of range at q^{n}: [{found[0]}, {found[-1]}]")
        (total,) = folded_digits(c, width, 1)
        if total != counts[n]:
            raise AssertionError(f"rank counts at q^{n} sum to {total}, not to the count {counts[n]}")
    return g


def rank_count_diff(family: Family, b1: int, b2: int, k: int, order: int) -> QSeries:
    """Series of (#objects with statistic = b1 mod k) - (= b2 mod k)."""
    g = rank_gf(family, order)
    out = []
    for n in range(order + 1):
        sums = g.residue_sums(n, k)
        out.append(sums[b1 % k] - sums[b2 % k])
    return QSeries(RAT, order, out)


def _div_packed(x: int, width: int, m: int, span: int) -> int:
    """x / (1 - q^m) at q = 2^width, mod 2^span: times each factor
    (1 + q^(m 2^j)) below q^(span/width), one masked shift-add each."""
    mask, sh = (1 << span) - 1, width * m
    x &= mask
    while sh < span:
        x = (x + (x << sh)) & mask
        sh <<= 1
    return x


def _packed_difference(family: Family, b: int, k: int, order: int) -> tuple[int, int, int]:
    """(A'(1), width, bound): the inner sum A's x-derivative at x = 1 as one
    int at q = 2^width, from the x = 1 inner terms C_n(1), and its digit bound.

    Each summand of A is C_n(x) * g_n(x) with g_n(1) = 0, so C_n'(1)
    drops out (and A(1) = 0) and A'(1) = sum_n C_n(1) * g_n'(1), where,
    with lo = quad + s(b-1)n, hi = quad + s(k-b-1)n and kn = s*k*n,

        g_n'(1) = [(k-b) q^hi - b q^lo + b q^(hi+kn) - (k-b) q^(lo+kn)] / (1 - q^kn)^2.

    Each summand is built mod q^(order + 1 - start) and added at q^start =
    q^min(lo, hi), C_n(1) packed from its factors (`_packed_term`).  The
    width holds the bound sum_n B_n * 2k * (order//kn + 1)^2, B_n =
    `_residue_bound` (a numerator's absolute coefficient sum is at most
    2k, and that of 1/(1 - q^kn)^2 to q^order at most (order//kn + 1)^2)."""
    s = _FAMILY_DATA[family].qstep
    levels = _level_table(family, order)
    bound = sum(rb * 2 * k * (order // (s * k * n) + 1) ** 2 for n, *_, rb in levels)
    width, deriv = -(-_packing_width([bound]) // 8) * 8, 0  # whole bytes read fastest
    for n, quad, scalar, nums, div, _ in levels:
        lo, hi, kn = quad + s * (b - 1) * n, quad + s * (k - b - 1) * n, s * k * n
        start = min(lo, hi)
        if start > order:
            continue
        span = width * (order - start + 1)
        packed = _packed_term(scalar, nums, div, width, span)
        at_lo, at_hi = packed << width * (lo - start), packed << width * (hi - start)
        num = (k - b) * at_hi - b * at_lo + ((b * at_hi - (k - b) * at_lo) << width * kn)
        deriv += _div_packed(_div_packed(num, width, kn, span), width, kn, span) << width * start
    return deriv, width, bound


@widest(QSeries.truncate)
def _nt_deriv(family: Family, b: int, k: int, order: int) -> QSeries:
    """A'(1) for one (family, b, k): `_packed_difference` read back, each
    digit asserted within its bound."""
    if not 1 <= b <= k - 1:
        raise ValueError("need 1 <= b <= k-1")
    deriv, width, bound = _packed_difference(family, b, k, order)
    digits = balanced_digits(deriv, width, order + 1)
    if max(map(abs, digits)) > bound:
        n = next(n for n, d in enumerate(digits) if abs(d) > bound)
        raise AssertionError(f"packed A'(1) digit {digits[n]} at q^{n} is past its bound {bound}")
    return QSeries._of(RAT, order, digits)


@widest(QSeries.truncate)
def nt_diff_gf(family: Family, b: int, k: int, order: int) -> QSeries:
    """Series over n of (total parts with statistic = b mod k) minus
    (total parts with statistic = k-b mod k), computed as -d/dx at x = 1
    of the transformed rank sum P*A.

    With x = 1 every power of x is 1, so A(1) = 0 and d/dx(P*A) at x = 1
    is P(1)*A'(1).  A'(1) = sum_n C_n(1) * g_n'(1) needs only the x = 1
    inner terms (see `_packed_difference`), and each build of it
    (`_nt_deriv`) asserts every digit within its stated bound.
    P(1) is one over the family's theta series (`_theta`), so the result
    is one sparse division (`QSeries.div_sparse`).  The inner sum over
    honest x-polynomials, in the tests, is the oracle for this collapse.
    """
    return -_nt_deriv(family, b, k, order).div_sparse(_theta(family, order))


def nt_diff_combo(terms, order: int) -> QSeries:
    """Integer combination sum(c * nt_diff_gf(family, b, k)) of difference
    series; `terms` is an iterable of (coeff, family, b, k).  By linearity
    it is -sum c * A'(1) / theta per theta series: one division per theta
    series, so OV_RANK and OV_M2, whose theta series are equal, share one."""
    derivs = {}
    for c, family, b, k in terms:
        d = derivs.setdefault(_theta(family, order), [0] * (order + 1))
        add_shifted(d, _nt_deriv(family, b, k, order).coeffs, 0, c)
    acc = QSeries.zeros(RAT, order)
    for theta, d in derivs.items():
        acc = acc - QSeries(RAT, order, d).div_sparse(theta)
    return acc


# ---------------------------------------------------------------------------
# The main transformation, checked per specialization.
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    """The two sides are kept packed (`_ZMap`), each a DualSeries over RAT;
    `text` reads one side's coefficient back, for a witness."""

    name: str
    ok: bool
    first_mismatch: int | None
    order: int
    packed: tuple[DualSeries, DualSeries]
    width: int

    def text(self, side: int, n: int) -> str:
        """Coefficient n of side 0 (lhs) or 1 (rhs) as a jet of Laurent
        polynomials in z, "(value + deriv*eps)"."""
        value, deriv = (z_text(h.coeffs[n], self.width, n) for h in self.packed[side].at_one())
        return f"({value} + {deriv}*eps)"


def _thmain_prefactor(family: Family, ring, order: int) -> DualSeries:
    """The z-free prefactor of the transformed side over a DualRing,
    untwisted.  Its factors are (1 + x q^m) and its divisors (1 - x q^m),
    so it is its own majorant and one build serves both packed builds."""
    d = _FAMILY_DATA[family]
    if any(a.coeff > 0 for a, _ in d.pref_num) or any(a.coeff < 0 for a, _ in d.pref_den):
        raise AssertionError(f"the prefactor of {family.value} is not its own majorant")
    return pochhammer_quotient(d.pref_num, d.pref_den, order=order, ring=ring)


def _thmain_rhs(family: Family, z: _ZMap, order: int, pref: DualSeries) -> DualSeries:
    """The transformed side over a DualRing, from its untwisted prefactor."""
    d = _FAMILY_DATA[family]
    s = d.qstep
    x = z.ring.x_power(1)
    acc = z.series.zeros(z.ring, order)
    for n, common, quad in _inner_terms(family, z, order, margin=lambda n: s * n):
        # 1/(q^{sn} (1 - z q^{sn}))  +  x z^-1 / (1 - x q^{sn} / z)
        p1 = common.mul_scalar(z.mul(1, 0, quad - s * n)).div_binomial(z.div(-1, 1, s * n), s * n)
        acc.add_shifted(p1, quad - s * n)
        if quad <= order:
            p2 = common.truncate(order - quad).mul_scalar(z.mul(1, -1, quad) * x)
            acc.add_shifted(p2.div_binomial(z.div(-1, -1, s * n) * x, s * n), quad)
    out = z.series.one(z.ring, order)  # 1 - P A, the z-free P twisted inside the product
    out.add_shifted(pref.mul(acc, z.width), 0, z.mul(-1))
    return out


def _thmain_width(family: Family, order: int, pref: DualSeries) -> int:
    """The width of both packed sides: the digits of each side, and of
    their difference, are at most M_lhs + M_rhs in absolute value, from
    the majorants of both sides, in each component."""
    maj = _ZMap(DualRing(RAT), 0, majorant=True)
    bound = _rank_sum_of(family, maj, order)
    bound.add_shifted(_thmain_rhs(family, maj, order, pref), 0)
    return _packing_width(list(map(max, *(half.coeffs for half in bound.at_one()))))


def thmain_check(family: Family, order: int) -> IdentityReport:
    """Compare the rank sum with its transformed product form over z, with
    the exact first x-derivative carried along; the value component is
    the comparison at x = 1.

    Both sides are built over DualRing(RAT) with z packed (`_ZMap`), each
    a DualSeries of two int series, and compared as ints, value and
    derivative.  The prefactor is built once, untwisted, for the majorant
    and the packed side.  `_packing_width` asserts every digit bound of the
    difference (`_thmain_width`) below half a digit, so equal ints mean
    equal sides."""
    pref = _thmain_prefactor(family, DualRing(RAT), order)
    width = _thmain_width(family, order, pref)
    z = _ZMap(DualRing(RAT), width)
    lhs = _rank_sum_of(family, z, order)
    rhs = _thmain_rhs(family, z, order, pref)
    first = lhs.first_difference(rhs)
    return IdentityReport(
        name=f"main-transformation[{family.value}]",
        ok=first is None,
        first_mismatch=first,
        order=order,
        packed=(lhs, rhs),
        width=width,
    )


# ---------------------------------------------------------------------------
# Generic pair series for sampled parameter values.
# ---------------------------------------------------------------------------


def genovpair_series(d: int, e: int, x: int, order: int) -> PackedZ:
    """The joint pair generating function with int weights d, e, x (all
    nonzero), refined by the pair rank in z:

        sum_n (-1/d, -1/e)_n (x d e q)^n / (z q, x q / z)_n,

    built over ints as sum_n prod_{k<n} (d + q^k)(e + q^k) (x q)^n / ...,
    packed (`PackedZ`), with its width from the majorant at |d|, |e|, |x|."""
    return genovpair_samples([(d, e, x)], order)[0]


def genovpair_samples(samples, order: int) -> list[PackedZ]:
    """`genovpair_series` at each (d, e, x) of `samples`, all at one width,
    from the majorant at the largest |d|, |e| and |x|: its coefficients are
    polynomials in those weights with non-negative coefficients, so they
    bound the digits of every sample."""
    if any(type(w) is not int or not w for ws in samples for w in ws):
        raise ValueError("sampled weights d, e, x must be nonzero ints (limits are hardcoded per family)")
    top = (max(abs(w) for w in ws) for ws in zip(*samples))
    width = _packing_width(_pair_sum(_ZMap(RAT, 0, majorant=True), *top, order).coeffs)
    return [PackedZ(_pair_sum(_ZMap(RAT, width), *ws, order).coeffs, width) for ws in samples]


def _pair_sum(z: _ZMap, d: int, e: int, x: int, order: int) -> QSeries:
    return _rank_sum(z, ((d, mono(-1, 0)), (e, mono(-1, 0))), lambda n: n, 1, x, x, order)


# ---------------------------------------------------------------------------
# Closed forms: infinite products, theta quotients, bilateral sums.
# ---------------------------------------------------------------------------


def _poch(c, e: int, step: int, k: int = 1) -> tuple:
    """Factor rows of (c q^e; q^step)_inf^k for `pochhammer_quotient`."""
    return ((mono(c, e), step),) * k


def _bracket(c, e: int, modulus: int, k: int = 1) -> tuple:
    """Factor rows of [c q^e; q^modulus]_inf^k for `pochhammer_quotient`."""
    a = mono(c, e)
    return ((a, modulus), (a.bracket_partner(modulus), modulus)) * k


# kernel family -> (generating function, its multiplier, quad(n), y-step)
# of sum_{n>=1} (-1)^n q^{quad(n)} ypoly(q^{step*n}) / prod (1 + sgn q^{mult*n}).
# The quadratics are written out here rather than read from _FAMILY_DATA:
# the ID-NTDIFF identities compare nt_diff_gf, which reads inner_quad,
# against these forms, so the two routes must not share one.
_KERNELS = {
    Family.OV_RANK: ("overpartition-gf", 2, lambda n: n * n + n, 1),
    Family.OV_M2: ("overpartition-gf", 2, lambda n: n * n + 2 * n, 2),
    Family.DO_M2: ("distinct-odd-gf", 1, lambda n: 2 * n * n + n, 2),
}


def _kernel_sum(family: Family, ypoly, denoms, order: int) -> QSeries:
    """sum_{n>=1} (-1)^n q^{quad(n)} (sum_j ypoly[j] q^{step*n*j})
    / prod_{(sgn, mult) in denoms} (1 + sgn * q^{mult*n}), truncated at
    `order`, with quad and step from the kernel family's row; `ypoly`
    is the coefficient tuple of a polynomial in y, constant term first."""
    _, _, quad, ystep = _KERNELS[family]
    acc = QSeries.zeros(RAT, order)
    for n in takewhile(lambda n: quad(n) <= order, count(1)):
        ys = {ystep * n * j: (-1) ** n * c for j, c in enumerate(ypoly)}  # from q^quad(n)
        term = QSeries.from_terms(RAT, order - quad(n), ys)
        for sgn, mult in denoms:
            term = term.div_binomial(sgn, mult * n)
        add_shifted(acc.coeffs, term.coeffs, quad(n))
    return acc


def _kernel_product(family: Family, ypoly, denoms, order: int) -> QSeries:
    """The kernel family's generating function (times its multiplier)
    times the kernel sum."""
    gf, mult, _, _ = _KERNELS[family]
    inner = _kernel_sum(family, ypoly, denoms, order)
    return closed_form(gf, order).mul_scalar(mult) * inner


# coefficient tuples in y, constant term first: (y - 1)^3 (y^2 - 1) times
# the brace polynomial of each mod-5 form, 1 + 2y + 4y^2 + 2y^3 + y^4 and
# 2y + y^2 + 2y^3, and (y - 1)^4 for the mod-3 forms
_QUINTIC_FULL = (1, -1, 0, -4, 4, 4, -4, 0, -1, 1)
_QUINTIC_MID = (0, 2, -5, 3, 0, 0, 3, -5, 2)
_QUARTIC = (1, -4, 6, -4, 1)


def _sbar2(b: int, order: int) -> QSeries:
    """Bilateral sum with quadratic exponent n^2 + 2bn over 1 - q^{10n}."""
    return lerch_sum(quad=1, lin=2 * b, denom_step=10, denom_sign=-1, order=order)


def _s2(b: int, order: int) -> QSeries:
    """Bilateral sum with quadratic exponent 2n^2 + bn over 1 - q^{10n}."""
    return lerch_sum(quad=2, lin=b, denom_step=10, denom_sign=-1, order=order)


def _base9_sums(c_shift: int, order: int) -> tuple[QSeries, QSeries, QSeries]:
    """The three base-9 bilateral sums of the theta and mod-3 forms.  The
    first leaves out its n = 0 term, exactly 1/2, which each caller adds
    back or cancels in integers."""
    a = lerch_sum(quad=9, lin=6, denom_step=9, denom_sign=1, order=order)
    b = lerch_sum(
        quad=9, lin=12, num_shift=3, denom_step=9, denom_sign=1,
        denom_shift=3, order=order,
    )
    c = lerch_sum(
        quad=9, lin=18, num_shift=c_shift, denom_step=9, denom_sign=1,
        denom_shift=6, order=order,
    )
    return a, b, c


# (-q^9; q^9)_inf^2 / [-q^3; q^9]_inf, shared by both theta right-hand sides
_THETA_RATIO = (_poch(-1, 9, 9, 2), _bracket(-1, 3, 9))


def _theta_base9_rhs(order: int) -> QSeries:
    a, b, c = _base9_sums(9, order)
    ratio = pochhammer_quotient(*_THETA_RATIO, order=order)
    # twice the first sum's n = 0 term is the leading 1
    return QSeries.one(RAT, order) + a.mul_scalar(2) - b.mul_scalar(2) + ratio.mul_scalar(4) * c


def _theta_overpartition_rhs(order: int) -> QSeries:
    lead = pochhammer_quotient(
        _poch(1, 18, 18, 3),
        _bracket(1, 3, 18, 8) + _poch(1, 6, 6, 4) + _bracket(1, 9, 18),
        order=order,
    )
    ratio = pochhammer_quotient(*_THETA_RATIO, order=order)
    inner = QSeries.one(RAT, order)  # 1 + 2q ratio + 4q^2 ratio^2
    add_shifted(inner.coeffs, ratio.coeffs, 1, 2)
    add_shifted(inner.coeffs, (ratio * ratio).coeffs, 2, 4)
    return lead * inner


def _mod3_kernel_base9(order: int) -> QSeries:
    # -1/2 + a - b + c, with the first sum's n = 0 term (+1/2) cancelling the -1/2
    a, b, c = _base9_sums(8, order)
    return a - b + c


_FORM_BUILDERS: dict[str, Callable[[int], QSeries]] = {
    "partition-gf": lambda order: pochhammer_quotient((), _poch(1, 1, 1), order=order),
    "overpartition-gf": lambda order: pochhammer_quotient(
        _poch(-1, 1, 1), _poch(1, 1, 1), order=order
    ),
    "overpartition-pair-gf": lambda order: pochhammer_quotient(
        _poch(-1, 1, 1, 2), _poch(1, 1, 1, 2), order=order
    ),
    "distinct-odd-gf": lambda order: pochhammer_quotient(
        _poch(-1, 1, 2), _poch(1, 2, 2), order=order
    ),
    "ovm2-ntdiff-1-5-rhs": lambda order: _kernel_product(
        Family.OV_M2, _QUINTIC_FULL, ((1, 2), (-1, 10), (-1, 10)), order
    ),
    "ovm2-ntdiff-2-5-rhs": lambda order: _kernel_product(
        Family.OV_M2, _QUINTIC_MID, ((1, 2), (-1, 10), (-1, 10)), order
    ),
    "dom2-ntdiff-1-5-rhs": lambda order: _kernel_product(
        Family.DO_M2, _QUINTIC_FULL, ((-1, 10), (-1, 10)), order
    ),
    "dom2-ntdiff-2-5-rhs": lambda order: _kernel_product(
        Family.DO_M2, _QUINTIC_MID, ((-1, 10), (-1, 10)), order
    ),
    "ovrank-ntdiff-1-3-rhs": lambda order: _kernel_product(
        Family.OV_RANK, _QUARTIC, ((-1, 3), (-1, 3)), order
    ),
    "ovm2-ntdiff-1-3-rhs": lambda order: _kernel_product(
        Family.OV_M2, _QUARTIC, ((-1, 6), (-1, 6)), order
    ),
    "mod3-kernel-onesided": lambda order: _kernel_sum(
        Family.OV_RANK, (1, 1), ((1, 3),), order
    ),
    # -1/2 plus the bilateral sum, whose left-out n = 0 term is exactly +1/2
    "mod3-kernel-bilateral": lambda order: lerch_sum(
        quad=1, lin=1, denom_step=3, denom_sign=1, order=order
    ),
    "mod3-kernel-base9": _mod3_kernel_base9,
    "mod3-combined-rhs": lambda order: _kernel_product(
        Family.OV_RANK, (1, 1), ((1, 3),), order
    ),
    "theta-overpartition-rhs": _theta_overpartition_rhs,
    # the matching cube on both bracket factors is forced by the identity's
    # own derivation (and by expansion)
    "theta-base9-lhs": lambda order: pochhammer_quotient(
        _bracket(1, 3, 9, 3) + _poch(1, 9, 9, 2),
        _bracket(-1, 3, 9, 3) + _poch(-1, 9, 9, 2),
        order=order,
    ),
    # the same quotient over base-3 Pochhammers, an independent
    # construction used to cross-check the bracket form
    "theta-base9-lhs-alt": lambda order: pochhammer_quotient(
        _poch(1, 3, 3, 3) + _poch(-1, 9, 9),
        _poch(-1, 3, 3, 3) + _poch(1, 9, 9),
        order=order,
    ),
    "theta-base9-rhs": _theta_base9_rhs,
    "ovm2-mod5-kernel-onesided": lambda order: _kernel_product(
        Family.OV_M2, (1, -3, 3, -1), ((-1, 10),), order
    ),
    "ovm2-mod5-kernel": lambda order: (
        closed_form("overpartition-gf", order).mul_scalar(2)
        * (_sbar2(1, order) + _sbar2(3, order).mul_scalar(3))
    ),
    "dom2-mod5-kernel-onesided": lambda order: _kernel_product(
        Family.DO_M2, (1, -2, 0, 2, -1), ((-1, 10),), order
    ),
    "dom2-mod5-kernel": lambda order: (
        closed_form("distinct-odd-gf", order)
        * (_s2(1, order) - _s2(3, order).mul_scalar(2))
    ),
    "ovm2-count-diff-1-2-5": lambda order: rank_count_diff(Family.OV_M2, 1, 2, 5, order),
    "ovm2-count-diff-1-2-5-rhs": lambda order: -closed_form("ovm2-mod5-kernel", order),
    "dom2-count-diff-1-2-5": lambda order: rank_count_diff(Family.DO_M2, 1, 2, 5, order),
    "dom2-count-diff-1-2-5-rhs": lambda order: -closed_form("dom2-mod5-kernel", order),
    # [q^a; q^7]_inf is (q^a, q^{7-a}; q^7)_inf
    "eta7-rank-7n5-rhs": lambda order: pochhammer_quotient(
        _poch(1, 7, 7, 3) + _bracket(1, 3, 7),
        _bracket(1, 1, 7) + _bracket(1, 2, 7, 2),
        order=order,
    ).mul_scalar(-7),
    "eta7-rank-7n4-rhs": lambda order: pochhammer_quotient(
        _poch(1, 7, 7, 3) + _bracket(1, 3, 7, 2),
        _bracket(1, 1, 7) + _bracket(1, 2, 7, 3),
        order=order,
    ).mul_scalar(-7),
    "eta5-crank-rank-5n4-rhs": lambda order: pochhammer_quotient(
        _poch(1, 5, 5, 4), _poch(1, 1, 1), order=order
    ).mul_scalar(-5),
}


def form_ids() -> list[str]:
    return sorted(_FORM_BUILDERS)


@widest(QSeries.truncate)
def closed_form(form_id: str, order: int) -> QSeries:
    """Expand a registered closed form to the requested order, from its one build."""
    try:
        builder = _FORM_BUILDERS[form_id]
    except KeyError:
        raise UnknownFormId(
            f"unknown form id {form_id!r}; known ids: {', '.join(form_ids())}"
        ) from None
    return builder(order)


_CACHES = (_nt_deriv, _theta, _level_table, rank_gf, nt_diff_gf, closed_form)


def clear_caches():
    """Drop every memoized series of this module (mainly for tests)."""
    for cache in _CACHES:
        cache.cache_clear()
