"""Naive, independent reference implementations used as oracles.

Everything here is deliberately dumb: dense dict-based polynomial
arithmetic, product expansion factor by factor, and the classic
recurrence for the partition numbers, and partition-like objects built
from multisets and subsets of parts.  The naive expanders run none of
qcert's series kernels, so agreement is meaningful.

qcert computes over the integers only; the rings of the reference route
live here, each a descriptor that qcert's ring-generic builders accept:

* ``FRAC`` -- exact rationals, integer-first, on which the generic
  per-element kernels run (qcert's C-level paths take ``RAT`` only);
* ``LaurentPoly`` / ``LAURENT`` -- Laurent polynomials in a formal z,
  with ``FormalZ``, the z-refined builders' map that keeps z formal:
  the reference for every packed build, which ``unpack`` and
  ``decode`` read back to it;
* ``XPoly`` / ``XPolyRing`` -- the x-derivative oracle, honest
  polynomials in x; ``at_one_both`` runs a caller's builder over qcert's
  dual numbers and over it.

``LaurentPoly`` and ``XPoly`` share one sparse core, ``_SparsePoly``.
The per-n counting dynamic program that the oracle's all-weight tables
replaced lives here too, taking the oracle's rows as arguments.  Two helpers that no part of qcert calls
close the file: the writer and reader of the JSON form of a series over
any of these rings, and the claim mutation behind the tests that every
check can fail.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement

from qcert import series
from qcert.errors import NonUnitConstantTerm
from qcert.genfun import _ZMap, z_digits
from qcert.rings import RAT, DualRing, DualScalar, term_text
from qcert.series import DualSeries, QSeries


def poly_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for i, u in a.items():
        if i > order:
            continue
        for j, v in b.items():
            k = i + j
            if k <= order:
                out[k] = out.get(k, Fraction(0)) + u * v
    return {k: v for k, v in out.items() if v}


def poly_inv(a: dict, order: int) -> dict:
    inv = {0: Fraction(1) / a[0]}
    for n in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, n + 1):
            if j in a and (n - j) in inv:
                s += a[j] * inv[n - j]
        if s:
            inv[n] = -s / a[0]
    return inv


def _factor(coeff, pos: int) -> dict:
    """1 - coeff*q^pos as a dict (pos may be 0)."""
    out = {0: Fraction(1)}
    out[pos] = out.get(pos, Fraction(0)) - coeff
    return {k: v for k, v in out.items() if v}


def pochhammer(coeff, qexp: int, step: int, order: int) -> dict:
    """(coeff*q^qexp ; q^step)_inf expanded one binomial at a time."""
    out = {0: Fraction(1)}
    pos = qexp
    while pos <= order:
        out = poly_mul(out, _factor(Fraction(coeff), pos), order)
        pos += step
    return out


def pochhammer_n(coeff, qexp: int, step: int, n: int, order: int) -> dict:
    out = {0: Fraction(1)}
    for k in range(n):
        out = poly_mul(out, _factor(Fraction(coeff), qexp + k * step), order)
    return out


def coeffs(poly: dict, order: int) -> list:
    return [poly.get(i, Fraction(0)) for i in range(order + 1)]


def partition_numbers(order: int) -> list[int]:
    """p(0..order) by the pentagonal-number recurrence."""
    p = [1] + [0] * order
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def partitions(n: int) -> set[tuple[int, ...]]:
    """Partitions of n as non-increasing tuples: every multiset of parts
    in 1..n that sums to n."""
    return {
        tuple(sorted(parts, reverse=True))
        for k in range(n + 1)
        for parts in combinations_with_replacement(range(1, n + 1), k)
        if sum(parts) == n
    }


def distinct_odd_partitions(n: int) -> set[tuple[int, ...]]:
    """Partitions of n in which no odd value occurs twice."""
    return {
        parts for parts in partitions(n)
        if all(parts.count(v) == 1 for v in parts if v % 2)
    }


def overpartitions(n: int) -> set[tuple[tuple[int, bool], ...]]:
    """Overpartitions of n as canonical (value, overlined) tuples: each
    partition with every subset of part positions overlined, keeping the
    subsets that overline at most one copy of each value."""
    out = set()
    for parts in partitions(n):
        for k in range(len(parts) + 1):
            for chosen in combinations(range(len(parts)), k):
                values = [parts[i] for i in chosen]
                if len(values) != len(set(values)):
                    continue
                marked = [(v, i in chosen) for i, v in enumerate(parts)]
                out.add(tuple(sorted(marked, key=lambda p: (-p[0], not p[1]))))
    return out


def lerch_ref(quad, lin, denom_step, denom_sign, order, denom_shift=0, num_shift=0) -> dict:
    """sum (-1)^n q^(quad*n^2 + lin*n + num_shift) / (1 + d*q^(step*n + shift))
    over the window |n| <= |lin| + |num_shift| + order + 1, which holds every
    term below q^(order+1), without the term whose denominator exponent is 0;
    each term is a geometric series, written at positive valuation through
    1/(1 + d*q^-u) = d*q^u/(1 + d*q^u)."""
    d = denom_sign
    width = abs(lin) + abs(num_shift) + order + 1
    out: dict = {}
    for n in range(-width, width + 1):
        c = Fraction(-1) ** n
        v = quad * n * n + lin * n + num_shift
        m = denom_step * n + denom_shift
        if m == 0:
            continue
        if m < 0:
            c, v, m = c * d, v - m, -m
        while v <= order:
            out[v] = out.get(v, Fraction(0)) + c
            c, v = -d * c, v + m
    return {k: v for k, v in out.items() if v and k <= order}


# -- the reference rings: rationals and Laurent polynomials in a formal z -----


class FractionRing:
    """Descriptor for exact rational coefficients, integer-first.

    Values are ``int`` unless they are truly non-integral, in which case
    they are ``Fraction``; a ``Fraction`` with denominator 1 is demoted
    to ``int`` when lifted.  The kernels keep no such rule: over this
    ring they take their generic per-element loops and store what those
    compute."""

    name = "fraction"
    zero = 0
    one = 1

    def lift(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise TypeError(f"cannot lift {type(x).__name__} into {self.name}")

    def invert(self, c):
        if not c:
            raise NonUnitConstantTerm("division by zero rational")
        return self.lift(Fraction(1) / c)

    def x_power(self, j: int):
        return self.one

    def __repr__(self):
        return "FRAC"


FRAC = FractionRing()


class _SparsePoly:
    """One-variable polynomial stored as exponent -> nonzero coefficient.

    Operands must be of exactly one class, so a polynomial in x over
    ``LAURENT`` tells its ``LaurentPoly`` coefficients from itself.  No
    table holds a zero and no sum starts from the int 0; the coefficient
    rings have no zero divisors, so a single-term product needs no zero
    filter.  A subclass sets its coefficient rule (``_lift``), which
    every product coefficient passes, and its product with a
    non-polynomial (``_scale_by``).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {int(e): w for e, v in (coeffs or {}).items() if (w := self._lift(v))}

    @staticmethod
    def _lift(v):
        return v

    def _new(self, table):
        out = object.__new__(type(self))
        out._c = table
        return out

    def items(self):
        return self._c.items()

    def __bool__(self):
        return bool(self._c)

    def __len__(self):
        return len(self._c)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c[e] + v if e in c else v
            if s:
                c[e] = s
            else:
                del c[e]
        return self._new(c)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c[e] - v if e in c else -v
            if s:
                c[e] = s
            else:
                del c[e]
        return self._new(c)

    def __neg__(self):
        return self._new({e: -v for e, v in self._c.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._c == other._c

    def __mul__(self, other):
        if type(other) is not type(self):
            return self._scale_by(other)
        a, b, lift = self._c, other._c, self._lift
        if len(a) == 1:
            ((e, v),) = a.items()
            return self._new({e + f: lift(v * w) for f, w in b.items()})
        if len(b) == 1:
            ((f, w),) = b.items()
            return self._new({e + f: lift(v * w) for e, v in a.items()})
        c = {}
        for e, v in a.items():
            for f, w in b.items():
                g = e + f
                s = c[g] + v * w if g in c else v * w
                if s:
                    c[g] = s
                else:
                    del c[g]
        return self._new({e: lift(v) for e, v in c.items()})

    def _scale_by(self, k):
        return NotImplemented


class LaurentPoly(_SparsePoly):
    """Laurent polynomial in z with rational coefficients.

    Stored sparsely as exponent -> nonzero ``FRAC`` value (an ``int``
    unless truly non-integral).  Exponents may be negative; the zero
    polynomial has an empty table.  An int or ``Fraction`` scales it
    from either side.
    """

    __slots__ = ()
    _lift = staticmethod(FRAC.lift)

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    def __getitem__(self, e: int):
        return self._c.get(e, 0)

    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def _scale_by(self, k):
        return self.scale(k) if isinstance(k, (int, Fraction)) else NotImplemented

    __rmul__ = _SparsePoly.__mul__

    def scale(self, k) -> "LaurentPoly":
        k = FRAC.lift(k)
        return self._new({} if not k else {e: FRAC.lift(v * k) for e, v in self._c.items()})

    def invert_term(self) -> "LaurentPoly":
        """Inverse of a single-term unit c*z^e; raises otherwise."""
        if len(self._c) != 1:
            raise NonUnitConstantTerm(
                "LaurentPoly is invertible only when it is a single term"
            )
        ((e, v),) = self._c.items()
        return LaurentPoly({-e: FRAC.invert(v)})

    def __repr__(self):
        if not self._c:
            return "0"
        bits = [term_text(str(v), "z", e) for e, v in sorted(self._c.items())]
        return " + ".join(bits).replace("+ -", "- ")


class LaurentRing:
    """Descriptor for LaurentPoly coefficients in z: the ring over a
    formal z (`lift_zc` lifts a power of it)."""

    name = "laurent"
    zero = LaurentPoly()
    one = LaurentPoly.const(1)

    def lift(self, x):
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot lift {type(x).__name__} into {self.name}")

    def invert(self, c) -> LaurentPoly:
        if not isinstance(c, LaurentPoly) or not c:
            raise NonUnitConstantTerm("division by zero Laurent polynomial")
        return c.invert_term()

    def x_power(self, j: int):
        return self.one

    def __repr__(self):
        return "LAURENT"


LAURENT = LaurentRing()


def lift_zc(ring, coeff, zexp: int):
    """Lift coeff * z^zexp into the ring (z needs a ring over LAURENT)."""
    return ring.lift(LaurentPoly.term(zexp, coeff) if zexp else coeff)


class FormalZ(_ZMap):
    """qcert's z-refined builders with z formal: c z^e q^m is c z^e over a
    ring over LAURENT, at width 0, so no twist is applied.  This generic
    route is the reference that every packed build is checked against."""

    __slots__ = ()

    def mul(self, c, e: int = 0, m: int = 0):
        return lift_zc(self.ring, c, e)


def unpack_coeff(c: int, width: int, j: int) -> LaurentPoly:
    """A packed coefficient of q^j read back to z: digit i is z^(i-j)."""
    return LaurentPoly(z_digits(c, width, j))


def unpack(s, width: int) -> QSeries:
    """A packed series read back to LaurentPoly coefficients: over LAURENT
    from RAT, and over DualRing(LAURENT) from a DualSeries over RAT."""
    if isinstance(s, DualSeries):
        value, deriv = (unpack(h, width).coeffs for h in s.at_one())
        return QSeries(DualRing(LAURENT), s.order, map(DualScalar, value, deriv))
    return QSeries(LAURENT, s.order, [unpack_coeff(c, width, j) for j, c in enumerate(s.coeffs)])


def decode(g) -> QSeries:
    """A ``PackedZ`` (``rank_gf``, ``genovpair_series``) over LAURENT."""
    return unpack(QSeries(RAT, len(g.coeffs) - 1, g.coeffs), g.width)


def decode_sides(report) -> tuple[QSeries, QSeries]:
    """The two packed sides of a ``thmain_check`` report over DualRing(LAURENT)."""
    return tuple(unpack(side, report.width) for side in report.packed)


# -- the x-derivative oracle: honest polynomials in x --------------------------


class XPoly(_SparsePoly):
    """Polynomial in x over a base domain, stored as degree -> coeff.

    This is the brute-force twin of DualScalar: evaluating the full
    polynomial and its formal derivative at x = 1 must reproduce the
    dual number's components.
    """

    __slots__ = ()

    def value_at_one(self, zero):
        """Sum of all coefficients: the polynomial evaluated at x = 1."""
        acc = zero
        for v in self._c.values():
            acc = acc + v
        return acc

    def deriv_at_one(self, zero):
        """Formal d/dx evaluated at x = 1: sum of degree * coeff."""
        acc = zero
        for d, v in self._c.items():
            if d:
                acc = acc + v * d
        return acc

    def __repr__(self):
        return f"XPoly({self._c!r})"


class XPolyRing:
    """Descriptor for XPoly coefficients over a base ring."""

    def __init__(self, base):
        self.base = base
        self.name = f"xpoly[{base.name}]"
        self.zero = XPoly()
        self.one = XPoly({0: base.one})

    def lift(self, x):
        if isinstance(x, XPoly):
            return x
        return XPoly({0: self.base.lift(x)})

    def invert(self, c) -> XPoly:
        # only constant-in-x units are needed (series constant terms)
        if not isinstance(c, XPoly) or len(c._c) != 1 or 0 not in c._c:
            raise NonUnitConstantTerm("XPoly inverse requires a constant unit")
        return XPoly({0: self.base.invert(c._c[0])})

    def x_power(self, j: int) -> XPoly:
        """x^j as an honest monomial."""
        return XPoly({j: self.base.one})

    def at_one(self, c) -> tuple:
        """(value, d/dx) of a coefficient at x = 1."""
        return c.value_at_one(self.base.zero), c.deriv_at_one(self.base.zero)

    def __eq__(self, other):
        return isinstance(other, XPolyRing) and other.base == self.base

    def __repr__(self):
        return f"XPOLY({self.base!r})"


def at_one_both(build, base):
    """(value, d/dx) at x = 1 of `build(ring)` over dual numbers, then over XPoly."""
    return build(DualRing(base)).at_one(), build(XPolyRing(base)).at_one()


def joined(s) -> QSeries:
    """A DualSeries as a QSeries over its DualRing, one DualScalar per
    coefficient, for the generic per-coefficient code and comparisons."""
    value, deriv = s.at_one()
    return QSeries(s.ring, s.order, map(DualScalar, value.coeffs, deriv.coeffs))


# -- per-element references for the series kernels and the inner sums --------


def mul_binomial_ref(a: list, c, m: int) -> list:
    """a * (1 + c*q^m) for m >= 1, one coefficient at a time."""
    out = list(a)
    for i in range(m, len(a)):
        out[i] = out[i] + c * a[i - m]
    return out


def div_binomial_ref(a: list, c, m: int) -> list:
    """a / (1 + c*q^m) for m >= 1, one coefficient at a time."""
    out = list(a)
    for i in range(m, len(a)):
        out[i] = out[i] - c * out[i - m]
    return out


def _shifted(a: list, e: int, order: int, zero=0) -> list:
    """q^e * a as a full-length list through q^order."""
    return ([zero] * e + list(a) + [zero] * (order + 1))[: order + 1]


def difference_sum_ref(terms, s, b, k, order, xpow=lambda j: 1, zero=0) -> list:
    """The inner difference sum A built from full-length shifted copies
    of every inner term, combined coefficient by coefficient.

    `terms` holds (n, coefficient list, quad), `s` is the family's
    q-step and `xpow(j)` is x^j in the coefficient ring (1 at x = 1)."""
    acc = [zero] * (order + 1)
    for n, common, quad in terms:
        lo, hi, kn = quad + s * (b - 1) * n, quad + s * (k - b - 1) * n, s * k * n
        c_lo, c_hi = _shifted(common, lo, order, zero), _shifted(common, hi, order, zero)
        p1 = div_binomial_ref([u - v for u, v in zip(c_lo, c_hi)], -xpow(0), kn)
        p2 = [u * xpow(k - b) - v * xpow(b) for u, v in zip(c_hi, c_lo)]
        p2 = div_binomial_ref(p2, -xpow(k), kn)
        acc = [a + u + v for a, u, v in zip(acc, p1, p2)]
    return acc


def difference_deriv_ref(terms, s, b, k, order) -> list:
    """A'(1) = sum_n C_n(1) * g_n'(1) from full-length shifted copies
    (see difference_sum_ref), with g_n'(1) the quotient
    [(k-b) q^hi - b q^lo + b q^(hi+kn) - (k-b) q^(lo+kn)] / (1 - q^kn)^2."""
    acc = [0] * (order + 1)
    for n, common, quad in terms:
        lo, hi, kn = quad + s * (b - 1) * n, quad + s * (k - b - 1) * n, s * k * n
        w, x, y, z = (_shifted(common, e, order) for e in (hi, lo, hi + kn, lo + kn))
        num = [(k - b) * p - b * q + b * r - (k - b) * t for p, q, r, t in zip(w, x, y, z)]
        quotient = div_binomial_ref(div_binomial_ref(num, -1, kn), -1, kn)
        acc = [a + u for a, u in zip(acc, quotient)]
    return acc


# -- the per-n counting dynamic program, one weight per call -----------------


def tabulate_at(kinds, n: int) -> tuple[Counter, Counter]:
    """(objects, parts) by statistic over a row's objects of weight n
    alone: the head of the current kind is added only on landing at n."""
    acc = [{} for _ in range(n + 1)]
    acc[0][0] = [1, 0]
    for v in range(1, n + 1):
        for once, term, head in kinds(v):
            for w in range(n, v - 1, -1) if once else range(v, n + 1):
                dst, shift = acc[w], term + head if w == n else term
                for s, (c, p) in acc[w - v].items():
                    e = dst.setdefault(s + shift, [0, 0])
                    e[0] += c
                    e[1] += p + c
    return (Counter({m: c for m, (c, _) in acc[n].items()}),
            Counter({m: p for m, (_, p) in acc[n].items() if p}))


def crank_at(crank_kinds, n: int) -> tuple[Counter, Counter]:
    """(partitions, ones) by crank at weight n: one tabulate_at per ones
    count, over the parts >= 2 of the rest (`crank_kinds(ones, v)`)."""
    count, ones_sum = Counter(), Counter()
    for ones in range(n + 1):
        for c, cnt in tabulate_at(partial(crank_kinds, ones), n - ones)[0].items():
            count[c - ones] += cnt
            if ones:
                ones_sum[c - ones] += cnt * ones
    return count, ones_sum


def pair_profile_at(pair_kinds, n: int) -> Counter:
    """The joint pair profile at weight n from one tabulate_at whose terms
    pack r, s and t as base-(2n + 2) digits above the rank m."""
    base = 2 * n + 2
    profile = Counter()
    for key, cnt in tabulate_at(partial(pair_kinds, base=base), n)[0].items():
        m = (key + n) % base - n
        rst = (key - m) // base
        profile[(rst % base, rst // base % base, rst // base**2, m)] = cnt
    return profile


# -- helpers no part of qcert calls: JSON over every ring, the claim mutation -


def series_to_json(s: QSeries) -> dict:
    """``qcert.series.series_to_json`` over RAT; over FRAC the coefficients
    are fraction strings, tagged "fraction", and over LAURENT
    {z_exponent: fraction string} maps, tagged "laurent"."""
    if s.ring is RAT:
        return series.series_to_json(s)
    if s.ring is FRAC:
        tag, text = "fraction", str
    elif s.ring is LAURENT:
        tag, text = "laurent", lambda c: {str(e): str(v) for e, v in sorted(c.items())}
    else:
        raise TypeError(f"serialization is defined for RAT, FRAC and LAURENT, not {s.ring!r}")
    terms = [{"q_exponent": i, "coefficient": text(c)} for i, c in enumerate(s.coeffs) if c]
    return {"ring": tag, "order": s.order, "terms": terms}


def series_from_json(obj: dict) -> QSeries:
    """The series written by ``series_to_json`` (qcert's, over RAT, or this
    module's)."""
    ring_name = obj["ring"]
    order = int(obj["order"])
    if ring_name == "rational":
        ring, coeff = RAT, int
    elif ring_name == "fraction":
        ring, coeff = FRAC, lambda c: FRAC.lift(Fraction(c))
    elif ring_name == "laurent":
        ring, coeff = LAURENT, lambda c: LaurentPoly({e: Fraction(v) for e, v in c.items()})
    else:
        raise ValueError(f"unknown ring tag {ring_name!r}")
    s = QSeries.zeros(ring, order)
    for t in obj["terms"]:
        n = int(t["q_exponent"])
        if not 0 <= n <= order:
            raise ValueError(f"q_exponent {n} is outside 0..{order}")
        s.coeffs[n] = coeff(t["coefficient"])
    return s


def mutate_first_term(spec, delta: int = 1):
    """A copy of the CheckSpec `spec` with its first pair's coefficient
    perturbed; used to prove each check can actually fail."""
    if not spec.lhs:
        raise ValueError("spec has no statistic terms to mutate")
    first = spec.lhs[0]
    mutated = replace(first, coeff=first.coeff + delta)
    return replace(
        spec,
        id=spec.id + "~mutated",
        lhs=(mutated,) + spec.lhs[1:],
        statement=spec.statement + " [mutated]",
    )
