"""Truncated formal power series in q over exact coefficient rings.

A ``QSeries`` knows its coefficients exactly through ``q^order`` (i.e. the
series is known modulo ``q^(order+1)``).  Every operation preserves or
shrinks the order; no operation ever claims precision it does not hold.

Builders cover the shapes this project needs: finite q-Pochhammer
products and quotients of infinite ones with a dilation step (one
builder, ``pochhammer_quotient``, under the infinite and theta-style
two-sided "bracket" products), and bilateral Appell-Lerch-type sums over
an index range computed once, which leave out the term whose denominator
exponent is 0, so that every sum has integer coefficients.

The coefficient ring carries x (see ``rings``): a builder takes
``ring=`` and lifts each argument with ``mon``; ``QSeries.at_one`` reads
a series over a ring that carries x back as (value, d/dx) at x = 1.
Over a ``DualRing``, ``pochhammer_quotient`` and the z-refined builders
of ``genfun`` make a ``DualSeries`` instead: value and derivative as two
series over the base ring, each kernel two or three base-ring passes.
So ``thmain_check`` carries each side as two packed int series, builds
its prefactor once, untwisted, and ``DualSeries.mul`` twists it in the
product, one small product and a shift per prefactor coefficient.

Over ``RAT``, the integers, the binomial kernels with c = +-1 are
C-level list passes, and so is a product of factors 1 +- q^m (net powers
of 1 - q^m, in place), and an int c with 30 or more trailing zero bits is
a product with its odd part and a shift, so a packed power of z (see
``genfun``) costs a shift, not a big-integer product; ``mul_scalar`` and
``add_shifted`` (c*q^k*src added from offset k, with no zeros built below
the shift) scale the same way.  ``div_sparse`` divides by a sparse
series in C-level passes over blocks, and ``invert`` is one divided by
the series.  Other rings and coefficients keep the per-element loop,
which the rings of the tests' reference route take too.  A product
argument (``Monomial``) is c q^e x^j with an int c; z enters only
through the maps of ``genfun``.  ``balanced_digits`` reads an
int back into signed digits, for the q-products of ``_int_product`` and
for packed z, and ``folded_digits`` reads its digit sums by place mod k,
from the int mod 2^(width*k) - 1.  A kernel's fresh coefficient list
becomes its result as it is (``QSeries._of``), without the copy and
check of the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, count, repeat, takewhile
from operator import add, lshift, mul, sub

from .errors import DivergentProduct
from .rings import RAT, DualRing, term_text

_BLOCK = 64  # the coefficients of one slice pass of `QSeries.div_sparse`


@dataclass(frozen=True)
class Monomial:
    """A product argument of shape coeff * q^qexp * x^xexp.

    Every Pochhammer argument used by the engine has this shape, with an
    int coefficient; general series arguments are deliberately
    unsupported.
    """

    coeff: int
    qexp: int
    xexp: int = 0

    def __post_init__(self):
        RAT.lift(self.coeff)  # refuses a coefficient that is not an int
        if self.qexp < 0:
            raise ValueError("Monomial q-exponent must be >= 0")

    def bracket_partner(self, modulus: int) -> "Monomial":
        """The companion argument q^modulus / self of a bracket product;
        its coefficient is 1/coeff, so coeff must be +-1."""
        if self.xexp:
            raise ValueError("bracket arguments may not involve x")
        if not (1 <= self.qexp <= modulus - 1):
            raise DivergentProduct(
                "bracket product needs 1 <= qexp < modulus on both arguments"
            )
        return Monomial(RAT.invert(self.coeff), modulus - self.qexp)


def mono(coeff, qexp, xexp=0) -> Monomial:
    """Shorthand Monomial constructor."""
    return Monomial(coeff, qexp, xexp)


def mon(ring, m: Monomial):
    """Lift the non-q part of a monomial, x included, into the ring."""
    out = ring.lift(m.coeff)
    if m.xexp:
        out = out * ring.x_power(m.xexp)
    return out


# ---------------------------------------------------------------------------
# The truncated series itself.
# ---------------------------------------------------------------------------


class QSeries:
    """Formal power series in q known exactly through q^order."""

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.ring = ring
        self.order = order
        if coeffs is None:
            self.coeffs = [ring.zero] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list does not match order")
            self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, ring, order: int, coeffs: list) -> "QSeries":
        """The series of `coeffs`, a fresh list of order + 1 coefficients
        that a kernel has just built, taken as it is: no copy, no check."""
        s = object.__new__(cls)
        s.ring, s.order, s.coeffs = ring, order, coeffs
        return s

    @classmethod
    def zeros(cls, ring, order: int) -> "QSeries":
        return cls(ring, order)

    @classmethod
    def one(cls, ring, order: int) -> "QSeries":
        s = cls(ring, order)
        s.coeffs[0] = ring.one
        return s

    @classmethod
    def from_terms(cls, ring, order: int, terms: dict) -> "QSeries":
        s = cls(ring, order)
        for e, c in terms.items():
            if e < 0:
                raise ValueError("negative q-exponent")
            if e <= order:
                s.coeffs[e] = ring.lift(c)
        return s

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check_ring(self, other: "QSeries"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(
                f"incompatible coefficient rings {self.ring!r} vs {other.ring!r}"
            )

    # -- ring operations ---------------------------------------------------

    def _termwise(self, other, op):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        return QSeries._of(self.ring, n, list(map(op, self.coeffs[: n + 1], other.coeffs)))

    def __add__(self, other):
        return self._termwise(other, add)

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __neg__(self):
        return QSeries._of(self.ring, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        self._check_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        if set(map(type, a)) <= {int} and set(map(type, b)) <= {int}:
            return QSeries._of(self.ring, n, _int_product(a, b, n))
        zero = self.ring.zero
        out = [zero] * (n + 1)
        for i in range(min(len(a) - 1, n) + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b) - 1, n - i) + 1):
                bj = b[j]
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return QSeries._of(self.ring, n, out)

    def mul_scalar(self, c) -> "QSeries":
        c = self.ring.lift(c)
        if not c:
            return QSeries.zeros(self.ring, self.order)
        return QSeries._of(self.ring, self.order, list(_scaled(self.coeffs, c)))

    def add_shifted(self, src: "QSeries", k: int, c=1) -> None:
        """self += c * q^k * src, in place (see the function ``add_shifted``)."""
        add_shifted(self.coeffs, src.coeffs, k, c)

    def mul_binomial(self, c, m: int) -> "QSeries":
        """Multiply by (1 + c*q^m) in O(order) coefficient operations."""
        c = self.ring.lift(c)
        if m < 0:
            raise ValueError("binomial exponent must be >= 0")
        if m == 0:
            return self.mul_scalar(self.ring.one + c)
        a = self.coeffs
        out = list(a)
        if self.ring is RAT and (c in (1, -1) or _shift(c, a)):
            add_shifted(out, a, m, c)
            return QSeries._of(RAT, self.order, out)
        for i in range(m, self.order + 1):
            lo = a[i - m]
            if lo:
                out[i] = out[i] + c * lo
        return QSeries._of(self.ring, self.order, out)

    def div_binomial(self, c, m: int) -> "QSeries":
        """Divide by (1 + c*q^m) in O(order) coefficient operations."""
        c = self.ring.lift(c)
        if m < 0:
            raise ValueError("binomial exponent must be >= 0")
        if m == 0:
            unit = self.ring.one + c
            return self.mul_scalar(self.ring.invert(unit))
        if self.ring is RAT and c in (1, -1):  # 1/(1 + q^m) = (1 - q^m)/(1 - q^2m)
            a = list(self.coeffs) if c == -1 else self.mul_binomial(-1, m).coeffs
            _div_one_minus(a, m if c == -1 else 2 * m)
            return QSeries._of(RAT, self.order, a)
        out = list(self.coeffs)
        if self.ring is RAT and (sh := _shift(c, out)):
            odd, k = sh
            for i in range(m, self.order + 1):
                out[i] -= out[i - m] * odd << k
            return QSeries._of(RAT, self.order, out)
        for i in range(m, self.order + 1):
            lo = out[i - m]
            if lo:
                out[i] = out[i] - c * lo
        return QSeries._of(self.ring, self.order, out)

    def div_sparse(self, terms) -> "QSeries":
        """self / t modulo q^(order+1), t = sum c q^j over the pairs (j, c) of
        `terms` (j >= 0, each once) with a unit t_0 (else the ring's `invert`
        raises NonUnitConstantTerm): f_n = (a_n - sum_{j>=1} t_j f_(n-j)) / t_0,
        O(order) steps a term.  A term with j >= _BLOCK reads only finished
        blocks of _BLOCK coefficients: one C-level pass per block."""
        t = dict(terms)
        u, n = self.ring.invert(t.pop(0, self.ring.zero)), self.order
        steps = sorted((j, u * c) for j, c in t.items() if j <= n and c)
        near = [(j, c) for j, c in steps if j < _BLOCK]
        out = list(self.coeffs) if u == 1 else [u * a for a in self.coeffs]
        for s in range(0, n + 1, _BLOCK):
            e = min(s + _BLOCK, n + 1)
            for j, c in takewhile(lambda jc: jc[0] < e, steps[len(near):]):
                add_shifted(out, out[max(s, j) - j : e - j], max(s, j), -c)
            for i in range(s, e):
                v = out[i]
                for j, c in near if s else [(j, c) for j, c in near if j <= i]:
                    v = v - c * out[i - j]
                out[i] = v
        return QSeries._of(self.ring, n, out)

    def invert(self) -> "QSeries":
        """One divided by self (`div_sparse`), modulo q^(order+1)."""
        return QSeries.one(self.ring, self.order).div_sparse((j, c) for j, c in enumerate(self.coeffs) if c)

    # -- reshaping ---------------------------------------------------------

    def truncate(self, order: int) -> "QSeries":
        if order >= self.order:
            return self
        return QSeries._of(self.ring, order, self.coeffs[: order + 1])

    # -- comparisons and views ----------------------------------------------

    def first_difference(self, other: "QSeries") -> int | None:
        """Smallest exponent (up to the common order) where the series
        differ, or None when they agree on the full common range."""
        self._check_ring(other)
        n = min(self.order, other.order)
        for i in range(n + 1):
            if self.coeffs[i] != other.coeffs[i]:
                return i
        return None

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def integer_coefficients(self) -> list[int]:
        """All coefficients, asserted to be ints: a value that reached a
        ``RAT`` series through the constructor is refused, never truncated."""
        if self.ring is not RAT:
            raise TypeError("integer view needs integer coefficients")
        for i, c in enumerate(self.coeffs):
            if type(c) is not int:
                raise ValueError(f"coefficient of q^{i} is not an int: {c!r}")
        return list(self.coeffs)

    def assert_integral(self) -> "QSeries":
        self.integer_coefficients()
        return self

    def reduce_mod(self, p: int) -> list[int]:
        return [c % p for c in self.integer_coefficients()]

    def at_one(self) -> tuple["QSeries", "QSeries"]:
        """(value, d/dx) at x = 1 over the base ring, for a series whose
        ring carries x (``DualRing`` or ``XPolyRing``)."""
        base = self.ring.base
        vals, ders = zip(*map(self.ring.at_one, self.coeffs))
        return QSeries(base, self.order, vals), QSeries(base, self.order, ders)

    def __repr__(self):
        return f"QSeries({self.ring!r}, order={self.order})"

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                bits.append(term_text(str(c), "q", i))
        body = " + ".join(bits) if bits else "0"
        return f"{body} + O(q^{self.order + 1})".replace("+ -", "- ")


class DualSeries:
    """A series over ``DualRing(base)`` kept as two series over the base
    ring, value + deriv*eps: its value and d/dx at x = 1 (``at_one``).
    Each kernel takes one ``DualScalar`` and makes two or three passes of
    the base ring's kernels; no coefficient is ever a ``DualScalar``."""

    __slots__ = ("ring", "value", "deriv")

    def __init__(self, ring, value: QSeries, deriv: QSeries):
        self.ring, self.value, self.deriv = ring, value, deriv

    @classmethod
    def zeros(cls, ring, order: int) -> "DualSeries":
        return cls(ring, QSeries.zeros(ring.base, order), QSeries.zeros(ring.base, order))

    @classmethod
    def one(cls, ring, order: int) -> "DualSeries":
        return cls(ring, QSeries.one(ring.base, order), QSeries.zeros(ring.base, order))

    @property
    def order(self) -> int:
        return self.value.order

    def truncate(self, order: int) -> "DualSeries":
        return DualSeries(self.ring, self.value.truncate(order), self.deriv.truncate(order))

    def mul_scalar(self, c) -> "DualSeries":
        """(v + d eps)(c0 + c1 eps) = c0 v + (c0 d + c1 v) eps."""
        c = self.ring.lift(c)
        d = self.deriv.mul_scalar(c.value)
        d.add_shifted(self.value, 0, c.deriv)
        return DualSeries(self.ring, self.value.mul_scalar(c.value), d)

    def mul_binomial(self, c, m: int) -> "DualSeries":
        """Multiply by 1 + (c0 + c1 eps) q^m, m = 0 included: the value
        times B = 1 + c0 q^m, the derivative d B + c1 q^m v."""
        c = self.ring.lift(c)
        d = self.deriv.mul_binomial(c.value, m)
        d.add_shifted(self.value, m, c.deriv)
        return DualSeries(self.ring, self.value.mul_binomial(c.value, m), d)

    def div_binomial(self, c, m: int) -> "DualSeries":
        """Divide by 1 + (c0 + c1 eps) q^m: the value v/B and the
        derivative (d - c1 q^m v/B)/B, with B = 1 + c0 q^m."""
        c = self.ring.lift(c)
        v = self.value.div_binomial(c.value, m)
        d = QSeries(v.ring, self.order, self.deriv.coeffs)
        d.add_shifted(v, m, -c.deriv)
        return DualSeries(self.ring, v, d.div_binomial(c.value, m))

    def add_shifted(self, src: "DualSeries", k: int, c=1) -> None:
        """self += c * q^k * src, in place."""
        c = self.ring.lift(c)
        self.value.add_shifted(src.value, k, c.value)
        self.deriv.add_shifted(src.deriv, k, c.value)
        self.deriv.add_shifted(src.value, k, c.deriv)

    def mul(self, other: "DualSeries", width: int | None = None) -> "DualSeries":
        """self * other, coefficient j of self times 2^(width*j) (none for a
        width of None or 0): a z-free series built untwisted times one packed
        at z = 2^width, each coefficient of self a small product and a shift."""
        n = min(self.order, other.order)
        out = DualSeries.zeros(self.ring, n)
        for j, (v, d) in enumerate(zip(self.value.coeffs[: n + 1], self.deriv.coeffs)):
            v, d = (v << width * j, d << width * j) if width else (v, d)
            out.value.add_shifted(other.value, j, v)
            out.deriv.add_shifted(other.deriv, j, v)
            out.deriv.add_shifted(other.value, j, d)
        return out

    def first_difference(self, other: "DualSeries") -> int | None:
        """Smallest exponent where the value or the derivative differs."""
        found = {self.value.first_difference(other.value), self.deriv.first_difference(other.deriv)}
        return min(found - {None}, default=None)

    def at_one(self) -> tuple[QSeries, QSeries]:
        return self.value, self.deriv

    def __eq__(self, other):
        return isinstance(other, DualSeries) and self.at_one() == other.at_one()


def series_type(ring) -> type:
    """What a builder over `ring` makes: a DualSeries over a DualRing, else a QSeries."""
    return DualSeries if isinstance(ring, DualRing) else QSeries


def _shift(c, src) -> tuple | None:
    """(c >> k, k) for an int c with k >= 30 trailing zero bits, when
    `src` holds ints only; else None.  A product with c is then one with
    its odd part and a shift, so a packed power 2^(width*j) costs no big
    product; a c of fewer zero bits (one digit of CPython's ints) costs
    no more to multiply by than to shift by."""
    if type(c) is int and c:
        k = (c & -c).bit_length() - 1
        if k >= 30 and set(map(type, src)) <= {int}:
            return c >> k, k
    return None


def _scaled(src: list, c):
    """c * v for each v of src, by a shift where `_shift` allows one."""
    sh = _shift(c, src)
    if sh is None:
        return map(mul, src, repeat(c))
    odd, k = sh
    return map(lshift, src if odd == 1 else map(mul, src, repeat(odd)), repeat(k))


def _div_one_minus(a: list, m: int) -> None:
    """a /= (1 - q^m), m >= 1, in place, in C-level passes: prefix sums along
    each residue class mod m while m*m <= len(a), else one per block of m."""
    if m * m <= len(a):
        for r in range(m):
            a[r::m] = accumulate(a[r::m])
    else:
        for i in range(m, len(a), m):
            a[i : i + m] = map(add, a[i : i + m], a[i - m : i])


def add_shifted(dst: list, src, k: int, c=1) -> None:
    """dst[i] += c * src[i - k] for k <= i < len(dst), k >= 0, in place:
    adds c*q^k*src to dst from offset k on; c = +-1 is a plain add or sub."""
    n = min(len(dst) - k, len(src))
    if n > 0 and c:
        if not (c == 1 or c == -1):
            src, c = _scaled(src[:n], c), 1
        dst[k : k + n] = map(add if c == 1 else sub, dst[k : k + n], src)


def _pack(coeffs, width: int, nbytes: int) -> int:
    """sum_i coeffs[i] * 2^(width*i), for |coeffs[i]| < 2^(width-1) and
    width = 8 * nbytes: each coefficient is offset by half a digit, so its
    bytes are non-negative, and the offsets come off in one subtraction."""
    half = 1 << (width - 1)
    digits = b"".join(map(int.to_bytes, map(add, coeffs, repeat(half)), repeat(nbytes), repeat("little")))
    offset = int.from_bytes((bytes(nbytes - 1) + b"\x80") * len(coeffs), "little")
    return int.from_bytes(digits, "little") - offset


def balanced_digits(value: int, width: int, count: int) -> list:
    """Digits 0..count-1 of `value` in base 2^width, each balanced into
    [-2^(width-1), 2^(width-1)).

    An offset of half a digit in every place makes each digit
    non-negative, so that no digit borrows from the next, and the digits
    are then read from the offset value's bytes, each shifted out of its
    bytes when the width is not a whole number of bytes.  Only value mod
    2^(width*count) is read, so a longer value gives its lowest digits."""
    half = 1 << (width - 1)
    bits = width * count
    if width % 8:
        offset = int(("1" + "0" * (width - 1)) * count, 2)
    else:
        offset = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * count, "little")
    raw = ((value + offset) & ((1 << bits) - 1)).to_bytes(bits // 8 + 1, "little")
    if width % 8:
        mask = (1 << width) - 1
        return [
            (int.from_bytes(raw[p >> 3 : (p + width + 7) >> 3], "little") >> (p & 7) & mask) - half
            for p in range(0, bits, width)
        ]
    step = width // 8
    return [int.from_bytes(raw[i : i + step], "little") - half for i in range(0, bits // 8, step)]


def folded_digits(value: int, width: int, k: int) -> list:
    """The k balanced digits of `value` mod 2^(width*k) - 1: digit r sums
    the base-2^width digits of `value` at the places = r mod k, because
    2^(width*k) = 1 there.  The residue is taken balanced, in
    (-2^(width*k-1), 2^(width*k-1)), so each digit is read exactly while
    every such sum is below 2^(width-1) in absolute value."""
    m = (1 << width * k) - 1
    r = value % m
    return balanced_digits(r - m if r > m >> 1 else r, width, k)


def _int_product(a: list, b: list, n: int) -> list:
    """Coefficients 0..n of the product of two int coefficient lists,
    by one big-integer product (Kronecker substitution).

    Each list is packed into one integer with a digit width that no
    product coefficient can overflow: |c_m| <= max|a| * max|b| *
    min(len a, len b), plus a sign bit.  The product's digits are then
    read back balanced (`balanced_digits`).
    """
    a, b = a[: n + 1], b[: n + 1]
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * (n + 1)
    nbytes = bound.bit_length() // 8 + 1  # leaves the sign bit free
    width = 8 * nbytes
    size = len(a) + len(b) - 1
    out = balanced_digits(_pack(a, width, nbytes) * _pack(b, width, nbytes), width, min(size, n + 1))
    out.extend([0] * (n + 1 - len(out)))
    return out


# ---------------------------------------------------------------------------
# Product and sum builders.
# ---------------------------------------------------------------------------


def pochhammer_finite(a: Monomial, n: int, qstep: int = 1, *, order: int, ring=RAT) -> QSeries:
    """(a; q^qstep)_n = prod_{k=1..n} (1 - a*q^((k-1)*qstep))."""
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    if qstep < 1:
        raise ValueError("qstep must be >= 1")
    s = QSeries.one(ring, order)
    coeff = mon(ring, a)
    for k in range(n):
        pos = a.qexp + k * qstep
        if pos > order:
            break
        s = s.mul_binomial(-coeff, pos)
    return s


def pochhammer_quotient(num, den=(), *, order: int, ring=RAT) -> QSeries | DualSeries:
    """prod (a; q^step)_inf over (a, step) in `num`, divided by the same
    product over `den`, truncated at `order`.

    Built from binomial factors only: a factor whose q-valuation exceeds
    the order contributes 1.  Every argument must carry a positive
    q-power (or be 0, giving the empty product); otherwise the constant
    term never settles.  Over RAT with arguments +-q^e the factors become
    net powers of (1 - q^m), reading 1 + q^m as (1 - q^2m)/(1 - q^m), so
    equal rows merge and rows on both sides cancel, and the product runs
    in place on one list; other rings take the binomial kernels.
    """
    for a, step in (*num, *den):
        if step < 1:
            raise ValueError("qstep must be >= 1")
        if a.coeff and a.qexp == 0:
            raise DivergentProduct("infinite product needs a positive q-power in its argument")
    rows = [(a, step, by) for side, by in ((num, 1), (den, -1)) for a, step in side if a.coeff]
    if ring is not RAT or any(a.coeff not in (1, -1) for a, _, _ in rows):
        s = series_type(ring).one(ring, order)  # the kernel route, and the reference
        for a, step, by in rows:
            coeff = -mon(ring, a)
            for pos in range(a.qexp, order + 1, step):
                s = s.mul_binomial(coeff, pos) if by > 0 else s.div_binomial(coeff, pos)
        return s
    power = [0] * (order + 1)  # of each 1 - q^m
    for a, step, by in rows:
        for m in range(a.qexp, order + 1, step):
            power[m] += by * a.coeff
            if a.coeff == -1 and 2 * m <= order:
                power[2 * m] += by
    out = [1] + [0] * order
    for m, p in enumerate(power):  # one C-level pass per unit of power
        for _ in range(p):
            out[m:] = map(sub, out[m:], out[:-m])
        for _ in range(-p):
            _div_one_minus(out, m)
    return QSeries._of(RAT, order, out)


def pochhammer_infinite(a: Monomial, qstep: int = 1, *, order: int, ring=RAT) -> QSeries:
    """(a; q^qstep)_infinity truncated at `order`."""
    return pochhammer_quotient(((a, qstep),), order=order, ring=ring)


def bracket_infinite(a: Monomial, modulus: int, *, order: int, ring=RAT) -> QSeries:
    """[a; q^modulus]_infinity = (a; q^M)_inf * (q^M/a; q^M)_inf."""
    partner = a.bracket_partner(modulus)
    return pochhammer_quotient(((a, modulus), (partner, modulus)), order=order, ring=ring)


def lerch_sum(
    *,
    quad: int,
    lin: int = 0,
    denom_step: int,
    denom_sign: int,
    denom_shift: int = 0,
    num_shift: int = 0,
    order: int,
) -> QSeries:
    """Bilateral Appell-Lerch-type sum over n in Z:

        sum (-1)^n q^(quad*n^2 + lin*n + num_shift)
            / (1 + denom_sign * q^(denom_step*n + denom_shift))

    without the term whose denominator exponent is 0, if there is one; a
    caller whose identity needs that term, (-1)^n/2 for sign +1, adds it.
    n runs over |n| < T, where T, computed once, is the first t >= 1 past
    the vertex at which quad*t^2 - |lin|*t + num_shift, a lower bound on
    the valuation of every term from n = +-t on, exceeds `order`.  A
    negative denominator exponent is rewritten via
    1/(1 + d*q^-u) = d*q^u/(1 + d*q^u).
    """
    if quad < 1:
        raise ValueError("quadratic coefficient must be >= 1")
    if denom_step < 1:
        raise ValueError("denominator step must be >= 1")
    if denom_sign not in (1, -1):
        raise ValueError("denominator sign must be +1 or -1")
    spread = abs(lin)
    end = next(t for t in count(1) if 2 * quad * t > spread
               and quad * t * t - spread * t + num_shift > order)
    acc = QSeries.zeros(RAT, order)
    for n in range(1 - end, end):
        m = denom_step * n + denom_shift
        if m == 0:
            continue
        sign = -1 if n % 2 else 1
        v0 = quad * n * n + lin * n + num_shift
        if m < 0:
            v0 -= m
            sign *= denom_sign
            m = -m
        if v0 < 0:
            raise ValueError("negative net q-valuation in bilateral sum")
        if v0 > order:
            continue
        term = QSeries.from_terms(RAT, order - v0, {0: sign})
        add_shifted(acc.coeffs, term.div_binomial(denom_sign, m).coeffs, v0)
    return acc


# ---------------------------------------------------------------------------
# Exact JSON serialization.
# ---------------------------------------------------------------------------


def series_to_json(s: QSeries) -> dict:
    """Exact JSON form: {ring, order, terms: [{q_exponent, coefficient}]},
    each coefficient an integer string and zero terms omitted."""
    if s.ring is not RAT:
        raise TypeError(f"serialization is defined for RAT, not {s.ring!r}")
    terms = [{"q_exponent": i, "coefficient": str(c)} for i, c in enumerate(s.coeffs) if c]
    return {"ring": "rational", "order": s.order, "terms": terms}
