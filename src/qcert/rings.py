"""Exact coefficient domains for truncated q-series.

Three domains are supported:

* ``RAT`` -- exact rationals, integer-first: coefficients are Python
  ``int``s by default, and a ``fractions.Fraction`` appears only where a
  true non-integer does; a ``Fraction`` with denominator 1 is demoted to
  ``int`` when lifted.  ``RAT.lift`` is the one coefficient rule: every
  other domain lifts its rational coefficients through it.  The z-refined
  builders also run over ``RAT`` with z packed into the ints (z = 2^W
  after q -> zq; see ``genfun._ZMap``),
* ``LaurentPoly`` -- Laurent polynomials in the rank variable z: the
  builders' generic route, and the decoded view of a packed series, for
  witnesses and tests (``genfun.PackedZ`` is read in place),
* ``DualScalar`` -- first-order jets a + b*eps with eps^2 = 0, which
  give d/dx at x = 1 exactly alongside the value.  ``thmain_check``
  carries them as two packed int series (``series.DualSeries`` over
  ``DualRing(RAT)``), with jets only as the scalars of its kernels, its
  prefactor built once and its product applied as shifts; the
  part-count series need no jets (they read the derivative from x = 1
  integer terms).

``LaurentPoly`` is built on a sparse core, ``_SparsePoly``: a table
exponent -> nonzero coefficient with +, -, negation, * and ==, each
taking an operand of exactly its own class; every product coefficient
passes the class's coefficient rule (``RAT.lift`` for ``LaurentPoly``).
The tests' x-derivative oracle, honest polynomials in x (``XPoly`` over
``XPolyRing``), shares that core and lives in ``tests/bruteforce.py``.

Each ring descriptor carries the part-marking variable x: ``x_power(j)``
is 1 over ``RAT`` and ``LAURENT`` and 1 + j*eps over ``DualRing``, whose
``at_one`` gives (value, d/dx) at x = 1.

Every value is immutable after construction and all operations return
fresh objects.  Ring descriptors compare equal when their base rings
do; they are compared, never hashed, so a caller may build its own.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NonUnitConstantTerm


def term_text(coeff: str, var: str, e: int) -> str:
    """coeff * var^e as text, the power left out at e = 0 and a
    coefficient of +-1 next to a power written as a bare sign."""
    if e == 0:
        return coeff
    power = var if e == 1 else f"{var}^{e}"
    return {"1": power, "-1": f"-{power}"}.get(coeff, f"{coeff}*{power}")


class RatRing:
    """Descriptor for exact rational coefficients, integer-first.

    Values are ``int`` unless they are truly non-integral, in which case
    they are ``Fraction``.  ``int`` and ``Fraction`` mix exactly under
    +, -, *, so kernels never need to know which one they hold.
    """

    name = "rational"
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
        return "RAT"


RAT = RatRing()


class _SparsePoly:
    """One-variable polynomial stored as exponent -> nonzero coefficient.

    Operands must be of exactly one class, so a polynomial in x over
    ``LAURENT`` tells its ``LaurentPoly`` coefficients from itself.  No table holds a
    zero and no sum starts from the int 0; the coefficient rings have no
    zero divisors, so a single-term product needs no zero filter.  A
    subclass sets its coefficient rule (``_lift``), which every product
    coefficient passes, and its product with a non-polynomial
    (``_scale_by``).
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

    Stored sparsely as exponent -> nonzero ``RAT`` value (an ``int``
    unless truly non-integral).  Exponents may be negative; the zero
    polynomial has an empty table.  An int or ``Fraction`` scales it
    from either side.
    """

    __slots__ = ()
    _lift = staticmethod(RAT.lift)

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def term(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    def __getitem__(self, e: int):
        return self._c.get(e, 0)

    def min_exp(self) -> int | None:
        return min(self._c) if self._c else None

    def max_exp(self) -> int | None:
        return max(self._c) if self._c else None

    def is_constant(self) -> bool:
        return not self._c or (len(self._c) == 1 and 0 in self._c)

    def _scale_by(self, k):
        return self.scale(k) if isinstance(k, (int, Fraction)) else NotImplemented

    __rmul__ = _SparsePoly.__mul__

    def scale(self, k) -> "LaurentPoly":
        k = RAT.lift(k)
        return self._new({} if not k else {e: RAT.lift(v * k) for e, v in self._c.items()})

    def invert_term(self) -> "LaurentPoly":
        """Inverse of a single-term unit c*z^e; raises otherwise."""
        if len(self._c) != 1:
            raise NonUnitConstantTerm(
                "LaurentPoly is invertible only when it is a single term"
            )
        ((e, v),) = self._c.items()
        return LaurentPoly({-e: RAT.invert(v)})

    def __repr__(self):
        if not self._c:
            return "0"
        bits = [term_text(str(v), "z", e) for e, v in sorted(self._c.items())]
        return " + ".join(bits).replace("+ -", "- ")


class DualScalar:
    """First-order jet value + deriv*eps over a base domain (eps^2 = 0).

    In ``thmain_check`` a jet is only a kernel's scalar: each side is two
    packed int series (``series.DualSeries``), the prefactor is built
    once, and the product with it is applied as shifts.  ``nt_diff_gf``
    reads its derivative from the x = 1 inner terms over integers."""

    __slots__ = ("value", "deriv")

    def __init__(self, value, deriv):
        self.value = value
        self.deriv = deriv

    def __bool__(self):
        return bool(self.value) or bool(self.deriv)

    def __add__(self, other):
        if not isinstance(other, DualScalar):
            return NotImplemented
        return DualScalar(self.value + other.value, self.deriv + other.deriv)

    def __sub__(self, other):
        if not isinstance(other, DualScalar):
            return NotImplemented
        return DualScalar(self.value - other.value, self.deriv - other.deriv)

    def __neg__(self):
        return DualScalar(-self.value, -self.deriv)

    def __mul__(self, other):
        if not isinstance(other, DualScalar):
            return NotImplemented
        return DualScalar(
            self.value * other.value,
            self.value * other.deriv + self.deriv * other.value,
        )

    def __eq__(self, other):
        if isinstance(other, DualScalar):
            return self.value == other.value and self.deriv == other.deriv
        return NotImplemented

    def __repr__(self):
        return f"({self.value!r} + {self.deriv!r}*eps)"


# ---------------------------------------------------------------------------
# Ring descriptors for the composite domains (``RAT`` is defined above,
# because ``LaurentPoly`` lifts its coefficients through it).
# ---------------------------------------------------------------------------


class LaurentRing:
    """Descriptor for LaurentPoly coefficients in z."""

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


class DualRing:
    """Descriptor for DualScalar coefficients over a base ring."""

    def __init__(self, base):
        self.base = base
        self.name = f"dual[{base.name}]"
        self.zero = DualScalar(base.zero, base.zero)
        self.one = DualScalar(base.one, base.zero)

    def lift(self, x):
        if isinstance(x, DualScalar):
            return x
        return DualScalar(self.base.lift(x), self.base.zero)

    def invert(self, c) -> DualScalar:
        # (a + b eps)^-1 = a^-1 - a^-1 b a^-1 eps
        inv = self.base.invert(c.value)
        return DualScalar(inv, -(inv * c.deriv * inv))

    def x_power(self, j: int) -> DualScalar:
        """x^j with x = 1 + eps: exactly 1 + j*eps, because eps^2 = 0."""
        return DualScalar(self.base.one, self.base.lift(j))

    def at_one(self, c) -> tuple:
        """(value, d/dx) of a coefficient at x = 1."""
        return c.value, c.deriv

    def __eq__(self, other):
        return isinstance(other, DualRing) and other.base == self.base

    def __repr__(self):
        return f"DUAL({self.base!r})"


LAURENT = LaurentRing()
