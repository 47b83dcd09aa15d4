"""Exact coefficient domains for truncated q-series.

``src/`` computes over the integers only:

* ``RAT`` -- the integers as a coefficient ring: ``lift`` takes an
  ``int`` only and ``invert`` a unit, +-1, only; anything else is
  refused, never rounded.  (Its name, "rational", is the tag that
  serialized series and the benchmark's tracer read.)  The z-refined
  builders also run over ``RAT``, with z packed into the ints (z = 2^W
  after q -> zq; see ``genfun._ZMap``),
* ``DualScalar`` -- first-order jets a + b*eps with eps^2 = 0, which
  give d/dx at x = 1 exactly alongside the value.  ``thmain_check``
  carries them as two packed int series (``series.DualSeries`` over
  ``DualRing(RAT)``), with jets only as the scalars of its kernels, its
  prefactor built once and its product applied as shifts; the
  part-count series need no jets (they read the derivative from x = 1
  integer terms).

The tests' reference route adds the rings that ``src/`` no longer
holds, in ``tests/bruteforce.py``: Laurent polynomials in a formal z,
exact rationals, and the x-derivative oracle, honest polynomials in x.
The builders take any such ring, so that route stays ring-generic.

Each ring descriptor carries the part-marking variable x: ``x_power(j)``
is 1 over ``RAT`` and 1 + j*eps over ``DualRing``, whose ``at_one``
gives (value, d/dx) at x = 1.

Every value is immutable after construction and all operations return
fresh objects.  Ring descriptors compare equal when their base rings
do; they are compared, never hashed, so a caller may build its own.
"""

from __future__ import annotations

from .errors import NonUnitConstantTerm


def term_text(coeff: str, var: str, e: int) -> str:
    """coeff * var^e as text, the power left out at e = 0 and a
    coefficient of +-1 next to a power written as a bare sign."""
    if e == 0:
        return coeff
    power = var if e == 1 else f"{var}^{e}"
    return {"1": power, "-1": f"-{power}"}.get(coeff, f"{coeff}*{power}")


class RatRing:
    """Descriptor for integer coefficients: every value is an ``int``,
    and +-1 are the only units."""

    name = "rational"
    zero = 0
    one = 1

    def lift(self, x):
        if isinstance(x, int):
            return x
        raise TypeError(f"cannot lift {type(x).__name__} into {self.name}: the coefficients are ints")

    def invert(self, c):
        if type(c) is int and (c == 1 or c == -1):
            return c
        raise NonUnitConstantTerm(f"{c!r} is not a unit of the integers")

    def x_power(self, j: int):
        return self.one

    def __repr__(self):
        return "RAT"


RAT = RatRing()


class DualScalar:
    """First-order jet value + deriv*eps over a base domain (eps^2 = 0).

    In ``thmain_check`` a jet is only a kernel's scalar: each side is two
    packed int series (``series.DualSeries``), the prefactor is built
    once, and the product with it is applied as shifts.  ``nt_diff_gf``
    builds none: it divides its integer A'(1) by a theta series."""

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
