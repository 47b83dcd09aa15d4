"""Coefficient-domain laws: qcert's integer ring and dual numbers, and
the reference rings of the tests (rationals, Laurent polynomials,
x-polynomials)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import FRAC, LAURENT, LaurentPoly, XPoly, XPolyRing
from qcert.errors import NonUnitConstantTerm
from qcert.rings import RAT, DualRing, DualScalar

fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)
ints = st.integers(min_value=-9, max_value=9)

laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4), fracs, max_size=4
).map(LaurentPoly)

# jets over the reference rationals, and over RAT's ints
duals = st.tuples(fracs, fracs).map(lambda t: DualScalar(*t))
int_duals = st.tuples(ints, ints).map(lambda t: DualScalar(*t))


def test_laurent_basic():
    z = LaurentPoly.term(1)
    zinv = LaurentPoly.term(-1)
    assert z * zinv == LaurentPoly.const(1)
    assert (z + zinv) * (z + zinv) == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert not LaurentPoly({0: 0})
    assert LaurentPoly({2: Fraction(1, 2)}).invert_term() == LaurentPoly(
        {-2: 2}
    )


def test_laurent_coefficients_follow_frac_lift():
    two = LaurentPoly({0: Fraction(4, 2)})[0]
    assert two == 2 and type(two) is int
    third = LaurentPoly.term(0, 3).invert_term()[0]
    assert third == Fraction(1, 3) and type(third) is Fraction
    minus_one = LaurentPoly.term(1, -1).invert_term()[-1]
    assert minus_one == -1 and type(minus_one) is int
    with pytest.raises(TypeError):
        LaurentPoly({0: 0.5})


def test_laurent_unit_coefficients_print_as_signs():
    assert repr(LaurentPoly({-1: -1, 0: -1, 1: -1, 2: 2})) == "-z^-1 - 1 - z + 2*z^2"
    assert repr(LaurentPoly({0: 1, 1: 1, 3: Fraction(-1, 2)})) == "1 + z - 1/2*z^3"


def test_laurent_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        LaurentPoly({0: 1, 1: 1}).invert_term()
    with pytest.raises(NonUnitConstantTerm):
        LAURENT.invert(LaurentPoly())


@settings(max_examples=250)
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + LAURENT.zero == a
    assert a * LAURENT.one == a


@settings(max_examples=250)
@given(st.one_of(st.tuples(duals, duals, duals), st.tuples(int_duals, int_duals, int_duals)))
def test_dual_ring_laws(abc):
    a, b, c = abc
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(fracs, fracs, fracs, fracs)
def test_dual_product_law(a, b, c, d):
    # (a + b eps)(c + d eps) = ac + (ad + bc) eps
    p = DualScalar(a, b) * DualScalar(c, d)
    assert p.value == a * c
    assert p.deriv == a * d + b * c


def test_dual_ring_inverse():
    ring = DualRing(FRAC)
    x = DualScalar(Fraction(2), Fraction(3))
    inv = ring.invert(x)
    assert x * inv == ring.one
    with pytest.raises(NonUnitConstantTerm):
        ring.invert(DualScalar(Fraction(0), Fraction(1)))
    # over the integers, a jet is a unit exactly when its value is +-1
    ring = DualRing(RAT)
    for x in (DualScalar(1, 3), DualScalar(-1, 5)):
        inv = ring.invert(x)
        assert x * inv == ring.one and type(inv.deriv) is int
    for x in (DualScalar(2, 3), DualScalar(0, 1)):
        with pytest.raises(NonUnitConstantTerm):
            ring.invert(x)


def test_dual_constant_and_generator():
    ring = DualRing(RAT)
    assert ring.lift(7) == DualScalar(7, 0)
    x = DualScalar(1, 1)
    # x^3 = 1 + 3 eps
    assert x * x * x == DualScalar(1, 3)
    with pytest.raises(TypeError):
        ring.lift(Fraction(1, 2))


def test_xpoly_value_and_derivative():
    # f(x) = 2 - x + 3x^2: f(1) = 4, f'(1) = 5
    f = XPoly({0: Fraction(2), 1: Fraction(-1), 2: Fraction(3)})
    assert f.value_at_one(Fraction(0)) == 4
    assert f.deriv_at_one(Fraction(0)) == 5
    g = f * f
    assert g.value_at_one(Fraction(0)) == 16
    assert g.deriv_at_one(Fraction(0)) == 2 * 4 * 5


def test_xpoly_derivative_over_int_coefficients():
    # f(x) = 2 - x + 3x^2 with int coefficients: f(1) = 4, f'(1) = 5
    f = XPoly({0: 2, 1: -1, 2: 3})
    assert f.value_at_one(RAT.zero) == 4
    d = f.deriv_at_one(RAT.zero)
    assert d == 5 and type(d) is int


def test_rat_is_an_integer_ring():
    # lift takes an int only, and +-1 are the only units: anything else
    # is refused, never rounded or demoted
    assert type(RAT.zero) is int and type(RAT.one) is int
    assert RAT.lift(5) == 5 and type(RAT.lift(5)) is int
    for value in (Fraction(1, 2), Fraction(6, 3), 0.5, "1"):
        with pytest.raises(TypeError):
            RAT.lift(value)
    for unit in (1, -1):
        inv = RAT.invert(unit)
        assert inv == unit and type(inv) is int
    for non_unit in (0, 2, -3, Fraction(1), Fraction(1, 2), 1.0):
        with pytest.raises(NonUnitConstantTerm):
            RAT.invert(non_unit)


def test_frac_ring_is_integer_first():
    # the reference rationals keep the rule RAT once had: an int unless
    # truly non-integral
    two = FRAC.lift(Fraction(6, 3))
    assert two == 2 and type(two) is int
    assert type(FRAC.lift(5)) is int
    assert FRAC.lift(Fraction(1, 2)) == Fraction(1, 2)
    for unit in (1, -1, Fraction(1), Fraction(-1)):
        inv = FRAC.invert(unit)
        assert inv == unit and type(inv) is int
    assert FRAC.invert(2) == Fraction(1, 2)
    assert FRAC.invert(Fraction(2, 3)) == Fraction(3, 2)
    three = FRAC.invert(Fraction(1, 3))
    assert three == 3 and type(three) is int
    with pytest.raises(NonUnitConstantTerm):
        FRAC.invert(0)
    with pytest.raises(TypeError):
        FRAC.lift(0.5)


def test_laurent_and_xpoly_do_not_mix():
    p, x = LaurentPoly({0: 1, 1: 2}), XPoly({0: 1, 1: 2})
    for a, b in ((p, x), (x, p)):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(a, b)
        assert not a == b and a != b


def test_laurent_scaling_from_either_side():
    p = LaurentPoly({-1: 1, 2: Fraction(2, 3)})
    doubled = LaurentPoly({-1: 2, 2: Fraction(4, 3)})
    assert 2 * p == doubled and p * 2 == doubled
    assert Fraction(1, 2) * p == LaurentPoly({-1: Fraction(1, 2), 2: Fraction(1, 3)})
    assert not 0 * p and len(p * 0) == 0


def test_xpoly_over_laurent_cancels_to_empty():
    z = LaurentPoly.term(1)
    f = XPoly({0: z, 2: LaurentPoly.const(3)})
    g = XPoly({0: -z, 2: LaurentPoly.const(-3)})
    for zero in (f + g, f - f, f * XPolyRing(LAURENT).zero):
        assert not zero and len(zero) == 0 and zero == XPoly()
    # sums seed from a coefficient, never the int 0
    assert (f + f).value_at_one(LAURENT.zero) == 2 * z + LaurentPoly.const(6)
    assert (f * f).deriv_at_one(LAURENT.zero) == LaurentPoly({1: 12, 0: 36})


def test_laurent_products_store_integral_values_as_int():
    # each product coefficient passes FRAC.lift, single-term or not
    for p in (
        LaurentPoly({0: Fraction(1, 2)}) * LaurentPoly({0: 2}),
        LaurentPoly({0: 2}) * LaurentPoly({0: Fraction(1, 2)}),
        LaurentPoly({0: Fraction(1, 2), 1: 1}) * LaurentPoly({0: 2, 1: Fraction(1, 2)}),
    ):
        assert type(p[0]) is int and p[0] == 1
