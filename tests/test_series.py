"""Truncated series arithmetic, product builders, and bilateral sums,
checked against the naive expanders in bruteforce.py."""

import json
import random
from fractions import Fraction
from math import isqrt
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import bruteforce as bf
from bruteforce import FRAC, LAURENT, LaurentPoly, XPolyRing, series_from_json, series_to_json
from qcert import series as series_module
from qcert.errors import DivergentProduct, NonUnitConstantTerm
from qcert.rings import RAT, DualRing
from qcert.series import (
    DualSeries,
    QSeries,
    _int_product,
    add_shifted,
    bracket_infinite,
    lerch_sum,
    mon,
    mono,
    pochhammer_finite,
    pochhammer_infinite,
    pochhammer_quotient,
)

fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4
)
small_ints = st.integers(min_value=-9, max_value=9)


def frac_series(order):
    """Rationals over the reference ring FRAC: the generic per-element loops."""
    return st.lists(fracs, min_size=order + 1, max_size=order + 1).map(
        lambda cs: QSeries(FRAC, order, cs)
    )


def int_series(order, unit=False):
    """Ints over RAT: the C-level paths; with `unit`, a constant term of
    +-1, the units of the integers."""
    head = st.sampled_from([1, -1]) if unit else small_ints
    return st.tuples(head, st.lists(small_ints, min_size=order, max_size=order)).map(
        lambda t: QSeries(RAT, order, [t[0], *t[1]])
    )


def rat_series(order):
    return st.one_of(frac_series(order), int_series(order))


laurent_coeff = st.dictionaries(
    st.integers(min_value=-3, max_value=3), fracs, max_size=3
).map(LaurentPoly)


def laurent_series(order):
    return st.lists(laurent_coeff, min_size=order + 1, max_size=order + 1).map(
        lambda cs: QSeries(LAURENT, order, cs)
    )


any_series = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.one_of(rat_series(n), laurent_series(n))
)
rat_series_any = st.integers(min_value=0, max_value=7).flatmap(rat_series)
unit_series_any = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.one_of(frac_series(n), int_series(n, unit=True))
)


# -- basic arithmetic -------------------------------------------------------


def test_add_examples():
    one_plus_q = QSeries.from_terms(RAT, 4, {0: 1, 1: 1})
    one_minus_q = QSeries.from_terms(RAT, 4, {0: 1, 1: -1})
    assert (one_plus_q + one_minus_q) == QSeries.from_terms(RAT, 4, {0: 2})
    zero = QSeries.zeros(RAT, 4)
    assert one_plus_q + zero == one_plus_q
    ov = QSeries.from_terms(RAT, 4, {0: 1, 1: 2, 2: 4, 3: 8, 4: 14})
    assert (ov + (-ov)).is_zero()


def test_mul_examples():
    geo = QSeries(RAT, 10, [1] * 11)
    one_minus_q = QSeries.from_terms(RAT, 10, {0: 1, 1: -1})
    assert (one_minus_q * geo) == QSeries.one(RAT, 10)
    qa = QSeries.from_terms(RAT, 10, {3: 1})
    qb = QSeries.from_terms(RAT, 10, {4: 1})
    assert (qa * qb) == QSeries.from_terms(RAT, 10, {7: 1})


def test_mul_order_is_min():
    a = QSeries.one(RAT, 9)
    b = QSeries.one(RAT, 5)
    assert (a * b).order == 5
    assert (a + b).order == 5


def test_euler_product_against_inverse_order_200():
    # both factors built independently; their product must be exactly 1
    euler = pochhammer_infinite(mono(1, 1), 1, order=200)
    inv = euler.invert()
    assert (euler * inv) == QSeries.one(RAT, 200)


def test_invert_examples():
    one_minus_q = QSeries.from_terms(RAT, 8, {0: 1, 1: -1})
    assert one_minus_q.invert() == QSeries(RAT, 8, [1] * 9)
    pgf = pochhammer_infinite(mono(1, 1), 1, order=8).invert()
    assert pgf.coeffs[4] == 5  # the five partitions of 4
    s = QSeries.from_terms(RAT, 8, {0: -1, 1: 3, 5: -7})
    assert s.invert().invert() == s
    s = QSeries.from_terms(FRAC, 8, {0: 2, 1: 3, 5: -7})
    assert s.invert().invert() == s


def test_invert_nonunit():
    with pytest.raises(NonUnitConstantTerm):
        QSeries.from_terms(RAT, 4, {1: 1}).invert()
    with pytest.raises(NonUnitConstantTerm):  # 2 is no unit of the integers
        QSeries.from_terms(RAT, 4, {0: 2, 1: 1}).invert()
    zpoly = QSeries.from_terms(LAURENT, 4, {0: LaurentPoly({0: 1, 1: 1})})
    with pytest.raises(NonUnitConstantTerm):
        zpoly.invert()


def test_laurent_unit_inversion():
    s = QSeries.from_terms(
        LAURENT, 6, {0: LaurentPoly.term(2, Fraction(1, 3)), 1: LaurentPoly.term(0, 1)}
    )
    assert (s * s.invert()) == QSeries.one(LAURENT, 6)


def test_incompatible_rings():
    with pytest.raises(ValueError):
        QSeries.one(RAT, 3) + QSeries.one(LAURENT, 3)


# -- Pochhammer builders ----------------------------------------------------


def test_pochhammer_finite_examples():
    p = pochhammer_finite(mono(1, 1), 2, 1, order=6)
    assert p == QSeries.from_terms(RAT, 6, {0: 1, 1: -1, 2: -1, 3: 1})
    assert pochhammer_finite(mono(1, 1), 0, 1, order=6) == QSeries.one(RAT, 6)
    p = pochhammer_finite(mono(-1, 0), 3, 2, order=8)
    want = bf.pochhammer_n(-1, 0, 2, 3, 8)
    assert p.coeffs == bf.coeffs(want, 8)
    assert p.coeffs[0] == 2


def test_pochhammer_infinite_pentagonal():
    s = pochhammer_infinite(mono(1, 1), 1, order=12)
    assert [int(c) for c in s.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
    # independent route: naive factor-by-factor expansion to order 60
    naive = bf.pochhammer(Fraction(1), 1, 1, 60)
    assert pochhammer_infinite(mono(1, 1), 1, order=60).coeffs == bf.coeffs(naive, 60)


def test_overpartition_count_from_products():
    ov = pochhammer_infinite(mono(-1, 1), 1, order=8) * pochhammer_infinite(
        mono(1, 1), 1, order=8
    ).invert()
    assert ov.coeffs[4] == 14  # the fourteen overpartitions of 4


def _quotient_by_hand(num, den, order, ring):
    # each infinite factor as the finite product of its binomials up to the order
    def prod(side):
        acc = QSeries.one(ring, order)
        for a, step in side:
            acc = acc * pochhammer_finite(a, order + 1, step, order=order, ring=ring)
        return acc

    return prod(num) * prod(den).invert()


def test_pochhammer_quotient_over_rationals():
    # the same int arguments over RAT's C-level paths and over the
    # reference rationals' per-element loops
    num = ((mono(1, 1), 1), (mono(-1, 2), 3), (mono(3, 3), 2))
    den = ((mono(1, 2), 2), (mono(-2, 1), 5), (mono(0, 0), 1))
    for ring in (RAT, FRAC):
        got = pochhammer_quotient(num, den, order=60, ring=ring)
        assert got == _quotient_by_hand(num, den, 60, ring), ring


_SIGNS = st.sampled_from((1, -1))
# (sign, q-exponent, step, repeats) of a Pochhammer row, and (sign, exponent
# seed, modulus, repeats) of a bracket, whose exponent lies in [1, modulus)
_ROWS = st.lists(st.tuples(_SIGNS, st.integers(1, 12), st.integers(1, 9), st.integers(1, 3)), max_size=4)
_BRACKETS = st.lists(st.tuples(_SIGNS, st.integers(0, 20), st.integers(2, 9), st.integers(1, 2)), max_size=2)


@settings(max_examples=200, deadline=None)
@given(_ROWS, _ROWS, _BRACKETS, _BRACKETS, st.integers(0, 4), st.integers(0, 120))
def test_in_place_product_equals_the_kernel_route(num, den, num_br, den_br, shared, order):
    # over RAT with +-1 arguments the quotient runs in place on one list, as
    # net powers of (1 - q^m); it equals the kernel route, one binomial
    # kernel call per factor, over repeated rows, brackets and equal rows on
    # both sides.  Over DualRing(RAT) the value half of that route runs the
    # RAT kernels themselves, and no argument here carries x.
    def rows(spec, brackets):
        out = sum((((mono(c, e), step),) * k for c, e, step, k in spec), ())
        for c, e, modulus, k in brackets:
            a = mono(c, 1 + e % (modulus - 1))
            out += ((a, modulus), (a.bracket_partner(modulus), modulus)) * k
        return out

    top, bottom = rows(num, num_br), rows(den, den_br)
    bottom += top[:shared]
    kernels = pochhammer_quotient(top, bottom, order=order, ring=DualRing(RAT))
    assert kernels.deriv.is_zero()
    assert pochhammer_quotient(top, bottom, order=order) == kernels.value


def test_unit_products_over_rat_call_no_binomial_kernel(monkeypatch):
    # the closed forms' products (+-1 arguments over RAT) run in place
    def refuse(self, c, m):
        raise AssertionError("a binomial kernel ran")

    want = pochhammer_quotient(((mono(-1, 1), 1),) * 2, ((mono(1, 1), 1),) * 2, order=40, ring=DualRing(RAT))
    monkeypatch.setattr(QSeries, "mul_binomial", refuse)
    monkeypatch.setattr(QSeries, "div_binomial", refuse)
    got = pochhammer_quotient(((mono(-1, 1), 1),) * 2, ((mono(1, 1), 1),) * 2, order=40)
    assert got == want.value and got.coeffs[:4] == [1, 4, 12, 32]


def test_pochhammer_quotient_over_dual_laurent():
    ring = DualRing(LAURENT)
    num = ((mono(1, 1), 1), (mono(-1, 1, xexp=1), 2))
    den = ((mono(1, 1, xexp=1), 1), (mono(2, 2), 3))
    got = pochhammer_quotient(num, den, order=20, ring=ring)
    assert bf.joined(got) == _quotient_by_hand(num, den, 20, ring)


def test_pochhammer_quotient_validates_every_factor():
    with pytest.raises(DivergentProduct):
        pochhammer_quotient(((mono(1, 1), 1),), ((mono(1, 0), 1),), order=5)
    with pytest.raises(ValueError):
        pochhammer_quotient((), ((mono(1, 1), 0),), order=5)


@pytest.mark.parametrize(
    "ring",
    [RAT, FRAC, LAURENT, DualRing(RAT), DualRing(LAURENT), XPolyRing(RAT), XPolyRing(LAURENT)],
    ids=repr,
)
def test_rings_carry_x_and_share_one_lift(ring):
    # x = 1 over RAT, FRAC and LAURENT; over the dual and x-polynomial rings
    # x^j reads back at x = 1 as (1, j), its value and d/dx
    base = getattr(ring, "base", ring)
    for j in range(14):
        if ring is base:
            assert ring.x_power(j) == ring.one
        else:
            assert ring.at_one(ring.x_power(j)) == (base.one, base.lift(j))
    # one lift: a monomial is its coefficient times x^xexp, in every ring
    got = mon(ring, mono(3, 2, xexp=2))
    if ring is base:
        assert got == ring.lift(3)
    else:
        assert ring.at_one(got) == (base.lift(3), base.lift(6))


def test_monomial_coefficients_follow_rat_lift():
    # a bracket partner's coefficient is 1/coeff: an int only for +-1
    assert mono(-1, 1).bracket_partner(3) == mono(-1, 2)
    with pytest.raises(NonUnitConstantTerm):
        mono(2, 1).bracket_partner(3)
    for coeff in (Fraction(4, 2), Fraction(1, 2), 1.5):
        with pytest.raises(TypeError):
            mono(coeff, 1)


def test_frac_kernels_keep_what_the_generic_loops_compute():
    # over the reference rationals the per-element loops store what they
    # compute; the values equal the mixed-type products
    h = Fraction(1, 2)
    s = QSeries(FRAC, 3, [1, h, 3, 4])
    for got, want in [
        (s.mul_binomial(2, 1), [1, Fraction(5, 2), 4, 10]),
        (s.div_binomial(2, 1), [1, Fraction(-3, 2), 6, -8]),
        (QSeries(FRAC, 2, [h, 1, 2]) * QSeries(FRAC, 2, [2, 0, 0]), [1, 2, 4]),
    ]:
        assert got.coeffs == want
    scaled = Fraction(3, 2) * LaurentPoly({2: Fraction(2, 3)})
    assert scaled[2] == 1 and type(scaled[2]) is int


def test_pochhammer_zero_argument():
    assert pochhammer_infinite(mono(0, 0), 1, order=5) == QSeries.one(RAT, 5)


def test_pochhammer_divergent():
    with pytest.raises(DivergentProduct):
        pochhammer_infinite(mono(2, 0), 1, order=5)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, -1, 3, -2]),
    st.sampled_from([RAT, FRAC]),
)
def test_pochhammer_concatenation(qexp, step, n, m, coeff, ring):
    a = mono(coeff, qexp)
    order = 14
    left = pochhammer_finite(a, n, step, order=order, ring=ring)
    shifted = mono(coeff, qexp + n * step)
    right = pochhammer_finite(shifted, m, step, order=order, ring=ring)
    total = pochhammer_finite(a, n + m, step, order=order, ring=ring)
    assert left * right == total


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, -1, 3]),
    st.sampled_from([RAT, FRAC]),
)
def test_pochhammer_infinite_ratio(qexp, step, coeff, ring):
    # (a)_inf / (a q^step)_inf = 1 - a
    order = 16
    a = mono(coeff, qexp)
    hi = pochhammer_infinite(a, step, order=order, ring=ring)
    lo = pochhammer_infinite(mono(coeff, qexp + step), step, order=order, ring=ring)
    ratio = hi * lo.invert()
    assert ratio == QSeries.from_terms(ring, order, {0: 1, qexp: -coeff})


def test_bracket_definition_unfold():
    b = bracket_infinite(mono(1, 3), 9, order=40)
    manual = pochhammer_infinite(mono(1, 3), 9, order=40) * pochhammer_infinite(
        mono(1, 6), 9, order=40
    )
    assert b == manual
    assert bracket_infinite(mono(-1, 3), 9, order=20).coeffs[0] == 1


def test_bracket_cross_identity_order_100():
    # [q^3;q^9][- q^3;q^9] = [q^6;q^18], both sides built independently
    lhs = bracket_infinite(mono(1, 3), 9, order=100) * bracket_infinite(
        mono(-1, 3), 9, order=100
    )
    rhs = bracket_infinite(mono(1, 6), 18, order=100)
    assert lhs == rhs


def test_bracket_rejects_bad_valuation():
    with pytest.raises(DivergentProduct):
        bracket_infinite(mono(1, 9), 9, order=10)


# -- bilateral sums ---------------------------------------------------------


def test_lerch_truncated_at_zero():
    s = lerch_sum(quad=1, lin=2, denom_step=10, denom_sign=-1, order=0)
    assert s.is_zero()


@pytest.mark.parametrize("sign", [1, -1])
def test_lerch_leaves_out_the_zero_exponent_term(sign):
    # the term over 1 + sign*q^0, a half or a pole, is left out: at n = 0,
    # which leaves n = 1 (-q^15) and n = -1 (-sign*q^12) below q^21 ...
    s = lerch_sum(quad=9, lin=6, denom_step=9, denom_sign=sign, order=20)
    assert s.coeffs == bf.coeffs({12: -sign, 15: -1}, 20)
    # ... and at n = -1 when the shift cancels the step, leaving n = 0, 1
    s = lerch_sum(quad=1, denom_step=3, denom_shift=3, denom_sign=sign, order=1)
    assert s.coeffs == [1, -1]
    assert all(type(c) is int for c in s.coeffs)


# the nine parameter sets the closed forms pass and a vertex case whose
# terms near n = 9 have valuation 0 while n = +-1 lie past q^60; every sum
# has integer coefficients
_LERCH_CASES = [
    dict(quad=1, lin=2, denom_step=10, denom_sign=-1),
    dict(quad=1, lin=6, denom_step=10, denom_sign=-1),
    dict(quad=2, lin=1, denom_step=10, denom_sign=-1),
    dict(quad=2, lin=3, denom_step=10, denom_sign=-1),
    dict(quad=1, lin=1, denom_step=3, denom_sign=1),
    dict(quad=9, lin=6, denom_step=9, denom_sign=1),
    dict(quad=9, lin=12, num_shift=3, denom_step=9, denom_sign=1, denom_shift=3),
    dict(quad=9, lin=18, num_shift=8, denom_step=9, denom_sign=1, denom_shift=6),
    dict(quad=9, lin=18, num_shift=9, denom_step=9, denom_sign=1, denom_shift=6),
    dict(quad=1, lin=-18, denom_step=3, denom_sign=1, denom_shift=1, num_shift=81),
]


def _lerch_id(kw):
    """The parameter values, and "False" (the zero-exponent term is not
    summed) on a row whose denominator exponent reaches 0."""
    left_out = kw.get("denom_shift", 0) % kw["denom_step"] == 0
    return "-".join(map(str, (*kw.values(), *["False"] * left_out)))


@pytest.mark.parametrize("order", [0, 1, 60])
@pytest.mark.parametrize("kw", _LERCH_CASES, ids=_lerch_id)
def test_lerch_against_naive_sum(kw, order):
    got = lerch_sum(order=order, **kw)
    assert got.coeffs == bf.coeffs(bf.lerch_ref(order=order, **kw), order)


# -- shaping and views ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(
        [
            (1, 1, 1),
            (-1, 1, 1),
            (-1, 1, 2),
            (2, 2, 3),
        ]
    ),
    st.integers(min_value=4, max_value=20),
    st.integers(min_value=1, max_value=12),
)
def test_truncation_monotonicity(args, big, small):
    # recomputing at larger order and truncating = computing at small order
    coeff, qexp, step = args
    small = min(small, big)
    hi = pochhammer_infinite(mono(coeff, qexp), step, order=big)
    lo = pochhammer_infinite(mono(coeff, qexp), step, order=small)
    assert hi.truncate(small) == lo


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.sampled_from([(3, 1, 0), (9, 1, 3), (10, -1, 0)]),
    st.integers(min_value=4, max_value=30),
    st.integers(min_value=0, max_value=15),
)
def test_lerch_truncation_monotonicity(quad, lin, denom, big, small):
    step, sign, shift = denom
    small = min(small, big)
    lin = max(-quad, min(quad, lin))  # keep every term's valuation >= 0
    kw = dict(quad=quad, lin=lin, denom_step=step, denom_sign=sign, denom_shift=shift)
    hi = lerch_sum(order=big, **kw)
    lo = lerch_sum(order=small, **kw)
    assert hi.truncate(small) == lo


# -- ring laws over random truncated series --------------------------------


@settings(max_examples=350, deadline=None)
@given(any_series, any_series, any_series)
def test_series_ring_laws(a, b, c):
    if a.ring is not b.ring:
        b = QSeries(a.ring, b.order, [a.ring.lift(1)] * (b.order + 1))
    if a.ring is not c.ring:
        c = QSeries(a.ring, c.order, [a.ring.lift(1)] * (c.order + 1))
    n = min(a.order, b.order, c.order)
    assert ((a + b) + c).truncate(n) == (a + (b + c)).truncate(n)
    assert (a * b).truncate(n) == (b * a).truncate(n)
    assert (a * (b + c)).truncate(n) == (a * b + a * c).truncate(n)
    assert ((a * b) * c).truncate(n) == (a * (b * c)).truncate(n)


@settings(max_examples=250, deadline=None)
@given(any_series)
def test_series_unit_laws(a):
    one = QSeries.one(a.ring, a.order)
    zero = QSeries.zeros(a.ring, a.order)
    assert a * one == a
    assert a + zero == a
    assert a - a == zero


@settings(max_examples=250, deadline=None)
@given(unit_series_any)
def test_series_inverse_laws(a):
    if not a.coeffs[0]:
        a = a + QSeries.one(a.ring, a.order)
    if not a.coeffs[0]:
        return
    assert (a * a.invert()) == QSeries.one(a.ring, a.order)
    assert a.invert().invert() == a


@st.composite
def sparse_division(draw, ring):
    """(a, t) with a dense over `ring` and t sparse with t_0 = +-1, its
    other terms +-1 or +-2 (the theta coefficients), and halves over FRAC,
    some past the order and some past one block of div_sparse."""
    order = draw(st.integers(min_value=0, max_value=200))
    steps = [1, -1, 2, -2] if ring is RAT else [1, -2, Fraction(1, 2)]
    t = draw(st.dictionaries(st.integers(min_value=1, max_value=order + 10), st.sampled_from(steps), max_size=12))
    t[0] = draw(st.sampled_from([1, -1]))
    den = 1 if ring is RAT else draw(st.integers(min_value=1, max_value=4))
    a = draw(st.lists(small_ints, min_size=order + 1, max_size=order + 1))
    return QSeries(ring, order, [ring.lift(c if den == 1 else Fraction(c, den)) for c in a]), t


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_division(RAT), sparse_division(FRAC)))
def test_div_sparse_then_mul_gives_the_numerator(case):
    a, t = case
    quotient = a.div_sparse(t.items())
    assert quotient * QSeries.from_terms(a.ring, a.order, t) == a
    if a.ring is RAT:
        assert all(type(c) is int for c in quotient.coeffs)


@settings(max_examples=200, deadline=None)
@given(rat_series_any, st.integers(min_value=0, max_value=6),
       st.sampled_from([1, -1, 3, -2, 1 << 40, 0, Fraction(3, 2)]))
def test_binomial_ops_match_general_mul(a, m, c):
    if a.ring is RAT and type(c) is not int:
        return  # a Fraction scale is no integer
    if m == 0 and a.ring.one + c not in (1, -1) and (a.ring is RAT or c == -1):
        return  # 1 + c*q^0 is not a unit
    if m <= a.order:
        terms = {m: c} if m else {0: 1 + c}
        if m:
            terms[0] = 1
        binomial = QSeries.from_terms(a.ring, a.order, terms)
        assert a.mul_binomial(c, m) == a * binomial
    assert a.mul_binomial(c, m).div_binomial(c, m) == a
    if not c:
        assert a.mul_binomial(c, m) == a == a.div_binomial(c, m)


# -- the +-1 kernels over RAT: C-level passes against per-element loops ---------


def _unit_kernel_cases():
    for order in (48, 63, 200):  # len(a) = 49, 64: m*m == len(a) at the crossover
        root = isqrt(order + 1)
        for m in sorted({1, 2, 7, root, root + 1, order, order + 1}):
            yield order, m


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("c", [1, -1])
@pytest.mark.parametrize("order, m", list(_unit_kernel_cases()))
def test_unit_binomial_kernels_match_per_element_reference(order, m, c, kind):
    # the residue-class prefix sums (m*m <= len) and the block passes
    # (m*m > len) over RAT, and the per-element loops over FRAC, both
    # give the reference loop's coefficients
    rng = random.Random(order * 1000 + m * 10 + c)
    if kind == "int":
        ring, coeffs = RAT, [rng.randint(-50, 50) for _ in range(order + 1)]
    else:
        ring, coeffs = FRAC, [FRAC.lift(Fraction(rng.randint(-50, 50), rng.randint(1, 6)))
                              for _ in range(order + 1)]
    a = QSeries(ring, order, coeffs)
    for got, want in ((a.div_binomial(c, m), bf.div_binomial_ref(coeffs, c, m)),
                      (a.mul_binomial(c, m), bf.mul_binomial_ref(coeffs, c, m))):
        assert got.order == order and got.coeffs == want
        assert got.coeffs is not a.coeffs
    assert a.coeffs == coeffs
    assert a.div_binomial(c, m).mul_binomial(c, m) == a


def test_add_shifted_adds_from_its_offset_in_place():
    dst = [1, 2, 3]
    add_shifted(dst, [5, 6, 7, 8], 0)
    assert dst == [6, 8, 10]
    add_shifted(dst, [4, 9], 1, -1)
    assert dst == [6, 4, 1]
    add_shifted(dst, [2, 3], 1, Fraction(1, 2))
    assert dst == [6, 5, Fraction(5, 2)]
    for k in (3, 4, 50):  # k >= len(dst): nothing to add
        add_shifted(dst, [7, 7], k, 3)
        assert dst == [6, 5, Fraction(5, 2)]
    add_shifted(dst, [], 0)
    assert dst == [6, 5, Fraction(5, 2)]
    # a ring element as the scale: c * src[i - k] is src[i - k] * c
    ring = DualRing(RAT)
    duals = [ring.lift(2), ring.x_power(3)]
    add_shifted(duals, [ring.one], 1, ring.x_power(1))
    assert duals == [ring.lift(2), ring.x_power(3) + ring.x_power(1)]


# -- the big-integer product of int series -----------------------------------


def _loop_product(a, b, n):
    """Coefficients 0..n of a*b by QSeries' generic loop, which a
    Fraction coefficient over FRAC keeps it on."""
    order = max(len(a), len(b), n + 1) - 1

    def series(cs):
        cs = [Fraction(c) for c in cs] + [Fraction(0)] * (order + 1 - len(cs))
        return QSeries(FRAC, order, cs)

    return (series(a) * series(b)).coeffs[: n + 1]


big_ints = st.one_of(
    st.just(0), st.just(0), st.integers(min_value=-10**40, max_value=10**40)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(big_ints, min_size=1, max_size=30),
       st.lists(big_ints, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=70))
@example([0], [0], 0)
@example([0] * 5, [3, -1], 8)
@example([7], [0] * 9, 4)
def test_int_product_matches_generic_loop(a, b, n):
    out = _int_product(a, b, n)
    assert len(out) == n + 1 and all(type(c) is int for c in out)
    assert out == _loop_product(a, b, n)


@pytest.mark.parametrize("m", [1, 11, 127, 181, 255, 46340, 2**32 - 1, 10**40])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
@pytest.mark.parametrize("length", [2, 60, 300])
def test_int_product_worst_case_carries(m, signs, length):
    # every product coefficient is a full sum of +-m^2 terms: the digit
    # width must cover the number of terms, not only m^2
    a = [signs[0] * m] * length
    b = [signs[1] * m] * length
    assert _int_product(a, b, length) == _loop_product(a, b, length)


def test_int_series_product_takes_the_big_int_path(monkeypatch):
    a = pochhammer_infinite(mono(1, 1), 1, order=40)
    b = pochhammer_infinite(mono(-1, 1), 1, order=40).invert()
    want = _loop_product(a.coeffs, b.coeffs, 40)
    calls = []

    def counted(*args):
        calls.append(args)
        return _int_product(*args)

    monkeypatch.setattr(series_module, "_int_product", counted)
    assert (a * b).coeffs == want and len(calls) == 1


def test_fraction_series_product_stays_on_generic_loop(monkeypatch):
    half = QSeries.from_terms(FRAC, 30, {0: Fraction(1, 2), 1: -1, 5: 2})
    ints = pochhammer_infinite(mono(1, 1), 1, order=30, ring=FRAC)
    want = bf.coeffs(bf.poly_mul(dict(enumerate(half.coeffs)), dict(enumerate(ints.coeffs)), 30), 30)

    def refuse(*args):
        raise AssertionError("a Fraction series took the int path")

    monkeypatch.setattr(series_module, "_int_product", refuse)
    assert (half * ints).coeffs == want
    assert (ints * half).coeffs == want


# -- dual derivative vs polynomial oracle -----------------------------------


def test_derivative_square():
    def build(ring):
        return QSeries.one(ring, 3).mul_scalar(ring.x_power(2))

    dual, poly = bf.at_one_both(build, RAT)
    assert dual == poly
    assert dual[1].coeffs[0] == 2


def test_derivative_one_minus_x_factor():
    # d/dx at 1 of (1-x) g(x) is -g(1), for any series g
    for base, half in ((RAT, 5), (FRAC, Fraction(5, 2))):
        g_terms = {0: 3, 2: half, 4: -1}

        def build(ring):
            g = QSeries.from_terms(ring, 5, {})
            for e, c in g_terms.items():
                g.coeffs[e] = ring.lift(c) * ring.x_power(e % 3)
            one = QSeries.one(ring, 5)
            return (one - one.mul_scalar(ring.x_power(1))) * g

        (value, deriv), poly = bf.at_one_both(build, base)
        assert (value, deriv) == poly
        assert value.is_zero()
        # derivative must equal -g(1)
        g_at_1 = QSeries.from_terms(base, 5, g_terms)
        assert deriv == -g_at_1


def _x_terms(coeffs):
    return st.lists(
        st.tuples(st.integers(min_value=0, max_value=5), coeffs,
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=5,
    )


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.tuples(st.just(FRAC), _x_terms(fracs)),
                 st.tuples(st.just(RAT), _x_terms(small_ints))))
def test_derivative_random_x_polynomials(base_terms):
    # random series-valued polynomials in x: dual == polynomial oracle
    base, terms = base_terms

    def build(ring):
        s = QSeries.zeros(ring, 6)
        for qe, c, xd in terms:
            s.coeffs[qe] = s.coeffs[qe] + ring.lift(c) * ring.x_power(xd)
        return s * s  # square it to exercise products

    dual, poly = bf.at_one_both(build, base)
    assert dual == poly


def test_derivative_check_on_pochhammer_expression():
    def build(ring):
        s = pochhammer_finite(mono(1, 1, xexp=1), 3, 1, order=8, ring=ring)
        t = pochhammer_finite(mono(-1, 2, xexp=1), 2, 2, order=8, ring=ring)
        return s * t.invert()

    dual, poly = bf.at_one_both(build, RAT)
    assert dual == poly


# -- DualSeries kernels vs the polynomial oracle ------------------------------

# scalars a*x^k + b: zero, x-free, value 0 with a nonzero derivative
# (x - 1, 3x^2 - 3), and nonzero in both components
_SCALARS = ((0, 0, 0), (2, 0, 0), (1, 1, -1), (3, 2, -3), (-3, 2, 1), (5, 1, 2))


def _coeff(base, c, e):
    """c, times z^e over LAURENT."""
    return LaurentPoly.term(e, c) if base is LAURENT else c


def _x_series(ring, order, terms):
    """sum c z^ze q^e x^d over (e, c, ze, d) in `terms`: a DualSeries over
    a DualRing (its halves read off a series of DualScalars), else a QSeries."""
    s = QSeries.zeros(ring, order)
    for e, c, ze, d in terms:
        s.coeffs[e] = s.coeffs[e] + ring.lift(_coeff(ring.base, c, ze)) * ring.x_power(d)
    return DualSeries(ring, *s.at_one()) if isinstance(ring, DualRing) else s


def _x_scalar(ring, a, k, b, ze=0):
    return ring.lift(_coeff(ring.base, a, ze)) * ring.x_power(k) + ring.lift(b)


def _random_terms(rng, order):
    return [(rng.randint(0, order), rng.randint(-4, 4), rng.randint(-2, 2), rng.randint(0, 3))
            for _ in range(rng.randint(1, 6))]


@pytest.mark.parametrize("base", [RAT, LAURENT], ids=repr)
def test_dual_series_kernels_match_the_xpoly_oracle(base):
    # each kernel of the two-half series equals, at x = 1, the same kernel
    # over honest x-polynomials, and leaves its operand as it was
    rng = random.Random(24)
    kernels = [("mul_scalar", ())] + [("mul_binomial", (m,)) for m in (0, 1, 3, 9)]
    kernels += [("div_binomial", (m,)) for m in (1, 2, 5)]
    for _ in range(6):
        order = rng.randint(0, 9)
        terms = _random_terms(rng, order)
        for a, k, b in _SCALARS:
            ze = rng.randint(-1, 1)
            for name, args in kernels:
                def build(ring):
                    s = _x_series(ring, order, terms)
                    before = s.at_one()
                    out = getattr(s, name)(_x_scalar(ring, a, k, b, ze), *args)
                    assert s.at_one() == before, name
                    return out

                dual, poly = bf.at_one_both(build, base)
                assert dual == poly, (name, args, (a, k, b), order)


@pytest.mark.parametrize("base", [RAT, LAURENT], ids=repr)
def test_dual_series_shifted_add_matches_the_xpoly_oracle(base):
    rng = random.Random(7)
    for _ in range(8):
        order, src_order = rng.randint(0, 9), rng.randint(0, 9)
        dst, src = _random_terms(rng, order), _random_terms(rng, src_order)
        for a, k, b in _SCALARS:
            for shift in (0, 1, 4, order + 1):
                def build(ring):
                    out = _x_series(ring, order, dst)
                    c = _x_scalar(ring, a, k, b)
                    out.add_shifted(_x_series(ring, src_order, src), shift, c)
                    return out

                dual, poly = bf.at_one_both(build, base)
                assert dual == poly, (shift, (a, k, b))


@pytest.mark.parametrize(
    "base, width", [(RAT, None), (RAT, 0), (RAT, 5), (RAT, 40), (LAURENT, None)],
    ids=["rat", "rat-0", "rat-w5", "rat-w40", "laurent"],
)
def test_dual_series_twisted_product_matches_the_xpoly_oracle(base, width):
    # p.mul(a, width) is p with coefficient j taken times 2^(width*j), times a
    rng = random.Random(11)
    for _ in range(10):
        po, ao = rng.randint(0, 9), rng.randint(0, 9)
        p_terms = [(e, c, 0, d) for e, c, _, d in _random_terms(rng, po)]  # z-free
        a_terms = _random_terms(rng, ao)

        def build(ring):
            p, a = _x_series(ring, po, p_terms), _x_series(ring, ao, a_terms)
            if isinstance(p, DualSeries):
                return p.mul(a, width)
            twist = [ring.lift(1 << (width or 0) * j) for j in range(po + 1)]
            return QSeries(ring, po, map(mul, p.coeffs, twist)) * a

        dual, poly = bf.at_one_both(build, base)
        assert dual == poly and dual[0].order == min(po, ao)


def test_dual_series_first_difference_reads_both_halves():
    ring = DualRing(RAT)
    a = _x_series(ring, 6, [(2, 1, 0, 1), (5, 3, 0, 0)])
    assert a.first_difference(a) is None
    # q^2 x versus q^2 x^2: the values agree, the derivatives differ at 2
    assert a.first_difference(_x_series(ring, 6, [(2, 1, 0, 2), (5, 3, 0, 0)])) == 2
    # a value that differs at 5 after a derivative that differs at 2
    assert a.first_difference(_x_series(ring, 6, [(2, 1, 0, 2), (5, 4, 0, 0)])) == 2
    assert a.first_difference(_x_series(ring, 6, [(2, 1, 0, 1), (5, 4, 0, 0)])) == 5
    assert a.first_difference(_x_series(ring, 4, [(2, 1, 0, 1)])) is None  # to the common order


# -- serialization ----------------------------------------------------------


def test_json_round_trip_integer():
    s = QSeries.from_terms(RAT, 6, {0: 5, 3: -7, 6: 10**30})
    obj = series_module.series_to_json(s)
    assert obj == series_to_json(s) and obj["ring"] == "rational"
    back = series_from_json(json.loads(json.dumps(obj)))
    assert back == s and all(type(c) is int for c in back.coeffs)
    for ring in (FRAC, LAURENT):
        with pytest.raises(TypeError):
            series_module.series_to_json(QSeries.zeros(ring, 2))


def test_json_round_trip_rational():
    s = QSeries.from_terms(FRAC, 6, {0: Fraction(1, 2), 3: -7, 6: Fraction(22, 7)})
    back = series_from_json(json.loads(json.dumps(series_to_json(s))))
    assert back == s


def test_json_round_trip_laurent():
    s = QSeries.zeros(LAURENT, 4)
    s.coeffs[2] = LaurentPoly({-1: Fraction(1, 3), 2: 5})
    s.coeffs[4] = LaurentPoly({0: -2})
    back = series_from_json(json.loads(json.dumps(series_to_json(s))))
    assert back == s


@pytest.mark.parametrize("exponent", [-1, 4])
@pytest.mark.parametrize("ring, coefficient", [("rational", "5"), ("laurent", {"1": "5"})])
def test_json_rejects_exponent_outside_order(ring, coefficient, exponent):
    # -1 must not wrap into the top coefficient, 4 must not be an IndexError
    obj = {"ring": ring, "order": 3, "terms": [{"q_exponent": exponent, "coefficient": coefficient}]}
    with pytest.raises(ValueError, match=f"q_exponent {exponent} is outside 0..3"):
        series_from_json(obj)


@settings(max_examples=150, deadline=None)
@given(any_series)
def test_json_round_trip_random(s):
    assert series_from_json(json.loads(json.dumps(series_to_json(s)))) == s


def test_integrality_view():
    s = QSeries.from_terms(RAT, 3, {0: 1, 2: -4})
    assert s.integer_coefficients() == [1, 0, -4, 0]
    assert s.reduce_mod(3) == [1, 0, 2, 0]
    with pytest.raises(TypeError):  # from_terms lifts: ints only
        QSeries.from_terms(RAT, 2, {1: Fraction(1, 2)})
    # a non-int that reached a RAT series through the constructor is
    # asserted away, never truncated, an integral Fraction included
    for bad in (Fraction(1, 2), Fraction(4, 2), 2.0):
        with pytest.raises(ValueError, match=r"coefficient of q\^2 is not an int"):
            QSeries(RAT, 3, [1, 0, bad, 0]).integer_coefficients()
    with pytest.raises(TypeError):
        QSeries.zeros(FRAC, 2).integer_coefficients()
