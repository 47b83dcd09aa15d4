"""Generating functions against the enumeration oracle, closed-form
identities at working orders, and the dual-derivative operator law."""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from bruteforce import LAURENT, FormalZ, LaurentPoly, XPolyRing, decode, decode_sides, unpack
from qcert.combinatorics import raw_tally, tally
from qcert.errors import UnknownFormId
from qcert.genfun import (
    Family,
    PackedZ,
    _inner_terms,
    _pair_sum,
    _rank_sum_of,
    _thmain_prefactor,
    _thmain_rhs,
    _thmain_width,
    _ZMap,
    closed_form,
    form_ids,
    genovpair_samples,
    genovpair_series,
    nt_diff_combo,
    nt_diff_gf,
    rank_gf,
    thmain_check,
    z_digits,
    z_text,
)
from qcert.rings import RAT, DualRing, DualScalar
from qcert.series import QSeries, balanced_digits, mono

ALL_FAMILIES = (Family.DYSON, Family.OV_RANK, Family.OV_M2, Family.DO_M2)

_TALLY_OF = {
    Family.DYSON: "NT",
    Family.OV_RANK: "NTbar",
    Family.OV_M2: "NTbar2",
    Family.DO_M2: "NT2",
}
_COUNT_OF = {
    Family.DYSON: "N",
    Family.OV_RANK: "Nbar",
    Family.OV_M2: "Nbar2",
    Family.DO_M2: "N2",
}


# -- rank generating functions ------------------------------------------------


def _at_z_one(c: LaurentPoly):
    """A decoded coefficient at z = 1: the sum of its z-coefficients."""
    return sum(v for _, v in c.items())


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rank_gf_constant_term(family):
    g = decode(rank_gf(family, 6))
    assert g.coeffs[0].is_constant() and g.coeffs[0][0] == 1


def test_rank_gf_ovm2_marginal_is_overpartition_count():
    g = decode(rank_gf(Family.OV_M2, 8))
    ovgf = closed_form("overpartition-gf", 8)
    for n in range(9):
        assert _at_z_one(g.coeffs[n]) == ovgf.coeffs[n]
    assert _at_z_one(g.coeffs[4]) == 14


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rank_gf_distribution_matches_enumeration(family):
    g = decode(rank_gf(family, 12))
    for n in range(13):
        want = {m: Fraction(c) for m, c in raw_tally(_COUNT_OF[family], n).items()}
        got = dict(g.coeffs[n].items())
        assert got == want


def test_rank_gf_dyson_z_symmetry():
    # classical rank symmetry: z^m and z^-m coefficients agree
    g = decode(rank_gf(Family.DYSON, 16))
    for n in range(17):
        c = g.coeffs[n]
        for m, v in c.items():
            assert c[-m] == v


# -- part-count difference series ----------------------------------------------


def test_nt_diff_constant_term_vanishes():
    for family in ALL_FAMILIES:
        assert nt_diff_gf(family, 1, 3, 10).coeffs[0] == 0


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("b,k", [(1, 5), (2, 5), (1, 3), (2, 7)])
def test_nt_diff_matches_enumeration(family, b, k):
    order = 14
    series = nt_diff_gf(family, b, k, order)
    fam = _TALLY_OF[family]
    for n in range(order + 1):
        t = tally(fam, n, k)
        assert series.coeffs[n] == t[b] - t[(k - b) % k]


def test_nt_diff_dyson_oracle_to_30():
    series = nt_diff_gf(Family.DYSON, 1, 5, 30)
    for n in range(31):
        t = tally("NT", n, 5)
        assert series.coeffs[n] == t[1] - t[4]


def test_nt_diff_antisymmetry():
    for family in ALL_FAMILIES:
        for b, k in [(1, 5), (2, 5), (1, 3), (3, 7)]:
            a = nt_diff_gf(family, b, k, 24)
            c = nt_diff_gf(family, k - b, k, 24)
            assert (a + c).is_zero()


def test_nt_diff_spec_validation():
    with pytest.raises(ValueError):
        nt_diff_gf(Family.DYSON, 0, 5, 4)
    with pytest.raises(ValueError):
        nt_diff_gf(Family.DYSON, 5, 5, 4)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_nt_diff_collapse_matches_uncollapsed_xpoly_product(family):
    # the uncollapsed product P*A built over honest x-polynomials: its
    # x = 1 value vanishes and minus its x-derivative is nt_diff_gf,
    # which multiplies P(1) by the packed A'(1) only
    from qcert.genfun import _FAMILY_DATA, _inner_terms
    from qcert.series import pochhammer_quotient

    order = 40
    ring = XPolyRing(RAT)
    d = _FAMILY_DATA[family]
    pref = pochhammer_quotient(d.pref_num, d.pref_den, order=order, ring=ring)
    terms = [(n, c.coeffs, quad) for n, c, quad in _inner_terms(family, _ZMap(ring), order)]
    pairs = [(1, 3), (1, 5), (2, 5), (1, 7), (3, 7), (1, 11), (6, 11), (1, 13), (3, 13)]
    for b, k in pairs:
        inner = bf.difference_sum_ref(terms, d.qstep, b, k, order, ring.x_power, ring.zero)
        value, deriv = (pref * QSeries(ring, order, inner)).at_one()
        assert value.is_zero(), (b, k)
        assert -deriv == nt_diff_gf(family, b, k, order), (b, k)


# (b, k) with b < k/2 and b > k/2 (lo > hi); for b, k - b >= 2 the last
# inner terms of each order have windows that start past the order
_WINDOW_PAIRS = ((1, 3), (2, 3), (2, 5), (4, 5), (3, 7), (5, 7), (6, 11), (10, 13))


def _assert_packed_difference_matches_reference(family, b, k, order):
    """The packed A'(1) read back digit by digit equals the full-length
    reference, each digit within the stated bound, and it is what
    `_nt_deriv` reads; the reference's A(1), which the packed route does
    not build, is 0."""
    from qcert.genfun import _FAMILY_DATA, _inner_terms, _nt_deriv, _packed_difference

    s = _FAMILY_DATA[family].qstep
    plain = [(n, c.coeffs, quad) for n, c, quad in _inner_terms(family, _ZMap(RAT), order)]
    deriv, width, bound = _packed_difference(family, b, k, order)
    assert bf.difference_sum_ref(plain, s, b, k, order) == [0] * (order + 1)
    want_deriv = bf.difference_deriv_ref(plain, s, b, k, order)
    assert balanced_digits(deriv, width, order + 1) == want_deriv
    assert max(map(abs, want_deriv)) <= bound < 1 << (width - 1)
    assert _nt_deriv(family, b, k, order).coeffs == want_deriv


@pytest.mark.parametrize(
    "family, order", [(f, 200) for f in ALL_FAMILIES] + [(Family.DYSON, 1054)]
)
def test_windowed_difference_sums_match_full_length_reference(family, order):
    from qcert.genfun import _FAMILY_DATA, _inner_terms

    s = _FAMILY_DATA[family].qstep
    terms = list(_inner_terms(family, _ZMap(RAT), order))
    starts_past_order = False
    for b, k in _WINDOW_PAIRS:
        _assert_packed_difference_matches_reference(family, b, k, order)
        starts_past_order |= any(
            quad + s * min(b - 1, k - b - 1) * n > order for n, _, quad in terms
        )
    assert starts_past_order


# C_n(1) of each family after its level factors cancel: (scalar, numerator
# factors (c, m) of 1 + c q^m, divisor) as functions of n
_RESIDUES = {
    Family.DYSON: lambda n: ((-1) ** n, [(-1, n)], None),
    Family.OV_RANK: lambda n: (2 * (-1) ** n, [(-1, n)], (1, n)),
    Family.OV_M2: lambda n: (2 * (-1) ** n, [(-1, 2 * n)], (1, 2 * n)),
    Family.DO_M2: lambda n: ((-1) ** n, [(-1, 2 * n)], None),
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_inner_residues_pin_the_cancelled_factors(family):
    from qcert.genfun import _FAMILY_DATA, _inner_residues

    quad = _FAMILY_DATA[family].inner_quad
    got = list(_inner_residues(family, 200))
    assert [n for n, *_ in got] == list(range(1, len(got) + 1)) and quad(len(got) + 1) > 200
    assert got == [(n, quad(n), *_RESIDUES[family](n)) for n in range(1, len(got) + 1)]


def _assert_packed_terms_match_list_terms(family, order):
    """Each packed C_n(1), read back digit by digit, is the list-built
    term, and `_residue_bound` is its largest |coefficient| or above it."""
    from qcert.genfun import _inner_residues, _inner_terms, _packed_term, _packing_width, _residue_bound

    levels = list(_inner_residues(family, order))
    terms = list(_inner_terms(family, _ZMap(RAT), order))
    assert [lvl[:2] for lvl in levels] == [(n, quad) for n, _, quad in terms]
    for (n, quad, scalar, nums, div), (_, c, _) in zip(levels, terms):
        bound = _residue_bound(scalar, nums, div)
        assert max(map(abs, c.coeffs)) <= bound, n
        width = _packing_width([bound])
        packed = _packed_term(scalar, nums, div, width, width * len(c.coeffs))
        assert balanced_digits(packed, width, len(c.coeffs)) == c.coeffs, (family, order, n)


@pytest.mark.parametrize(
    "family, orders",
    [pytest.param(f, [*range(14), 60, 200], id=f"{f.value}-0..13,60,200") for f in ALL_FAMILIES]
    + [pytest.param(Family.DYSON, [1054], id="dyson-1054")],
)
def test_packed_inner_terms_match_the_list_built_terms(family, orders):
    from qcert.genfun import _inner_residues, _residue_bound

    for order in orders:
        _assert_packed_terms_match_list_terms(family, order)
    # on the four families the bound is the largest |coefficient| of every
    # term that reaches q^(2m), so the widths stay those of the list maxima
    exact = [
        _residue_bound(scalar, nums, div) == max(map(abs, c.coeffs))
        for (_, _, scalar, nums, div), (_, c, _) in zip(
            _inner_residues(family, 200), _inner_terms(family, _ZMap(RAT), 200))
        if len(c.coeffs) > 2 * nums[0][1]
    ]
    assert len(exact) >= 7 and all(exact)


# inner rows that keep other divisors at x = 1: (1 - q^n)(1 - q^(n+1)) / (1 - q),
# the one divisor 1 - q^m, is packed; (1 - q^n) over prod_j (1 + q^j) keeps
# n divisors, and 3 (1 - q^n) / (1 + 2 q^n) one divisor 1 + 2 q^n
_ONE_MINUS_DIVISOR = (Family.DYSON, {"inner_num": (mono(1, 2, xexp=1),)})
_KEPT_DIVISORS = {
    "two-divisors": (Family.DYSON, {"inner_den": (mono(-1, 1, xexp=1),)}, "NT5-I1"),
    "divisor-1+2q^m": (
        Family.OV_RANK,
        {"inner_num": (mono(1, 1, xexp=1), mono(-2, 0)), "inner_den": (mono(-2, 1, xexp=1),)},
        "ID-NTDIFF-OV-1-3",
    ),
}


def test_packed_inner_term_divides_by_one_minus_q_m(monkeypatch):
    import dataclasses

    from qcert import genfun as G

    family, rows = _ONE_MINUS_DIVISOR
    monkeypatch.setitem(G._FAMILY_DATA, family, dataclasses.replace(G._FAMILY_DATA[family], **rows))
    assert [lvl[4] for lvl in G._inner_residues(family, 60)][:3] == [None, (-1, 1), (-1, 1)]
    for order in (0, 1, 2, 7, 13, 60):
        _assert_packed_terms_match_list_terms(family, order)


@pytest.mark.parametrize("name", sorted(_KEPT_DIVISORS))
def test_inner_row_keeping_another_divisor_is_a_check_error(name, monkeypatch):
    # the packed terms divide by one 1 +- q^m only; any other divisor left
    # after the cancellation is refused, and the runner reports an ERROR
    import dataclasses

    import qcert
    from qcert import genfun as G
    from qcert.verify import run_all

    family, rows, check_id = _KEPT_DIVISORS[name]
    monkeypatch.setitem(G._FAMILY_DATA, family, dataclasses.replace(G._FAMILY_DATA[family], **rows))
    qcert.clear_caches()
    try:
        with pytest.raises(AssertionError, match=f"inner term .* of {family.value} keeps the divisors"):
            nt_diff_gf(family, 1, 5, 30)
        result = run_all(only=check_id, order=23)
    finally:
        qcert.clear_caches()
    (rep,) = result.reports
    assert rep.status == "ERROR" and rep.error.startswith("AssertionError: inner term")
    assert result.exit_code == 2


def test_packed_difference_matches_reference_for_every_registry_key():
    # every (family, b, k, bound) the registry asks nt_diff_gf or
    # nt_diff_combo for, the order-1054 DYSON keys included
    from qcert.verify import _SERIES_FAMILY, registry

    keys = set()
    for spec in registry():
        keys |= {(_SERIES_FAMILY[t.family], t.residue, t.modulus, spec.bound)
                 for t in spec.lhs if t.family in _SERIES_FAMILY}
        if spec.xcheck and spec.xcheck.rank_family:
            keys |= {(spec.xcheck.rank_family, b, k, spec.bound) for b, k in spec.xcheck.pairs}
    assert len(keys) >= 25 and max(order for *_, order in keys) >= 1054
    for key in sorted(keys, key=lambda key: (key[0].value,) + key[1:]):
        _assert_packed_difference_matches_reference(*key)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_windowed_difference_sum_over_dual_numbers(family):
    # at x = 1 + eps the inner sum does not vanish: its eps part is the
    # packed A'(1)
    from qcert.genfun import _FAMILY_DATA, _inner_terms, _nt_deriv

    order = 60
    ring = DualRing(RAT)
    s = _FAMILY_DATA[family].qstep
    terms = [(n, bf.joined(c).coeffs, quad) for n, c, quad in _inner_terms(family, _ZMap(ring), order)]
    for b, k in ((1, 5), (3, 5), (6, 11)):
        got = bf.difference_sum_ref(terms, s, b, k, order, ring.x_power, ring.zero)
        value, deriv = QSeries(ring, order, got).at_one()
        assert value.is_zero() and not deriv.is_zero(), (b, k)
        assert deriv == _nt_deriv(family, b, k, order), (b, k)


def test_nt_diff_combo_is_the_sum_of_its_terms_for_every_registry_spec():
    from qcert.verify import _SERIES_FAMILY, registry

    checked = 0
    for spec in registry():
        terms = [(t.coeff, _SERIES_FAMILY[t.family], t.residue, t.modulus)
                 for t in spec.lhs if t.family in _SERIES_FAMILY]
        if not terms:
            continue
        want = QSeries.zeros(RAT, spec.bound)
        for c, family, b, k in terms:
            want = want + nt_diff_gf(family, b, k, spec.bound).mul_scalar(c)
        assert nt_diff_combo(terms, spec.bound) == want, spec.id
        checked += 1
    assert checked >= 30


def test_nt_diff_combo_divides_once_per_theta_series(monkeypatch):
    # OV_RANK and OV_M2 share the theta series sum (-1)^n q^(n^2), so five
    # terms over three families take two divisions
    from qcert import series

    calls = []
    orig = series.QSeries.div_sparse
    monkeypatch.setattr(series.QSeries, "div_sparse", lambda s, t: calls.append(t) or orig(s, t))
    terms = [(1, Family.DYSON, 1, 5), (-2, Family.DYSON, 2, 5), (3, Family.OV_RANK, 1, 3),
             (1, Family.OV_M2, 1, 5), (4, Family.OV_M2, 2, 5)]
    combo = nt_diff_combo(terms, 40)
    assert len(calls) == 2 and len(set(calls)) == 2
    assert {c[:2] for c in calls} == {((0, 1), (1, -1)), ((0, 1), (1, -2))}
    want = QSeries.zeros(RAT, 40)
    for c, family, b, k in terms:
        want = want + nt_diff_gf(family, b, k, 40).mul_scalar(c)
    assert combo == want


@pytest.mark.parametrize("b", [-1, 0, 5, 6])
def test_nt_diff_combo_validates_every_term(b):
    with pytest.raises(ValueError):
        nt_diff_combo([(1, Family.DYSON, 1, 5), (2, Family.DYSON, b, 5)], 10)


def test_derivative_cache_miss_runs_the_vanishing_guard(monkeypatch):
    # one guarded build per (family, b, k): A'(1) is built, and its digits
    # asserted within their bound, at the widest order read; it serves
    # nt_diff_gf and nt_diff_combo alike, a lower read truncates it and a
    # wider one rebuilds it in place
    import qcert
    from qcert import genfun as G

    guards = []
    orig = G._packed_difference
    monkeypatch.setattr(G, "_packed_difference", lambda *a: guards.append(a) or orig(*a))
    qcert.clear_caches()
    try:
        nt_diff_combo([(1, Family.DYSON, 1, 5), (1, Family.DYSON, 2, 5)], 30)
        nt_diff_gf(Family.DYSON, 2, 5, 30)
        low = nt_diff_combo([(3, Family.DYSON, 1, 5)], 12)
        assert guards == [(Family.DYSON, 1, 5, 30), (Family.DYSON, 2, 5, 30)]
        nt_diff_gf(Family.DYSON, 1, 5, 31)
        nt_diff_gf(Family.DYSON, 1, 5, 20)
        assert guards[2:] == [(Family.DYSON, 1, 5, 31)]
        qcert.clear_caches()
        assert nt_diff_combo([(3, Family.DYSON, 1, 5)], 12) == low
        assert guards[3:] == [(Family.DYSON, 1, 5, 12)]
    finally:
        qcert.clear_caches()


def test_packed_difference_width_one_bit_short_is_refused(monkeypatch):
    # the width of the packed A(1) and A'(1) comes from their stated
    # digit bound; a width one bit short of it is refused, never used,
    # and the runner reports the refusal as a per-check ERROR
    import qcert
    from qcert import genfun as G
    from qcert.verify import run_all

    monkeypatch.setattr(G, "_width", lambda bound: bound.bit_length())
    qcert.clear_caches()
    try:
        with pytest.raises(AssertionError, match="packed width .* cannot hold the digit bound"):
            nt_diff_gf(Family.DYSON, 1, 5, 30)
        result = run_all(only="ID-NTDIFF-OV-1-3", order=23)
    finally:
        qcert.clear_caches()
    (rep,) = result.reports
    assert rep.status == "ERROR" and rep.error.startswith("AssertionError: packed width")
    assert result.exit_code == 2


def test_nt_diff_builds_no_dual_numbers(monkeypatch):
    # the derivative is read from the x = 1 inner terms, over integers
    import qcert
    from qcert import rings

    def refuse(self, *args):
        raise AssertionError("nt_diff_gf built a DualScalar")

    qcert.clear_caches()
    monkeypatch.setattr(rings.DualScalar, "__init__", refuse)
    for family in ALL_FAMILIES:
        series = nt_diff_gf(family, 2, 5, 60)
        assert all(type(c) is int for c in series.coeffs), family


def test_packed_thmain_keeps_value_and_derivative_apart(monkeypatch):
    # each packed side is two int series: no series of DualScalars is
    # built or split (QSeries.at_one), and a jet is a kernel's scalar only,
    # so the jets stay within a small multiple of the dual kernel calls
    from qcert import rings, series

    def refuse_split(self):
        raise AssertionError("thmain_check split a series of DualScalars")

    def no_dual_coeffs(self, ring, order, coeffs=None):
        if isinstance(ring, DualRing):
            raise AssertionError("thmain_check built a series of DualScalars")
        real_init(self, ring, order, coeffs)

    def counted_jet(self, value, deriv):
        counts["jets"] += 1
        real_jet(self, value, deriv)

    def counted(kernel):
        def call(self, *args):
            counts["kernels"] += 1
            return kernel(self, *args)
        return call

    real_init, real_jet = series.QSeries.__init__, rings.DualScalar.__init__
    monkeypatch.setattr(series.QSeries, "at_one", refuse_split)
    monkeypatch.setattr(series.QSeries, "__init__", no_dual_coeffs)
    monkeypatch.setattr(rings.DualScalar, "__init__", counted_jet)
    for name in ("mul_scalar", "mul_binomial", "div_binomial", "add_shifted", "mul"):
        monkeypatch.setattr(series.DualSeries, name, counted(getattr(series.DualSeries, name)))
    for family in ALL_FAMILIES:
        counts = {"jets": 0, "kernels": 0}
        rep = thmain_check(family, 40)
        assert rep.ok, family
        assert all(isinstance(side, series.DualSeries) for side in rep.packed)
        assert counts["jets"] <= 2 * counts["kernels"], (family, counts)


def test_clear_caches_empties_every_lru_cache():
    # the benchmark worker reads cache_info().currsize of every cached
    # function in these two modules to decide that a run starts cold
    import qcert
    from qcert import combinatorics, genfun

    def filled():
        return {
            f"{mod.__name__}.{name}": obj.cache_info().currsize
            for mod in (combinatorics, genfun)
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and obj.cache_info().currsize
        }

    nt_diff_gf(Family.OV_M2, 1, 5, 20)
    rank_gf(Family.DYSON, 8)
    closed_form("ovm2-ntdiff-1-3-rhs", 20)
    tally("NTbar", 6, 5)
    raw_tally("N", 6)
    # genfun lists its caches once, for clear_caches; each one is warm now
    cached = {name for name, obj in vars(genfun).items() if hasattr(obj, "cache_info")}
    assert cached == {cache.__name__ for cache in genfun._CACHES}
    warm = {f"qcert.genfun.{cache.__name__}" for cache in genfun._CACHES}
    warm |= {"qcert.combinatorics._table"}  # the tallies read the row tables
    assert warm <= set(filled()), filled()
    qcert.clear_caches()
    assert filled() == {}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_prefactor_is_sparse_theta_reciprocal(family):
    # the family's theta series (Euler's pentagonal theorem, Gauss's phi
    # and psi) times its prefactor, the product quotient at x = 1, is 1,
    # and dividing by it is multiplying by that quotient
    from qcert.genfun import _FAMILY_DATA, _nt_deriv, _theta
    from qcert.series import pochhammer_quotient

    d = _FAMILY_DATA[family]
    orders = (0, 1, 2, 7, 60, 200) + ((1054,) if family is Family.DYSON else ())
    for order in orders:
        theta = _theta(family, order)
        assert len(theta) <= 3 * isqrt(order + 1) + 1, order  # sparse: O(sqrt N) terms
        pref = pochhammer_quotient(d.pref_num, d.pref_den, order=order)
        assert QSeries.from_terms(RAT, order, dict(theta)) * pref == QSeries.one(RAT, order), order
        deriv = _nt_deriv(family, 1, 5, order)
        got = deriv.div_sparse(theta)
        assert got == deriv * pref, order
        assert all(type(c) is int for c in got.coeffs), order


@pytest.mark.parametrize("ring_name", ["xpoly-rat", "dual-laurent"])
def test_ovm2_prefactor_equals_base_q2_split(ring_name):
    # the one OV_M2 prefactor (-xq;q)_inf/(xq;q)_inf is, as a series, the
    # literal specialization (-xq^2,-xq;q^2)_inf/(xq^2,xq;q^2)_inf
    from qcert.genfun import _FAMILY_DATA
    from qcert.series import mono, pochhammer_quotient

    ring = XPolyRing(RAT) if ring_name == "xpoly-rat" else DualRing(LAURENT)
    d = _FAMILY_DATA[Family.OV_M2]
    merged = pochhammer_quotient(d.pref_num, d.pref_den, order=40, ring=ring)
    split = pochhammer_quotient(
        ((mono(-1, 2, xexp=1), 2), (mono(-1, 1, xexp=1), 2)),
        ((mono(1, 2, xexp=1), 2), (mono(1, 1, xexp=1), 2)),
        order=40, ring=ring,
    )
    assert merged == split


def _leaves(c):
    if isinstance(c, DualScalar):
        yield from _leaves(c.value)
        yield from _leaves(c.deriv)
    elif isinstance(c, LaurentPoly):
        for _, v in c.items():
            yield v
    else:
        yield c


def _integer_first(series) -> bool:
    """No coefficient leaf is a float or a Fraction with denominator 1."""
    return not any(
        isinstance(v, float) or (isinstance(v, Fraction) and v.denominator == 1)
        for c in series.coeffs
        for v in _leaves(c)
    )


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_laurent_series_are_integer_first(family):
    assert _integer_first(decode(rank_gf(family, 30)))
    report = thmain_check(family, 20)
    assert all(_integer_first(side) for side in decode_sides(report))


def test_genovpair_series_is_integer_first():
    assert _integer_first(decode(genovpair_series(1, 1, 1, 10)))


@pytest.mark.parametrize("form", form_ids())
def test_closed_forms_are_integer_first(form):
    assert all(type(c) is int for c in closed_form(form, 60).coeffs)


def test_nt_diff_coefficients_are_ints():
    series = nt_diff_gf(Family.DYSON, 1, 7, 60)
    assert all(type(c) is int for c in series.coeffs)


# -- closed forms ---------------------------------------------------------------


@pytest.mark.parametrize(
    "form,family,b,k",
    [
        ("ovm2-ntdiff-1-5-rhs", Family.OV_M2, 1, 5),
        ("ovm2-ntdiff-2-5-rhs", Family.OV_M2, 2, 5),
        ("dom2-ntdiff-1-5-rhs", Family.DO_M2, 1, 5),
        ("dom2-ntdiff-2-5-rhs", Family.DO_M2, 2, 5),
        ("ovrank-ntdiff-1-3-rhs", Family.OV_RANK, 1, 3),
        ("ovm2-ntdiff-1-3-rhs", Family.OV_M2, 1, 3),
    ],
)
def test_ntdiff_closed_forms(form, family, b, k):
    order = 60
    assert nt_diff_gf(family, b, k, order) == closed_form(form, order)


def test_kernel_y_polynomials_are_their_stated_products():
    # the coefficient tuples of the kernel forms, against the products
    # they are stated as, built over the tests' Laurent polynomials
    from qcert.genfun import _QUARTIC, _QUINTIC_FULL, _QUINTIC_MID

    def coefficients(p):
        return tuple(p[j] for j in range(max(e for e, _ in p.items()) + 1))

    y_minus_1 = LaurentPoly({0: -1, 1: 1})
    cube = y_minus_1 * y_minus_1 * y_minus_1
    cube_diff = cube * LaurentPoly({0: -1, 2: 1})
    assert _QUINTIC_FULL == coefficients(cube_diff * LaurentPoly({0: 1, 1: 2, 2: 4, 3: 2, 4: 1}))
    assert _QUINTIC_MID == coefficients(cube_diff * LaurentPoly({1: 2, 2: 1, 3: 2}))
    assert _QUARTIC == coefficients(cube * y_minus_1)


def test_quintic_closed_form_constant_term():
    assert closed_form("ovm2-ntdiff-1-5-rhs", 10).coeffs[0] == 0


def test_mod5_kernels_onesided_equals_bilateral():
    for fam in ("ovm2", "dom2"):
        lhs = closed_form(f"{fam}-mod5-kernel-onesided", 100)
        rhs = closed_form(f"{fam}-mod5-kernel", 100)
        assert lhs == rhs


def test_mod5_kernel_integrality():
    # every kernel sum and product is an integer series
    closed_form("ovm2-mod5-kernel", 80).assert_integral()
    closed_form("dom2-mod5-kernel", 80).assert_integral()


def test_mod3_kernel_three_forms_agree():
    a = closed_form("mod3-kernel-onesided", 100)
    b = closed_form("mod3-kernel-bilateral", 100)
    c = closed_form("mod3-kernel-base9", 100)
    assert a == b == c


def test_theta_product_for_overpartition_gf():
    lhs = closed_form("overpartition-gf", 80)
    rhs = closed_form("theta-overpartition-rhs", 80)
    assert lhs == rhs


def test_lemma_base9_small():
    lhs = closed_form("theta-base9-lhs", 80)
    rhs = closed_form("theta-base9-rhs", 80).assert_integral()
    assert lhs == rhs, lhs.first_difference(rhs)
    # constant terms: quotient starts at 1; the right side adds its 1
    assert lhs.coeffs[0] == 1 and rhs.coeffs[0] == 1


def test_lemma_base9_lhs_two_constructions():
    assert closed_form("theta-base9-lhs", 100) == closed_form(
        "theta-base9-lhs-alt", 100
    )


def test_count_diff_identities():
    for fam in ("ovm2", "dom2"):
        lhs = closed_form(f"{fam}-count-diff-1-2-5", 50)
        rhs = closed_form(f"{fam}-count-diff-1-2-5-rhs", 50)
        assert lhs == rhs


def test_proof_chain_mod5_ovm2():
    order = 120
    combo = nt_diff_combo(
        [(1, Family.OV_M2, 1, 5), (2, Family.OV_M2, 2, 5)], order
    )
    kernel = closed_form("ovm2-mod5-kernel", order)
    assert all(v % 5 == 0 for v in (combo - kernel).reduce_mod(5))


def test_proof_chain_mod5_dom2():
    order = 120
    combo = nt_diff_combo(
        [(1, Family.DO_M2, 1, 5), (2, Family.DO_M2, 2, 5)], order
    )
    kernel = closed_form("dom2-mod5-kernel", order)
    assert all(v % 5 == 0 for v in (combo - kernel).reduce_mod(5))


def test_proof_chain_mod3():
    order = 120
    combo = nt_diff_combo(
        [(1, Family.OV_RANK, 1, 3), (-1, Family.OV_M2, 1, 3)], order
    )
    kernel = closed_form("mod3-combined-rhs", order)
    assert all(v % 3 == 0 for v in (combo - kernel).reduce_mod(3))


def test_conjecture_rhs_leading_terms():
    assert closed_form("eta5-crank-rank-5n4-rhs", 4).coeffs[0] == -5
    assert closed_form("eta7-rank-7n5-rhs", 4).coeffs[0] == -7
    s = closed_form("eta7-rank-7n4-rhs", 50)
    assert all(v % 7 == 0 for v in s.reduce_mod(7))


def test_closed_forms_hold_no_floats():
    for form_id in form_ids():
        series = closed_form(form_id, 40)
        assert not any(isinstance(c, float) for c in series.coeffs), form_id


@pytest.mark.parametrize("form", form_ids())
def test_closed_forms_are_truncation_stable(form):
    # a form built at a higher order and truncated is the form built there
    assert closed_form(form, 160).truncate(80) == closed_form(form, 80)


@pytest.mark.parametrize("form", form_ids())
def test_closed_form_reads_equal_builds_at_their_own_order(form):
    # closed_form keeps one build per form and truncates it for a lower
    # read; that read equals the form built at its own order from cold caches
    import qcert

    qcert.clear_caches()
    low = closed_form(form, 80)
    qcert.clear_caches()
    try:
        assert closed_form(form, 160).truncate(80) == closed_form(form, 80) == low
    finally:
        qcert.clear_caches()


def test_unknown_form():
    with pytest.raises(UnknownFormId):
        closed_form("no-such-form", 4)
    assert "overpartition-gf" in form_ids()


@pytest.mark.parametrize("reader, key", [
    (closed_form, ("overpartition-gf",)),
    (nt_diff_gf, (Family.OV_M2, 1, 5)),
    (rank_gf, (Family.DYSON,)),
], ids=["closed_form", "nt_diff_gf", "rank_gf"])
def test_a_lower_read_cuts_the_one_held_build(reader, key):
    # a read below a wider one is a cut of the held build, equal to a cold
    # build at its own order, and the reader holds one build for the key
    import qcert

    def same(a, b):
        return decode(a) == decode(b) if isinstance(a, PackedZ) else a == b

    qcert.clear_caches()
    try:
        cold = reader(*key, 10)
        wide = reader(*key, 20)
        low = reader(*key, 10)
        assert same(low, cold)
        if isinstance(wide, PackedZ):
            assert low.width == wide.width and low.coeffs == wide.coeffs[:11]
        else:
            assert low == wide.truncate(10)
        info = reader.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 2, 1)
    finally:
        qcert.clear_caches()


def test_a_build_that_raises_stores_and_counts_nothing():
    import qcert

    qcert.clear_caches()
    with pytest.raises(UnknownFormId):
        closed_form("no-such-form", 4)
    with pytest.raises(ValueError, match="1 <= b <= k-1"):
        nt_diff_gf(Family.DYSON, 0, 5, 8)
    for reader in (closed_form, nt_diff_gf):
        assert tuple(reader.cache_info()) == (0, 0, 0)  # hits, misses, currsize
    closed_form("partition-gf", 6)
    closed_form("partition-gf", 4)
    assert tuple(closed_form.cache_info()) == (1, 1, 1)
    qcert.clear_caches()
    assert tuple(closed_form.cache_info()) == (0, 0, 0)


# -- the main transformation -----------------------------------------------------


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_thmain_small_orders(family):
    rep = thmain_check(family, 18)
    assert rep.ok, (family, rep.first_mismatch)


def test_thmain_constant_terms():
    # the value component is the x = 1 comparison; the constant term
    # carries no power of x, so its derivative component vanishes
    rep = thmain_check(Family.OV_RANK, 6)
    for c in (side.coeffs[0] for side in decode_sides(rep)):
        assert c.value[0] == 1
        assert not c.deriv


def _thmain_rhs_over(family, z, order):
    """The transformed side with its prefactor built over z's ring."""
    return _thmain_rhs(family, z, order, _thmain_prefactor(family, z.ring, order))


# orders 0..12, one between, and the registry's reaches (ID-MAIN-* at 40,
# ID-COUNTDIFF-* at 60)
_PACKED_ORDERS = (*range(13), 18, 40, 60)


@pytest.mark.parametrize("e", [1, -1, 2, -2])
def test_packed_monomial_reads_back_as_the_formal_one(e):
    # c z^e q^m packed (after the twist q -> zq, z = 2^width) and read back
    # by z_digits is the formal route's c z^e: the rank sums are symmetric
    # in z, so only an asymmetric monomial tells z from 1/z
    for m in (max(0, -e), 2, 5):
        for c in (1, -1, 3, -7):
            packed = _ZMap(RAT, 8).mul(c, e, m)
            assert LaurentPoly(z_digits(packed, 8, m)) == LaurentPoly({e: c}), (c, m)
            assert FormalZ(LAURENT).mul(c, e, m) == LaurentPoly({e: c}), (c, m)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_packed_rank_gf_equals_laurent_builder(family):
    for order in _PACKED_ORDERS:
        assert decode(rank_gf(family, order)) == _rank_sum_of(family, FormalZ(LAURENT), order), order


def test_rank_gf_reads_truncate_one_build_per_family(monkeypatch):
    # ID-COUNTDIFF-* read OV_M2 and DO_M2 at 60, and X-M2-* at 24 and 40:
    # one packed build (and its majorant) per family, at 60, serves all;
    # a truncated read equals the Laurent builder at its own order
    import qcert
    from qcert import genfun as G
    from qcert.verify import run_all

    real, built = G._rank_sum_of, []

    def spy(family, z, order):
        built.append((family, order, z.majorant))
        return real(family, z, order)

    monkeypatch.setattr(G, "_rank_sum_of", spy)
    qcert.clear_caches()
    try:
        result = run_all(only="ID-COUNTDIFF-*,X-M2-*")
        assert [r.status for r in result.reports] == ["PASS"] * 4
        assert sorted(built, key=str) == sorted(
            [(f, 60, m) for f in (Family.OV_M2, Family.DO_M2) for m in (True, False)], key=str)
        for family, order in ((Family.OV_M2, 24), (Family.DO_M2, 40)):
            assert decode(rank_gf(family, order)) == real(family, FormalZ(LAURENT), order)
        assert len(built) == 4
    finally:
        qcert.clear_caches()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_packed_thmain_sides_equal_dual_laurent_builders(family):
    ring = DualRing(LAURENT)
    for order in _PACKED_ORDERS:
        rep = thmain_check(family, order)
        assert rep.ok, (order, rep.first_mismatch)
        lhs, rhs = decode_sides(rep)
        assert lhs.at_one() == _rank_sum_of(family, FormalZ(ring), order).at_one(), order
        assert rhs.at_one() == _thmain_rhs_over(family, FormalZ(ring), order).at_one(), order


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_majorant_bounds_every_z_coefficient(family):
    # the width rule rests on this: at each q^n and in each component,
    # the z = 1 majorant of a side is at least the absolute sum of that
    # side's z-coefficients, built over DualRing(LAURENT)
    order = 40
    maj = _ZMap(DualRing(RAT), 0, majorant=True)
    ring = DualRing(LAURENT)
    sides = (
        (_rank_sum_of(family, maj, order), _rank_sum_of(family, FormalZ(ring), order)),
        (_thmain_rhs_over(family, maj, order), _thmain_rhs_over(family, FormalZ(ring), order)),
    )
    for bound, side in sides:
        for part, b, c in zip(("value", "deriv"), bound.at_one(), side.at_one()):
            for n in range(order + 1):
                assert sum(abs(v) for _, v in c.coeffs[n].items()) <= b.coeffs[n], (n, part)


def test_unpack_reads_balanced_digits_back_to_z():
    # after q -> zq, z = 2^width: q^2 (3z^-2 - z + 5z^2) packs to
    # 3 - 2^(2w) + 5 * 2^(4w), and a negative top digit borrows nothing
    w = 5
    c = 3 - (1 << 2 * w) + (5 << 4 * w)
    packed = QSeries(RAT, 2, [0, 0, c])
    got = unpack(packed, w)
    assert got.ring is LAURENT
    assert got.coeffs == [LaurentPoly(), LaurentPoly(), LaurentPoly({-2: 3, 0: -1, 2: 5})]
    assert z_digits(c, w, 2) == {-2: 3, 0: -1, 2: 5}
    assert z_text(c, w, 2) == "3*z^-2 - 1 + 5*z^2" == repr(got.coeffs[2])
    assert z_text(0, w, 1) == "0" == repr(LaurentPoly())
    neg = QSeries(RAT, 1, [-(1 << w) + 15, 0])
    assert unpack(neg, w).coeffs[0] == LaurentPoly({0: 15, 1: -1})
    assert z_text(neg.coeffs[0], w, 0) == "15 - z"


# -- packed z read in place -------------------------------------------------------


def _random_packed(rng, width: int, j: int):
    """A random coefficient of q^j packed at z = 2^width, with negative
    digits, whose digits' absolute sum stays below half a digit, as the
    majorant guarantees; and its digits as a dict."""
    budget, digits = rng.randrange(1 << (width - 1)), {}
    for e in rng.sample(range(-j, j + 1), rng.randint(0, 2 * j + 1)):
        v = rng.randint(-budget, budget)
        budget -= abs(v)
        if v:
            digits[e] = v
    return sum(v << width * (e + j) for e, v in digits.items()), digits


def test_packed_reads_equal_the_decoded_laurent_reads():
    # the fold mod 2^(width k) - 1 and the packed compare read what the
    # decoded LaurentPoly holds, at widths that are not whole bytes too
    rng = random.Random(26)
    for _ in range(300):
        width, j = rng.choice((3, 5, 7, 8, 12, 13, 17, 31, 45, 64)), rng.randint(0, 60)
        c, digits = _random_packed(rng, width, j)
        g = PackedZ([0] * j + [c], width)
        decoded = bf.unpack_coeff(c, width, j)
        assert dict(decoded.items()) == digits == z_digits(c, width, j)
        assert g.text(j) == repr(decoded)
        for k in range(1, 14):
            want = [0] * k
            for e, v in decoded.items():
                want[e % k] += v
            assert g.residue_sums(j, k) == want, (width, j, k)
        assert g.matches(j, Counter(digits))
        e = rng.randint(-j, j)
        assert not g.matches(j, {**digits, e: digits.get(e, 0) + rng.choice((-1, 1))})
        # an exponent past z^(+-j) is a mismatch, never an exception
        assert not g.matches(j, {**digits, j + 1: 1}) and not g.matches(j, {**digits, -j - 1: -1})
        if j:  # the same int with a digit of half a digit or more is no match
            e = rng.randint(-j, j - 1)
            alias = {**digits, e: digits.get(e, 0) + (1 << width), e + 1: digits.get(e + 1, 0) - 1}
            assert sum(v << width * (m + j) for m, v in alias.items()) == c
            assert not g.matches(j, alias)


def test_packed_residue_sums_read_the_fold():
    # z^-1 + 2 + 3z + 5z^4 as the coefficient of q^4, packed at a width
    # that is not a whole byte: summed by exponent mod 5, and mod 1 (its
    # value at z = 1)
    w = 6
    c = sum(v << w * (e + 4) for e, v in {-1: 1, 0: 2, 1: 3, 4: 5}.items())
    g = PackedZ([0, 0, 0, 0, c], w)
    assert g.residue_sums(4, 5) == [2, 3, 0, 0, 6]
    assert g.residue_sums(4, 1) == [11]


def _moved_rank_build(monkeypatch, n: int, moves):
    """rank_gf's packed builds with their q^n coefficient changed by c at
    z^e for each (e, c) of `moves`, after the majorant set the width."""
    from qcert import genfun as G

    real = G._rank_sum_of

    def moved(family, z, order):
        s = real(family, z, order)
        if z.width and not z.majorant and order >= n:
            s.coeffs[n] += sum(c << z.width * (e + n) for e, c in moves)
        return s

    monkeypatch.setattr(G, "_rank_sum_of", moved)
    G.clear_caches()


@pytest.mark.parametrize("sign", [1, -1])
def test_rank_digit_past_the_rank_range_is_refused(monkeypatch, sign):
    # a digit at z^6 of q^5 fails the int range check, and the message
    # decodes the exponent range found
    _moved_rank_build(monkeypatch, 5, [(6, sign)])
    try:
        with pytest.raises(AssertionError, match=r"rank exponent out of range at q\^5: \[-4, 6\]"):
            rank_gf(Family.DYSON, 8)
    finally:
        from qcert import genfun

        genfun.clear_caches()


@pytest.mark.parametrize("delta", [1, -1])
def test_rank_digit_changed_by_one_is_refused_by_the_sum_check(monkeypatch, delta):
    # the digit sum, the balanced residue mod 2^width - 1, moves by the
    # change, so the count check refuses the build: p(6) = 11
    _moved_rank_build(monkeypatch, 6, [(0, delta)])
    try:
        with pytest.raises(AssertionError, match=rf"rank counts at q\^6 sum to {11 + delta}, not to the count 11"):
            rank_gf(Family.DYSON, 8)
    finally:
        from qcert import genfun

        genfun.clear_caches()


def test_pair_sample_majorants_are_bounded_by_the_shared_one():
    # the majorant's coefficients are polynomials in |d|, |e|, |x| with
    # non-negative coefficients: each sample's own majorant is at most
    # the one at the largest weights, which sets the shared width
    rng = random.Random(14)
    order = 10
    for _ in range(6):
        samples = [(2, 1, 1), (1, 2, 1), (2, 3, 1), (1, 1, 2), (3, 2, 2)]
        samples += [tuple(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(3)) for _ in range(2)]
        top = [max(abs(w) for w in ws) for ws in zip(*samples)]
        shared = _pair_sum(_ZMap(RAT, 0, majorant=True), *top, order).coeffs
        for d, e, x in samples:
            own = _pair_sum(_ZMap(RAT, 0, majorant=True), abs(d), abs(e), abs(x), order).coeffs
            assert all(a <= b for a, b in zip(own, shared)), (d, e, x)
        series = genovpair_samples(samples, order)
        assert len({g.width for g in series}) == 1
        for (d, e, x), g in zip(samples, series):
            assert decode(g) == decode(genovpair_series(d, e, x, order)), (d, e, x)


# -- generic pair series -----------------------------------------------------------


def test_genovpair_at_unit_weights_counts_pairs():
    g = decode(genovpair_series(1, 1, 1, 8))
    pgf = closed_form("overpartition-pair-gf", 8)
    for n in range(9):
        assert _at_z_one(g.coeffs[n]) == pgf.coeffs[n]


def test_genovpair_weight_one_coefficient():
    # objects of weight 1: (1,.), (1bar,.), (.,1), (.,1bar) with weights
    # x, dx, dex, ex and rank 0 throughout
    g = decode(genovpair_series(2, 3, 1, 4))
    c = g.coeffs[1]
    assert c.is_constant()
    assert c[0] == 1 + 2 + 2 * 3 + 3


def test_genovpair_rejects_zero_weights():
    for weights in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (Fraction(1, 2), 1, 1), (1, 2.0, 1), (1, 1, True)):
        with pytest.raises(ValueError):
            genovpair_series(*weights, 4)


# -- dual-number evaluation against the x-polynomial oracle ------------------------


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_rank_sum_dual_vs_polynomial(family):
    # the full rank sum evaluated by dual numbers and by honest
    # x-polynomials; both value and derivative must agree
    def build(ring):
        return _rank_sum_of(family, FormalZ(ring), 16)

    dual, poly = bf.at_one_both(build, LAURENT)
    assert dual == poly
    # and with z packed at the width the main transformation uses
    width = _thmain_width(family, 16, _thmain_prefactor(family, DualRing(RAT), 16))

    def build_packed(ring):
        return _rank_sum_of(family, _ZMap(ring, width), 16)

    dual, poly = bf.at_one_both(build_packed, RAT)
    assert dual == poly
    assert [unpack(s, width) for s in dual] == list(bf.at_one_both(build, LAURENT)[0])


def test_inner_sum_dual_vs_polynomial_order_30():
    # the transformed inner sums themselves, evaluated with dual numbers
    # and with honest x-polynomials, must produce identical series
    from qcert.genfun import _inner_terms

    for family in (Family.OV_M2, Family.DYSON):
        def build(ring, fam=family):
            z = FormalZ(ring)
            acc = z.series.zeros(ring, 30)
            for _, common, quad in _inner_terms(fam, z, 30):
                acc.add_shifted(common, quad)
            return acc

        dual, poly = bf.at_one_both(build, LAURENT)
        assert dual == poly, family


@pytest.mark.parametrize("ring", [RAT, DualRing(LAURENT)], ids=["rat", "dual-laurent"])
@pytest.mark.parametrize("thmain_margin", [False, True], ids=["no-margin", "thmain-margin"])
def test_inner_terms_keep_only_their_window(ring, thmain_margin):
    # level n's running product is known to q^(N - quad(n) + margin(n)),
    # the most its summand reads, and no further
    from qcert.genfun import _FAMILY_DATA, _inner_terms

    N = 40
    for family in ALL_FAMILIES:
        d = _FAMILY_DATA[family]
        margin = (lambda n, s=d.qstep: s * n) if thmain_margin else None
        levels = 0
        for n, common, quad in _inner_terms(family, FormalZ(ring), N, margin):
            assert quad == d.inner_quad(n)
            want = N - quad + (margin(n) if margin else 0)
            for half in common.at_one() if ring is not RAT else (common,):
                assert half.order == want and len(half.coeffs) == want + 1, (family, n)
            levels += 1
        assert levels >= 2, family


def test_operator_law_one_minus_x():
    # (d/dx at 1) of (1-x) F = -F(1) for arbitrary series F in x
    rnd = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-5, max_value=5),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=1,
        max_size=6,
    )

    @settings(max_examples=120, deadline=None)
    @given(rnd)
    def inner(terms):
        order = 6
        ring = DualRing(RAT)
        f = QSeries.zeros(ring, order)
        for qe, c, xd in terms:
            f.coeffs[qe] = f.coeffs[qe] + ring.lift(c) * ring.x_power(xd)
        one = QSeries.one(ring, order)
        g = (one - one.mul_scalar(ring.x_power(1))) * f
        value, deriv = g.at_one()
        f_at_1 = f.at_one()[0]
        assert value.is_zero()
        assert deriv == -f_at_1

    inner()
