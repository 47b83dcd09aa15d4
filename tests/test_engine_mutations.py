"""Engine mutants of the part-count series route.

Each mutant breaks one datum or kernel of ``nt_diff_gf`` in place and
names registry checks with the verdict each must reach under it, read at
their stated orders with conjectures strict; each named check PASSes on
the unmutated engine first.  The first check of each series-route row is
a stated congruence, read from the series and from counting, whose
series values the mutant breaks; the second compares the series with a
closed form built from Pochhammer products, which reads neither the
theta series nor the inner terms.  The inner-term rows also name the
``ID-MAIN-*`` check of their family, which builds the inner sum over
dual numbers from the same rows.

The packed route builds A'(1) only: A(1) vanishes by construction (each
summand adds the divisions of a numerator and of its negative, which
cancel mod 2^span for any division additive mod 2^span), so it checks
nothing and is not built.  The guard of each A'(1) build is its digit
bound: every digit read back is asserted within the bound that set the
packed width.  That bound is loose (17 to 380 times the largest digit
over the registry's keys), so the mutants that scale or shift a term stay
within it and FAIL; a division by (1 - q^m)^2 instead of 1 - q^m makes
the digits grow with the order, past the bound at the order-200 and
order-300 checks (ERROR), while the order-60 identities still read it
(FAIL).  An inner row whose cancelled factors keep a divisor the packed
terms cannot divide by is an ERROR of ``_inner_residues``; an inner row
whose change vanishes at x = 1 (an x-exponent) leaves every C_n(1), and
so the whole part-count route, unchanged, and only ``ID-MAIN-*`` sees it.
"""

import dataclasses

import pytest

import qcert
from qcert import genfun as G
from qcert.genfun import _X, Family
from qcert.series import mono
from qcert.verify import VerifyConfig, get_spec, run_check


def _theta_exponent_off_by_one(family):
    """theta(1) + 1: one exponent of the family's theta series moved up."""

    def patch(monkeypatch):
        d = G._FAMILY_DATA[family]
        mutant = dataclasses.replace(d, theta=lambda n, t=d.theta: t(n) + (n == 1))
        monkeypatch.setitem(G._FAMILY_DATA, family, mutant)

    return patch


def _div_packed_by_next_power(monkeypatch):
    """x / (1 - q^(m+1)) for x / (1 - q^m) in the packed A'(1)."""
    orig = G._div_packed
    monkeypatch.setattr(G, "_div_packed", lambda x, width, m, span: orig(x, width, m + 1, span))


def _div_packed_squared(monkeypatch):
    """x / (1 - q^m)^2 for x / (1 - q^m) in the packed A'(1)."""
    orig = G._div_packed
    monkeypatch.setattr(G, "_div_packed", lambda x, width, m, span: orig(orig(x, width, m, span), width, m, span))


def _packed_term_plus_12345(monkeypatch):
    """12345 added to the scalar of the first inner term C_1(1)."""
    orig = G._inner_residues

    def mutant(*args):
        for n, quad, scalar, nums, div in orig(*args):
            yield n, quad, scalar + 12345 * (n == 1), nums, div

    monkeypatch.setattr(G, "_inner_residues", mutant)


def _inner_row(family, **rows):
    """One family's inner_num or inner_den row replaced."""

    def patch(monkeypatch):
        monkeypatch.setitem(G._FAMILY_DATA, family, dataclasses.replace(G._FAMILY_DATA[family], **rows))

    return patch


def _fail(*check_ids):
    return dict.fromkeys(check_ids, "FAIL")


MUTANTS = {
    "theta-dyson": (_theta_exponent_off_by_one(Family.DYSON), _fail("NT5-I1", "CJ-NT7-ETA-7N4")),
    "theta-ov-rank": (_theta_exponent_off_by_one(Family.OV_RANK), _fail("T2A", "ID-NTDIFF-OV-1-3")),
    "theta-ov-m2": (_theta_exponent_off_by_one(Family.OV_M2), _fail("T1", "ID-NTDIFF-OVM2-1-5")),
    "theta-do-m2": (_theta_exponent_off_by_one(Family.DO_M2), _fail("T3", "ID-NTDIFF-DOM2-1-5")),
    "div-packed-next-power": (_div_packed_by_next_power, _fail("NT5-I1", "ID-NTDIFF-OV-1-3")),
    # the digits outgrow their bound with the order: the digit-bound guard
    "div-packed-squared": (
        _div_packed_squared,
        {"NT5-I1": "ERROR", "T1": "ERROR", "CJ-NT7-ETA-7N4": "ERROR", "ID-NTDIFF-OV-1-3": "FAIL"},
    ),
    "packed-term-plus-12345": (_packed_term_plus_12345, _fail("T3", "ID-NTDIFF-OVM2-1-3", "NT5-I1")),
    # (1 - x q^n) -> (1 - x q^(n+1)): C_n(1) keeps the divisor 1 - q
    "inner-num-dyson-next-power": (
        _inner_row(Family.DYSON, inner_num=(mono(1, 2, xexp=_X),)),
        _fail("NT5-I1", "CJ-NT7-ETA-7N4", "ID-MAIN-DYSON"),
    ),
    # (1 + x q^(2n-1)) -> (1 - x q^(2n-1)) as a divisor: nothing cancels it
    "inner-den-ov-m2-sign": (
        _inner_row(Family.OV_M2, inner_den=(mono(-1, 2, xexp=_X), mono(1, 1, xexp=_X))),
        {"T1": "ERROR", "ID-NTDIFF-OVM2-1-5": "ERROR", "ID-MAIN-OVM2": "FAIL"},
    ),
    # (1 + x q^(2n-1)) -> (1 + q^(2n-1)) as a divisor: equal at x = 1
    "inner-den-do-m2-no-x": (
        _inner_row(Family.DO_M2, inner_den=(mono(-1, 1),)),
        {"T3": "PASS", "ID-NTDIFF-DOM2-1-5": "PASS", "ID-MAIN-DOM2": "FAIL"},
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_series_route_mutant_fails_its_named_checks(name, monkeypatch):
    patch, expected = MUTANTS[name]
    config = VerifyConfig(strict_conjectures=True)
    qcert.clear_caches()
    try:
        for check_id in expected:
            assert run_check(get_spec(check_id), config=config).status == "PASS", check_id
        qcert.clear_caches()
        patch(monkeypatch)
        got = {check_id: run_check(get_spec(check_id), config=config) for check_id in expected}
        assert {i: rep.status for i, rep in got.items()} == expected, {i: rep.error for i, rep in got.items()}
        errors = [rep.error for rep in got.values() if rep.status == "ERROR"]
        assert all(e.startswith(("AssertionError: packed A'(1) digit", "AssertionError: inner term")) for e in errors)
    finally:
        monkeypatch.undo()
        qcert.clear_caches()
