"""Engine mutants of the part-count series route.

Each mutant breaks one datum or kernel of ``nt_diff_gf`` in place and
names registry checks that must FAIL under it, read at their stated
orders with conjectures strict; each named check PASSes on the
unmutated engine first.  The first check of each row is a stated
congruence, read from the series and from counting, whose series values
the mutant breaks; the second compares the series with a closed form
built from Pochhammer products, which reads neither the theta series nor
the packed inner terms.

The A(1) = 0 guard of ``_nt_deriv`` stays silent under all of them: the
packed A(1) sums, per summand, the divisions of a numerator and of its
negative, which cancel mod 2^span for every division that is additive
mod 2^span, these included, so every row is a FAIL of the comparison,
never an ERROR of the guard.
"""

import dataclasses

import pytest

import qcert
from qcert import genfun as G
from qcert.genfun import Family
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


def _packed_term_plus_12345(monkeypatch):
    """12345 added to the first packed inner term C_1(1)."""
    orig = G._packed_terms
    monkeypatch.setattr(G, "_packed_terms", lambda *args: (orig(*args)[0] + 12345, *orig(*args)[1:]))


MUTANTS = {
    "theta-dyson": (_theta_exponent_off_by_one(Family.DYSON), ("NT5-I1", "CJ-NT7-ETA-7N4")),
    "theta-ov-rank": (_theta_exponent_off_by_one(Family.OV_RANK), ("T2A", "ID-NTDIFF-OV-1-3")),
    "theta-ov-m2": (_theta_exponent_off_by_one(Family.OV_M2), ("T1", "ID-NTDIFF-OVM2-1-5")),
    "theta-do-m2": (_theta_exponent_off_by_one(Family.DO_M2), ("T3", "ID-NTDIFF-DOM2-1-5")),
    "div-packed-next-power": (_div_packed_by_next_power, ("NT5-I1", "ID-NTDIFF-OV-1-3")),
    "packed-term-plus-12345": (_packed_term_plus_12345, ("T3", "ID-NTDIFF-OVM2-1-3")),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_series_route_mutant_fails_its_named_checks(name, monkeypatch):
    patch, check_ids = MUTANTS[name]
    config = VerifyConfig(strict_conjectures=True)
    qcert.clear_caches()
    try:
        for check_id in check_ids:
            assert run_check(get_spec(check_id), config=config).status == "PASS", check_id
        qcert.clear_caches()
        patch(monkeypatch)
        for check_id in check_ids:
            rep = run_check(get_spec(check_id), config=config)
            assert rep.status == "FAIL", (check_id, rep.status, rep.error)
    finally:
        monkeypatch.undo()
        qcert.clear_caches()
