"""Acceptance suite: every criterion at its stated order and tolerance.

All tolerances are exact (integer statements); each test prints one
PASS line so `pytest -s tests/test_acceptance.py` reads as a checklist.
Run order matters only for speed: memoized sweeps and series are shared
within the session.
"""

import json
import random
from fractions import Fraction

import pytest

from bruteforce import FRAC, LAURENT, LaurentPoly, XPolyRing, mutate_first_term
from qcert.combinatorics import (
    Overpartition,
    OverpartitionPair,
    count_distinct_odd,
    count_overpartition_pairs,
    count_overpartitions,
    count_partitions,
    pair_rank,
    raw_tally,
)
from qcert.genfun import Family, closed_form, nt_diff_gf, thmain_check
from qcert.rings import RAT, DualRing, DualScalar
from qcert.series import QSeries, mono, pochhammer_finite
from qcert.verify import VerifyConfig, get_spec, run_all, run_check


def ok(label: str, detail: str = ""):
    print(f"ACCEPT {label}: PASS {detail}".rstrip())


# -- 1. counting oracles ------------------------------------------------------


def test_accept_01_counting_oracles():
    assert count_partitions(4) == 5
    assert count_overpartitions(4) == 14
    pgf = closed_form("partition-gf", 40)
    ogf = closed_form("overpartition-gf", 40)
    dgf = closed_form("distinct-odd-gf", 40)
    prgf = closed_form("overpartition-pair-gf", 24)
    assert int(pgf.coeffs[4]) == 5 and int(ogf.coeffs[4]) == 14
    # the counting oracle the registry reads, at the stated orders
    for family, gf, top in (("N", pgf, 40), ("N2", dgf, 40), ("Nbar", ogf, 40),
                            ("Npair", prgf, 24)):
        for n in range(top + 1):
            assert sum(raw_tally(family, n).values()) == gf.coeffs[n], (family, n)
    # the object walks, that oracle's reference, to where they stay cheap
    for n in range(41):
        assert count_partitions(n) == pgf.coeffs[n]
        assert count_distinct_odd(n) == dgf.coeffs[n]
    for n in range(31):
        assert count_overpartitions(n) == ogf.coeffs[n]
    for n in range(17):
        assert count_overpartition_pairs(n) == prgf.coeffs[n]
    ok("01 counting-oracles",
       "(counting oracle: partitions, overpartitions, distinct-odd to n=40, "
       "pairs to n=24; object walks: partitions, distinct-odd to n=40, "
       "overpartitions to n=30 (was 40), pairs to n=16 (was 24))")


# -- 2. worked rank examples --------------------------------------------------


def test_accept_02_pair_rank_worked_examples():
    lam = Overpartition(((6, True), (6, False), (5, False), (4, False),
                         (4, False), (4, False), (3, True), (1, True)))
    mu = Overpartition(((7, False), (7, False), (5, True), (2, False),
                        (2, False), (2, False)))
    assert pair_rank(OverpartitionPair(lam, mu)) == -3
    lam = Overpartition(((4, False), (3, True), (3, False), (2, True), (1, False)))
    mu = Overpartition(((4, False), (4, False), (4, False), (1, True)))
    assert pair_rank(OverpartitionPair(lam, mu)) == -2
    ok("02 pair-rank-worked-examples", "(ranks -3 and -2)")


# -- 3..5. the three theorems -------------------------------------------------


def test_accept_03_theorem_one():
    rep = run_check(get_spec("T1"), order=302)
    assert rep.status == "PASS", rep.witness
    assert any("n <= 37" in note for note in rep.notes)
    ok("03 theorem-1", "(mod 5 at 5m+2 <= 300; enumeration confirms to 37)")


def test_accept_04_theorem_two():
    for cid in ("T2A", "T2B"):
        rep = run_check(get_spec(cid), order=302)
        assert rep.status == "PASS", (cid, rep.witness)
        assert any("n <= 37" in note for note in rep.notes)
    ok("04 theorem-2", "(mod 3 at 3n and 3n+1 <= 300; enumeration to 37)")


def test_accept_05_theorem_three():
    rep = run_check(get_spec("T3"), order=302)
    assert rep.status == "PASS", rep.witness
    assert any("n <= 76" in note for note in rep.notes)
    ok("05 theorem-3", "(mod 5 at 5n+1 <= 300; enumeration confirms to 76)")


# -- 6. the previously known and further part-count congruences ---------------


def test_accept_06_mod5_mod7_part_count_congruences():
    ids = (
        ["NT5-I1", "NT5-I4", "NT7-I1", "NT7-I5"]
        + [f"NT7-ALT1-I{i}" for i in (1, 3, 4, 5)]
        + [f"NT7-ALT2-I{i}" for i in (0, 1, 5)]
    )
    for cid in ids:
        rep = run_check(get_spec(cid), order=302)
        assert rep.status == "PASS", (cid, rep.witness)
    ok("06 part-count-congruences",
       f"({len(ids)} progressions mod 5 and mod 7, n <= 300)")


# -- 7. exact identity suite ---------------------------------------------------


def test_accept_07_identity_suite():
    theta = closed_form("theta-base9-rhs", 200).assert_integral()
    assert closed_form("theta-base9-lhs", 200) == theta

    lhs = closed_form("overpartition-gf", 150)
    assert lhs == closed_form("theta-overpartition-rhs", 150)
    k1 = closed_form("mod3-kernel-onesided", 150)
    assert k1 == closed_form("mod3-kernel-bilateral", 150)
    assert k1 == closed_form("mod3-kernel-base9", 150)

    for form, family, b in [
        ("ovm2-ntdiff-1-5-rhs", Family.OV_M2, 1),
        ("ovm2-ntdiff-2-5-rhs", Family.OV_M2, 2),
        ("dom2-ntdiff-1-5-rhs", Family.DO_M2, 1),
        ("dom2-ntdiff-2-5-rhs", Family.DO_M2, 2),
    ]:
        assert nt_diff_gf(family, b, 5, 60) == closed_form(form, 60), form

    for family in (Family.DYSON, Family.OV_RANK, Family.OV_M2, Family.DO_M2):
        rep = thmain_check(family, 40)
        assert rep.ok, (family, rep.first_mismatch)

    # the proof-chain reductions at their full default orders
    for cid in ("CG-CHAIN-OVM2-MOD5", "CG-CHAIN-DOM2-MOD5", "CG-DIS-MOD3",
                "ID-KERNEL5-OVM2", "ID-KERNEL5-DOM2",
                "ID-COUNTDIFF-OVM2", "ID-COUNTDIFF-DOM2"):
        rep = run_check(get_spec(cid))
        assert rep.status == "PASS", (cid, rep.witness)
    ok("07 identity-suite",
       "(theta lemma to 200; products to 150; closed forms to 60; "
       "transformation with derivative at order 40, all four families; "
       "reduction chains mod 5 and mod 3 to order 200)")


# -- 8. conjecture suite ---------------------------------------------------------


def test_accept_08_conjecture_suite():
    eta = ["CJ-NT7-ETA-7N5", "CJ-NT7-ETA-7N4"]
    for cid in eta:
        rep = run_check(get_spec(cid))  # rhs compared through order 150
        assert rep.status == "PASS", (cid, rep.witness)
    mods = ["CJ-NT11-I6", "CJ-NT11-I1", "CJ-NT13-I1", "CJ-NT13-I3"]
    for cid in mods:
        rep = run_check(get_spec(cid), order=200)
        assert rep.status == "PASS", (cid, rep.witness)
    enum_ids = (
        ["CJ-MW5-EQ-5N4", "CJ-MWNT5-I0", "CJ-MWNT5-I4", "CJ-MWNT5-EQ-5N2",
         "CJ-NTMW5-I1", "CJ-NTMW5-I2", "CJ-NTMW5-ETA-5N4", "CJ-MWNT5-EQ-5N4"]
        + [f"CJ-MW7-A-I{i}" for i in (0, 2, 5, 6)]
        + [f"CJ-MW7-B-I{i}" for i in (0, 1, 4, 5)]
    )
    for cid in enum_ids:
        rep = run_check(get_spec(cid))
        assert rep.status == "PASS", (cid, rep.witness)
        assert rep.conjecture
    ok("08 conjecture-suite",
       f"(2 exact identities to order 150, 4 congruences to 200, "
       f"{len(enum_ids)} ones/crank checks to 60: all CONJECTURE-PASS)")


# -- 9. property suites -----------------------------------------------------------


def _random_series(rng, ring, order):
    if ring is RAT:
        return QSeries(RAT, order, [rng.randint(-6, 6) for _ in range(order + 1)])
    if ring is FRAC:
        return QSeries(
            FRAC, order,
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(order + 1)],
        )
    coeffs = []
    for _ in range(order + 1):
        poly = {rng.randint(-3, 3): Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))}
        coeffs.append(LaurentPoly(poly))
    return QSeries(LAURENT, order, coeffs)


def test_accept_09a_ring_laws_thousand_cases():
    rng = random.Random(20260809)
    cases = 0
    while cases < 1000:
        draw = rng.random()
        ring = RAT if draw < 0.3 else FRAC if draw < 0.6 else LAURENT
        order = rng.randint(0, 7)
        a = _random_series(rng, ring, order)
        b = _random_series(rng, ring, order)
        c = _random_series(rng, ring, order)
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * QSeries.one(ring, order) == a
        cases += 1
    ok("09a ring-laws", f"({cases} randomized cases)")


def test_accept_09b_dual_vs_polynomial_derivative():
    rng = random.Random(77)
    cases = 0
    while cases < 100:
        order = rng.randint(2, 6)
        terms = [
            (rng.randint(0, order), rng.randint(-4, 4), rng.randint(0, 3))
            for _ in range(rng.randint(1, 5))
        ]

        def build(ring):
            s = QSeries.zeros(ring, order)
            for qe, cf, xd in terms:
                s.coeffs[qe] = s.coeffs[qe] + ring.lift(cf) * ring.x_power(xd)
            t = pochhammer_finite(mono(1, 1, xexp=1), 2, 1, order=order, ring=ring)
            return s * t

        dv, dd = build(DualRing(RAT)).at_one()
        pv, pd = build(XPolyRing(RAT)).at_one()
        assert dv == pv and dd == pd
        cases += 1
    ok("09b dual-vs-polynomial", f"({cases} randomized expressions)")


def test_accept_09c_operator_law():
    rng = random.Random(5)
    ring = DualRing(RAT)
    for _ in range(100):
        order = rng.randint(1, 6)
        f = QSeries.zeros(ring, order)
        for _ in range(rng.randint(1, 5)):
            f.coeffs[rng.randint(0, order)] = DualScalar(rng.randint(-5, 5), rng.randint(-5, 5))
        one = QSeries.one(ring, order)
        g = (one - one.mul_scalar(ring.x_power(1))) * f
        value, deriv = g.at_one()
        assert value.is_zero()
        assert deriv == -f.at_one()[0]
    ok("09c derivative-operator-law", "(100 randomized series)")


def test_accept_09d_mutation_sensitivity():
    theorem_ids = [
        "T1", "T2A", "T2B", "T3", "NT5-I1", "NT5-I4", "NT7-I1", "NT7-I5",
        "NT7-ALT1-I1", "NT7-ALT1-I3", "NT7-ALT1-I4", "NT7-ALT1-I5",
        "NT7-ALT2-I0", "NT7-ALT2-I1", "NT7-ALT2-I5",
    ]
    for cid in theorem_ids:
        rep = run_check(mutate_first_term(get_spec(cid)), order=30)
        assert rep.status == "FAIL", cid
        assert rep.witness["n"] <= 30, (cid, rep.witness)
    ok("09d mutation-sensitivity", f"({len(theorem_ids)} perturbed specs all FAIL)")


# -- 10. determinism -----------------------------------------------------------


def test_accept_10_determinism():
    def run_once() -> bytes:
        res = run_all(only="theorems,identities", order=40, config=VerifyConfig())
        payload = res.to_dict()
        for chk in payload["checks"]:
            chk.pop("ms", None)
        return json.dumps(payload, sort_keys=True).encode()

    first = run_once()
    second = run_once()
    assert first == second
    ok("10 determinism", "(byte-identical reports modulo timing)")
