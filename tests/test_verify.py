"""Registry structure, the check runner, mutation sensitivity, and
report determinism."""

import json
import re
import sys

import pytest

from bruteforce import mutate_first_term
from test_benchmark_reports import perfbench  # noqa: F401  (the fixture)
from qcert import combinatorics
from qcert.combinatorics import require_limit
from qcert.errors import InsufficientOrder
from qcert.verify import (
    _SERIES_FAMILY,
    CheckSpec,
    StatTerm,
    VerifyConfig,
    get_spec,
    registry,
    run_all,
    run_check,
    select_specs,
)

THEOREM_IDS = ("T1", "T2A", "T2B", "T3")


def test_registry_size_and_coverage():
    specs = registry()
    assert len([s for s in specs if not s.informational]) >= 30
    ids = [s.id for s in specs]
    assert len(ids) == len(set(ids))
    for want in [
        "T1", "T2A", "T2B", "T3",
        "NT5-I1", "NT5-I4", "NT7-I1", "NT7-I5",
        "NT7-ALT1-I1", "NT7-ALT1-I3", "NT7-ALT1-I4", "NT7-ALT1-I5",
        "NT7-ALT2-I0", "NT7-ALT2-I1", "NT7-ALT2-I5",
        "CJ-NT11-I6", "CJ-NT11-I1", "CJ-NT13-I1", "CJ-NT13-I3",
        "CJ-NT7-ETA-7N5", "CJ-NT7-ETA-7N4",
        "CJ-MW5-EQ-5N4", "CJ-MWNT5-I0", "CJ-MWNT5-I4", "CJ-MWNT5-EQ-5N2",
        "CJ-NTMW5-I1", "CJ-NTMW5-I2", "CJ-NTMW5-ETA-5N4", "CJ-MWNT5-EQ-5N4",
        "CJ-MW7-A-I0", "CJ-MW7-A-I2", "CJ-MW7-A-I5", "CJ-MW7-A-I6",
        "CJ-MW7-B-I0", "CJ-MW7-B-I1", "CJ-MW7-B-I4", "CJ-MW7-B-I5",
        "ID-THETA-BASE9", "ID-THETA-OVGF",
        "X-RANK-PART", "X-RANK-OV", "X-M2-OV", "X-M2-DO", "X-PAIR",
    ]:
        assert want in ids, want


def test_registry_invariants():
    for spec in registry():
        for t in spec.lhs:
            assert t.coeff != 0
            assert 0 < 2 * t.residue < t.modulus  # one antisymmetric pair
        if spec.kind == "CONGRUENCE" and spec.progression:
            assert spec.modulus and spec.modulus > 1
        if spec.engines == "ENUM":
            assert spec.bound <= 80


def test_pairs_fix_modulus_and_step():
    # every check with pairs takes its modulus (or none) and its
    # progression step from their one k
    for spec in registry():
        if not spec.lhs:
            continue
        (k,) = {t.modulus for t in spec.lhs}
        assert spec.modulus in (k, None), spec.id
        assert spec.progression is None or spec.progression[1] == k, spec.id


SCANNED = {"NT5": (1, 4), "NT7": (1, 5), "NT7-ALT1": (1, 3, 4, 5), "NT7-ALT2": (0, 1, 5)}


@pytest.mark.parametrize("prefix", SCANNED)
def test_scanned_family_covers_each_residue_once(prefix):
    specs = [s for s in registry() if re.fullmatch(rf"{prefix}-(SCAN-)?I\d", s.id)]
    (lhs,) = {s.lhs for s in specs}
    residues = sorted(s.progression[0] for s in specs)
    assert residues == list(range(lhs[0].modulus))
    assert tuple(s.progression[0] for s in specs if "-SCAN-" not in s.id) == SCANNED[prefix]
    assert all(s.informational == ("-SCAN-" in s.id) for s in specs)


def test_both_engine_specs_have_xcheck_companions():
    # every part-count family a BOTH check reads is held to the counting
    # oracle by an X-check of its own
    specs = registry()
    companions = {s.xcheck.part_count_family for s in specs if s.xcheck}
    for spec in specs:
        if spec.engines == "BOTH" and spec.lhs:
            for t in spec.lhs:
                assert t.family in companions, (spec.id, t.family)


def test_enum_bound_within_counting_limits():
    # the BOTH confirmation counts its lhs to enum_bound without a limit
    # check of its own, so the registry must keep it inside the limits
    for spec in registry():
        if spec.enum_bound is not None:
            require_limit(spec.id, [t.family for t in spec.lhs], spec.enum_bound)


def test_mixed_checks_stay_within_enumeration_limits():
    for spec in registry():
        if spec.engines in ("ENUM", "MIXED"):
            assert spec.bound <= 60
            if any(t.family == "Momega" for t in spec.lhs):
                assert spec.engines in ("ENUM", "MIXED")


def test_select_specs():
    assert [s.id for s in select_specs("theorems")] == list(THEOREM_IDS)
    assert select_specs("no-such-thing") == []
    assert {s.category for s in select_specs("conjectures")} == {"conjecture"}
    got = {s.id for s in select_specs("T1,X-*")}
    assert "T1" in got and "X-PAIR" in got
    assert all(not s.informational for s in select_specs("all", include_informational=False))


def _select_per_token(only, include_informational=True):
    """The per-spec, per-token selection that select_specs replaces."""
    from fnmatch import fnmatch

    from qcert.verify import _FILTER_ALIASES

    tokens = [t.strip() for t in (only or "all").split(",") if t.strip()]
    chosen = [
        s for s in registry()
        if any(t.lower() == "all" or s.category == _FILTER_ALIASES.get(t.lower(), t.lower())
               or fnmatch(s.id.lower(), t.lower()) for t in tokens)
    ]
    return [s for s in chosen if include_informational or not s.informational]


def test_select_specs_matches_the_per_token_globs(perfbench):  # noqa: F811
    from qcert.verify import _FILTER_ALIASES

    categories = sorted({s.category for s in registry()})
    onlys = [w.only for w in perfbench.WORKLOADS.values()]
    onlys += [*_FILTER_ALIASES, *(a.upper() for a in _FILTER_ALIASES), *categories]
    onlys += [None, "", ",", " , ", "all", "ALL", "t1,All", "x-*", "Nt5-I?", "[ct]*,theorems",
              "*-scan-*", "no-such-thing", "identity, cj-nt1[13]-*", "ID-MAIN-*,X-*,xchecks"]
    for only in onlys:
        for informational in (True, False):
            want = _select_per_token(only, informational)
            assert select_specs(only, informational) == want, (only, informational)
    assert len({len(select_specs(only)) for only in onlys}) >= 8


@pytest.mark.parametrize("cid", THEOREM_IDS)
def test_theorems_small_order(cid):
    rep = run_check(get_spec(cid), order=32)
    assert rep.status == "PASS", rep.witness


def test_insufficient_order():
    with pytest.raises(InsufficientOrder):
        run_check(get_spec("T1"), order=3)


def test_enum_bound_exceeded_is_skip():
    rep = run_check(get_spec("CJ-MW5-EQ-5N4"), order=120)
    assert rep.status == "SKIPPED"
    assert "limit" in rep.skip_reason


@pytest.mark.parametrize("cid", THEOREM_IDS + (
    "NT5-I1", "NT7-I5", "NT7-ALT1-I3", "NT7-ALT2-I0",
    # identities: a mutated pair coefficient is still read from the
    # difference series, and must fail there
    "CJ-NTMW5-ETA-5N4", "CJ-NT7-ETA-7N5",
    "ID-NTDIFF-OVM2-1-5", "ID-NTDIFF-OVM2-2-5", "ID-NTDIFF-DOM2-1-5",
    "ID-NTDIFF-DOM2-2-5", "ID-NTDIFF-OV-1-3", "ID-NTDIFF-OVM2-1-3",
    "CG-CHAIN-OVM2-MOD5", "CG-CHAIN-DOM2-MOD5", "CG-DIS-MOD3",
))
def test_mutation_sensitivity(cid):
    # a single perturbed coefficient must produce a failure witness fast
    mutated = mutate_first_term(get_spec(cid))
    rep = run_check(mutated, order=30)
    assert rep.status == "FAIL"
    assert rep.witness is not None and rep.witness["n"] <= 30


def test_enum_range_checked_against_last_n_read():
    # on 5n+4 the last n read at order 82 is 79, within the limit of 80
    rep = run_check(get_spec("CJ-MW5-EQ-5N4"), order=82)
    assert rep.status == "PASS", rep.skip_reason
    rep = run_check(get_spec("CJ-MW5-EQ-5N4"), order=84)
    assert rep.status == "SKIPPED"
    assert rep.skip_reason == "CJ-MW5-EQ-5N4 needs enumeration to n=84, limit is 80"


def test_momega_checks_build_the_crank_table_once():
    # CJ-MW5-EQ-5N4 reads to n = 59 and the next check to 60: both build
    # at their bound, so the table is built once, at 60
    built = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code is combinatorics._crank_table.__code__:
            built.append(frame.f_locals["N"])

    combinatorics.clear_caches()
    previous = sys.getprofile()
    sys.setprofile(spy)
    try:
        res = run_all(only="CJ-MW*,CJ-NTMW*")
    finally:
        sys.setprofile(previous)
    assert len(res.reports) == 16
    assert built == [60]


def test_mutation_sensitivity_exact_relation():
    m = mutate_first_term(get_spec("CJ-MW5-EQ-5N4"))
    rep = run_check(m, order=30)
    assert rep.status == "FAIL" and rep.witness["n"] <= 30


def test_pair_xcheck_over_limit_is_skip():
    rep = run_check(get_spec("X-PAIR"), order=25)
    assert rep.status == "SKIPPED"
    assert "X-PAIR needs enumeration to n=25, limit is 24" in rep.skip_reason


def _bumped(series, n):
    from qcert.series import QSeries

    coeffs = list(series.coeffs)
    coeffs[n] += 1
    return QSeries(series.ring, series.order, coeffs)


def test_xcheck_count_witness_is_ints(monkeypatch):
    from qcert import verify as V

    real = V.closed_form
    monkeypatch.setattr(
        V, "closed_form",
        lambda form_id, order: _bumped(real(form_id, order), 3)
        if form_id == "partition-gf" else real(form_id, order),
    )
    rep = run_check(get_spec("X-RANK-PART"), order=8)
    assert rep.status == "FAIL"
    assert rep.witness == {"n": 3, "value": 3, "expected": 4}  # p(3) = 3


def test_xcheck_part_count_witness_is_ints(monkeypatch):
    from qcert import genfun

    real = genfun.nt_diff_gf
    monkeypatch.setattr(
        genfun, "nt_diff_gf",
        lambda family, b, k, order: _bumped(real(family, b, k, order), 3),
    )
    rep = run_check(get_spec("X-RANK-PART"), order=8)
    assert rep.status == "FAIL"
    # NT(1,5,3) - NT(4,5,3) = 0, read from the bumped series as 1
    assert rep.witness == {"n": 3, "value": 1, "expected": 0}
    assert rep.notes == ["part-count difference b=1 mod 5"]


def test_exact_identity_with_progression_small():
    rep = run_check(get_spec("CJ-NT7-ETA-7N5"), order=7 * 12 + 5)
    assert rep.status == "PASS"


def test_identity_failure_witness():
    bad = CheckSpec(
        id="BAD-ID",
        category="identity",
        statement="deliberately wrong pairing",
        lhs_form="partition-gf",
        rhs_form="overpartition-gf",
        bound=20,
    )
    rep = run_check(bad)
    assert rep.status == "FAIL"
    # first difference: p(1) = 1 against 2 overpartitions, read as ints
    assert rep.witness == {"n": 1, "value": 1, "expected": 2}


def test_spec_with_nothing_to_read_is_refused():
    # an empty combination would read 0 at every n and pass vacuously
    from qcert.errors import QcertError

    empty = CheckSpec(id="EMPTY", category="identity", statement="no lhs", bound=10)
    assert empty.kind == "EXACT_RELATION"
    with pytest.raises(QcertError, match="no lhs"):
        run_check(empty)


def test_non_integral_form_is_an_error_not_a_pass(monkeypatch):
    # both sides of an identity are read as ints; a half in a closed form
    # is an engine defect even when it appears on both sides alike
    from fractions import Fraction

    from qcert import verify as V
    from qcert.rings import RAT
    from qcert.series import QSeries

    # past RAT's lift, as a kernel's own list would carry it
    monkeypatch.setattr(
        V, "closed_form",
        lambda form_id, order: QSeries(RAT, order, [0, 0, Fraction(1, 2)] + [0] * (order - 2)),
    )
    (rep,) = run_all(only="ID-KERNEL3-BILAT", order=30).reports
    assert rep.status == "ERROR"
    assert rep.error.startswith("ValueError")


def test_kind_and_engines_census():
    # both are derived from the other spec fields; this pins the registry
    census = {}
    for spec in registry():
        key = (spec.kind, spec.engines)
        census[key] = census.get(key, 0) + 1
    assert census == {
        ("CONGRUENCE", "BOTH"): 15,
        ("CONGRUENCE", "ENUM"): 8,
        ("CONGRUENCE", "MIXED"): 4,
        ("CONGRUENCE", "SERIES"): 22,
        ("EXACT_IDENTITY", "FORM"): 12,
        ("EXACT_IDENTITY", "MIXED"): 1,
        ("EXACT_IDENTITY", "SERIES"): 8,
        ("EXACT_RELATION", "ENUM"): 1,
        ("EXACT_RELATION", "MIXED"): 2,
        ("ORACLE_XCHECK", "BOTH"): 5,
    }


def test_run_all_on_filter_reports_and_exit():
    result = run_all(only="ID-KERNEL3-*,ID-NTDIFF-OVM2-1-5", order=40)
    assert result.exit_code == 0
    assert {r.id for r in result.reports} == {
        "ID-KERNEL3-BILAT", "ID-KERNEL3-BASE9", "ID-NTDIFF-OVM2-1-5"
    }
    assert all(r.ok for r in result.reports)
    s = result.summary()
    assert s["checks"] == 3 and s["fail"] == 0
    assert "error" not in s  # the key appears only when a check errors


def test_engine_defect_is_a_per_check_error(monkeypatch):
    from qcert import verify as V

    def broken(terms, order):
        raise AssertionError("engine invariant broken")

    monkeypatch.setattr(V, "nt_diff_combo", broken)
    result = run_all(only="NT5-I1,ID-KERNEL3-BILAT", order=30)
    status = {r.id: r.status for r in result.reports}
    assert status == {"NT5-I1": "ERROR", "ID-KERNEL3-BILAT": "PASS"}
    assert result.exit_code == 2
    assert result.summary()["error"] == 1
    payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
    (err,) = [c for c in payload["checks"] if c["status"] == "ERROR"]
    assert err["error"] == "AssertionError: engine invariant broken"


def test_error_report_records_the_run_bound(monkeypatch):
    # an explicit order of 0 is the bound the check ran at, not "unset"
    from qcert import verify as V

    def broken(terms, order):
        raise AssertionError("engine invariant broken")

    monkeypatch.setattr(V, "nt_diff_combo", broken)
    (rep,) = run_all(only="ID-NTDIFF-OV-1-3", order=0).reports
    assert rep.status == "ERROR"
    assert rep.order == 0 and rep.bound == 0


def test_non_integral_series_is_an_error_not_a_fallback(monkeypatch):
    # a half in the difference series is an engine defect; it must not
    # be papered over by falling back to enumeration
    from fractions import Fraction

    from qcert import verify as V
    from qcert.rings import RAT
    from qcert.series import QSeries

    # past RAT's lift, as a kernel's own list would carry it
    monkeypatch.setattr(
        V, "nt_diff_combo",
        lambda terms, order: QSeries(RAT, order, [0, Fraction(1, 2)] + [0] * (order - 1)),
    )
    (rep,) = run_all(only="NT5-I1", order=30).reports
    assert rep.status == "ERROR"
    assert rep.error.startswith("ValueError")


def test_nonvanishing_inner_sum_is_a_check_error(monkeypatch):
    # the inner difference sum vanishes at x = 1 by construction, so the
    # packed route builds A'(1) only, and guards each build by its digit
    # bound: a digit of A'(1) past the bound that set its width makes
    # nt_diff_gf refuse, and the runner turns that into a per-check ERROR
    import qcert
    from qcert import genfun as G

    orig = G._packed_difference

    def broken(*args):
        deriv, width, bound = orig(*args)
        # |digit| <= bound, so digit + 2 bound + 1 > bound, below half a digit here
        return deriv + ((2 * bound + 1) << width * 3), width, bound

    monkeypatch.setattr(G, "_packed_difference", broken)
    qcert.clear_caches()
    try:
        with pytest.raises(AssertionError, match=r"packed A'\(1\) digit .* at q\^3 is past its bound"):
            G.nt_diff_gf(G.Family.DYSON, 1, 5, 12)
        result = run_all(only="ID-NTDIFF-OV-1-3", order=23)
    finally:
        qcert.clear_caches()
    (rep,) = result.reports
    assert rep.status == "ERROR" and rep.error.startswith("AssertionError: packed A'(1) digit")
    assert result.exit_code == 2


def test_full_registry_builds_each_series_key_once():
    # the runner takes the widest bound first, so each A'(1) key, theta
    # series, level-factor family, closed form, rank sum and counting table
    # is built once, at the widest order any check reads, and every lower
    # read cuts it: every store reader has as many builds as keys held
    import qcert
    from qcert import combinatorics as C, genfun as G

    qcert.clear_caches()
    try:
        result = run_all(config=VerifyConfig(seed=1))
        infos = {reader.__name__: reader.cache_info() for reader in (*G._CACHES, C._table)}
    finally:
        qcert.clear_caches()
    assert result.exit_code == 0
    assert {name: info.misses for name, info in infos.items()} == {
        name: info.currsize for name, info in infos.items()}
    assert [infos[name].currsize for name in ("_theta", "_level_table", "rank_gf")] == [4, 4, 4]
    keys = set()
    for spec in registry():
        keys |= {(_SERIES_FAMILY[t.family], t.residue, t.modulus) for t in spec.lhs if t.family in _SERIES_FAMILY}
        if spec.xcheck and spec.xcheck.rank_family:
            keys |= {(spec.xcheck.rank_family, b, k) for b, k in spec.xcheck.pairs}
    assert infos["_nt_deriv"].currsize == len(keys) >= 20
    assert infos["closed_form"].currsize >= 25 and infos["_table"].currsize == 7


def test_checks_run_widest_bound_first_and_report_in_registry_order(monkeypatch):
    from qcert import verify

    ran = []
    real = verify.run_check
    monkeypatch.setattr(verify, "run_check", lambda spec, **kw: ran.append(spec) or real(spec, **kw))
    only = "CJ-NT11-*,CJ-NT13-*,CG-*,ID-NTDIFF-*,CJ-NT7-ETA-7N4"
    result = run_all(only=only)
    specs = select_specs(only)
    assert [r.id for r in result.reports] == [s.id for s in specs]
    assert ran == sorted(specs, key=lambda s: -s.bound)  # stable: ties in registry order
    assert [s.bound for s in ran[:2]] == [1054, 200] and ran[-1].bound == 60


def test_series_only_checks_read_no_counting_terms(monkeypatch):
    from qcert import verify

    calls = []
    real = verify._enum_value
    monkeypatch.setattr(verify, "_enum_value", lambda terms, n, upto: calls.append(len(terms)) or real(terms, n, upto))
    for check_id in ("CJ-NT11-I6", "CG-CHAIN-OVM2-MOD5", "ID-NTDIFF-OV-1-3"):
        assert run_check(get_spec(check_id)).status == "PASS", check_id
    assert calls == []
    assert run_check(get_spec("CJ-MWNT5-I0")).status == "PASS"
    assert calls and 0 not in calls


def test_whole_registry_at_smallest_order():
    # 17 samples every progression at least twice, so each dispatch
    # shape of the runner is exercised in one pass
    result = run_all(order=17)
    assert len(result.reports) == len(registry())
    stated = [r for r in result.reports if not r.informational]
    scans = [r for r in result.reports if r.informational]
    assert len(stated) == 63 and len(scans) == 15
    assert [r.id for r in stated if r.status != "PASS"] == []
    for r in scans:
        assert r.status == "FAIL", r.id
        assert set(r.witness) == {"n", "value", "expected"}, r.id
    assert result.exit_code == 0


def test_run_all_empty_filter_exits_zero():
    result = run_all(only="zzz-no-match")
    assert result.exit_code == 0 and result.reports == []


def test_conjecture_failures_do_not_fail_build():
    spec = get_spec("CJ-MW5-EQ-5N4")
    mutated = mutate_first_term(spec)
    cfg = VerifyConfig()
    rep = run_check(mutated, order=24, config=cfg)
    assert rep.status == "FAIL" and rep.conjecture
    # exit-code policy exercised through run_all on a tiny registry slice
    from qcert import verify as V

    old = V._REGISTRY
    V._REGISTRY = [mutated]
    try:
        res = run_all(order=24)
        assert res.exit_code == 0  # conjecture failure is a finding
        res = run_all(order=24, config=VerifyConfig(strict_conjectures=True))
        assert res.exit_code == 1
    finally:
        V._REGISTRY = old


def test_exploratory_scans_are_informational():
    scans = [s for s in registry() if s.informational]
    assert scans, "expected exploratory residue scans"
    rep = run_check(scans[0], order=24)
    assert rep.informational
    # informational outcomes never affect the exit code
    from qcert import verify as V

    old = V._REGISTRY
    V._REGISTRY = [scans[0]]
    try:
        assert run_all(order=24).exit_code == 0
    finally:
        V._REGISTRY = old


def test_report_json_round_trip():
    rep = run_check(get_spec("ID-KERNEL3-BILAT"), order=30)
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["id"] == "ID-KERNEL3-BILAT"
    assert back["status"] == "PASS"
    assert set(back) >= {"id", "statement", "kind", "engine", "order", "bound", "status", "ms"}


def test_determinism_modulo_timing():
    def run_once():
        res = run_all(only="theorems,ID-KERNEL3-*", order=26)
        payload = res.to_dict()
        for chk in payload["checks"]:
            chk.pop("ms", None)
        return json.dumps(payload, sort_keys=True)

    assert run_once() == run_once()


def test_stat_term_validation():
    with pytest.raises(ValueError):
        StatTerm(0, "NT", 1, 5)
    with pytest.raises(ValueError):
        StatTerm(1, "NT", 5, 5)
    # a term is one antisymmetric pair b, k - b with 0 < 2b < k
    with pytest.raises(ValueError):
        StatTerm(1, "NT", 3, 5)
    with pytest.raises(ValueError):
        StatTerm(1, "NT", 2, 4)


@pytest.mark.parametrize("cid,statement", [
    ("T2A", "NTbar(1,3,n) - NTbar(2,3,n) - NTbar2(1,3,n) + NTbar2(2,3,n) "
            "= 0 (mod 3) for n = 3m+0"),
    ("CJ-MW7-B-I0", "Momega(2,7,n) - Momega(5,7,n) - 3*Momega(3,7,n) + 3*Momega(4,7,n) "
                    "= 0 (mod 7) for n = 7m+0"),
])
def test_pair_statement_text(cid, statement):
    # each pair prints as its two terms, negative coefficients included
    assert get_spec(cid).statement == statement


def test_xcheck_oracle_count_off_by_one_fails_with_the_decoded_witness(monkeypatch):
    # one object too many at rank 2 of weight 7: the packed compare fails
    # at n = 7, and the witness decodes the series as the Laurent route did
    from collections import Counter

    from qcert import verify as V

    real = V.raw_tally

    def bumped(family, n, upto=None):
        dist = real(family, n, upto)
        return dist + Counter({2: 1}) if family == "N" and n == 7 else dist

    monkeypatch.setattr(V, "raw_tally", bumped)
    rep = run_check(get_spec("X-RANK-PART"))
    assert rep.status == "FAIL"
    assert rep.witness == {
        "n": 7,
        "value": "z^-6 + z^-4 + z^-3 + 2*z^-2 + z^-1 + 3 + z + 2*z^2 + z^3 + z^4 + z^6",
        "expected": "{-6: 1, -4: 1, -3: 1, -2: 2, -1: 1, 0: 3, 1: 1, 2: 3, 3: 1, 4: 1, 6: 1}",
    }
    assert not rep.notes


def test_xcheck_oracle_rank_past_the_range_fails(monkeypatch):
    # an oracle rank of 6 at weight 5 cannot be packed at q^5: a FAIL
    from collections import Counter

    from qcert import verify as V

    real = V.raw_tally

    def bumped(family, n, upto=None):
        dist = real(family, n, upto)
        return dist + Counter({6: 1}) if family == "Nbar2" and n == 5 else dist

    monkeypatch.setattr(V, "raw_tally", bumped)
    rep = run_check(get_spec("X-M2-OV"))
    assert rep.status == "FAIL"
    assert rep.witness == {
        "n": 5,
        "value": "2*z^-2 + 4*z^-1 + 12 + 4*z + 2*z^2",
        "expected": "{-2: 2, -1: 4, 0: 12, 1: 4, 2: 2, 6: 1}",
    }


@pytest.mark.parametrize("seed", [0, 3])
def test_pair_profile_count_off_by_one_fails_with_its_sample(monkeypatch, seed):
    # one pair too many in one (r, s, t, m) group of weight 5: the first
    # sample's weighted sum misses at n = 5, and the witness and note are
    # the decoded series and the sampled weights
    from collections import Counter

    from qcert import combinatorics as C

    real = C.pair_profile

    def bumped(n, upto=None):
        profile = real(n, upto)
        return profile + Counter({(0, 0, 3, -1): 1}) if n == 5 else profile

    monkeypatch.setattr(C, "pair_profile", bumped)
    rep = run_check(get_spec("X-PAIR"), config=VerifyConfig(seed=seed))
    assert rep.status == "FAIL"
    assert rep.witness == {
        "n": 5,
        "value": "6*z^-4 + 12*z^-3 + 60*z^-2 + 144*z^-1 + 288 + 144*z + 60*z^2 + 12*z^3 + 6*z^4",
        "expected": "{-4: 6, -3: 12, -2: 60, -1: 145, 0: 288, 1: 144, 2: 60, 3: 12, 4: 6}",
    }
    assert rep.notes == ["sampled weights (d,e,x)=(2,1,1)"]


@pytest.mark.parametrize("key", [(0, 0, 3, -6), (11, 0, 3, 0)], ids=["rank-below-n", "r-past-upto"])
def test_pair_profile_the_packing_cannot_hold_fails_decoded(monkeypatch, key):
    # a profile entry that no packed group can hold (a rank below -5 at
    # weight 5, an r past the profile's reach) is compared decoded, and
    # fails there
    from collections import Counter

    from qcert import combinatorics as C

    real = C.pair_profile

    def bumped(n, upto=None):
        profile = real(n, upto)
        return profile + Counter({key: 1}) if n == 5 else profile

    monkeypatch.setattr(C, "pair_profile", bumped)
    rep = run_check(get_spec("X-PAIR"))
    assert rep.status == "FAIL" and rep.witness["n"] == 5
    assert f"{key[3]}: " in rep.witness["expected"]
    assert rep.notes == ["sampled weights (d,e,x)=(2,1,1)"]


def test_rank_count_moved_between_digits_fails_the_count_difference_and_xcheck(monkeypatch):
    # one overpartition moved from M2-rank 0 to 1 at weight 4 keeps the
    # digit sum, so the build passes its own checks; the fold then reads
    # one more object at residue 1 mod 5, and both routes see it
    import qcert
    from qcert import genfun as G
    from qcert.genfun import Family, closed_form

    qcert.clear_caches()
    want = closed_form("ovm2-count-diff-1-2-5-rhs", 60).coeffs[4]
    real = G._rank_sum_of

    def moved(family, z, order):
        s = real(family, z, order)
        if family is Family.OV_M2 and z.width and not z.majorant:
            s.coeffs[4] += (1 << z.width * 5) - (1 << z.width * 4)
        return s

    monkeypatch.setattr(G, "_rank_sum_of", moved)
    qcert.clear_caches()
    try:
        countdiff = run_check(get_spec("ID-COUNTDIFF-OVM2"))
        xcheck = run_check(get_spec("X-M2-OV"))
    finally:
        qcert.clear_caches()
    assert countdiff.status == "FAIL"
    assert countdiff.witness == {"n": 4, "value": want + 1, "expected": want}
    assert xcheck.status == "FAIL" and xcheck.witness["n"] == 4


def test_passing_cross_checks_decode_no_packed_series(monkeypatch):
    # the forms-xcheck selection reads every packed series in place: with
    # the decoder made to raise, all 17 checks still pass
    import qcert
    from qcert import genfun as G

    def refuse(c, width, j):
        raise AssertionError("a passing check decoded a packed series")

    monkeypatch.setattr(G, "z_digits", refuse)
    qcert.clear_caches()
    try:
        result = run_all(only="ID-THETA-*,ID-KERNEL*,ID-COUNTDIFF-*,ID-MAIN-*,X-*",
                         config=VerifyConfig(seed=3))
    finally:
        qcert.clear_caches()
    assert len(result.reports) == 17
    assert [r.id for r in result.reports if r.status != "PASS"] == []


def test_packed_width_one_bit_short_is_an_error_never_a_pass(monkeypatch):
    # the width rule is asserted: a z = 2^width one bit narrower than the
    # bound must stop both packed routes, the rank series of an X-check
    # and the main transformation, as per-check ERRORs
    import qcert
    from qcert import genfun as G

    real = G._width
    monkeypatch.setattr(G, "_width", lambda bound: real(bound) - 1)
    qcert.clear_caches()
    try:
        reports = [run_check(get_spec(cid))
                   for cid in ("ID-MAIN-OVM2", "X-RANK-OV", "X-M2-DO", "X-PAIR", "ID-COUNTDIFF-OVM2")]
        result = run_all(only="ID-MAIN-DYSON,X-RANK-PART")
    finally:
        qcert.clear_caches()
    for rep in reports + result.reports:
        assert rep.status == "ERROR", rep.id
        assert rep.error.startswith("AssertionError: packed width"), rep.error
        assert rep.witness is None and not rep.notes
    assert result.exit_code == 2


def test_thmain_witness_reads_like_the_laurent_route(monkeypatch):
    # a transformation with its prefactor's numerator moved to q^2 fails;
    # the witness, read back from the packed sides, is the text the
    # generic route over DualRing(LAURENT) gives at the same n
    from dataclasses import replace

    from bruteforce import LAURENT, FormalZ, joined
    from qcert import genfun as G
    from qcert.rings import DualRing
    from qcert.series import mono

    family, order = G.Family.OV_RANK, 12
    data = G._FAMILY_DATA[family]
    monkeypatch.setitem(G._FAMILY_DATA, family, replace(data, pref_num=((mono(-1, 2, xexp=1), 1),)))
    rep = run_check(get_spec("ID-MAIN-OVRANK"), order=order)
    assert rep.status == "FAIL"
    ring = DualRing(LAURENT)
    pref = G._thmain_prefactor(family, ring, order)
    lhs = joined(G._rank_sum_of(family, FormalZ(ring), order))
    rhs = joined(G._thmain_rhs(family, FormalZ(ring), order, pref))
    n = lhs.first_difference(rhs)
    assert rep.witness == {"n": n, "value": str(lhs.coeffs[n]), "expected": str(rhs.coeffs[n])}
    assert "z" in rep.witness["expected"]


def test_thmain_fails_where_only_the_derivative_differs(monkeypatch):
    # the prefactor's divisors 1 - x q^m turned into 1 - x^2 q^m: equal at
    # x = 1, so every value agrees and only the derivative tells the sides
    # apart; the check must FAIL at the first n where the derivative
    # differs, with the witness text of the generic route
    from dataclasses import replace

    from bruteforce import LAURENT, FormalZ, joined
    from qcert import genfun as G
    from qcert.rings import DualRing
    from qcert.series import mono

    family, order = G.Family.DYSON, 12
    data = G._FAMILY_DATA[family]
    monkeypatch.setitem(G._FAMILY_DATA, family, replace(data, pref_den=((mono(1, 1, xexp=2), 1),)))
    ring = DualRing(LAURENT)
    lhs = G._rank_sum_of(family, FormalZ(ring), order)
    rhs = G._thmain_rhs(family, FormalZ(ring), order, G._thmain_prefactor(family, ring, order))
    assert lhs.value == rhs.value
    n = lhs.deriv.first_difference(rhs.deriv)
    assert n is not None and n == joined(lhs).first_difference(joined(rhs))
    packed = G.thmain_check(family, order)
    assert packed.packed[0].value == packed.packed[1].value
    assert not packed.ok and packed.first_mismatch == n
    rep = run_check(get_spec("ID-MAIN-DYSON"), order=order)
    assert rep.status == "FAIL"
    lhs, rhs = joined(lhs), joined(rhs)
    assert rep.witness == {"n": n, "value": str(lhs.coeffs[n]), "expected": str(rhs.coeffs[n])}


def test_prefactor_sign_flip_is_an_error_never_a_pass(monkeypatch):
    # the packed width counts on the prefactor being its own majorant
    # (factors 1 + x q^m, divisors 1 - x q^m); a flipped sign breaks that
    # and must stop ID-MAIN-* as an ERROR
    from dataclasses import replace

    from qcert import genfun as G
    from qcert.series import mono

    family = G.Family.OV_RANK
    data = G._FAMILY_DATA[family]
    monkeypatch.setitem(G._FAMILY_DATA, family, replace(data, pref_num=((mono(1, 1, xexp=1), 1),)))
    rep = run_check(get_spec("ID-MAIN-OVRANK"), order=12)
    assert rep.status == "ERROR"
    assert rep.error == "AssertionError: the prefactor of ov-rank is not its own majorant"
