"""Declarative registry and runner for every congruence, relation,
identity, and conjecture the project certifies.

Each check is a CheckSpec; running one produces a CheckReport with a
PASS / FAIL / SKIPPED / ERROR status and, on failure, a reproducible
witness (the first offending index with the value found and the value
expected).  A statistic combination is a sum of antisymmetric residue
pairs c*(F(b,k,n) - F(k-b,k,n)), 0 < 2b < k, fixed when the registry is
built: a part-count pair is read from its difference series, any other
pair from the counting oracle, with no fallback from one route to the
other.  One statement runner serves every check that names no
structural runner (``thmain`` or ``xcheck``): it reads the lhs (a
closed form or a statistic combination) along the check's progression,
every n when it has none, and compares each value with its target: the
rhs form's coefficient, or 0, exactly or mod k.  A check's modulus and
progression step are its pairs' k, and each congruence family is one
row of the registry builder (pairs, stated residues, bound, enumeration
bound) that emits a check per stated residue and, for the scanned
families, an exploratory check per other residue.  A spec's kind and
engines follow from its other fields.  Each statistic family's two
routes are named once, in a row of ``_XCHECKS``: its ``X-*`` check
holds that row, and the family's part-count series is read from it;
``verify --only xchecks`` runs them all.  An engine defect inside a
check (an exception that is not a package error) becomes an ERROR
report carrying the exception's type and message, so one broken check
never loses the whole run's report.  A check that would count past the
oracle's weight limits (``combinatorics.require_limit``;
``unsafe_bounds`` lifts them) ends SKIPPED; a stated check that ends
SKIPPED certified nothing, and fails the run like an ERROR.  Conjecture
checks are flagged so that a failing conjecture is loudly reported
without failing the suite unless strict mode is on.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from fnmatch import translate
from operator import mul

from . import combinatorics as comb
from . import genfun
from .combinatorics import raw_tally, require_limit, tally
from .errors import BoundExceeded, InsufficientOrder, QcertError
from .genfun import Family, closed_form, nt_diff_combo, thmain_check


@dataclass(frozen=True)
class _XCheck:
    """Where one statistic family's two routes meet: its rank series and
    count form against the oracle's distribution and object counts, and
    its part-count difference series against the oracle's part counts."""

    id: str
    desc: str
    bound: int
    rank_family: Family | None  # None: the pair series at unit weights
    count_family: str
    part_count_family: str
    pairs: tuple[tuple[int, int], ...]  # (b, k) part-count differences
    count_form: str


_XCHECKS = (
    _XCheck("X-RANK-PART", "partition rank", 30, Family.DYSON, "N", "NT",
            ((1, 5), (2, 5), (1, 7), (2, 7), (3, 7)), "partition-gf"),
    _XCheck("X-RANK-OV", "overpartition rank", 24, Family.OV_RANK, "Nbar", "NTbar",
            ((1, 3),), "overpartition-gf"),
    _XCheck("X-M2-OV", "overpartition M2-rank", 24, Family.OV_M2, "Nbar2", "NTbar2",
            ((1, 5), (2, 5), (1, 3)), "overpartition-gf"),
    _XCheck("X-M2-DO", "distinct-odd M2-rank", 40, Family.DO_M2, "N2", "NT2",
            ((1, 5), (2, 5)), "distinct-odd-gf"),
    _XCheck("X-PAIR", "overpartition pair rank", 14, None, "Npair", "NTpair",
            (), "overpartition-pair-gf"),
)

# part-count statistic family -> generating-function family of its series
_SERIES_FAMILY = {x.part_count_family: x.rank_family for x in _XCHECKS if x.rank_family}


@dataclass(frozen=True)
class StatTerm:
    """One antisymmetric residue pair coeff*(F(b,k,n) - F(k-b,k,n)) of
    the statistic family F, with b = residue and k = modulus."""

    coeff: int
    family: str
    residue: int
    modulus: int

    def __post_init__(self):
        if self.coeff == 0:
            raise ValueError("zero coefficient in statistic combination")
        if not 0 < 2 * self.residue < self.modulus:
            raise ValueError("residue pair out of range: need 0 < 2b < k")


@dataclass(frozen=True)
class CheckSpec:
    id: str
    category: str  # theorem | classic | new | conjecture | identity | xcheck | exploratory
    statement: str
    lhs: tuple[StatTerm, ...] = ()
    lhs_form: str | None = None
    rhs_form: str | None = None
    modulus: int | None = None
    progression: tuple[int, int] | None = None  # (offset i, step M)
    bound: int = 0  # largest weight n examined on the lhs scale
    enum_bound: int | None = None  # enum confirmation range for BOTH
    thmain: Family | None = None  # structural runner: the main transformation
    xcheck: _XCheck | None = None  # structural runner: an _XCHECKS row

    @property
    def conjecture(self) -> bool:
        return self.category == "conjecture"

    @property
    def informational(self) -> bool:
        return self.category == "exploratory"

    @property
    def kind(self) -> str:
        """CONGRUENCE | EXACT_RELATION | EXACT_IDENTITY | ORACLE_XCHECK"""
        if self.xcheck:
            return "ORACLE_XCHECK"
        if self.modulus is not None:
            return "CONGRUENCE"
        if self.rhs_form or self.thmain is not None:
            return "EXACT_IDENTITY"
        return "EXACT_RELATION"

    @property
    def engines(self) -> str:
        """SERIES | ENUM | BOTH | MIXED | FORM"""
        if self.xcheck or self.enum_bound is not None:
            return "BOTH"
        if self.lhs_form or self.thmain is not None:
            return "FORM"
        in_series = {t.family in _SERIES_FAMILY for t in self.lhs}
        if False not in in_series:
            return "SERIES"
        return "MIXED" if True in in_series else "ENUM"


@dataclass
class CheckReport:
    id: str
    kind: str
    engine: str
    order: int
    bound: int
    status: str  # PASS | FAIL | SKIPPED | ERROR
    statement: str
    conjecture: bool = False
    informational: bool = False
    witness: dict | None = None
    skip_reason: str | None = None
    error: str | None = None
    notes: list[str] = field(default_factory=list)
    ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "PASS"

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "statement": self.statement,
            "kind": self.kind,
            "engine": self.engine,
            "order": self.order,
            "bound": self.bound,
            "status": self.status,
            "conjecture": self.conjecture,
            "informational": self.informational,
            "ms": round(self.ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.skip_reason:
            out["skip_reason"] = self.skip_reason
        if self.error:
            out["error"] = self.error
        if self.notes:
            out["notes"] = list(self.notes)
        return out


@dataclass
class VerifyConfig:
    strict_conjectures: bool = False
    unsafe_bounds: bool = False
    seed: int = 0
    include_informational: bool = True


def _combo_str(terms) -> str:
    """The combination with each pair written out as its two terms."""
    out = ""
    for t in terms:
        for c, m in ((t.coeff, t.residue), (-t.coeff, t.modulus - t.residue)):
            s = ("" if c == 1 else "-" if c == -1 else f"{c}*") + f"{t.family}({m},{t.modulus},n)"
            if not out:
                out = s
            elif s.startswith("-"):
                out += " - " + s[1:]
            else:
                out += " + " + s
    return out


# ---------------------------------------------------------------------------
# Engines.
# ---------------------------------------------------------------------------


def _enum_value(terms, n: int, upto: int) -> int:
    acc = 0
    for t in terms:
        tl = tally(t.family, n, t.modulus, upto)
        acc += t.coeff * (tl[t.residue] - tl[t.modulus - t.residue])
    return acc


def _fail(report: CheckReport, n: int, value, expected):
    report.status = "FAIL"
    report.witness = {"n": n, "value": value, "expected": expected}


# ---------------------------------------------------------------------------
# Check runners by kind.
# ---------------------------------------------------------------------------


def _lhs_reader(spec: CheckSpec, bound: int, upto: int, config: VerifyConfig):
    """The lhs as a function of the weight n <= bound.

    An lhs form is read from its expansion.  Otherwise part-count pairs
    are read from their difference series, the other pairs from the
    counting oracle, held to the counting limits up to `upto`, the last
    weight the caller reads.  Their tables are built to the bound, capped
    at the limit (past it, with unsafe bounds, to `upto`), so a later
    check that reads a few weights further rebuilds none.
    """
    if spec.lhs_form:
        return closed_form(spec.lhs_form, bound).integer_coefficients().__getitem__
    series_terms = [(t.coeff, _SERIES_FAMILY[t.family], t.residue, t.modulus)
                    for t in spec.lhs if t.family in _SERIES_FAMILY]
    series_vals = nt_diff_combo(series_terms, bound).integer_coefficients() if series_terms else None
    enum_terms = [t for t in spec.lhs if t.family not in _SERIES_FAMILY]
    if not enum_terms:
        return series_vals.__getitem__
    limit = require_limit(spec.id, [t.family for t in enum_terms], upto, config.unsafe_bounds)
    upto = max(upto, min(bound, limit))

    def value(n: int) -> int:
        val = _enum_value(enum_terms, n, upto)
        return val if series_vals is None else series_vals[n] + val

    return value


def _run_progression(spec: CheckSpec, bound: int, config: VerifyConfig, report: CheckReport):
    """The lhs at n = step*t + i (every n when the spec has no
    progression), compared with its target, the q^t coefficient of the
    rhs form or 0: modulo p when the spec has a modulus, exactly
    otherwise."""
    i, step = spec.progression or (0, 1)
    p = spec.modulus
    # enumeration ranges are checked against the last n read, not the bound
    last = bound - (bound - i) % step
    value = _lhs_reader(spec, bound, last, config)
    t_max = (bound - i) // step
    rhs = closed_form(spec.rhs_form, t_max).integer_coefficients() if spec.rhs_form else None
    for t, n in enumerate(range(i, bound + 1, step)):
        val = value(n)
        want = 0 if rhs is None else rhs[t]
        if p is not None:
            if (val - want) % p:
                _fail(report, n, val - want, f"0 (mod {p})")
                return
        elif val != want:
            _fail(report, n, val, "0" if rhs is None else want)
            return

    # independent confirmation by full enumeration on the overlap; the
    # registry holds enum_bound within its families' counting limits
    if spec.enum_bound is not None:
        confirm_to = min(spec.enum_bound, bound)
        for n in range(i, confirm_to + 1, step):
            ev = _enum_value(spec.lhs, n, confirm_to)
            sv = value(n)
            if ev != sv:
                _fail(report, n, sv, f"{ev} (enumeration)")
                return
        report.notes.append(f"enumeration confirms values for n <= {confirm_to}")
    if rhs is not None and spec.progression:  # without one, t is n itself
        report.notes.append(f"progression index up to {t_max}")
    report.status = "PASS"


def _run_thmain(family: Family, bound: int, report: CheckReport):
    res = thmain_check(family, bound)
    if res.ok:
        report.status = "PASS"
        report.notes.append("value and derivative components both match")
    else:
        n = res.first_mismatch
        _fail(report, n, res.text(0, n), res.text(1, n))


# ---------------------------------------------------------------------------
# Oracle cross-checks: series engine vs the counting oracle.
# ---------------------------------------------------------------------------


def _run_xcheck(spec, bound, config, report):
    """The family's rank series and count form against the oracle's
    distribution and object counts at each n <= bound, then its
    part-count differences; the pair series also at sampled weights."""
    x = spec.xcheck
    require_limit(spec.id, [x.count_family, x.part_count_family], bound, config.unsafe_bounds)
    if x.rank_family is None:
        g = genfun.genovpair_series(1, 1, 1, bound)
    else:
        g = genfun.rank_gf(x.rank_family, bound)
    counts = closed_form(x.count_form, bound).integer_coefficients()
    for n in range(bound + 1):
        dist = raw_tally(x.count_family, n, bound)
        if not g.matches(n, dist):
            _fail(report, n, g.text(n), str(dict(sorted(dist.items()))))
            return
        if sum(dist.values()) != counts[n]:
            _fail(report, n, sum(dist.values()), counts[n])
            return
    for b, k in x.pairs:
        series = genfun.nt_diff_gf(x.rank_family, b, k, bound).integer_coefficients()
        for n in range(bound + 1):
            tl = tally(x.part_count_family, n, k, bound)
            want = tl[b] - tl[k - b]
            if series[n] != want:
                _fail(report, n, series[n], want)
                report.notes.append(f"part-count difference b={b} mod {k}")
                return
    if x.rank_family is not None:
        report.notes.append(f"distribution, counts, and part-count differences agree to n={bound}")
    elif _pair_profile_fails(bound, config, report):
        return
    report.status = "PASS"


def _profile_groups(n: int, upto: int, width: int, top: list) -> tuple | None:
    """The pair profile at n packed per (r, s, t) group: the keys
    (t*B + s)*B + r (B = upto + 1) and the ints sum_m cnt 2^(width (m + n)),
    which weighted by d^r e^s x^t (`_weights`) sum to the pair series'
    coefficient packed at z = 2^width.  None when the packing cannot hold
    the profile: an r, s or t outside [0, upto], a rank below -n, or the
    profile's total at the `top` weights, which bounds the digits of every
    sample they bound, not below half a digit (below it, a rank above n is
    a digit past z^n)."""
    base, groups, sizes = upto + 1, {}, {}
    try:
        for (r, s, t, m), cnt in comb.pair_profile(n, upto).items():
            if not (0 <= r < base and 0 <= s < base and 0 <= t < base):
                return None
            key = (t * base + s) * base + r
            groups[key] = groups.get(key, 0) + (cnt << width * (m + n))
            sizes[key] = sizes.get(key, 0) + abs(cnt)
    except ValueError:  # a negative shift: a rank below -n
        return None
    if sum(map(mul, map(top.__getitem__, sizes), sizes.values())) >> (width - 1):
        return None
    return list(groups), list(groups.values())


def _weights(dex, base: int) -> list:
    """d^r e^s x^t at the key (t*base + s)*base + r, for r, s, t < base."""
    pd, pe, px = ([w**i for i in range(base)] for w in dex)
    return [wx * we * wd for wx in px for we in pe for wd in pd]


def _pair_profile_fails(bound, config, report) -> bool:
    """Compare the oracle's joint pair profile with the generic pair
    series at sampled integer weights; record the first mismatch.  The
    samples share one width, so each (r, s, t) group of the profile is
    packed once and each coefficient is compared with a weighted sum of
    ints; a group the packing cannot hold, or a miss, is compared with the
    weighted profile summed by rank, packed by ``PackedZ.matches``."""
    samples = [(2, 1, 1), (1, 2, 1), (2, 3, 1), (1, 1, 2), (3, 2, 2)]
    if config.seed:
        rng = random.Random(config.seed)
        samples += [tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(2)]
    profile_to = min(bound, 10)
    series = genfun.genovpair_samples(samples, profile_to)
    top = _weights([max(abs(w) for w in ws) for ws in zip(*samples)], profile_to + 1)
    groups = [_profile_groups(n, profile_to, series[0].width, top) for n in range(profile_to + 1)]
    for (d, e, x), g in zip(samples, series):
        weights = _weights((d, e, x), profile_to + 1)  # r, s, t <= n
        for n, group in enumerate(groups):
            if group is not None:
                keys, packed = group
                if g.coeffs[n] == sum(map(mul, map(weights.__getitem__, keys), packed)):
                    continue
            want: dict[int, int] = {}
            for (r, s, t, m), cnt in comb.pair_profile(n, profile_to).items():
                want[m] = want.get(m, 0) + cnt * d**r * e**s * x**t
            if not g.matches(n, want):
                _fail(report, n, g.text(n), str(dict(sorted(want.items()))))
                report.notes.append(f"sampled weights (d,e,x)=({d},{e},{x})")
                return True
    report.notes.append(
        f"rank distribution to n={bound}; joint profile at {len(samples)} "
        f"sampled weights to n={profile_to}"
    )
    return False


# ---------------------------------------------------------------------------
# Public runner.
# ---------------------------------------------------------------------------


def _blank_report(spec: CheckSpec, bound: int) -> CheckReport:
    return CheckReport(
        id=spec.id,
        kind=spec.kind,
        engine=spec.engines,
        order=bound,
        bound=bound,
        status="SKIPPED",
        statement=spec.statement,
        conjecture=spec.conjecture,
        informational=spec.informational,
    )


def require_order(specs, order: int | None) -> None:
    """Raise InsufficientOrder unless `order` (None: each spec's bound)
    samples every spec's progression at least twice."""
    for spec in specs:
        bound = spec.bound if order is None else order
        if spec.progression is not None:
            i, step = spec.progression
            if bound < i + step:
                raise InsufficientOrder(
                    f"{spec.id}: order {bound} cannot sample the progression "
                    f"{step}n+{i} at least twice"
                )


def run_check(spec: CheckSpec, order: int | None = None, config: VerifyConfig | None = None) -> CheckReport:
    """Execute one check and return its report.

    `order` overrides the spec's bound (largest lhs weight examined).
    Raises InsufficientOrder as ``require_order`` does, and any other
    package error; an engine defect (any other exception) is an ERROR
    report carrying the exception's type and message.
    """
    config = config or VerifyConfig()
    bound = spec.bound if order is None else order
    require_order((spec,), bound)
    report = _blank_report(spec, bound)
    start = time.perf_counter()
    try:
        if spec.thmain is not None:
            _run_thmain(spec.thmain, bound, report)
        elif spec.xcheck:
            _run_xcheck(spec, bound, config, report)
        elif spec.lhs or spec.lhs_form:
            _run_progression(spec, bound, config, report)
        else:
            raise QcertError(f"check {spec.id} has no lhs to read")
    except BoundExceeded as exc:
        report.status = "SKIPPED"
        report.skip_reason = str(exc)
    except QcertError:
        raise
    except Exception as exc:
        report = _blank_report(spec, bound)
        report.status = "ERROR"
        report.error = f"{type(exc).__name__}: {exc}"
    report.ms = (time.perf_counter() - start) * 1000.0
    return report


def registry() -> list[CheckSpec]:
    """Every check the suite knows about, in canonical order."""
    return list(_REGISTRY)


def _congruence(id, category, terms, i, bound, *, exact=False, enum_bound=None):
    """A combination of pairs mod k along n = k*m + i: = 0 (mod k), or
    exactly 0 (an EXACT_RELATION) when `exact`."""
    k = terms[0].modulus
    rel = "0" if exact else f"0 (mod {k})"
    return CheckSpec(
        id=id,
        category=category,
        statement=f"{_combo_str(terms)} = {rel} for n = {k}m+{i}",
        lhs=tuple(terms),
        modulus=None if exact else k,
        progression=(i, k),
        bound=bound,
        enum_bound=enum_bound,
    )


def _identity(id, category, rhs_form, bound, *, terms=(), lhs_form=None, residue=None, mod=False):
    """lhs = rhs form, the lhs summed along n = k*m + residue when one is
    given and the relation taken mod k when `mod` (k: the pairs' modulus)."""
    k = terms[0].modulus if terms else None
    prog = None if residue is None else (residue, k)
    if lhs_form:
        lhs_str = lhs_form
    else:
        lhs_str = _combo_str(terms)
        if prog:
            lhs_str = f"sum over m of [{lhs_str}] at n = {k}m+{residue}"
    rel = f"= {rhs_form} (mod {k})" if mod else f"= {rhs_form}"
    return CheckSpec(
        id=id,
        category=category,
        statement=f"{lhs_str} {rel}",
        lhs=tuple(terms),
        lhs_form=lhs_form,
        rhs_form=rhs_form,
        modulus=k if mod else None,
        progression=prog,
        bound=bound,
    )


def _build_registry() -> list[CheckSpec]:
    specs: list[CheckSpec] = []
    scans: list[CheckSpec] = []  # exploratory, run after the cross-checks

    def combo(fam, pairs, k):
        return [StatTerm(c, fam, m, k) for c, m in pairs]

    def family(prefix, category, terms, stated, bound, enum_bound=None, scan=False):
        """{prefix}-I{i} for each stated residue i; with `scan`, also
        {prefix}-SCAN-I{i} for every other residue mod k."""
        specs.extend(_congruence(f"{prefix}-I{i}", category, terms, i, bound, enum_bound=enum_bound)
                     for i in stated)
        if scan:
            scans.extend(_congruence(f"{prefix}-SCAN-I{i}", "exploratory", terms, i, 60)
                         for i in range(terms[0].modulus) if i not in stated)

    # --- the three headline theorems -----------------------------------
    t2_terms = combo("NTbar", [(1, 1)], 3) + combo("NTbar2", [(-1, 1)], 3)
    specs += [
        _congruence("T1", "theorem", combo("NTbar2", [(1, 1), (2, 2)], 5), 2, 300, enum_bound=37),
        _congruence("T2A", "theorem", t2_terms, 0, 300, enum_bound=37),
        _congruence("T2B", "theorem", t2_terms, 1, 300, enum_bound=37),
        _congruence("T3", "theorem", combo("NT2", [(1, 1), (2, 2)], 5), 1, 300, enum_bound=76),
    ]

    # --- previously known part-count congruences, and the two further
    # mod-7 families; every residue they leave out is scanned ------------
    family("NT5", "classic", combo("NT", [(1, 1), (2, 2)], 5), (1, 4), 300, 30, scan=True)
    family("NT7", "classic", combo("NT", [(1, 1), (1, 2), (-1, 3)], 7), (1, 5), 300, 30, scan=True)
    family("NT7-ALT1", "new", combo("NT", [(1, 1), (2, 3)], 7), (1, 3, 4, 5), 300, 30, scan=True)
    family("NT7-ALT2", "new", combo("NT", [(1, 2), (4, 3)], 7), (0, 1, 5), 300, 30, scan=True)

    # --- conjectured congruences, relations, and identities -------------
    family("CJ-NT11", "conjecture",
           combo("NT", [(1, 1), (3, 2), (-4, 3), (3, 4), (3, 5)], 11), (6,), 200)
    family("CJ-NT11", "conjecture",
           combo("NT", [(1, 1), (-3, 2), (5, 3), (-2, 4), (4, 5)], 11), (1,), 200)
    family("CJ-NT13", "conjecture",
           combo("NT", [(1, 1), (1, 2), (6, 3), (3, 6)], 13), (1,), 200)
    family("CJ-NT13", "conjecture",
           combo("NT", [(1, 1), (3, 3), (-4, 4), (1, 5), (-2, 6)], 13), (3,), 200)
    specs += [
        _identity("CJ-NT7-ETA-7N5", "conjecture", "eta7-rank-7n5-rhs", 7 * 150 + 5,
                  terms=combo("NT", [(1, 1), (3, 2)], 7), residue=5),
        _identity("CJ-NT7-ETA-7N4", "conjecture", "eta7-rank-7n4-rhs", 7 * 150 + 4,
                  terms=combo("NT", [(1, 1), (2, 3)], 7), residue=4),
        _congruence("CJ-MW5-EQ-5N4", "conjecture", combo("Momega", [(1, 1), (2, 2)], 5), 4, 60,
                    exact=True),
    ]

    mixed504 = combo("Momega", [(1, 1)], 5) + combo("NT", [(2, 2)], 5)
    family("CJ-MWNT5", "conjecture", mixed504, (0, 4), 60)
    specs.append(_congruence("CJ-MWNT5-EQ-5N2", "conjecture", mixed504, 2, 60, exact=True))
    mixed512 = combo("NT", [(1, 1)], 5) + combo("Momega", [(2, 2)], 5)
    family("CJ-NTMW5", "conjecture", mixed512, (1, 2), 60)
    mixed_eq54 = combo("Momega", [(1, 1)], 5) + combo("NT", [(4, 1)], 5)
    specs += [
        _identity("CJ-NTMW5-ETA-5N4", "conjecture", "eta5-crank-rank-5n4-rhs", 59,
                  terms=mixed512, residue=4),
        _congruence("CJ-MWNT5-EQ-5N4", "conjecture", mixed_eq54, 4, 60, exact=True),
    ]
    family("CJ-MW7-A", "conjecture", combo("Momega", [(1, 1), (2, 3)], 7), (0, 2, 5, 6), 60)
    family("CJ-MW7-B", "conjecture", combo("Momega", [(1, 2), (-3, 3)], 7), (0, 1, 4, 5), 60)

    # --- exact identity suite -------------------------------------------
    specs.append(
        _identity("ID-THETA-BASE9", "identity", "theta-base9-rhs", 200,
                  lhs_form="theta-base9-lhs")
    )
    specs.append(
        _identity("ID-THETA-OVGF", "identity", "theta-overpartition-rhs", 150,
                  lhs_form="overpartition-gf")
    )
    specs.append(
        _identity("ID-KERNEL3-BILAT", "identity", "mod3-kernel-bilateral", 150,
                  lhs_form="mod3-kernel-onesided")
    )
    specs.append(
        _identity("ID-KERNEL3-BASE9", "identity", "mod3-kernel-base9", 150,
                  lhs_form="mod3-kernel-onesided")
    )
    for id_, fam, b, k, form in [
        ("ID-NTDIFF-OVM2-1-5", "NTbar2", 1, 5, "ovm2-ntdiff-1-5-rhs"),
        ("ID-NTDIFF-OVM2-2-5", "NTbar2", 2, 5, "ovm2-ntdiff-2-5-rhs"),
        ("ID-NTDIFF-DOM2-1-5", "NT2", 1, 5, "dom2-ntdiff-1-5-rhs"),
        ("ID-NTDIFF-DOM2-2-5", "NT2", 2, 5, "dom2-ntdiff-2-5-rhs"),
        ("ID-NTDIFF-OV-1-3", "NTbar", 1, 3, "ovrank-ntdiff-1-3-rhs"),
        ("ID-NTDIFF-OVM2-1-3", "NTbar2", 1, 3, "ovm2-ntdiff-1-3-rhs"),
    ]:
        specs.append(
            _identity(id_, "identity", form, 60,
                      terms=[StatTerm(1, fam, b, k)])
        )
    specs.append(
        _identity("ID-KERNEL5-OVM2", "identity", "ovm2-mod5-kernel", 150,
                  lhs_form="ovm2-mod5-kernel-onesided")
    )
    specs.append(
        _identity("ID-KERNEL5-DOM2", "identity", "dom2-mod5-kernel", 150,
                  lhs_form="dom2-mod5-kernel-onesided")
    )
    specs.append(
        _identity("ID-COUNTDIFF-OVM2", "identity", "ovm2-count-diff-1-2-5-rhs", 60,
                  lhs_form="ovm2-count-diff-1-2-5")
    )
    specs.append(
        _identity("ID-COUNTDIFF-DOM2", "identity", "dom2-count-diff-1-2-5-rhs", 60,
                  lhs_form="dom2-count-diff-1-2-5")
    )
    specs.append(
        _identity("CG-CHAIN-OVM2-MOD5", "identity", "ovm2-mod5-kernel", 200,
                  terms=combo("NTbar2", [(1, 1), (2, 2)], 5), mod=True)
    )
    specs.append(
        _identity("CG-CHAIN-DOM2-MOD5", "identity", "dom2-mod5-kernel", 200,
                  terms=combo("NT2", [(1, 1), (2, 2)], 5), mod=True)
    )
    specs.append(
        _identity("CG-DIS-MOD3", "identity", "mod3-combined-rhs", 200,
                  terms=t2_terms, mod=True)
    )
    for fam in Family:
        specs.append(
            CheckSpec(
                id=f"ID-MAIN-{fam.name.replace('_', '')}",
                category="identity",
                statement=(
                    f"rank sum equals its product transformation [{fam.value}], "
                    "with exact x-derivative"
                ),
                thmain=fam,
                bound=40,
            )
        )

    # --- oracle cross-checks --------------------------------------------
    for x in _XCHECKS:
        specs.append(
            CheckSpec(
                id=x.id,
                category="xcheck",
                statement=f"series engine matches exhaustive enumeration ({x.desc})",
                xcheck=x,
                bound=x.bound,
            )
        )

    return specs + scans


_REGISTRY = _build_registry()
_BY_ID = {s.id: s for s in _REGISTRY}

_FILTER_ALIASES = {
    "theorems": "theorem",
    "conjectures": "conjecture",
    "identities": "identity",
    "xchecks": "xcheck",
}


def get_spec(check_id: str) -> CheckSpec:
    try:
        return _BY_ID[check_id]
    except KeyError:
        raise QcertError(f"unknown check id {check_id!r}") from None


def select_specs(only: str | None, include_informational: bool = True) -> list[CheckSpec]:
    """Filter the registry by comma-separated categories or id globs, case
    blind: the tokens are lowered once, the globs joined into one pattern."""
    chosen = list(_REGISTRY)
    tokens = {t.strip().lower() for t in (only or "all").split(",")} - {""}
    if "all" not in tokens:
        ids = re.compile("|".join(map(translate, tokens)) or "(?!)").match  # no glob: no id
        cats = {_FILTER_ALIASES.get(t, t) for t in tokens}
        chosen = [s for s in chosen if s.category in cats or ids(s.id.lower())]
    if not include_informational:
        chosen = [s for s in chosen if not s.informational]
    return chosen


@dataclass
class RunResult:
    reports: list[CheckReport]
    exit_code: int

    def summary(self) -> dict:
        counts = {"PASS": 0, "FAIL": 0, "SKIPPED": 0, "ERROR": 0}
        conj = {"PASS": 0, "FAIL": 0}
        for r in self.reports:
            if r.informational:
                continue
            counts[r.status] += 1
            if r.conjecture and r.status in conj:
                conj[r.status] += 1
        out = {
            "checks": sum(counts.values()),
            "pass": counts["PASS"],
            "fail": counts["FAIL"],
            "skipped": counts["SKIPPED"],
            "conjecture_pass": conj["PASS"],
            "conjecture_fail": conj["FAIL"],
            "exit_code": self.exit_code,
        }
        if counts["ERROR"]:
            out["error"] = counts["ERROR"]
        return out

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "checks": [r.to_dict() for r in self.reports],
        }


def run_all(only: str | None = None, order: int | None = None, config: VerifyConfig | None = None,
            specs: list[CheckSpec] | None = None) -> RunResult:
    """Run the (filtered) registry, or the `specs` already selected; never
    aborts on a single check's error.  A too-small `order` is a usage
    problem, raised before any check runs.  The widest bounds run first
    (ties in registry order), so each shared series is built once, and the
    reports keep the registry order."""
    config = config or VerifyConfig()
    specs = select_specs(only, config.include_informational) if specs is None else specs
    require_order(specs, order)

    def run_one(spec: CheckSpec) -> CheckReport:
        try:
            return run_check(spec, order=order, config=config)
        except QcertError as exc:  # a package error skips the check
            report = _blank_report(spec, spec.bound if order is None else order)
            report.skip_reason = f"{type(exc).__name__}: {exc}"
            return report

    done = {s.id: run_one(s) for s in sorted(specs, key=lambda s: -s.bound)}
    reports = [done[s.id] for s in specs]

    exit_code = 0
    for r in reports:
        if r.informational:
            continue
        if r.status == "FAIL" and (not r.conjecture or config.strict_conjectures):
            exit_code = 1
    # a SKIPPED check certified nothing, so it must not read as success
    if any(r.status == "ERROR" or (r.status == "SKIPPED" and not r.informational) for r in reports):
        exit_code = 2
    return RunResult(reports=reports, exit_code=exit_code)
