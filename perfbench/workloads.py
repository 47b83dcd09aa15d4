"""The benchmark's workloads: fixed subsets of the qcert check registry.

Each workload is an ``--only`` selection for ``qcert verify`` plus the
verdict every selected check must reach.  A check that reaches another
verdict, is SKIPPED, is missing from the report, or takes the run down
with it counts as failed.  Each workload also pins the SHA-256 of its
JSON report with every ``ms`` key stripped, so a faster run cannot
certify less (a lower order, a shorter enumeration range or fewer
sampled weights) while its verdicts still read PASS.  The seed only
changes the report between seed 0 and any other seed (the count of
sampled ``X-PAIR`` weights in its note), so two digests cover all seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from tracer import SWEEPS


@dataclass(frozen=True)
class Workload:
    name: str
    only: str
    expected: dict  # check id -> verdict
    # traced layer metrics -> what a registry change broke about the workload
    coverage: Callable[[dict], list]
    # stripped-report digest for (seed 0, any other seed)
    digests: tuple[str, str]

    def digest(self, seed: int) -> str:
        return self.digests[seed != 0]


def _no_sweeps(m: dict) -> list:
    misses = sum(m[f"combinatorics.{s}.misses"] for s in SWEEPS)
    return [f"{misses} enumeration sweep misses"] if misses else []


def _mostly_sweeps(m: dict) -> list:
    if not m["verify.run_check.s"]:
        return ["no run_check time was traced"]
    share = m["combinatorics.self_s"] / m["verify.run_check.s"]
    return [] if share > 0.5 else [f"combinatorics covers only {share:.0%} of run_check time"]


def _forms_and_builders(m: dict) -> list:
    need = ("genfun.rank_gf.calls", "genfun.thmain_check.calls", "series.lerch_sum.calls")
    return [f"{name} is 0" for name in need if not m[name]]


def _all_pass(*ids: str) -> dict:
    return {check_id: "PASS" for check_id in ids}


def _unseeded(digest: str) -> tuple[str, str]:
    return digest, digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="series-nt",
            only="CJ-NT11-*,CJ-NT13-*,CG-*,ID-NTDIFF-*,CJ-NT7-ETA-7N4",
            expected=_all_pass(
                "CJ-NT11-I6", "CJ-NT11-I1", "CJ-NT13-I1", "CJ-NT13-I3",
                "CJ-NT7-ETA-7N4",
                "ID-NTDIFF-OVM2-1-5", "ID-NTDIFF-OVM2-2-5",
                "ID-NTDIFF-DOM2-1-5", "ID-NTDIFF-DOM2-2-5",
                "ID-NTDIFF-OV-1-3", "ID-NTDIFF-OVM2-1-3",
                "CG-CHAIN-OVM2-MOD5", "CG-CHAIN-DOM2-MOD5", "CG-DIS-MOD3",
            ),
            coverage=_no_sweeps,
            digests=_unseeded("a4d93b6c2d769b3cedbad9cd63a6f8722116a96d56abb19ffaa303c86ef68d77"),
            # nt_diff_gf over dual Fractions, with the order-1054 DYSON
            # prefactor as the biggest piece; the same families are asked
            # for at orders 60, 200 and 1054, so cache reuse shows too.
            # No enumeration sweep runs here.
        ),
        Workload(
            name="enum-oracle",
            only="T1,T3,CJ-MW5-EQ-5N4",
            expected=_all_pass("T1", "T3", "CJ-MW5-EQ-5N4"),
            coverage=_mostly_sweeps,
            digests=_unseeded("fb5e412d3bff4d898315b0b018110fb01b2b5e02b713fca2363a770a55cb6c4a"),
            # Not listed in BENCHMARK.json: one repetition takes 25-45 s on a
            # shared 2-core VM, so a run holds one, and two sets of ten runs
            # differed by 29 % in median.  Kept for manual runs.
            # One check per enumerated object kind at its registry bound:
            # overpartitions to n <= 37, distinct-odd partitions to
            # n <= 76, partitions to n <= 59; plus the headline theorems'
            # series confirmation at order 300 (about a tenth of the work).
        ),
        Workload(
            name="forms-xcheck",
            only="ID-THETA-*,ID-KERNEL*,ID-COUNTDIFF-*,ID-MAIN-*,X-*",
            expected=_all_pass(
                "ID-THETA-BASE9", "ID-THETA-OVGF",
                "ID-KERNEL3-BILAT", "ID-KERNEL3-BASE9",
                "ID-KERNEL5-OVM2", "ID-KERNEL5-DOM2",
                "ID-COUNTDIFF-OVM2", "ID-COUNTDIFF-DOM2",
                "ID-MAIN-DYSON", "ID-MAIN-OVRANK", "ID-MAIN-OVM2", "ID-MAIN-DOM2",
                "X-RANK-PART", "X-RANK-OV", "X-M2-OV", "X-M2-DO", "X-PAIR",
            ),
            coverage=_forms_and_builders,
            digests=("543eaf271df06698b80fa72321026eeba3a6f0e8ac7392f7b3f59276318d6449",
                     "dce892ba665c1eb882a7fdae26f435ce6dfba391b40dd31c60112b3f4e5dcedb"),
            # Many small calls instead of a few large ones: z-refined
            # rank_gf over LaurentPoly, thmain_check over dual Laurent
            # coefficients, the lerch_sum and bracket builders, and small
            # sweeps with thousands of tally hits.  The seed changes the
            # extra sampled weights of X-PAIR.
        ),
    )
}
