"""The qcert certification benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qcert checkout.  Each repetition is a fresh
interpreter (``worker.py``) that makes one cold-cache call of
``qcert verify --only <workload> --no-explore --seed N --report <tmp>``.
Repetitions run one at a time, with no threads: a closed loop with a
single client.  A new repetition starts only while it is expected to end
within S seconds, so a run holds at least one.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it adds one traced repetition and reports the per-layer
metrics.  A traced run keeps room for that repetition within S seconds.
Every repetition's report is checked against the workload's verdict
table, and its digest (timing keys stripped) must equal the one pinned
in ``workloads.py`` for the seed.  The last line of standard output is
the JSON result; the lines before it hold the full run record with
provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 15  # set-up-only spawns per run, besides the repetitions
DEADLINE_S = 170.0  # a run must end within 180 s


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcert").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def _strip_ms(value):
    if isinstance(value, dict):
        return {k: _strip_ms(v) for k, v in value.items() if k != "ms"}
    if isinstance(value, list):
        return [_strip_ms(v) for v in value]
    return value


def judge(report_path: Path, expected: dict) -> tuple[int, str | None]:
    """(checks failed, digest of the report without timing keys).

    A missing or unreadable report fails every check."""
    try:
        report = json.loads(report_path.read_text())
        statuses = {c["id"]: c["status"] for c in report["checks"]}
    except (OSError, ValueError, KeyError, TypeError):
        return len(expected), None
    failed = sum(statuses.get(cid) != want for cid, want in expected.items())
    failed += sum(cid not in expected for cid in statuses)
    digest = hashlib.sha256(
        json.dumps(_strip_ms(report), sort_keys=True).encode()).hexdigest()
    return min(failed, len(expected)), digest


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QCERT_THREADS="1")

    def spawn(self, *extra: str) -> dict:
        """Run one worker to completion; its measurements, or an `error`."""
        self.count += 1
        out = self.workdir / f"worker{self.count}.json"
        record = {"loadavg_before": _loadavg()}
        timeout = max(1.0, self.deadline - time.monotonic())
        spawn_t = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), "--spawn-t", repr(spawn_t),
                 "--out", str(out), *extra],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            record["error"] = f"worker timed out after {timeout:.0f} s"
        else:
            if proc.returncode:
                record["error"] = f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            else:
                record.update(json.loads(out.read_text()))
        record["loadavg_after"] = _loadavg()
        return record

    def verify(self, workload, seed: int, trace: bool) -> dict:
        report = self.workdir / "report.json"
        report.unlink(missing_ok=True)
        extra = ["--only", workload.only, "--seed", str(seed), "--report", str(report)]
        record = self.spawn(*extra, *(["--trace"] if trace else []))
        record["traced"] = trace
        record["failed"], record["digest"] = judge(report, workload.expected)
        return record


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "qcert" / "__init__.py").is_file():
        print(f"no qcert sources under {ROOT / 'src'}; run from a qcert checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    checks = len(workload.expected)
    want_digest = workload.digest(args.seed)
    # a traced run keeps room for its traced repetition after the untraced ones
    reserve = 2 if args.trace else 1

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH_DIR / ".work"))
    try:
        runner = Runner(workdir, started + DEADLINE_S)
        # untimed: compiles bytecode and proves the package imports
        warmup = runner.spawn("--setup-only")
        if "error" in warmup:
            print(f"qcert does not start: {warmup['error']}", file=sys.stderr)
            print(result_line(False, checks, checks, {}))
            return 2
        window = time.monotonic()
        setups = [runner.spawn("--setup-only") for _ in range(SETUP_SAMPLES)]
        reps = []
        while not reps or (time.monotonic() - window) + reserve * reps[-1]["wall_s"] <= args.seconds:
            t = time.monotonic()
            reps.append(runner.verify(workload, args.seed, trace=False))
            reps[-1]["wall_s"] = time.monotonic() - t
            if "error" in reps[-1]:
                break
        if args.trace and "error" not in reps[-1]:
            reps.append(runner.verify(workload, args.seed, trace=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"set-up: {s['error']}" for s in setups if "error" in s]
    problems += [f"repetition {i}: {r['error']}" for i, r in enumerate(reps) if "error" in r]
    attempted = checks * len(reps)
    failed = sum(r["failed"] for r in reps)
    if failed:
        problems.append(f"{failed} of {attempted} check verdicts differ from the expected table")
    problems += [f"repetition {i}: stripped report digest {r['digest']} is not the pinned "
                 f"{want_digest}" for i, r in enumerate(reps) if r["digest"] != want_digest]

    plain = [r for r in reps if not r["traced"] and "error" not in r]
    traced = [r for r in reps if r["traced"] and "error" not in r]
    metrics: dict = {}
    if plain and not args.trace:
        metrics = {
            "verify_s": statistics.median(r["verify_s"] for r in plain),
            "setup_s": statistics.median(
                [s["setup_s"] for s in setups if "error" not in s] + [r["setup_s"] for r in plain]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
    elif plain and traced:
        metrics = dict(traced[0]["layers"])
        metrics["trace.verify_s"] = traced[0]["verify_s"]
        metrics["trace.overhead_s"] = traced[0]["verify_s"] - statistics.median(
            r["verify_s"] for r in plain)
        problems += [f"layer coverage: {p}" for p in workload.coverage(metrics)]

    names = [m["name"] for m in wanted]
    if metrics and set(metrics) != set(names):
        problems.append(f"metrics out of step with BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(names))}")
    correct = not problems and bool(metrics)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "python": warmup["python"],
            "nproc": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(),
            "src_digest": _src_digest(),
            "qcert_version": warmup["qcert_version"],
        },
        "setups": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
    }
    print(json.dumps(record, sort_keys=True))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"{workload.name}: failed_frac = {record['failed_frac']:.4f} ratio "
          f"({failed}/{attempted} checks, {len(reps)} repetitions)")
    for name in names:
        if name in metrics:
            print(f"{workload.name}: {name} = {metrics[name]:.6g} {units[name]}")
    print(result_line(correct, attempted, failed,
                      {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
