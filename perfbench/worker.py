"""One cold repetition of the benchmark, in a fresh interpreter.

The worker imports qcert and builds the check registry (the set-up),
checks that every ``lru_cache`` in ``combinatorics`` and ``genfun`` is
still empty, and then makes one ``qcert verify`` call through the real
command-line entry point, optionally under the layer tracer.  It writes
its measurements as JSON to ``--out``; the parent judges the report.

    python3 perfbench/worker.py --spawn-t T --out OUT [--setup-only]
        [--only GLOBS --seed N --report PATH [--trace]]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _warm_caches(*modules) -> list[str]:
    return [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.cache_info().currsize
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawn-t", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--only")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--report")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import qcert
    from qcert import cli, combinatorics, genfun, verify

    checks = len(verify.registry())
    setup_s = time.monotonic() - args.spawn_t

    warm = _warm_caches(combinatorics, genfun)
    if warm:
        print(f"caches are not cold before verify: {warm}", file=sys.stderr)
        return 3

    out = {
        "setup_s": setup_s,
        "registry_checks": checks,
        "qcert_version": qcert.__version__,
        "python": sys.version.split()[0],
    }
    if not args.setup_only:
        argv = ["verify", "--only", args.only, "--no-explore",
                "--seed", str(args.seed), "--report", args.report]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        exit_code = 0
        start = time.perf_counter()
        try:
            if tracer:
                tracer.run(cli.main, argv, standalone_mode=False)
            else:
                cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        out["verify_s"] = time.perf_counter() - start
        out["exit_code"] = exit_code
        if tracer:
            out["layers"] = tracer.metrics()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
