"""Command-line interface: expansion, statistics, verification and the
check list.  ``verify`` is the one way to run a check; the
series-vs-counting-oracle cross-checks are ``verify --only xchecks``.

Exit codes: 0 success, 1 check failure, 2 usage or infrastructure error,
including a check that ended in ERROR, a stated check that was SKIPPED
and so certified nothing, an ``--order`` too small to sample a selected
check's progression twice, and an unwritable ``--output`` or ``--report``
path (``verify`` finds both before it runs a check).  Past the counting
oracle's weight limits (``combinatorics.require_limit``) ``verify``
skips a check and ``stat`` refuses the range; ``--unsafe-bounds`` is
the one override.
"""

from __future__ import annotations

import json
import sys
import textwrap

import click

from .combinatorics import TALLY_FAMILIES, require_limit, tally
from .errors import BoundExceeded, QcertError
from .genfun import closed_form, form_ids
from .rings import RAT
from .series import QSeries, series_to_json
from .verify import VerifyConfig, require_order, run_all, select_specs

_CATEGORIES = "theorems, classic, new, conjectures, identities, xchecks, exploratory"


def _open(path: str, mode: str = "w"):
    """`path` opened for writing; an unwritable path is a usage error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror}") from None


def _emit(text: str, output: str | None):
    if output:
        with _open(output) as fh:
            fh.write(text)
    else:
        click.echo(text)


@click.group()
def main():
    """Exact q-series expansion and congruence verification."""


@main.command(epilog="\b\nForms:\n" + "\n".join(
    textwrap.wrap(", ".join(form_ids()), 72, break_on_hyphens=False)))
@click.option("--form", "form_id", required=True, type=click.Choice(form_ids()), metavar="FORM", help="See Forms below.")
@click.option("--order", type=click.IntRange(min=0), required=True,
              help="Truncation order N (series known through q^N).")
@click.option("--mod", "mod_p", type=click.IntRange(min=1), default=None,
              help="Reduce integer coefficients mod p.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--output", type=click.Path(), default=None, help="Write to file instead of stdout.")
def expand(form_id, order, mod_p, fmt, output):
    """Expand a registered closed form to the requested order."""
    series = closed_form(form_id, order)
    if mod_p is not None:
        try:
            residues = series.reduce_mod(mod_p)
        except (TypeError, ValueError) as exc:
            raise click.UsageError(f"--mod view unavailable: {exc}")
        if fmt == "json":
            _emit(json.dumps({"form": form_id, "order": order, "mod": mod_p,
                              "coefficients": residues}, indent=2), output)
        elif fmt == "csv":
            _emit("q_exponent,coefficient\n" + "\n".join(
                f"{i},{c}" for i, c in enumerate(residues)), output)
        else:
            _emit(f"{QSeries(RAT, order, residues)}  (mod {mod_p})", output)
        return
    if fmt == "json":
        _emit(json.dumps(series_to_json(series), indent=2), output)
    elif fmt == "csv":
        lines = ["q_exponent,coefficient"]
        for i, c in enumerate(series.coeffs):
            if c:
                lines.append(f"{i},{c}")
        _emit("\n".join(lines), output)
    else:
        _emit(str(series), output)


@main.command()
@click.option("--family", required=True, type=click.Choice(sorted(TALLY_FAMILIES)),
              help="Statistic family (NT* sum parts, N* count objects, Momega sums ones).")
@click.option("--k", type=click.IntRange(min=1), required=True, help="Modulus for the residue classes.")
@click.option("--n", "single_n", type=int, default=None, help="Single weight n.")
@click.option("--n-range", "n_range", default=None, help="Weight range lo:hi (inclusive).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default="csv")
@click.option("--unsafe-bounds", is_flag=True, help="Count past the family's weight limit.")
@click.option("--output", type=click.Path(), default=None)
def stat(family, k, single_n, n_range, fmt, unsafe_bounds, output):
    """Tally a statistic family by residue class with the counting oracle."""
    if (single_n is None) == (n_range is None):
        raise click.UsageError("give exactly one of --n or --n-range")
    if single_n is not None:
        lo = hi = single_n
    else:
        try:
            lo, hi = map(int, n_range.split(":"))
        except ValueError:
            raise click.UsageError("--n-range must look like 0:20")
    if lo < 0 or hi < lo:
        raise click.UsageError("invalid weight range")
    try:
        require_limit(family, (family,), hi, unsafe_bounds)
    except BoundExceeded as exc:
        raise click.UsageError(f"{exc} (pass --unsafe-bounds to force)")
    # one table, built at hi, serves every n of the range
    tallies = {n: tally(family, n, k, hi) for n in range(lo, hi + 1)}
    rows = [(n, m, v) for n, values in tallies.items() for m, v in enumerate(values)]
    if fmt == "json":
        _emit(json.dumps(
            {"family": family, "k": k,
             "rows": [{"n": n, "residue": m, "value": v} for n, m, v in rows]},
            indent=2), output)
    elif fmt == "text":
        _emit("\n".join([f"{family} mod {k}"] + [
            f"n={n}: " + " ".join(map(str, values)) for n, values in tallies.items()]), output)
    else:
        _emit("n,residue,value\n" + "\n".join(f"{n},{m},{v}" for n, m, v in rows), output)


def _print_reports(result, fmt, output, report_path):
    if report_path:
        with _open(report_path) as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if fmt == "json":
        _emit(json.dumps(result.to_dict(), indent=2, sort_keys=True), output)
        return
    if fmt == "csv":
        lines = ["id,status,kind,engine,bound,ms"]
        for r in result.reports:
            lines.append(f"{r.id},{r.status},{r.kind},{r.engine},{r.bound},{r.ms:.0f}")
        _emit("\n".join(lines), output)
        return
    lines = []
    for r in result.reports:
        tag = r.status
        if r.conjecture and not r.informational:
            tag = f"CONJECTURE-{r.status}"
        if r.informational:
            tag = f"INFO-{r.status}"
        line = f"{r.id:24s} {tag:18s} bound={r.bound:<5d} {r.ms:8.0f}ms"
        if r.witness:
            line += f"  witness={r.witness}"
        if r.skip_reason or r.error:
            line += f"  ({r.skip_reason or r.error})"
        lines.append(line)
    s = result.summary()
    errors = f", {s['error']} error" if "error" in s else ""
    lines.append(
        f"-- {s['checks']} checks: {s['pass']} pass, {s['fail']} fail, "
        f"{s['skipped']} skipped{errors} (conjectures: {s['conjecture_pass']} pass, "
        f"{s['conjecture_fail']} fail)"
    )
    _emit("\n".join(lines), output)


@main.command()
@click.option("--only", default=None, help=f"Comma-separated categories ({_CATEGORIES}) or id globs.")
@click.option("--order", type=click.IntRange(min=0), default=None, help="Override every check's bound.")
@click.option("--strict-conjectures", is_flag=True, help="Conjecture failures also fail the run.")
@click.option("--unsafe-bounds", is_flag=True,
              help="Count past the weight limits; without it a check whose --order "
                   "passes its limit is SKIPPED (exit 2).")
@click.option("--seed", type=int, default=0, help="Seed for extra sampled cross-check weights.")
@click.option("--explore/--no-explore", default=True, help="Include informational residue scans.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--report", "report_path", type=click.Path(), default=None, help="Write a JSON report file.")
@click.option("--output", type=click.Path(), default=None)
def verify(only, order, strict_conjectures, unsafe_bounds, seed, explore, fmt, report_path, output):
    """Run the registered checks (all of them by default)."""
    cfg = VerifyConfig(strict_conjectures=strict_conjectures, unsafe_bounds=unsafe_bounds,
                       seed=seed, include_informational=explore)
    specs = select_specs(only, explore)
    if only and not specs:
        raise click.UsageError(
            f"--only {only!r} selects no check; give categories ({_CATEGORIES}) or id globs")
    try:
        require_order(specs, order)  # before the path probe leaves a file
        for path in filter(None, (report_path, output)):
            _open(path, "a").close()  # an unwritable path fails before any check runs
        result = run_all(order=order, config=cfg, specs=specs)
    except QcertError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _print_reports(result, fmt, output, report_path)
    sys.exit(result.exit_code)


@main.command(name="list-checks")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--output", type=click.Path(), default=None)
def list_checks(fmt, output):
    """List every registered check with its default bound."""
    specs = select_specs(None)
    if fmt == "json":
        _emit(json.dumps(
            [{"id": s.id, "category": s.category, "kind": s.kind,
              "engines": s.engines, "bound": s.bound,
              "informational": s.informational, "statement": s.statement}
             for s in specs], indent=2), output)
        return
    lines = []
    for s in specs:
        flag = " (informational)" if s.informational else ""
        lines.append(f"{s.id:24s} {s.category:12s} {s.kind:14s} bound={s.bound}{flag}")
        lines.append(f"    {s.statement}")
    _emit("\n".join(lines), output)


if __name__ == "__main__":
    main()
