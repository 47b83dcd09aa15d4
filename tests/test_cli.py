"""Command-line surface: expansion, stats, verification, reports."""

import json
import shlex
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from bruteforce import series_from_json
from qcert.cli import main
from qcert.genfun import form_ids
from qcert.verify import _XCHECKS


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_expand_overpartition_gf():
    res = run("expand", "--form", "overpartition-gf", "--order", "4")
    assert res.exit_code == 0
    assert res.output.strip() == "1 + 2*q + 4*q^2 + 8*q^3 + 14*q^4 + O(q^5)"


def test_expand_crank_rank_product_constant():
    res = run("expand", "--form", "eta5-crank-rank-5n4-rhs", "--order", "0")
    assert res.exit_code == 0
    assert res.output.strip().startswith("-5")


def test_expand_unknown_form_errors():
    res = run("expand", "--form", "nope", "--order", "3")
    assert res.exit_code == 2 and "partition-gf" in res.output
    res = run("expand", "--help")
    assert res.exit_code == 0
    assert max(map(len, res.output.splitlines())) <= 100
    listed = res.output.split("Forms:")[1].replace(",", " ").split()
    assert listed == form_ids()


def test_expand_json_round_trips():
    res = run("expand", "--form", "partition-gf", "--order", "8", "--format", "json")
    assert res.exit_code == 0
    series = series_from_json(json.loads(res.output))
    assert [int(c) for c in series.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_expand_mod_view_matches_exact():
    exact = run("expand", "--form", "partition-gf", "--order", "10", "--format", "csv")
    mod = run("expand", "--form", "partition-gf", "--order", "10", "--mod", "5", "--format", "csv")
    assert exact.exit_code == 0 and mod.exit_code == 0
    exact_rows = dict(
        line.split(",") for line in exact.output.strip().splitlines()[1:]
    )
    mod_rows = dict(line.split(",") for line in mod.output.strip().splitlines()[1:])
    for i in range(11):
        want = int(exact_rows.get(str(i), "0")) % 5
        assert int(mod_rows[str(i)]) == want


def test_expand_unit_coefficients_print_as_signs():
    # +-1 next to a power prints as a bare sign, in the exact and the --mod view
    args = ("expand", "--form", "mod3-kernel-bilateral", "--order", "10")
    assert run(*args).output.strip() == "-q^2 - q^3 + q^5 + 2*q^6 - q^9 + O(q^11)"
    assert run(*args, "--mod", "3").output.strip() == (
        "2*q^2 + 2*q^3 + q^5 + 2*q^6 + 2*q^9 + O(q^11)  (mod 3)"
    )


def test_expand_rejects_nonpositive_modulus():
    # --mod 0 used to crash with ZeroDivisionError and exit 1, the code of
    # a failed check; --mod -3 printed "residues" in (-3, 0]
    for p in ("0", "-3"):
        res = run("expand", "--form", "partition-gf", "--order", "5", "--mod", p)
        # a usage error exits through SystemExit; a crash leaves its exception
        assert res.exit_code == 2 and isinstance(res.exception, SystemExit), p
        assert "x>=1" in res.output, p


def test_stat_zero_row():
    res = run("stat", "--family", "NT", "--k", "5", "--n", "0")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,residue,value"
    assert [l.split(",")[2] for l in lines[1:]] == ["0"] * 5


def test_stat_theorem_row_combination():
    res = run("stat", "--family", "NTbar2", "--k", "5", "--n", "2", "--format", "json")
    rows = {r["residue"]: r["value"] for r in json.loads(res.output)["rows"]}
    assert (rows[1] - rows[4] + 2 * rows[2] - 2 * rows[3]) % 5 == 0


def test_stat_momega_relation_row():
    res = run("stat", "--family", "Momega", "--k", "5", "--n", "4", "--format", "json")
    rows = {r["residue"]: r["value"] for r in json.loads(res.output)["rows"]}
    assert rows[1] - rows[4] == 2 * rows[3] - 2 * rows[2]


def test_stat_range_and_bounds():
    res = run("stat", "--family", "NT", "--k", "3", "--n-range", "0:6")
    assert res.exit_code == 0
    assert len(res.output.strip().splitlines()) == 1 + 7 * 3
    res = run("stat", "--family", "NTpair", "--k", "3", "--n", "70")
    assert res.exit_code != 0  # beyond the pair enumeration bound
    res = run("stat", "--family", "NTpair", "--k", "3", "--n", "25")
    assert res.exit_code == 2 and "--unsafe-bounds" in res.output
    assert "limit is 24" in res.output
    res = run("stat", "--family", "NTpair", "--k", "3", "--n", "25", "--unsafe-bounds")
    assert res.exit_code == 0 and len(res.output.strip().splitlines()) == 1 + 3
    res = run("stat", "--family", "NT", "--k", "0", "--n", "3")
    assert res.exit_code == 2 and "x>=1" in res.output


@pytest.mark.parametrize("family,upto", [("NT", 16), ("Momega", 16), ("NTpair", 10)])
def test_stat_range_reads_one_table_built_at_its_end(family, upto, monkeypatch):
    # the CSV holds each weight's per-n counts by residue, as one sweep per
    # n gave them, and the whole range is read from one table built at upto
    import bruteforce as bf
    from qcert import combinatorics as C

    per_n = {"NT": lambda n: bf.tabulate_at(C._dyson_kinds, n)[1],
             "Momega": lambda n: bf.crank_at(C._crank_kinds, n)[1],
             "NTpair": lambda n: bf.tabulate_at(C._pair_kinds, n)[1]}[family]
    builds = []
    real = C._tabulate
    monkeypatch.setattr(C, "_tabulate", lambda kinds, N: builds.append(N) or real(kinds, N))
    C.clear_caches()
    res = run("stat", "--family", family, "--k", "5", "--n-range", f"3:{upto}")
    assert res.exit_code == 0, res.output
    rows = []
    for n in range(3, upto + 1):
        residues = [0] * 5
        for value, weight in per_n(n).items():
            residues[value % 5] += weight
        rows += [f"{n},{m},{v}" for m, v in enumerate(residues)]
    assert res.output == "\n".join(["n,residue,value"] + rows) + "\n"
    # one table: the crank's takes one pass per ones count, the others one
    assert max(builds) == upto and C._table.cache_info().currsize == 1
    assert len(builds) == (upto + 1 if family == "Momega" else 1)
    text = run("stat", "--family", family, "--k", "5", "--n-range", f"3:{upto}", "--format", "text")
    lines = text.output.splitlines()
    assert lines[0] == f"{family} mod 5" and len(lines) == upto - 1
    assert lines[1] == "n=3: " + " ".join(r.split(",")[2] for r in rows[:5])
    C.clear_caches()


def test_verify_single_check_and_report(tmp_path):
    report = tmp_path / "report.json"
    res = run(
        "verify", "--only", "ID-KERNEL3-BILAT", "--order", "40",
        "--report", str(report),
    )
    assert res.exit_code == 0
    payload = json.loads(report.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["checks"][0]["id"] == "ID-KERNEL3-BILAT"
    assert payload["checks"][0]["status"] == "PASS"


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("args", [
    ("verify", "--only", "ID-KERNEL3-BILAT", "--report"),
    ("verify", "--only", "ID-KERNEL3-BILAT", "--output"),
    ("expand", "--form", "partition-gf", "--order", "5", "--output"),
    ("stat", "--family", "NT", "--k", "5", "--n", "3", "--output"),
])
def test_unwritable_path_is_usage_error(tmp_path, monkeypatch, args, where):
    # exit 2 with one line naming the path, no traceback, and verify
    # finds the path before it runs any check
    from qcert import verify as V

    path = str(tmp_path if where == "directory" else tmp_path / "missing" / "out.txt")
    monkeypatch.setattr(V, "run_check", lambda *a, **k: pytest.fail("a check ran"))
    res = run(*args, path)
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert f"Error: cannot write {path}: " in res.output
    assert "Traceback" not in res.output


def test_verify_insufficient_order_is_error():
    res = run("verify", "--only", "T1", "--order", "3")
    assert res.exit_code == 2
    assert "InsufficientOrder" in res.output or "progression" in res.output


def test_verify_too_small_order_stops_before_any_check(tmp_path, monkeypatch):
    # every selected check is held to the order before the first one runs
    # and before the report path is probed
    from qcert import verify as V

    ran, real = [], V.run_check
    monkeypatch.setattr(V, "run_check", lambda spec, *a, **k: ran.append(spec.id) or real(spec, *a, **k))
    report = tmp_path / "R"
    res = run("verify", "--order", "11", "--report", str(report))
    assert res.exit_code == 2
    assert "NT7-I5: order 11 cannot sample the progression 7n+5 at least twice" in res.output
    assert ran == [] and not report.exists()


def test_verify_json_output():
    res = run("verify", "--only", "ID-NTDIFF-OVM2-1-5", "--order", "30", "--format", "json")
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["summary"]["pass"] == 1


def test_verify_seed_changes_only_samples():
    res = run("verify", "--only", "X-PAIR", "--order", "6", "--seed", "3")
    assert res.exit_code == 0 and "PASS" in res.output


def test_verify_usage_errors_certify_nothing():
    # an empty selection or a negative order is a usage error (exit 2),
    # never an empty PASS run nor a check reported as an engine ERROR
    res = run("verify", "--only", "nonsense")
    assert res.exit_code == 2
    assert "selects no check" in res.output and "theorems, classic" in res.output
    for args in (("verify", "--only", "T1,NT5-I1", "--order", "-1"),
                 ("verify", "--only", "X-RANK-PART", "--order", "-1")):
        res = run(*args)
        assert res.exit_code == 2 and "ERROR" not in res.output, args
        assert "x>=0" in res.output, args
    res = run("verify", "--only", "X-RANK-PART", "--order", "0")
    assert res.exit_code == 0 and "PASS" in res.output


def test_only_help_names_every_category():
    # each registry category is named, as --only spells it, in the option's
    # help and in the usage error of an empty selection, and selects itself
    from qcert.verify import _FILTER_ALIASES, registry, select_specs

    spelled = {cat: tok for tok, cat in _FILTER_ALIASES.items()}
    help_text = " ".join(run("verify", "--help").output.split())
    error = run("verify", "--only", "exploratory", "--no-explore")
    assert error.exit_code == 2 and "selects no check" in error.output
    for cat in {s.category for s in registry()}:
        token = spelled.get(cat, cat)
        assert token in help_text and token in error.output, token
        assert select_specs(token) == [s for s in registry() if s.category == cat], token
    assert len(select_specs("exploratory")) == 15


def test_crosscheck_dyson():
    # the cross-checks run through verify alone: the crosscheck command
    # and the "crosschecks" alias are gone
    res = run("crosscheck", "--family", "dyson")
    assert res.exit_code == 2 and "No such command" in res.output
    res = run("--help")
    assert res.exit_code == 0
    listed = [line.split()[0] for line in res.output.split("Commands:")[1].splitlines() if line.strip()]
    assert listed == ["expand", "list-checks", "stat", "verify"]
    res = run("verify", "--only", "crosschecks")
    assert res.exit_code == 2 and "selects no check" in res.output


def test_crosscheck_skip_is_error():
    # past its enumeration limit the one check is SKIPPED and compares
    # nothing, which must not read as success; the reason keeps the
    # limit, and --unsafe-bounds lifts it
    res = run("verify", "--only", "X-PAIR", "--order", "25")
    assert res.exit_code == 2 and "SKIPPED" in res.output
    assert "limit is 24" in res.output
    res = run("verify", "--only", "X-PAIR", "--order", "25", "--unsafe-bounds")
    assert res.exit_code == 0 and "PASS" in res.output


# statistic family -> its X-check, one per _XCHECKS row
XCHECK_IDS = {
    "dyson": "X-RANK-PART",
    "ov-rank": "X-RANK-OV",
    "ov-m2": "X-M2-OV",
    "do-m2": "X-M2-DO",
    "pair": "X-PAIR",
}


@pytest.mark.parametrize("family", list(XCHECK_IDS))
def test_crosscheck_runs_its_xcheck(family):
    assert [x.id for x in _XCHECKS] == list(XCHECK_IDS.values())
    res = run("verify", "--only", XCHECK_IDS[family], "--format", "json")
    assert res.exit_code == 0
    got = json.loads(res.output)
    assert [(c["id"], c["status"]) for c in got["checks"]] == [(XCHECK_IDS[family], "PASS")]
    assert got["summary"]["checks"] == got["summary"]["pass"] == 1


def test_list_checks():
    res = run("list-checks")
    assert res.exit_code == 0
    assert "T1" in res.output and "X-PAIR" in res.output
    res = run("list-checks", "--format", "json")
    ids = {c["id"] for c in json.loads(res.output)}
    assert {"T1", "T2A", "T2B", "T3"} <= ids


def test_verify_engine_error_shows_in_text_and_csv(monkeypatch):
    from qcert import verify as V

    def broken(terms, order):
        raise AssertionError("boom")

    monkeypatch.setattr(V, "nt_diff_combo", broken)
    res = run("verify", "--only", "NT5-I1", "--order", "30", "--format", "csv")
    assert res.exit_code == 2
    assert "NT5-I1,ERROR," in res.output
    res = run("verify", "--only", "NT5-I1", "--order", "30")
    assert res.exit_code == 2
    assert "ERROR" in res.output and "AssertionError: boom" in res.output
    assert "1 error" in res.output


def test_readme_command_lines_parse():
    # every `qcert ...` line of README's "Command line" block must parse;
    # nothing runs, and --help counts as a clean exit
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#")[0].strip() for line in block.splitlines()
             if line.startswith("qcert ")]
    assert len(lines) >= 5
    for line in lines:
        args = shlex.split(line)[1:]
        try:
            with main.make_context("qcert", list(args)) as ctx:
                cmd = main.get_command(ctx, args[0])
                assert cmd is not None, line
                cmd.make_context(args[0], args[1:], parent=ctx)
        except click.exceptions.Exit as exc:
            assert exc.exit_code == 0, line
        except click.UsageError as exc:
            pytest.fail(f"{line}: {exc.format_message()}")


def test_verify_selects_the_registry_once(monkeypatch):
    # the command selects the checks and hands them to run_all as they are
    from qcert import cli, verify

    calls = []
    real = verify.select_specs

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "select_specs", spy)
    monkeypatch.setattr(verify, "select_specs", spy)
    res = run("verify", "--only", "ID-KERNEL3-*", "--order", "30", "--format", "csv")
    assert res.exit_code == 0 and len(res.output.splitlines()) == 3
    assert calls == [("ID-KERNEL3-*", True)]
