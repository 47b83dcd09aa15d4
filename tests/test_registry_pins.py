"""Pins of the whole registry, not only the benchmark's workloads: the
SHA-256 of ``list-checks --format json`` (which alone carries each
check's category) and of the full report, exploratory scans included,
with its ``ms`` keys stripped and hashed by the benchmark's own judge.
A change to how the registry is written that alters any check fails
here."""

import hashlib
import json

import pytest
from click.testing import CliRunner
from test_benchmark_reports import perfbench  # noqa: F401  (the fixture)

from qcert.cli import main
from qcert.verify import VerifyConfig, run_all

LIST_CHECKS_DIGEST = "1dcdd387bf87b76591c78446343e5757b852f4f01b35d658ce88d30618765873"
REPORT_DIGESTS = {
    0: "f1610a44967c5eca12dbf5c639d1069fd0e4e4c9742d1ed5bdb1f517d3fbfe2e",
    1: "cd701885d65055543f84f056374d8d4b1bd573d35d3c68141c59b9ce56799040",
}


def test_list_checks_digest():
    result = CliRunner().invoke(main, ["list-checks", "--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == LIST_CHECKS_DIGEST


@pytest.mark.parametrize("seed", [0, 1])
def test_full_registry_report_digest(perfbench, tmp_path, seed):  # noqa: F811
    report = tmp_path / "report.json"
    report.write_text(json.dumps(run_all(config=VerifyConfig(seed=seed)).to_dict()))
    failed, digest = perfbench.judge(report, {})
    assert failed == 0
    assert digest == REPORT_DIGESTS[seed]
