"""The benchmark (perfbench/) pins the digest of each workload's report
with its timing keys stripped.  Each workload's selection is run here in
process and hashed by the benchmark's own judge, so a change that alters
a pinned report fails the test suite, not only the benchmark."""

import json
import sys
from pathlib import Path

import pytest

from qcert.verify import VerifyConfig, run_all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    # importing run reads workloads and tracer, whose tables only are
    # read here; nothing is spawned
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("run", "workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run

    return run


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["series-nt", "forms-xcheck"])
def test_pinned_report_digest(perfbench, tmp_path, name, seed):
    workload = perfbench.WORKLOADS[name]
    config = VerifyConfig(seed=seed, include_informational=False)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(run_all(only=workload.only, config=config).to_dict()))
    failed, digest = perfbench.judge(report, workload.expected)
    assert failed == 0
    assert digest == workload.digest(seed)
