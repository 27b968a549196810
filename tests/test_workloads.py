"""The benchmark's workloads still run on somplab and pass their own checks.

Each workload of ``perfbench/workloads.py`` checks the outputs of the
somplab calls it times and counts an operation whose check fails.  One
operation of each here catches a library change that breaks those
checks before a benchmark run does.  The perfbench modules are imported
from their directory and used as they are.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_workload_runs_an_operation_without_failures(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    assert set(WORKLOADS) == {w["name"] for w in declared}
    for name, cls in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(1, workdir, Tracer())
        workload.prepare()
        workload.run_op(0)
        assert workload.attempted > 0, name
        assert workload.failed == 0, name
