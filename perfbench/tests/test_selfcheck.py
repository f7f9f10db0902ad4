"""Reduced-size self-check of every workload, its oracle and its metric output.

Run with ``python -m pytest perfbench/tests -q`` from the repository root;
it takes well under a minute, so a broken workload fails here before a
long benchmark run.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)

SCALE = 0.01


def run_reduced(name, workdir, trace, seconds=0.3):
    workload = WORKLOADS[name](7, str(workdir), scale=SCALE)
    metrics, _raw, info = harness.measure(workload, seconds, trace, [])
    return workload, metrics, info["passes"]


def test_workloads_and_metrics_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    for units, declared in (
        (harness.END_TO_END_UNITS, BENCHMARK["end_to_end"]),
        (harness.PER_LAYER_UNITS, BENCHMARK["per_layer"]),
    ):
        assert units == {metric["name"]: metric["unit"] for metric in declared}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_workload_is_correct_and_reports_every_metric(name, trace, tmp_path):
    workload, metrics, passes = run_reduced(name, tmp_path, trace)
    assert passes >= 1
    assert workload.ledger.attempted > 0
    assert workload.ledger.failed == 0, workload.ledger.problems
    assert workload.kernel in ("vector", "fused")
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {metric["name"] for metric in declared}
    assert all(math.isfinite(value) for value in metrics.values())
    if not trace:
        for metric in ("setup_s", "events_per_s", "latency_p50_us", "latency_p90_us", "recover_s"):
            assert metrics[metric] > 0, metric
    # Only the work directory is written, and the workload cleans it up.
    assert not [entry for entry in os.listdir(tmp_path) if not entry.startswith(".")]


def test_wrong_answers_count_as_failed_operations(tmp_path, monkeypatch):
    from repro.engine import StreamChecker

    doomed = StreamChecker.doomed
    monkeypatch.setattr(
        StreamChecker, "doomed", lambda self, name, object_id: not doomed(self, name, object_id)
    )
    workload, _metrics, _passes = run_reduced("guarded", tmp_path, trace=0, seconds=0.0)
    assert workload.ledger.failed > 0


def test_wrong_verdicts_count_as_failed_operations(tmp_path, monkeypatch):
    from repro.engine import HistoryCheckerEngine

    check = HistoryCheckerEngine.check_batch_all

    def flipped(self, histories, names=None, executor=None):
        verdicts = check(self, histories, names, executor)
        first = next(iter(verdicts))
        verdicts[first][0] = not verdicts[first][0]
        return verdicts

    monkeypatch.setattr(HistoryCheckerEngine, "check_batch_all", flipped)
    workload, _metrics, _passes = run_reduced("audit", tmp_path, trace=0, seconds=0.0)
    assert workload.ledger.failed > 0


def test_self_time_subtracts_child_coverage():
    tracer = Tracer("t")
    tracer.starts, tracer.ends = [0.0, 1.0, 2.0, 2.5], [10.0, 3.0, 4.0, 3.5]
    tracer.names = ["pass", "a", "b", "c"]
    tracer.parents = [-1, 0, 0, 2]
    own = tracer.self_times()
    assert own == pytest.approx([7.0, 2.0, 1.0, 1.0])
    assert tracer.totals()["pass"] == (pytest.approx(7.0), 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
