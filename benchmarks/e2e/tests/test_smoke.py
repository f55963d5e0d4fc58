"""Smoke test of the benchmark itself (outside tier-1's ``testpaths``):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/tests

One ``--quick --trace 1`` pass over all four workloads must finish inside
a minute, report exactly the metrics ``BENCHMARK.json`` declares, account
for the walls it attributes, and compare clean against itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.e2e import compare

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Where each parts-sum-to-the-whole ratio is measured.
STAGE_SUMS = {
    "index.builder.stage_sum_over_wall": "build_lake",
    "serve_cold.stage_sum_over_wall": "serve_cold",
    "watch.service.refresh.stage_sum_over_wall": "watch_refresh",
}


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
         "--quick", "--trace", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    return out, json.loads(out.read_text(encoding="utf-8"))["runs"], elapsed


def test_quick_pass_fits_a_minute(quick_results):
    _, _, elapsed = quick_results
    assert elapsed < 60, f"--quick --trace 1 took {elapsed:.1f} s"


def test_declared_names_and_counts():
    workloads = [w["name"] for w in SPEC["workloads"]]
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert len(workloads) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in end_to_end
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_declared_metric_once_per_workload(quick_results):
    _, runs, _ = quick_results
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            records = [r for r in runs if r["workload"] == workload and r["trace"] == trace]
            assert len(records) == 1, (workload, trace)
            record = records[0]
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            assert list(record["metrics"]) == [m["name"] for m in declared]
            for metric in declared:
                reported = record["metrics"][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], (int, float))
                if not trace:
                    assert reported["value"] > 0, (workload, metric["name"])


def test_stages_sum_to_their_wall(quick_results):
    # The design target is [0.9, 1.1]; one reading compares two passes
    # seconds apart on a shared box, which alone differ by up to 12%.
    _, runs, _ = quick_results
    for name, workload in STAGE_SUMS.items():
        (record,) = [r for r in runs if r["workload"] == workload and r["trace"] == 1]
        assert 0.85 <= record["metrics"][name]["value"] <= 1.15, (name, record["metrics"][name])


def test_spans_written_beside_the_records(quick_results):
    out, _, _ = quick_results
    for workload in (w["name"] for w in SPEC["workloads"]):
        spans = json.loads((out.parent / f"trace-{workload}.json").read_text())["spans"]
        assert spans and {"name", "workload", "start", "end", "parent"} <= set(spans[0])


def test_compare_with_itself_is_all_ok(quick_results, capsys):
    out, _, _ = quick_results
    assert compare.compare(str(out), str(out)) == 0
    verdicts = capsys.readouterr().out
    assert "regressed" not in verdicts and "unresolved" not in verdicts
