"""Tests of the benchmark harness itself (not of the checker).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spans
import summary
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTail:
    def test_p99_needs_a_thousand_samples(self):
        assert summary.tail(list(range(1000)))[0] == 99.0
        assert summary.tail(list(range(999)))[0] == 90.0

    def test_highest_supported_percentile_wins(self):
        percent, value = summary.tail(list(range(10_000)))
        assert (percent, value) == (99.9, 9989)

    def test_ten_samples_beyond_the_reported_value(self):
        values = [float(v) for v in range(1125)]
        percent, value = summary.tail(values)
        assert percent == 99.0
        assert sum(1 for v in values if v > value) >= summary.TAIL_MIN_BEYOND

    def test_too_few_samples_for_any_tail_report_the_median(self):
        assert summary.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
        assert summary.tail(list(range(99)))[0] == 50.0


class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        outer = tracer.enter("check")
        clock.now = 1.0
        inner = tracer.enter("kernel")
        clock.now = 3.0
        leaf = tracer.enter("spill")
        clock.now = 3.5
        tracer.exit(leaf)
        tracer.exit(inner)
        clock.now = 4.0
        tracer.exit(outer)
        assert tracer.self_times() == {"check": 1.5, "kernel": 2.0, "spill": 0.5}
        assert [span[3] for span in tracer.spans] == [-1, 0, 1]

    def test_generator_resumptions_are_charged_to_the_wrapped_layer(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)

        def evaluate():
            for step in range(3):
                clock.now += 1.0
                yield step

        wrapped = spans.traced(tracer, "expand", "calls", evaluate)
        with tracer.span("check"):
            items = list(wrapped())
            clock.now += 0.5
        assert items == [0, 1, 2]
        assert tracer.self_times() == {"check": 0.5, "expand": 3.0}
        assert tracer.counts["expand.calls"] == 1

    def test_coverage_is_the_share_no_root_self_time_leaves(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock)
        with tracer.span(spans.CHECK):
            with tracer.span("kernel.vector.fixpoint"):
                clock.now = 9.0
            clock.now = 10.0
        metrics = spans.layer_metrics(tracer, {}, {}, 1)
        assert metrics["kernel.vector.fixpoint.s"] == 9.0
        assert metrics["trace.coverage"] == pytest.approx(0.9)


class TestVerdict:
    BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]

    def test_same_commit_is_same(self):
        change = [value * 1.01 for value in reversed(self.BASE)]
        assert summary.verdict(self.BASE, change, "lower", 0.1) == "same"

    def test_clear_gain_is_better(self):
        change = [value * 0.7 for value in self.BASE]
        assert summary.verdict(self.BASE, change, "lower", 0.1) == "better"
        assert summary.verdict(self.BASE, change, "higher", 0.1) == "worse"

    def test_regression_beyond_the_bound_is_worse(self):
        change = [value * 1.2 for value in self.BASE]
        assert summary.verdict(self.BASE, change, "lower", 0.1) == "worse"

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        assert summary.verdict(self.BASE, noisy, "lower", 0.1) == "unresolved"

    def test_compare_pairs_runs_by_seed(self):
        base = {"w": {seed: {"m": value} for seed, value in enumerate(self.BASE)}}
        change = {"w": {seed: {"m": value * 0.7} for seed, value in enumerate(self.BASE)}}
        metric = [{"name": "m", "better": "lower", "bound": 0.1}]
        rows = compare.compare(base, change, metric)
        assert [row["verdict"] for row in rows] == ["better"]
        assert compare.compare(base, None, metric)[0]["verdict"] == "steady"


class TestTally:
    def _run(self, checks, child_failures=0):
        return {
            "reports": [{"checks": checks}],
            "traced": None,
            "child_failures": child_failures,
        }

    def test_golden_mismatch_counts_as_failed(self):
        golden = {"stab:c1:3": "aa", "stab:kstate:7-7": {"holds": True, "worst_case_steps": 55}}
        checks = [
            {"op": "stab:c1:3", "digest": "aa"},
            {"op": "stab:c1:3", "digest": "bb"},
            {"op": "stab:kstate:7-7", "holds": True, "steps": 55},
            {"op": "stab:kstate:7-7", "holds": True, "steps": 54},
            {"op": "stab:c1:4", "digest": "aa"},
            {"op": "stab:c1:3", "error": "MemoryError: "},
        ]
        assert run._tally(self._run(checks), golden) == (6, 4)

    def test_lost_children_count_as_attempted_and_failed(self):
        assert run._tally(self._run([], child_failures=2), {}) == (2, 2)


class TestHygiene:
    def test_sweep_removes_and_reports_leftovers(self, tmp_path):
        pid = 0x7FFFFFF0
        spill = tmp_path / f"repro-spill-{pid}-x1"
        spill.mkdir()
        segment = Path("/dev/shm") / f"rs-{pid:x}-1-f0"
        segment.write_bytes(b"\0")
        try:
            errors = run._sweep(pid, tmp_path)
        finally:
            segment.unlink(missing_ok=True)
        assert errors == [f"leaked {segment.name}", f"leaked {spill.name}"]
        assert not spill.exists()

    def test_timed_out_child_is_interrupted_and_cleaned(self, monkeypatch, tmp_path):
        monkeypatch.setattr(run, "GRACE_S", 10.0)
        report, errors = run._spawn(
            "mega-spill", 0, 0, 0.0, False, tmp_path, None, timeout=3.0
        )
        assert report is None
        assert errors[0] == "timed out after 3 s"
        assert not list(tmp_path.glob("repro-spill-*"))


def test_benchmark_json_follows_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.metric_names())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(run.end_to_end([{
        "setup_s": 1.0, "peak_rss_kib": 1024,
        "checks": [{"seconds": 1.0, "states": 1}],
    }]))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0.05 <= metric["bound"] <= 0.25


def test_smoke_run_prints_every_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seconds", "1",
         "--seed", "3", "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    expected = {
        f"{workload}/{name}"
        for workload in workloads.WORKLOADS for name in spans.metric_names()
    }
    assert set(result["metrics"]) == expected
    for workload in workloads.WORKLOADS:
        saved = json.loads((tmp_path / f"{workload}.seed3.trace1.json").read_text())
        assert all(value > 0 for value in saved["metrics"].values())
        assert (tmp_path / f"{workload}.seed3.spans.jsonl").stat().st_size > 0


def test_run_fails_without_the_checker_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "small-specs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
