"""Unit tests for the worker-pool substrate of :mod:`repro.parallel`.

The invariants under test: worker-count resolution degrades to
sequential exactly where fork-based pools cannot run, the pool stages
its context for forked workers and restores it afterwards, and an
observed map accounts for every batch on both sides of the fork.
"""

from __future__ import annotations

import pytest

from repro.obs import Recorder
from repro.parallel.pool import (
    WorkerPool,
    parallel_available,
    resolve_workers,
)


class TestResolveWorkers:
    def test_one_stays_one(self):
        assert resolve_workers(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_passthrough_where_fork_exists(self):
        if parallel_available():
            assert resolve_workers(3) == 3
        else:
            assert resolve_workers(3) == 1

    def test_daemonic_processes_degrade_to_sequential(self, monkeypatch):
        """A pool worker may not fork a nested pool; inside one the
        request must quietly degrade to the sequential path."""
        import multiprocessing

        class FakeProcess:
            daemon = True

        monkeypatch.setattr(
            multiprocessing, "current_process", lambda: FakeProcess()
        )
        assert resolve_workers(4) == 1


@pytest.mark.skipif(not parallel_available(), reason="no fork start method")
class TestWorkerPool:
    def test_requires_two_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(1)

    def test_map_runs_tasks_and_restores_context(self):
        from repro.parallel.pool import worker_context

        worker_context()["sentinel"] = "outer"
        with WorkerPool(2, offset=10) as pool:
            results = pool.map(_add_context_offset, [1, 2, 3])
        assert results == [11, 12, 13]
        assert worker_context().get("sentinel") == "outer"
        worker_context().clear()

    def test_map_outside_context_raises(self):
        pool = WorkerPool(2)
        with pytest.raises(RuntimeError):
            pool.map(_add_context_offset, [1])

    def test_closures_ride_into_workers_via_fork(self):
        """The whole point of the fork-based design: an unpicklable
        closure in the context is usable by worker tasks."""
        secret = {"delta": 5}
        with WorkerPool(2, fn=lambda x: x + secret["delta"]) as pool:
            assert pool.map(_apply_context_fn, [1, 2]) == [6, 7]

    def test_map_observed_counts_each_batch_on_both_sides(self):
        """The driver counts what it dispatched; every absorbed worker
        record counts the batch it ran — the two tallies agree."""
        recorder = Recorder(kind="test")
        with WorkerPool(2, offset=10) as pool:
            results = pool.map_observed(
                _add_context_offset, [1, 2, 3], recorder
            )
        assert results == [11, 12, 13]
        counters = recorder.record().counters
        assert counters["parallel.batches"] == 3
        assert counters["parallel.worker.batches"] == 3


def _add_context_offset(value):
    from repro.parallel.pool import worker_context

    return value + worker_context()["offset"]


def _apply_context_fn(value):
    from repro.parallel.pool import worker_context

    return worker_context()["fn"](value)
