"""Telemetry inertness and cross-process aggregation, ring-wide.

Two invariants pin the observability layer down:

* **Inertness** — recording must never perturb a verdict.  For every
  ring verification of the reproduction, on all three engines, at
  every worker count, the formatted verdict (holds/fails, witness
  states, counts) with a full :class:`~repro.obs.Recorder` attached
  must be byte-identical to the ``NULL_INSTRUMENTATION`` run.
* **Aggregation correctness** — worker processes report through their
  own recorders; the driver folds those records back in.  The folded
  totals must be consistent with what the driver itself counted
  (every batch the pool dispatched was executed by exactly one
  worker), and merged records must carry the workers' spans.  The
  pool observed here is ``verify-tree``'s, which runs one check of
  the shipped example specs per worker task.
"""

from __future__ import annotations

import io
import pathlib

import pytest

from repro.checker import check_convergence_refinement, check_stabilization
from repro.obs import NULL_INSTRUMENTATION, Recorder
from repro.parallel import parallel_available
from repro.rings import btr3_abstraction, btr_program, dijkstra_three_state
from repro.verify_tree import verify_tree
from tests.integration.test_packed_differential import RING_CASES

SPECS_DIR = pathlib.Path(__file__).parents[2] / "examples" / "specs"

ENGINES = ("tuple", "packed", "vector")

WORKER_COUNTS = [1, 4] if parallel_available() else [1]


class TestTelemetryInertness:
    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_recording_never_changes_the_verdict(
        self, name, concrete, spec, alpha, fairness, stutter, engine, workers
    ):
        kwargs = dict(
            alpha=alpha(),
            fairness=fairness,
            stutter_insensitive=stutter,
            engine=engine,
            workers=workers,
        )
        plain = check_stabilization(
            concrete(), spec(), instrumentation=NULL_INSTRUMENTATION, **kwargs
        )
        recorded = check_stabilization(
            concrete(), spec(), instrumentation=Recorder(), **kwargs
        )
        assert plain.format() == recorded.format()
        assert plain.holds == recorded.holds
        assert plain.core == recorded.core
        assert plain.legitimate_abstract == recorded.legitimate_abstract

    @pytest.mark.parametrize("engine", ENGINES)
    def test_refinement_witness_identical_under_recording(self, engine):
        concrete = dijkstra_three_state(4)
        spec = btr_program(4)
        alpha = btr3_abstraction(4)
        plain = check_convergence_refinement(
            concrete, spec, alpha, engine=engine
        )
        recorded = check_convergence_refinement(
            concrete, spec, alpha, engine=engine, instrumentation=Recorder()
        )
        assert not plain.holds
        assert plain.format() == recorded.format()
        assert plain.witness.states == recorded.witness.states


class TestWitnessSpan:
    """Every cycle-witness construction runs under one ``check.witness``
    span, opened by the decision skeleton on every engine."""

    #: Failing case -> the span the witness span nests in.
    PARENTS = {
        "kstate-n4-k2-refuted": "check.total",
        "spin-fair-trap": "check.total",
        "hidden-invisible-cycle": "check.invisible_cycles",
        "btr-n4-control": None,  # a deadlock witness: nothing to build
        "dijkstra4-n3": None,  # holds
    }

    @staticmethod
    def _check_spans(name: str, engine: str) -> list:
        _, concrete, spec, alpha, fairness, stutter = next(
            case for case in RING_CASES if case[0] == name
        )
        recorder = Recorder()
        check_stabilization(
            concrete(), spec(), alpha=alpha(), fairness=fairness,
            stutter_insensitive=stutter, engine=engine,
            instrumentation=recorder,
        )
        tree = recorder.record().tree

        def checker_parent(node):
            # Engines may open their own spans in between (the shared
            # engine's ``shm.runtime``); skip to the checker's.
            while node.parent >= 0:
                node = tree[node.parent]
                if node.name.startswith("check."):
                    return node.name
            return None

        return [
            (node.name, checker_parent(node))
            for node in tree
            if node.name.startswith("check.")
        ]

    @pytest.mark.parametrize("name", sorted(PARENTS))
    @pytest.mark.parametrize("engine", ENGINES + ("shared",))
    def test_witness_span_wraps_each_cycle_witness(self, name, engine):
        witness_spans = [
            parent
            for span, parent in self._check_spans(name, engine)
            if span == "check.witness"
        ]
        expected = self.PARENTS[name]
        assert witness_spans == ([] if expected is None else [expected])

    @pytest.mark.parametrize("name", sorted(PARENTS))
    def test_checker_span_tree_is_engine_identical(self, name):
        reference = self._check_spans(name, "tuple")
        for engine in ("packed", "vector", "shared"):
            assert self._check_spans(name, engine) == reference, engine


@pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)
class TestWorkerAggregation:
    def _recorded_check(self, engine: str, workers: int) -> Recorder:
        recorder = Recorder(kind="check")
        check_stabilization(
            dijkstra_three_state(4),
            btr_program(4),
            btr3_abstraction(4),
            engine=engine,
            workers=workers,
            instrumentation=recorder,
        )
        return recorder

    @staticmethod
    def _recorded_tree(state_dir, engine: str, workers: int) -> Recorder:
        """``verify-tree`` over the example specs, recorded."""
        recorder = Recorder(kind="verify-tree")
        verify_tree(
            str(SPECS_DIR),
            cache_dir=str(state_dir),
            engine=engine,
            workers=workers,
            instrumentation=recorder,
            out=io.StringIO(),
            err=io.StringIO(),
        )
        return recorder

    @pytest.mark.parametrize("engine", ["tuple", "packed"])
    def test_worker_batches_match_driver_dispatch(self, engine, tmp_path):
        recorder = self._recorded_tree(tmp_path, engine, workers=2)
        counters = recorder.counters
        # Every batch the driver dispatched ran in exactly one worker
        # and reported back, so the worker-side tally equals the
        # driver-side one after absorption.
        assert counters["parallel.worker.batches"] == counters[
            "parallel.batches"
        ]
        assert counters["parallel.workers"] == 2
        assert counters["parallel.worker.batches"] == counters[
            "verify.verified"
        ] > 0

    @pytest.mark.parametrize("engine", ["tuple", "packed"])
    def test_worker_spans_survive_into_the_parent_record(
        self, engine, tmp_path
    ):
        recorder = self._recorded_tree(tmp_path, engine, workers=2)
        record = recorder.record()
        # Each worker's check opened its own ``check.total`` span.
        assert record.spans["check.total"].calls == record.counters[
            "verify.verified"
        ]
        worker_nodes = [
            node for node in record.tree if node.name == "check.total"
        ]
        assert worker_nodes
        # Worker subtrees fold in as roots of the parent tree.
        assert all(node.parent == -1 for node in worker_nodes)
        assert all(node.seconds >= 0.0 for node in worker_nodes)

    #: Counter families whose totals must not depend on worker count.
    SHARED_COUNTERS = (
        "check.states.enumerated",
        "check.candidates.initial",
        "check.legitimate.size",
        "check.core.size",
        "check.outside.size",
        "check.states.evicted",
    )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counter_totals_match_single_worker_run(self, engine):
        # Merged multi-process totals must equal what the same check
        # reports in-process: the work is partitioned, not repeated.
        sequential = self._recorded_check(engine, workers=1).counters
        merged = self._recorded_check(engine, workers=4).counters
        for counter in self.SHARED_COUNTERS:
            assert sequential.get(counter) == merged.get(counter), counter
        engine_counters = {
            name
            for source in (sequential, merged)
            for name in source
            if name.startswith("engine.")
        }
        for counter in engine_counters:
            assert sequential.get(counter) == merged.get(counter), counter

    def test_worker_counter_totals_independent_of_worker_count(
        self, tmp_path
    ):
        # The same batches run no matter how many processes share
        # them, so absorbed worker tallies must not drift with N.
        at_two = self._recorded_tree(
            tmp_path / "two", "packed", workers=2
        ).counters
        at_four = self._recorded_tree(
            tmp_path / "four", "packed", workers=4
        ).counters
        for counter in (
            "parallel.worker.batches",
            "check.states.enumerated",
            "check.states.evicted",
        ):
            assert at_two[counter] == at_four[counter], counter

    def test_progress_heartbeats_recorded(self):
        recorder = self._recorded_check("packed", workers=2)
        record = recorder.record()
        heartbeats = [
            event
            for event in record.events
            if event.name.startswith("progress.")
        ]
        assert heartbeats
        for event in heartbeats:
            assert set(event.fields) == {
                "round",
                "frontier",
                "states",
                "states_per_sec",
                "rss_kib",
            }
        assert record.gauges["proc.rss.kib"].value > 0
