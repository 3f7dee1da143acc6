"""Chaos tests for the shared engine: faults must not leak.

The shared engine's cleanup contract is absolute: whatever fault ends
an attempt — a memory fault mid-fixpoint, or one past the interner
ceiling that only the tuple engine can recover from — the check must
still produce the byte-identical verdict **and** leave zero shm
segments and zero spill files behind.  A leaked ``/dev/shm`` segment
is RAM gone until reboot, which is why every test here sweeps the
segment directory and the run's spill parent after recovery.  The
engine decides in one process, so worker faults have no target here;
they land on the ``verify-tree`` pool (``test_chaos_recovery.py``).
"""

from __future__ import annotations

import gc

import pytest

from repro.checker import check_stabilization
from repro.kernel.shared import using_memory_budget
from repro.obs import Recorder
from repro.resilience import FaultAction, FaultPlan, using_chaos
from repro.rings import kstate_program, utr_abstraction, utr_program
from tests.integration.test_shared_differential import _shm_leaks


def _case():
    """3125 states: several core rounds and peel levels."""
    return kstate_program(5, 5), utr_program(5), utr_abstraction(5, 5)


def _baseline():
    concrete, spec, alpha = _case()
    return check_stabilization(concrete, spec, alpha, engine="vector")


def _chaotic_shared(tmp_path, recorder, workers=4):
    concrete, spec, alpha = _case()
    with using_memory_budget("1M", spill_dir=str(tmp_path)):
        return check_stabilization(
            concrete, spec, alpha, engine="shared", workers=workers,
            instrumentation=recorder,
        )


class TestChainPreflight:
    def test_fault_past_the_interner_ceiling_degrades_to_tuple(
        self, tmp_path, monkeypatch
    ):
        """Past the interner ceiling only shared and tuple can decide:
        a runtime fault in shared must restart on tuple, not crash
        building a vector kernel that cannot intern the space."""
        import repro.kernel.interner as interner

        concrete, spec, alpha = _case()
        baseline = check_stabilization(concrete, spec, alpha, engine="tuple")
        monkeypatch.setattr(interner, "MAX_PACKED_STATES", 1000)
        plan = FaultPlan(
            faults=(
                FaultAction(kind="raise-memory", engine="shared", at_states=1),
            )
        )
        recorder = Recorder(kind="test")
        with using_chaos(plan), using_memory_budget(
            "1M", spill_dir=str(tmp_path)
        ):
            result = check_stabilization(
                concrete, spec, alpha, engine="shared",
                instrumentation=recorder,
            )
        assert result.format() == baseline.format()
        assert result.engine == "tuple"
        record = recorder.record()
        assert record.counters["engine.shared"] == 1
        assert record.counters["engine.fallback.tuple"] == 1
        assert record.counters["resilience.engine.fallback"] == 1
        runtime = [
            event.fields for event in record.events
            if event.name == "engine.fallback"
        ]
        assert len(runtime) == 1
        assert runtime[0]["requested"] == "shared"
        assert runtime[0]["during"] == "runtime"
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []


class TestEngineFaultLeaksNothing:
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    @pytest.mark.parametrize("at_states", [1, 3125, 6250])
    def test_memory_fault_mid_fixpoint_closes_every_segment(
        self, tmp_path, at_states
    ):
        """A ``MemoryError`` inside a shared fixpoint must not leave a
        segment, a spill file or a finalizer error behind once the
        fault's traceback is collected; the check replays on vector."""
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="raise-memory", engine="shared", at_states=at_states
                ),
            )
        )
        recorder = Recorder(kind="test")
        with using_chaos(plan):
            result = _chaotic_shared(tmp_path, recorder)
        gc.collect()
        assert result.format() == _baseline().format()
        assert result.engine == "vector"
        assert recorder.record().counters["resilience.engine.fallback"] == 1
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []
