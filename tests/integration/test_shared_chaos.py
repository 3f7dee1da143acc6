"""Fault tests for the shared engine: faults must not leak.

The shared engine's cleanup contract is absolute: whatever fault ends
an attempt — a failed spill write the next engine recovers from, one
past the interner ceiling that only the tuple engine can recover from,
or a ``MemoryError`` that ends the check — the run must leave zero shm
segments and zero spill files behind, and a recovered check must
produce the byte-identical verdict.  A leaked ``/dev/shm`` segment is
RAM gone until reboot, which is why every test here sweeps the segment
directory and the run's spill parent afterwards.  The faults are
injected where the real ones are raised: at the spill write.  The
engine decides in one process, so worker faults have no target here;
they land on the ``verify-tree`` pool (``test_chaos_recovery.py``).
"""

from __future__ import annotations

import gc

import pytest

from repro.checker import check_stabilization
from repro.kernel.shared import spill, using_memory_budget
from repro.obs import Recorder
from repro.resilience import EngineFault
from repro.rings import kstate_program, utr_abstraction, utr_program
from tests.integration.test_shared_differential import _shm_leaks


def _case():
    """59,049 states: under a 64K budget the peel spills eight runs."""
    return kstate_program(5, 9), utr_program(5), utr_abstraction(5, 9)


def _baseline():
    concrete, spec, alpha = _case()
    return check_stabilization(concrete, spec, alpha, engine="vector")


def _fail_spill_write(monkeypatch, fault, at_write):
    """Make the ``at_write``-th spill write (from 1) raise ``fault``.

    Returns the list of attempted writes, so a test can assert the
    fault was reached.
    """
    real = spill._write_file
    writes = []

    def write(path, payload):
        writes.append(path)
        if len(writes) == at_write:
            raise fault
        real(path, payload)

    monkeypatch.setattr(spill, "_write_file", write)
    return writes


def _shared(tmp_path, recorder, workers=4):
    concrete, spec, alpha = _case()
    with using_memory_budget("64K", spill_dir=str(tmp_path)):
        return check_stabilization(
            concrete, spec, alpha, engine="shared", workers=workers,
            instrumentation=recorder,
        )


#: The first, a middle and the last of the case's eight spill writes.
INJECTION_POINTS = [1, 4, 8]


class TestChainPreflight:
    def test_fault_past_the_interner_ceiling_degrades_to_tuple(
        self, tmp_path, monkeypatch
    ):
        """Past the interner ceiling only shared and tuple can decide:
        a runtime fault in shared must restart on tuple, not crash
        building a vector kernel that cannot intern the space.
        K-state(3,33) spills, and the tuple engine decides its 35,937
        states in under a second."""
        import repro.kernel.interner as interner

        args = kstate_program(3, 33), utr_program(3), utr_abstraction(3, 33)
        baseline = check_stabilization(*args, engine="vector")
        monkeypatch.setattr(interner, "MAX_PACKED_STATES", 1000)
        writes = _fail_spill_write(monkeypatch, EngineFault("disk full"), 1)
        recorder = Recorder(kind="test")
        with using_memory_budget("64K", spill_dir=str(tmp_path)):
            result = check_stabilization(
                *args, engine="shared", instrumentation=recorder,
            )
        assert len(writes) == 1
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
    @pytest.mark.parametrize("at_write", INJECTION_POINTS)
    def test_spill_fault_mid_fixpoint_closes_every_segment(
        self, tmp_path, monkeypatch, at_write
    ):
        """A failed spill write inside a shared fixpoint must not leave
        a segment, a spill file or a finalizer error behind once the
        fault's traceback is collected; the check replays on vector."""
        _fail_spill_write(monkeypatch, EngineFault("disk full"), at_write)
        recorder = Recorder(kind="test")
        result = _shared(tmp_path, recorder)
        gc.collect()
        assert result.format() == _baseline().format()
        assert result.engine == "vector"
        assert recorder.record().counters["resilience.engine.fallback"] == 1
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning"
    )
    @pytest.mark.parametrize("at_write", INJECTION_POINTS)
    def test_memory_fault_mid_fixpoint_closes_every_segment(
        self, tmp_path, monkeypatch, at_write
    ):
        """A ``MemoryError`` inside a shared fixpoint ends the check
        with one ``engine.out_of_memory`` event, and still leaves no
        segment, spill file or finalizer error behind."""
        _fail_spill_write(monkeypatch, MemoryError("no room"), at_write)
        recorder = Recorder(kind="test")
        with pytest.raises(MemoryError, match="the shared engine ran out"):
            _shared(tmp_path, recorder)
        gc.collect()
        record = recorder.record()
        assert "resilience.engine.fallback" not in record.counters
        exhausted = [
            event.fields for event in record.events
            if event.name == "engine.out_of_memory"
        ]
        assert len(exhausted) == 1
        assert exhausted[0]["engine"] == "shared"
        assert exhausted[0]["reason"] == "no room"
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []
