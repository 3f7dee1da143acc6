"""Chaos tests for the shared-memory engine: faults must not leak.

The shared engine's cleanup contract is absolute: whatever happens to
its workers — a SIGKILL mid-shard, a supervisor-timeout reap, a task
quarantined onto the driver — the run must still produce the
byte-identical verdict **and** leave zero shm segments and zero spill
files behind.  A leaked ``/dev/shm`` segment is RAM gone until reboot,
which is why every test here sweeps the segment directory and the
run's spill parent after recovery.
"""

from __future__ import annotations

import gc
import os

import pytest

from repro.checker import check_stabilization
from repro.kernel.shared import using_memory_budget
from repro.kernel.shared.segments import shm_dir
from repro.kernel.vector import numpy_available
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.resilience import (
    FaultAction,
    FaultPlan,
    SupervisionPolicy,
    using_chaos,
    using_policy,
)
from repro.rings import kstate_program, utr_abstraction, utr_program

pytestmark = [
    pytest.mark.skipif(
        not parallel_available(), reason="no fork start method"
    ),
    pytest.mark.skipif(
        not numpy_available(), reason="the shared engine needs NumPy"
    ),
]

#: Fast retry schedule so injected faults do not slow the suite.
FAST = SupervisionPolicy(backoff_base=0.001, backoff_cap=0.005)


def _shm_leaks() -> list:
    # Segments owned by this process or by a dead driver are leaks; a
    # live concurrent run (xdist, a benchmark) owns its own segments.
    directory = shm_dir()
    if directory is None:
        return []
    leaks = []
    for name in os.listdir(directory):
        if not name.startswith("rs-"):
            continue
        try:
            owner = int(name.split("-")[1], 16)
        except (IndexError, ValueError):
            leaks.append(name)
            continue
        if owner == os.getpid():
            leaks.append(name)
            continue
        try:
            os.kill(owner, 0)
        except ProcessLookupError:
            leaks.append(name)
        except PermissionError:
            pass
    return sorted(leaks)


def _case():
    """3125 states: enough rounds and batch sizes to shard for real."""
    return kstate_program(5, 5), utr_program(5), utr_abstraction(5, 5)


def _baseline():
    concrete, spec, alpha = _case()
    return check_stabilization(concrete, spec, alpha, engine="vector")


def _chaotic_shared(tmp_path, recorder, workers=4):
    concrete, spec, alpha = _case()
    with using_memory_budget("1M", spill_dir=str(tmp_path),
                             parallel_min=64):
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


class TestWorkerDeathLeaksNothing:
    def test_killed_expand_worker_recovers_cleanly(self, tmp_path):
        """``shared_reachable`` shards frontier runs; killing one of
        its workers must cost a retry, not a bit of the visited set
        and not a segment."""
        import numpy as np

        from repro.kernel.shared import (
            SharedKernel,
            open_runtime,
            shared_reachable,
        )
        from repro.kernel.vector import as_vector_kernel, vector_reachable

        program = kstate_program(5, 5)
        vector = as_vector_kernel(program)
        # A 625-code source stripe: the initial states alone reach only
        # the legitimate orbit (too small to shard), but a wide stripe
        # makes every frontier round big enough to fan out.
        sources = np.arange(0, vector.size, 5, dtype=np.int64)
        expected = np.nonzero(vector_reachable(vector, sources))[0].tolist()
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="kill-worker", task=0, attempt=0,
                    phase="_expand_task",
                ),
            )
        )
        recorder = Recorder(kind="test")
        kernel = SharedKernel(program)
        with using_memory_budget("1M", spill_dir=str(tmp_path),
                                 parallel_min=64):
            with using_policy(FAST), using_chaos(plan):
                with open_runtime(
                    kernel, workers=4, instrumentation=recorder
                ) as runtime:
                    visited = shared_reachable(
                        kernel, sources, runtime, recorder
                    )
                    reached = [
                        int(code)
                        for chunk in visited.member_chunks(runtime.chunk)
                        for code in chunk.tolist()
                    ]
        assert reached == expected
        counters = recorder.record().counters
        assert counters["resilience.worker.death"] >= 1
        assert counters["resilience.task.retries"] >= 1
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []

    def test_killed_core_round_worker_recovers_cleanly(self, tmp_path):
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="kill-worker", task=0, attempt=0,
                    phase="_core_round_task",
                ),
            )
        )
        recorder = Recorder(kind="test")
        with using_policy(FAST), using_chaos(plan):
            chaotic = _chaotic_shared(tmp_path, recorder)
        assert chaotic.format() == _baseline().format()
        assert recorder.record().counters["resilience.worker.death"] >= 1
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []

    def test_poison_every_attempt_quarantines_without_leaking(
        self, tmp_path
    ):
        """Killing every attempt forces the task inline onto the
        driver (where chaos worker faults are inert): same verdict,
        same empty segment directory."""
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="kill-worker", task=0, attempt="*",
                    phase="_core_round_task",
                ),
            )
        )
        policy = SupervisionPolicy(
            max_task_retries=1, backoff_base=0.001, backoff_cap=0.005
        )
        recorder = Recorder(kind="test")
        with using_policy(policy), using_chaos(plan):
            chaotic = _chaotic_shared(tmp_path, recorder, workers=2)
        assert chaotic.format() == _baseline().format()
        assert recorder.record().counters[
            "resilience.task.quarantined"
        ] >= 1
        assert _shm_leaks() == []
        assert sorted(tmp_path.iterdir()) == []


class TestSupervisorTimeoutLeaksNothing:
    def test_hung_worker_is_reaped_and_the_run_stays_clean(self, tmp_path):
        """A worker stalled past ``task_timeout`` is reaped like a
        crash; the retry must finish the shard and the reaped child's
        segments must be swept."""
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="delay-task", task=0, attempt=0,
                    phase="_core_round_task", seconds=0.5,
                ),
            )
        )
        policy = SupervisionPolicy(
            backoff_base=0.001, backoff_cap=0.005, task_timeout=0.1
        )
        recorder = Recorder(kind="test")
        with using_policy(policy), using_chaos(plan):
            chaotic = _chaotic_shared(tmp_path, recorder)
        assert chaotic.format() == _baseline().format()
        counters = recorder.record().counters
        assert counters["resilience.task.retries"] >= 1
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
        """A ``MemoryError`` inside a shared fixpoint skips the code
        that detaches its flag fields; the runtime must drop their
        views itself before closing the segments, or the segments'
        finalizers raise ``BufferError`` once the fault's traceback
        is collected."""
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
