"""Unconditional cleanup of the shared engine's run state.

Nothing may be left on disk or in ``/dev/shm`` after a shared check —
including when the run dies to a ``KeyboardInterrupt`` mid-fixpoint or
the spill directory cannot be created at all (which must degrade, not
crash).
"""

from __future__ import annotations

import os

import pytest

from tests.integration.test_shared_differential import _shm_leaks


class TestUnconditionalCleanup:
    def test_keyboard_interrupt_leaves_empty_spill_dir(self, tmp_path):
        """A ^C mid-fixpoint must still remove the whole run spill
        directory."""
        from repro.checker import check_stabilization
        from repro.kernel.shared import using_memory_budget
        from repro.obs import Instrumentation
        from repro.rings import kstate_program, utr_abstraction, utr_program

        class Interrupter(Instrumentation):
            def __init__(self):
                self.events = 0

            def event(self, name, **fields):
                if name.startswith("check.fixpoint"):
                    raise KeyboardInterrupt

        with using_memory_budget(
            "64K", spill_dir=str(tmp_path)
        ):
            with pytest.raises(KeyboardInterrupt):
                check_stabilization(
                    kstate_program(4, 4),
                    utr_program(4),
                    utr_abstraction(4, 4),
                    engine="shared",
                    instrumentation=Interrupter(),
                )
        assert list(tmp_path.iterdir()) == []
        assert _shm_leaks() == []

    def test_bad_spill_dir_degrades_to_vector(self, tmp_path):
        """A spill directory that cannot be created is an EngineFault
        the degradation chain absorbs: vector's verdict, byte for
        byte, and nothing leaked."""
        from repro.checker import check_stabilization
        from repro.kernel.shared import using_memory_budget
        from repro.obs import Recorder
        from repro.rings import kstate_program, utr_abstraction, utr_program

        def check(**kwargs):
            return check_stabilization(
                kstate_program(5, 9),
                utr_program(5),
                utr_abstraction(5, 9),
                compute_steps=True,
                **kwargs,
            )

        baseline = check(engine="vector")
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        recorder = Recorder()
        # 59049 states under 64K spill, and the spill root sits under
        # a regular file.
        with using_memory_budget("64K", spill_dir=str(blocker / "sub")):
            degraded = check(engine="shared", instrumentation=recorder)
        assert degraded.format() == baseline.format()
        assert degraded.engine == "vector"
        record = recorder.record()
        assert record.counters["engine.fallback.vector"] == 1
        fallbacks = [
            event.fields
            for event in record.events
            if event.name == "engine.fallback"
        ]
        assert [fields["during"] for fields in fallbacks] == ["runtime"]
        assert "EngineFault" in fallbacks[0]["reason"]
        assert list(tmp_path.iterdir()) == [blocker]
        assert _shm_leaks() == []


class TestSpillStoreFaults:
    def test_unwritable_run_raises_engine_fault(self, tmp_path):
        import numpy as np

        from repro.kernel.shared import SpillStore
        from repro.resilience import EngineFault

        with SpillStore(str(tmp_path)) as store:
            store.save_sorted(np.array([1, 2], dtype=np.int64))
            # The next run's path is taken by a directory.
            os.mkdir(os.path.join(store.directory, "run-000002.bin"))
            with pytest.raises(EngineFault, match="spill write failed"):
                store.save_sorted(np.array([3], dtype=np.int64))
        assert list(tmp_path.iterdir()) == []
