"""Flag-field backings and their unconditional cleanup.

The two backings (private array, shm segment) must be invisible to the
fixpoints: same bits, same verdicts, and nothing left on disk or in
``/dev/shm`` afterwards — including when the run dies to a
``KeyboardInterrupt`` mid-fixpoint or the spill directory cannot be
created at all (which must degrade, not crash).
"""

from __future__ import annotations

import os

import pytest

from repro.kernel.vector import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the shared engine needs NumPy"
)


def _shm_leaks() -> list:
    # Segments owned by this process or by a dead driver are leaks; a
    # live concurrent run (xdist, a benchmark) owns its own segments.
    from repro.kernel.shared import shm_dir

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


class TestOpenVisitedLadder:
    def _runtime(self, tmp_path, budget, workers=1):
        from repro.kernel.shared import (
            MemoryContext,
            SharedKernel,
            open_runtime,
        )
        from repro.rings import kstate_program

        kernel = SharedKernel(kstate_program(3, 4))
        context = MemoryContext(
            budget_bytes=budget, spill_dir=str(tmp_path)
        )
        return kernel, open_runtime(kernel, workers=workers, context=context)

    def test_small_field_stays_private(self, tmp_path):
        from repro.kernel.shared import open_visited

        kernel, runtime_cm = self._runtime(tmp_path, 1 << 20)
        with runtime_cm as runtime:
            handle = open_visited(runtime, kernel.size, "t")
            assert not handle.sharable
            assert handle.ref is None
            assert handle.detach_private() is handle.field

    def test_workers_get_a_shm_segment(self, tmp_path):
        import numpy as np

        from repro.kernel.shared import AttachedVisited, open_visited

        kernel, runtime_cm = self._runtime(tmp_path, 1 << 20, workers=2)
        with runtime_cm as runtime:
            handle = open_visited(runtime, kernel.size, "t")
            assert handle.sharable
            codes = np.array([1, 7], dtype=np.int64)
            handle.field.set_codes(codes)
            attached = AttachedVisited(handle.ref)
            assert attached.field.test(codes).all()
            attached.close()
            private = handle.detach_private()
            assert private.test(codes).all()
        assert _shm_leaks() == []

    def _big_field(self, tmp_path, workers):
        """Open a field far past ``budget // 16`` and round-trip bits.

        K-state(3, 4)'s 64 states need 8 bytes of flags, against a
        1-byte ``budget // 16`` under a 16-byte budget.  Returns the
        backings the run reported.
        """
        import numpy as np

        from repro.kernel.shared import AttachedVisited, open_visited
        from repro.obs import Recorder

        recorder = Recorder()
        kernel, runtime_cm = self._runtime(tmp_path, 16, workers=workers)
        with runtime_cm as runtime:
            handle = open_visited(
                runtime, kernel.size, "t", instrumentation=recorder
            )
            assert handle.sharable == (workers > 1)
            codes = np.array([0, 5, kernel.size - 1], dtype=np.int64)
            handle.field.set_codes(codes)
            if handle.sharable:
                attached = AttachedVisited(handle.ref)
                assert attached.field.test(codes).all()
                attached.close()
            private = handle.detach_private()
            assert private.test(codes).all()
            assert private.count() == 3
        assert list(tmp_path.iterdir()) == []  # nothing spilled
        assert _shm_leaks() == []
        return [
            event.fields["backing"]
            for event in recorder.record().events
            if event.name == "shm.visited"
        ]

    def test_big_field_stays_private_at_one_worker(self, tmp_path):
        assert self._big_field(tmp_path, workers=1) == ["private"]

    def test_big_field_is_a_shm_segment_across_workers(self, tmp_path):
        assert self._big_field(tmp_path, workers=2) == ["shm"]


class TestUnconditionalCleanup:
    def test_keyboard_interrupt_leaves_empty_spill_dir(self, tmp_path):
        """A ^C mid-fixpoint must still sweep segments and the whole
        run spill directory."""
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
