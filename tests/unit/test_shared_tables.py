"""The bounded table pool: verified hits and scan resistance.

The pool's contract is that a hit reconstructs *exactly* what the
streamed evaluator would have produced — byte-identity of verdicts
must never rest on a hash — while resident bytes stay under the cap.
Admission is ghost-gated: a chunk is packed only once its
digest has missed before (one-shot scans stream through for free), a
full pool freezes rather than rotates, and eviction touches only
never-hit entries for provably recurring candidates.
"""

from __future__ import annotations


def _tables_for(codes, actions=2):
    """Synthetic (mask, succ) tables with per-action structure."""
    import numpy as np

    out = []
    for index in range(actions):
        mask = (codes % (index + 2)) == 0
        succ = np.where(mask, codes + index + 1, codes)
        out.append((mask, succ.astype(np.int64)))
    return out


class TestTablePool:
    def test_miss_then_verified_hit_reconstructs_identically(self):
        import numpy as np

        from repro.kernel.shared import TablePool
        from repro.obs import Recorder

        recorder = Recorder()
        pool = TablePool(
            1 << 20, np.dtype(np.int16), instrumentation=recorder
        )
        codes = np.arange(100, 200, dtype=np.int64)
        fresh = _tables_for(codes)
        assert pool.get(codes) is None  # first miss: ghost only
        first_walk = list(pool.filling(codes, iter(fresh)))
        assert len(first_walk) == len(fresh)
        assert len(pool) == 0  # one-shot chunks are not admitted
        assert pool.get(codes) is None  # second miss: now admittable
        consumed = list(pool.filling(codes, iter(fresh)))
        assert len(consumed) == len(fresh)
        cached = pool.get(codes)
        assert cached is not None
        for (mask_a, succ_a), (mask_b, succ_b) in zip(fresh, cached):
            assert mask_a.tolist() == mask_b.tolist()
            assert succ_a.tolist() == succ_b.tolist()
            assert succ_b.dtype == np.dtype(np.int64)
        counters = recorder.record().counters
        assert counters["kernel.tables.misses"] == 2
        assert counters["kernel.tables.hits"] == 1
        pool.close()

    def test_full_pool_evicts_only_never_hit_entries(self):
        """A full pool freezes against a scan: room is made only for a
        thrice-missed candidate, only from zero-hit residents (LRU
        first), and a resident that has served a hit is protected."""
        import numpy as np

        from repro.kernel.shared import TablePool
        from repro.obs import Recorder

        recorder = Recorder()
        pool = TablePool(
            1 << 16, np.dtype(np.int64), instrumentation=recorder
        )
        chunks = [
            np.arange(start, start + 512, dtype=np.int64)
            for start in range(0, 512 * 7, 512)
        ]
        for codes in chunks[:5]:  # five entries fill the 64K cap
            pool.get(codes), pool.get(codes)
            list(pool.filling(codes, iter(_tables_for(codes))))
            assert pool.resident_bytes <= pool._cap
        assert len(pool) == 5
        assert pool.get(chunks[1]) is not None  # chunk 1 is now hot
        # A twice-missed candidate must NOT rotate the full pool...
        pool.get(chunks[5]), pool.get(chunks[5])
        list(pool.filling(chunks[5], iter(_tables_for(chunks[5]))))
        assert pool.get(chunks[5]) is None
        # ...but its third miss (just counted) proves recurrence, and
        # the oldest never-hit entry makes way.
        list(pool.filling(chunks[5], iter(_tables_for(chunks[5]))))
        assert pool.resident_bytes <= pool._cap
        counters = recorder.record().counters
        assert counters.get("kernel.tables.evictions", 0) >= 1
        assert pool.get(chunks[0]) is None  # LRU zero-hit victim
        assert pool.get(chunks[1]) is not None  # the hot entry survived
        assert pool.get(chunks[5]) is not None
        pool.close()

    def test_all_protected_pool_decays_hits_instead_of_evicting(self):
        """When every resident has served a hit, a recurring candidate
        decays their protection rather than evicting; repeated demand
        eventually turns stale entries evictable."""
        import numpy as np

        from repro.kernel.shared import TablePool
        from repro.obs import Recorder

        recorder = Recorder()
        pool = TablePool(
            1 << 16, np.dtype(np.int64), instrumentation=recorder
        )
        chunks = [
            np.arange(start, start + 512, dtype=np.int64)
            for start in range(0, 512 * 6, 512)
        ]
        for codes in chunks[:5]:
            pool.get(codes), pool.get(codes)
            list(pool.filling(codes, iter(_tables_for(codes))))
            assert pool.get(codes) is not None  # every resident is hot
        candidate = chunks[5]
        for _ in range(3):
            pool.get(candidate)
        # First attempt: all residents protected -> decay, no eviction.
        list(pool.filling(candidate, iter(_tables_for(candidate))))
        assert pool.get(candidate) is None
        assert (
            recorder.record().counters.get("kernel.tables.evictions", 0)
            == 0
        )
        # The decay made hits 0; the next recurrence gets room.
        list(pool.filling(candidate, iter(_tables_for(candidate))))
        assert pool.get(candidate) is not None
        assert (
            recorder.record().counters.get("kernel.tables.evictions", 0)
            >= 1
        )
        pool.close()

    def test_oversized_entries_are_not_admitted(self):
        import numpy as np

        from repro.kernel.shared import TablePool

        pool = TablePool(1 << 16, np.dtype(np.int64))
        codes = np.arange(100_000, dtype=np.int64)
        pool.get(codes), pool.get(codes)  # recurring, but too big
        list(pool.filling(codes, iter(_tables_for(codes))))
        assert len(pool) == 0
        assert pool.get(codes) is None
        pool.close()

    def test_digest_collision_degrades_to_miss(self):
        import numpy as np

        from repro.kernel.shared import TablePool

        pool = TablePool(1 << 20, np.dtype(np.int64))
        pool._key = lambda stored: b"same-key"  # force a collision
        first = np.arange(0, 64, dtype=np.int64)
        second = np.arange(64, 128, dtype=np.int64)
        pool.get(first), pool.get(first)  # ghost-prime admission
        list(pool.filling(first, iter(_tables_for(first))))
        # Same key, different codes: verification must reject the hit.
        assert pool.get(second) is None
        hit = pool.get(first)
        assert hit is not None
        assert hit[0][1].tolist() == _tables_for(first)[0][1].tolist()
        pool.close()

    def test_close_is_idempotent_and_drops_every_entry(self):
        import numpy as np

        from repro.kernel.shared import TablePool

        pool = TablePool(1 << 20, np.dtype(np.int64))
        codes = np.arange(64, dtype=np.int64)
        pool.get(codes), pool.get(codes)
        list(pool.filling(codes, iter(_tables_for(codes))))
        assert len(pool) == 1
        pool.close()
        pool.close()
        assert len(pool) == 0
        assert pool.resident_bytes == 0
        assert pool.get(codes) is None


class TestKernelIntegration:
    def test_iter_actions_hits_on_the_third_walk(self):
        """Walk one: ghost miss, streamed for free.  Walk two: second
        miss admits.  Walk three: a verified hit — all three walks
        value-identical."""
        import numpy as np

        from repro.kernel.shared import SharedKernel, TablePool
        from repro.obs import Recorder
        from repro.rings import kstate_program

        kernel = SharedKernel(kstate_program(3, 3))
        recorder = Recorder()
        pool = TablePool(
            1 << 22, np.dtype(np.int16), instrumentation=recorder
        )
        try:
            kernel.attach_tables(pool)
            codes = np.arange(kernel.size, dtype=np.int64)
            walks = [
                [
                    (mask.copy(), succ.copy())
                    for mask, succ in kernel.iter_actions(codes)
                ]
                for _ in range(3)
            ]
            for later in walks[1:]:
                for (mask_a, succ_a), (mask_b, succ_b) in zip(
                    walks[0], later
                ):
                    assert mask_a.tolist() == mask_b.tolist()
                    assert succ_a.tolist() == succ_b.tolist()
            counters = recorder.record().counters
            assert counters["kernel.tables.hits"] >= 1
            assert counters["kernel.tables.misses"] >= 2
        finally:
            kernel.attach_tables(None)
            pool.close()

    def test_succ_pairs_identical_with_and_without_pool(self):
        import numpy as np

        from repro.kernel.shared import SharedKernel, TablePool
        from repro.rings import kstate_program

        program = kstate_program(3, 4)
        bare = SharedKernel(program)
        codes = np.arange(bare.size, dtype=np.int64)
        expected = bare.succ_pairs(codes)
        pooled = SharedKernel(program)
        pool = TablePool(1 << 22, np.dtype(np.int16))
        try:
            pooled.attach_tables(pool)
            pooled.succ_pairs(codes)  # ghost miss
            pooled.succ_pairs(codes)  # second miss admits
            origins, targets = pooled.succ_pairs(codes)  # served from it
            assert origins.tolist() == expected[0].tolist()
            assert targets.tolist() == expected[1].tolist()
        finally:
            pooled.attach_tables(None)
            pool.close()
