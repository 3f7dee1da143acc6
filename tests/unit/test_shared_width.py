"""Adaptive code-width selection and the narrow storage plumbing.

The width module is the single source of truth for how many bytes a
stored code costs; everything else (frontier runs, spill files, bucket
pairs, table-pool entries) inherits its choice.  These tests pin the
promotion edges exactly — a space of ``2**15`` states still fits int16
because its max code is ``2**15 - 1`` — and check that the narrow
containers round-trip codes losslessly.
"""

from __future__ import annotations


class TestWidthSelection:
    def test_small_spaces_fit_int16(self):
        from repro.kernel.shared import code_dtype, code_width

        import numpy as np

        for size in (1, 2, 100, (1 << 15) - 1, 1 << 15):
            assert code_width(size) == 2
            assert code_dtype(size) == np.dtype(np.int16)

    def test_promotion_edge_to_int32_is_closed_on_the_narrow_side(self):
        from repro.kernel.shared import code_dtype, code_width

        import numpy as np

        assert code_width(1 << 15) == 2
        assert code_width((1 << 15) + 1) == 4
        assert code_dtype((1 << 15) + 1) == np.dtype(np.int32)

    def test_promotion_edge_to_int64(self):
        from repro.kernel.shared import code_dtype, code_width

        import numpy as np

        assert code_width(1 << 31) == 4
        assert code_width((1 << 31) + 1) == 8
        assert code_dtype((1 << 31) + 1) == np.dtype(np.int64)

    def test_max_code_of_each_width_fits_its_dtype(self):
        from repro.kernel.shared import code_dtype

        import numpy as np

        for size in (1 << 15, 1 << 31):
            dtype = code_dtype(size)
            info = np.iinfo(dtype)
            assert size - 1 <= info.max


class TestMergedBits:
    """The grouped reduceat set/clear versus a naive per-code loop."""

    def _naive_set(self, size, codes):
        import numpy as np

        out = np.zeros((size + 7) // 8, dtype=np.uint8)
        for code in codes:
            out[code >> 3] |= np.uint8(1 << (code & 7))
        return out

    def test_set_codes_matches_naive_on_sorted_input(self):
        import numpy as np

        from repro.kernel.shared import BitField

        size = 600
        codes = np.array([0, 1, 2, 7, 8, 63, 64, 65, 599], dtype=np.int64)
        field = BitField(size)
        field.set_codes(codes)
        assert field._bytes.tolist() == self._naive_set(size, codes).tolist()

    def test_set_codes_matches_naive_on_unsorted_duplicated_input(self):
        import numpy as np

        from repro.kernel.shared import BitField

        size = 256
        rng = np.random.default_rng(7)
        codes = rng.integers(0, size, size=400, dtype=np.int64)
        field = BitField(size)
        field.set_codes(codes)
        expected = self._naive_set(size, codes)
        assert field._bytes.tolist() == expected.tolist()

    def test_clear_codes_inverts_set_codes(self):
        import numpy as np

        from repro.kernel.shared import BitField

        size = 128
        field = BitField(size)
        everything = np.arange(size, dtype=np.int64)
        field.set_codes(everything)
        cleared = np.array([0, 3, 8, 15, 64, 127], dtype=np.int64)
        field.clear_codes(cleared)
        member = field.test(everything)
        assert sorted(np.flatnonzero(~member).tolist()) == cleared.tolist()

    def test_narrow_dtype_codes_address_the_same_bits(self):
        import numpy as np

        from repro.kernel.shared import BitField

        size = 1 << 12
        codes64 = np.array([5, 17, 4095], dtype=np.int64)
        codes16 = codes64.astype(np.int16)
        a, b = BitField(size), BitField(size)
        a.set_codes(codes64)
        b.set_codes(codes16)
        assert a._bytes.tolist() == b._bytes.tolist()
        assert b.test(codes16).all()


class TestNarrowCodeRuns:
    def test_runs_store_and_yield_the_requested_dtype(self, tmp_path):
        import numpy as np

        from repro.kernel.shared import CodeRuns, SpillStore

        with SpillStore(str(tmp_path)) as store:
            runs = CodeRuns(store, 1 << 20, dtype=np.int16)
            codes = np.array([1, 5, 900, 32000], dtype=np.int64)
            runs.append(codes)
            (out,) = list(runs.chunks())
            assert out.dtype == np.dtype(np.int16)
            assert out.tolist() == codes.tolist()

    def test_spilled_narrow_runs_round_trip(self, tmp_path):
        import numpy as np

        from repro.kernel.shared import CodeRuns, SpillStore

        with SpillStore(
            str(tmp_path), code_dtype=np.int16
        ) as store:
            runs = CodeRuns(store, 1, dtype=np.int16)  # cap floors at 64K
            original = np.arange(32000, dtype=np.int64)
            for _ in range(4):  # 4 x 64 KB of int16 forces spills
                runs.append(original)
            assert runs.spilled_runs >= 1
            chunks = list(runs.chunks())
            assert len(chunks) == 4
            for chunk in chunks:
                assert chunk.dtype == np.dtype(np.int16)
                assert chunk.tolist() == original.tolist()
            runs.clear()
