"""Budget parsing (fractional forms included) and context plumbing."""

from __future__ import annotations

import dataclasses

import pytest

from repro.kernel.shared import (
    MemoryContext,
    chunk_codes,
    parse_mem_budget,
    using_memory_budget,
)


class TestParseMemBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("512", 512),
            ("4K", 4 * 1024),
            ("512M", 512 * 1024**2),
            ("1G", 1024**3),
            ("1.5G", int(1.5 * 1024**3)),
            ("0.5T", 512 * 1024**3),
            (".25G", 256 * 1024**2),
            ("2.5k", 2560),
            (" 1 GiB ", 1024**3),
            ("3mb", 3 * 1024**2),
        ],
    )
    def test_accepts_fractional_and_suffixed_forms(self, text, expected):
        assert parse_mem_budget(text) == expected

    @pytest.mark.parametrize("text", ["0", "0.0G", ".0", "0K"])
    def test_rejects_zero_budgets(self, text):
        with pytest.raises(ValueError, match="must be positive"):
            parse_mem_budget(text)

    @pytest.mark.parametrize(
        "text", ["", "-1", "-1G", "G", "1.2.3M", "12X", "1.5 light-years"]
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_mem_budget(text)

    def test_context_manager_rejects_nonpositive_int(self):
        with pytest.raises(ValueError, match="must be positive"):
            with using_memory_budget(0):
                pass
        with pytest.raises(ValueError, match="must be positive"):
            with using_memory_budget(-5):
                pass


class TestChunkCodes:
    def test_nonpositive_budget_raises_instead_of_clamping(self):
        with pytest.raises(ValueError, match="must be positive"):
            chunk_codes(0, 3, 4)
        with pytest.raises(ValueError, match="must be positive"):
            chunk_codes(-1024, 3, 4)

    def test_small_budget_floors_at_min_chunk(self):
        assert chunk_codes(1, 3, 4) == 1 << 12

    def test_large_budget_caps_at_max_chunk(self):
        assert chunk_codes(1 << 40, 1, 1) == 1 << 21


class TestContextFlags:
    def test_omitted_flags_keep_defaults(self):
        with using_memory_budget("1M") as context:
            assert context == MemoryContext(budget_bytes=1 << 20)
            assert context.spill_dir is None
        settable = [field.name for field in dataclasses.fields(MemoryContext)]
        assert settable == ["budget_bytes", "spill_dir"]
