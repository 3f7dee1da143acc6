"""Bit-packed flag fields and budget-capped code collections.

Two containers the streamed fixpoints are built from:

* :class:`BitField` — one bit per packed code over the full state
  space (membership / region flags), an 8x density win over the
  vector engine's byte-per-state bool arrays.
* :class:`CodeRuns` — an ordered collection of sorted-unique code
  arrays (frontier rounds, eviction lists), stored at the run's
  adaptive code width (:mod:`.width`), that keeps at most
  ``cap_bytes`` resident and spills older runs to a
  :class:`~.spill.SpillStore`, streaming them back on iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import DTypeLike

from .spill import SpillHandle, SpillStore

__all__ = ["BitField", "CodeRuns"]

#: Bytes-per-byte popcount, for fast set-bit counting.
_POPCOUNT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.int64
)


class BitField:
    """One bit per code in ``[0, size)``, batch-addressable, all clear
    at first."""

    __slots__ = ("size", "nbytes", "_bytes")

    def __init__(self, size: int):
        self.size = size
        self.nbytes = (size + 7) // 8
        self._bytes = np.zeros(self.nbytes, dtype=np.uint8)

    def test(self, codes: np.ndarray) -> np.ndarray:
        """Boolean membership of each code (vectorized)."""
        return (
            (self._bytes[codes >> 3] >> (codes & 7).astype(np.uint8)) & 1
        ).astype(bool)

    def _merged_bits(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct byte indices and their OR-merged bit patterns.

        Grouping adjacent equal byte indices and merging with
        ``reduceat`` replaces the scalar ``ufunc.at`` loop (an order of
        magnitude slower on big batches).  Codes arrive sorted from
        every engine path; the argsort is a safety net for direct API
        users and costs one comparison pass when it is not needed.
        """
        byte_idx = codes >> 3
        bits = np.uint8(1) << (codes & 7).astype(np.uint8)
        if byte_idx.shape[0] > 1 and bool(
            np.any(byte_idx[1:] < byte_idx[:-1])
        ):
            order = np.argsort(byte_idx, kind="stable")
            byte_idx = byte_idx[order]
            bits = bits[order]
        head = np.ones(1, dtype=bool)
        starts = np.flatnonzero(
            np.concatenate((head, byte_idx[1:] != byte_idx[:-1]))
        )
        return byte_idx[starts], np.bitwise_or.reduceat(bits, starts)

    def set_codes(self, codes: np.ndarray) -> None:
        """Set the bit of every code (duplicates are harmless)."""
        if codes.shape[0] == 0:
            return
        byte_idx, merged = self._merged_bits(codes)
        self._bytes[byte_idx] |= merged

    def clear_codes(self, codes: np.ndarray) -> None:
        """Clear the bit of every code (duplicates are harmless)."""
        if codes.shape[0] == 0:
            return
        byte_idx, merged = self._merged_bits(codes)
        self._bytes[byte_idx] &= np.uint8(0xFF) ^ merged

    def count(self) -> int:
        """Number of set bits (tail bits beyond ``size`` are never set)."""
        return int(_POPCOUNT[self._bytes].sum())

    def member_chunks(self, chunk: int) -> Iterator[np.ndarray]:
        """Yield set codes in ascending order, ``<= chunk`` per batch.

        Walks the byte array in windows of ``chunk // 8`` bytes, so a
        fully dense window yields exactly ``chunk`` codes and resident
        cost stays bounded regardless of population.
        """
        step_bytes = max(1, chunk // 8)
        for start in range(0, self.nbytes, step_bytes):
            window = self._bytes[start : start + step_bytes]
            if not window.any():
                continue
            bits = np.unpackbits(window, bitorder="little")
            codes = np.flatnonzero(bits).astype(np.int64) + start * 8
            if codes.shape[0] and codes[-1] >= self.size:
                codes = codes[codes < self.size]
            if codes.shape[0]:
                yield codes

    def complement_into(self, other: "BitField") -> None:
        """Set ``other`` to the complement of ``self`` over ``[0, size)``."""
        np.bitwise_xor(self._bytes, np.uint8(0xFF), out=other._bytes)
        tail = self.size & 7
        if tail:
            other._bytes[-1] &= np.uint8((1 << tail) - 1)


class CodeRuns:
    """Sorted-unique code runs with an in-RAM cap and spill overflow.

    ``append`` takes ownership of sorted-unique arrays; once resident
    bytes pass ``cap_bytes`` the oldest runs spill (delta-encoded) to
    the store.  ``chunks`` streams every run back — resident runs
    as-is, spilled runs loaded one at a time — so peak RSS during
    iteration is one run, not the collection.  Runs need not be
    disjoint or globally ordered; consumers treat the union as a set.

    ``dtype`` is the storage width (:func:`~.width.code_dtype`):
    appended runs are narrowed on entry — lossless, codes are bounded
    by the state-space size — and ``chunks`` yields the narrow form;
    consumers widen at the arithmetic boundary.
    """

    def __init__(
        self,
        store: SpillStore,
        cap_bytes: int,
        dtype: "DTypeLike" = np.int64,
    ):
        self._store = store
        self._cap = max(cap_bytes, 1 << 16)
        self._dtype = np.dtype(dtype)
        self._runs: List[Union[np.ndarray, SpillHandle]] = []
        self._resident_bytes = 0
        self.count = 0
        self.spilled_runs = 0

    def append(self, codes: np.ndarray) -> None:
        """Add one sorted-unique code run (empty arrays are dropped)."""
        if codes.shape[0] == 0:
            return
        codes = np.ascontiguousarray(codes, dtype=self._dtype)
        self._runs.append(codes)
        self._resident_bytes += codes.nbytes
        self.count += int(codes.shape[0])
        while self._resident_bytes > self._cap:
            victim_index = next(
                (
                    index
                    for index, run in enumerate(self._runs)
                    if isinstance(run, np.ndarray)
                ),
                None,
            )
            if victim_index is None:  # pragma: no cover - all spilled
                break
            victim = self._runs[victim_index]
            self._runs[victim_index] = self._store.save_sorted(victim)
            self._resident_bytes -= victim.nbytes
            self.spilled_runs += 1

    def chunks(self) -> Iterator[np.ndarray]:
        """Stream every run; spilled runs are loaded one at a time."""
        for run in self._runs:
            if isinstance(run, SpillHandle):
                yield self._store.load(run)
            else:
                yield run

    def clear(self) -> None:
        """Drop all runs (deleting consumed spill files)."""
        for run in self._runs:
            if isinstance(run, SpillHandle):
                self._store.drop(run)
        self._runs.clear()
        self._resident_bytes = 0
        self.count = 0
