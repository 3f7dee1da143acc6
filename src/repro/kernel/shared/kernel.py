"""The streamed successor kernel: vector semantics without the tables.

:class:`SharedKernel` is the shared engine's replacement for
:class:`~repro.kernel.vector.kernel.VectorKernel`.  The vector kernel
materializes one full-space ``(enabled, successor)`` int64/bool table
pair per action — the very allocation the ``MAX_VECTOR_CELLS`` ceiling
bounds.  The shared kernel keeps only the program's
:class:`~repro.kernel.vector.lower.LoweredProgram` and evaluates it per
code chunk on demand: resident cost is one chunk of transient arrays
regardless of ``|Sigma|``, trading recomputation for memory.

Semantics are the vector kernel's, bit for bit: a chunk's ``(mask,
successor)`` pairs are the vector tables' rows for those codes, and
:meth:`succ_pairs` deduplicates and sorts through the same kernel, so
transition counts match.  An action whose support fits in one chunk is
a support table of at most ``chunk`` rows, gathered per chunk.
Construction validates the program as the vector kernel does, raising
the same :class:`~repro.core.errors.GCLError` for an out-of-domain
write: it reads the tables and sweeps the space only for actions too
wide to table.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from ...gcl.program import Program
from ...core.system import System
from ..interner import StateInterner
from ..vector.analyze import structural_unlowerable_reason
from ..vector.bridge import TupleBridge
from ..vector.kernel import _unique_sorted
from ..vector.lower import LoweredProgram
from .budget import MemoryContext, active_memory_context, chunk_codes
from .tables import TablePool

__all__ = ["SharedKernel", "SharedLoweringError"]


class SharedLoweringError(ValueError):
    """A program has no streamed array lowering.

    Engine selection consults ``shared_fallback_reason`` first, so
    checker paths never see this; it guards direct construction.
    """


class SharedKernel:
    """Chunk-streamed transition relation over an unbounded code space.

    Exposes the vector kernel's batch API (:meth:`succ_pairs`,
    :meth:`has_edge`) plus chunk-oriented forms the streamed fixpoints
    consume.  Never allocates an array proportional to
    ``interner.size``.
    """

    def __init__(self, program: Program, chunk: Optional[int] = None):
        reason = structural_unlowerable_reason(program)
        if reason is not None:
            raise SharedLoweringError(
                f"program {program.name!r} has no array lowering: {reason}"
            )
        schema = program.schema()
        self.interner = StateInterner(schema, enforce_ceiling=False)
        self.size = self.interner.size
        self.name = program.name
        self.actions = program.actions
        if chunk is None:
            budget = (active_memory_context() or MemoryContext()).budget_bytes
            chunk = chunk_codes(budget, len(program.actions), len(schema.names))
        self.chunk = chunk
        self._lowered = LoweredProgram(program, self.interner, chunk)
        self.initial_codes = self._lowered.initial_codes
        self.initial_array = np.asarray(self.initial_codes, dtype=np.int64)
        self._materialized: Optional[System] = None
        self._tables: Optional[TablePool] = None
        self._lowered.validate(chunk)
        self._bridge = TupleBridge(self._lowered, self._stream_actions, chunk)

    @property
    def schema(self):
        """The schema of the packed state space."""
        return self.interner.schema

    def compile(self, codes: Iterable[int], drop_self: bool = False) -> System:
        """The tuple-state ``System`` of the transitions out of the
        states of ``codes`` (see :meth:`repro.kernel.PackedKernel.compile`),
        evaluated chunk by chunk
        (:class:`~repro.kernel.vector.bridge.TupleBridge`)."""
        return self._bridge.compile(codes, drop_self)

    def materialize(self) -> System:
        """The equivalent tuple-state ``System`` (cached on first call).

        Enumerates the full space in RAM.  No engine calls it: the
        shared engine builds its witness regions, the fair-trap search
        included, with :meth:`compile`, and refinement runs on the
        vector kernel.  It stays only as a layer that
        ``benchmarks/perf/spans.py`` times.
        """
        if self._materialized is None:
            self._materialized = self._bridge.materialize()
        return self._materialized

    # ------------------------------------------------------------------
    # Cross-round table reuse.
    # ------------------------------------------------------------------

    def attach_tables(self, pool: Optional[TablePool]) -> None:
        """Install (or clear) the run's action-table pool.

        The runtime attaches its pool before any fixpoint runs and
        detaches it in its ``finally`` — the kernel itself may outlive
        the run.
        """
        self._tables = pool

    # ------------------------------------------------------------------
    # Chunk evaluation.
    # ------------------------------------------------------------------

    def iter_actions(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Per-action ``(mask, successor)`` arrays for one chunk.

        ``successor[i] == codes[i]`` wherever the action is disabled,
        matching the vector tables' identity default.  Digits and env
        are computed once and shared across actions.  When a table
        pool is attached, a chunk seen before is reconstructed from
        its cached tables (value-identical to a fresh evaluation) and
        a fresh evaluation is packed for admission as it streams.
        Yielded arrays are valid only until the next iteration step —
        consumers must copy anything they keep.
        """
        codes = np.asarray(codes)
        if codes.dtype != np.int64:
            codes = codes.astype(np.int64)
        pool = self._tables
        if pool is None:
            yield from self._stream_actions(codes)
            return
        cached, probe = pool.lookup(codes)
        if cached is not None:
            yield from cached
            return
        yield from pool.filling(
            codes, self._stream_actions(codes), probe=probe
        )

    def _stream_actions(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Evaluate one chunk action by action (the table pool's miss path)."""
        yield from self._lowered.evaluate(codes)

    # ------------------------------------------------------------------
    # The vector-compatible batch API.
    # ------------------------------------------------------------------

    def succ_pairs(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All transitions out of a batch: unique sorted (origin, target).

        ``origins`` are positions into ``codes``; byte-compatible with
        ``VectorKernel.succ_pairs`` (same dedup, same ordering).
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        origins, targets = map(np.concatenate, zip(*self.edge_parts(codes)))
        keys = _unique_sorted(origins * np.int64(self.size) + targets)
        origins = keys // self.size
        return origins, keys - origins * np.int64(self.size)

    def edge_parts(
        self, codes: np.ndarray, drop_self: bool = False
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The transitions out of a batch of codes as a multiset, in parts.

        ``VectorKernel.edge_parts`` on the streamed evaluator: one
        ``(origins, targets)`` part per action, with no sort and no
        dedup, so two actions making the same move yield that edge
        twice.  There is always at least one part, empty for a program
        without actions.  With ``drop_self`` self-loops are left out.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if not self.actions:
            empty = np.empty(0, dtype=np.int64)
            yield empty, empty
            return
        for mask, succ in self.iter_actions(codes):
            if drop_self:
                mask = mask & (succ != codes)
            positions = np.nonzero(mask)[0]
            yield positions, succ[positions]

    def has_edge(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Element-wise transition membership for parallel code arrays."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        hit = np.zeros(sources.shape, dtype=bool)
        for mask, succ in self.iter_actions(sources):
            hit |= mask & (succ == targets)
        return hit

    def terminal_chunk(
        self, codes: np.ndarray, drop_self: bool = False
    ) -> np.ndarray:
        """Mask of chunk codes with no successors (vector semantics)."""
        has_successor = np.zeros(codes.shape, dtype=bool)
        for mask, succ in self.iter_actions(codes):
            if drop_self:
                has_successor |= mask & (succ != codes)
            else:
                has_successor |= mask
        return ~has_successor

    def action_matrix(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked per-action ``(enabled, successor)`` matrices.

        Shape ``(actions, len(codes))``.  No engine path calls it;
        ``benchmarks/perf/spans.py`` still wraps it (ROADMAP item 1).
        """
        enabled = np.zeros((len(self.actions), codes.shape[0]), dtype=bool)
        successors = np.empty((len(self.actions), codes.shape[0]), dtype=np.int64)
        for index, (mask, succ) in enumerate(self.iter_actions(codes)):
            enabled[index] = mask
            successors[index] = succ
        return enabled, successors

    def successors(self, code: int) -> Tuple[int, ...]:
        """Scalar bridge: successor codes of one code, ascending."""
        _, targets = self.succ_pairs(np.asarray([code], dtype=np.int64))
        return tuple(int(target) for target in targets)
