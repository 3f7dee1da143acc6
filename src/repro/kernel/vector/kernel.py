"""Batch successor kernels: whole-frontier transitions in NumPy calls.

A :class:`VectorKernel` is the vector engine's replacement for the
packed engine's per-code successor closure: the transition relation as
*arrays*.  Two constructions:

* :meth:`VectorKernel.from_program` lowers the program, under the
  central daemon with stuttering moves kept, to a
  :class:`~.lower.LoweredProgram` (the evaluator the shared kernel runs
  chunk by chunk) with support tables of up to :data:`LOWER_CHUNK`
  rows, validates it from those tables, and fills one full-space
  ``(enabled, successor)`` table pair per action with unchecked
  batches of :data:`LOWER_CHUNK` codes.  Successors of an entire
  frontier are then a handful of gathers — no Python loop per state.
  Out-of-domain writes raise exactly the
  :class:`~repro.core.errors.GCLError` that ``compile_program`` raises,
  for the same first offending state and action.
* :meth:`VectorKernel.from_system` wraps an already-compiled
  :class:`~repro.core.system.System` as sorted CSR edge arrays.

Both forms expose the same batch API (:meth:`succ_pairs`,
:meth:`edge_parts`, :meth:`has_edge`, :meth:`terminal_flags`) consumed
by the array fixpoints in :mod:`.fixpoint`, plus the scalar
:meth:`successors` and the bridges to tuple-state systems:
:meth:`compile` for the witness regions (cycle witnesses, the
fair-trap search and the refinement witnesses) and
:meth:`initial_states`; :meth:`materialize` builds the whole system,
which no checker calls.  A kernel built :meth:`from_program` reads
those off its action tables (:class:`~.bridge.TupleBridge`); one built
:meth:`from_system` returns the system it wraps.  The batch forms take
``drop_self`` per call, the analysis view under weak and strong
fairness; so does :meth:`compile`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ...core.state import State
from ...core.system import System
from ...gcl.program import Program
from ..engine import CheckSource
from ..interner import StateInterner
from .analyze import unlowerable_reason
from .bridge import TupleBridge
from .lower import LoweredProgram

__all__ = ["VectorKernel", "VectorLoweringError", "as_vector_kernel"]

#: Codes per batch of the lowering fill, and the most rows a support
#: table may have: large enough that the evaluator's per-action Python
#: overhead vanishes, small enough that a batch's transient arrays stay
#: cache-sized.
LOWER_CHUNK = 1 << 16


class VectorLoweringError(ValueError):
    """A program has no array lowering.

    Engine selection consults :func:`.analyze.unlowerable_reason`
    before constructing a kernel, so checker paths never see this;
    it guards direct construction.
    """


def as_vector_kernel(source: CheckSource) -> "VectorKernel":
    """The vector-engine view of a check source (mirrors ``as_kernel``)."""
    if isinstance(source, System):
        return VectorKernel.from_system(source)
    return VectorKernel.from_program(source)


class VectorKernel:
    """The transition relation as arrays: code batches in, edges out.

    Edge batches are deduplicated per ``(origin, target)`` pair and
    sorted by origin position then target code — the array analogue of
    the packed kernel's deduplicated, ascending successor tuples, which
    is what keeps transition *counts* (and so the refinement checkers'
    ``checked`` counters) identical across engines.
    """

    __slots__ = (
        "interner",
        "name",
        "size",
        "initial_codes",
        "initial_array",
        "_tables",
        "_indptr",
        "_targets",
        "_edge_keys",
        "_terminal_cache",
        "_bridge",
        "_materialized",
    )

    def __init__(
        self,
        interner: StateInterner,
        initial_codes: Tuple[int, ...],
        name: str,
        tables: Optional[List[Tuple[np.ndarray, np.ndarray]]],
        indptr: Optional[np.ndarray],
        targets: Optional[np.ndarray],
        edge_keys: Optional[np.ndarray],
        bridge: Optional[TupleBridge],
        materialized: Optional[System] = None,
    ):
        self.interner = interner
        self.name = name
        self.size = interner.size
        self.initial_codes = initial_codes
        self.initial_array = np.asarray(initial_codes, dtype=np.int64)
        self._tables = tables
        self._indptr = indptr
        self._targets = targets
        self._edge_keys = edge_keys
        self._terminal_cache: Dict[bool, np.ndarray] = {}
        self._bridge = bridge
        self._materialized = materialized

    @property
    def schema(self):
        """The schema of the packed state space."""
        return self.interner.schema

    def compile(self, codes: Iterable[int], drop_self: bool = False) -> System:
        """The tuple-state ``System`` of the transitions out of the
        states of ``codes`` (see :meth:`repro.kernel.PackedKernel.compile`),
        read off the action tables; a kernel built :meth:`from_system`
        returns its system (``without_self_loops()`` of it with
        ``drop_self``)."""
        if self._bridge is None:
            system = self._materialized
            return system.without_self_loops() if drop_self else system
        return self._bridge.compile(codes, drop_self)

    @property
    def decodes(self) -> bool:
        """Is every state :meth:`compile` builds, outside the initial
        set, its interner's decoding?  Not for a kernel built
        :meth:`from_system`, whose states are its system's own."""
        return self._bridge is not None and self._bridge.decodes

    def initial_states(self) -> FrozenSet[State]:
        """The initial states of :meth:`materialize`'s system, iterating
        as they do there, without building it."""
        if self._bridge is None:
            return self._materialized.initial
        return frozenset(self._bridge.initial_states())

    def materialize(self) -> System:
        """The equivalent tuple-state ``System``, read off the action
        tables (cached on first call).  No checker calls it: it stays
        as a layer that ``benchmarks/perf/spans.py`` times."""
        if self._materialized is None:
            # Only a kernel built from_program starts unmaterialized.
            assert self._bridge is not None
            self._materialized = self._bridge.materialize()
        return self._materialized

    # ------------------------------------------------------------------
    # The batch API consumed by the array fixpoints.
    # ------------------------------------------------------------------

    def succ_pairs(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """All transitions out of a batch of codes, as parallel arrays.

        Returns ``(origins, targets)`` where ``origins`` indexes into
        ``codes`` (positions, not codes) and ``targets`` holds
        successor codes.  Pairs are unique and sorted by
        ``(origin, target)``.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self._tables is not None:
            origins, targets = map(np.concatenate, zip(*self.edge_parts(codes)))
            keys = _unique_sorted(origins * np.int64(self.size) + targets)
            origins = keys // self.size
            return origins, keys - origins * np.int64(self.size)
        counts = self._indptr[codes + 1] - self._indptr[codes]
        origins = np.repeat(np.arange(codes.size, dtype=np.int64), counts)
        gathered = _ranges(self._indptr[codes], counts)
        return origins, self._targets[gathered]

    def edge_parts(
        self, codes: np.ndarray, drop_self: bool = False
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The transitions out of a batch of codes as a multiset, in parts.

        Yields ``(origins, targets)`` pairs shaped like
        :meth:`succ_pairs`'s, but with no sort and no dedup: a kernel
        built by :meth:`from_program` yields one part per action, read
        straight from its table, so two actions making the same move
        yield that edge twice.  A kernel built by :meth:`from_system`
        yields its one :meth:`succ_pairs` batch.  There is always at
        least one part, empty for a program without actions.  With
        ``drop_self`` self-loops are left out.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if self._tables is None:
            origins, targets = self.succ_pairs(codes)
            if drop_self:
                live = targets != codes[origins]
                origins, targets = origins[live], targets[live]
            yield origins, targets
            return
        if not self._tables:
            empty = np.empty(0, dtype=np.int64)
            yield empty, empty
            return
        for enabled, succ in self._tables:
            mask = enabled[codes]
            if drop_self:
                mask &= succ[codes] != codes
            positions = np.nonzero(mask)[0]
            yield positions, succ[codes[positions]]

    def has_edge(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Element-wise transition membership for parallel code arrays."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if self._tables is not None:
            hit = np.zeros(sources.shape, dtype=bool)
            for enabled, succ in self._tables:
                hit |= enabled[sources] & (succ[sources] == targets)
            return hit
        if self._edge_keys.size == 0:
            return np.zeros(sources.shape, dtype=bool)
        keys = sources * np.int64(self.size) + targets
        slots = np.searchsorted(self._edge_keys, keys)
        slots_clipped = np.minimum(slots, self._edge_keys.size - 1)
        return (slots < self._edge_keys.size) & (
            self._edge_keys[slots_clipped] == keys
        )

    def terminal_flags(self, drop_self: bool = False) -> np.ndarray:
        """Full-space mask of codes with no successors (cached).

        With ``drop_self`` the relation is first stripped of self-loops
        — the analysis view under weak/strong fairness.
        """
        cached = self._terminal_cache.get(drop_self)
        if cached is not None:
            return cached
        if self._tables is not None:
            codes = np.arange(self.size, dtype=np.int64)
            has_successor = np.zeros(self.size, dtype=bool)
            for enabled, succ in self._tables:
                if drop_self:
                    has_successor |= enabled & (succ != codes)
                else:
                    has_successor |= enabled
            terminal = ~has_successor
        else:
            counts = self._indptr[1:] - self._indptr[:-1]
            if drop_self:
                edge_sources = np.repeat(
                    np.arange(self.size, dtype=np.int64), counts
                )
                self_loops = np.bincount(
                    edge_sources[self._targets == edge_sources],
                    minlength=self.size,
                )
                counts = counts - self_loops
            terminal = counts == 0
        self._terminal_cache[drop_self] = terminal
        return terminal

    def successors(self, code: int) -> Tuple[int, ...]:
        """Scalar bridge: successor codes of one code, ascending."""
        _, targets = self.succ_pairs(np.asarray([code], dtype=np.int64))
        return tuple(int(target) for target in targets)

    # ------------------------------------------------------------------
    # Constructions.
    # ------------------------------------------------------------------

    @classmethod
    def from_program(cls, program: Program) -> "VectorKernel":
        """Lower ``program`` to full-space per-action successor tables.

        Raises:
            VectorLoweringError: for programs outside the statically
                lowerable fragment (see
                :func:`.analyze.unlowerable_reason`).
            GCLError: when some action drives a state out of its
                domain — the exact error ``compile_program`` raises.
        """
        reason = unlowerable_reason(program)
        if reason is not None:
            raise VectorLoweringError(
                f"program {program.name!r} has no array lowering: {reason}"
            )
        interner = StateInterner(program.schema())
        lowered = LoweredProgram(program, interner, LOWER_CHUNK)
        lowered.validate(LOWER_CHUNK)
        size = interner.size
        tables = [
            (np.empty(size, dtype=bool), np.empty(size, dtype=np.int64))
            for _ in program.actions
        ]
        for start in range(0, size, LOWER_CHUNK):
            stop = min(start + LOWER_CHUNK, size)
            codes = np.arange(start, stop, dtype=np.int64)
            pairs = lowered.evaluate(codes)
            for (enabled, successor), (mask, succ) in zip(tables, pairs):
                enabled[start:stop] = mask
                successor[start:stop] = succ

        def pairs_of(codes: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
            return ((enabled[codes], succ[codes]) for enabled, succ in tables)

        bridge = TupleBridge(lowered, pairs_of, LOWER_CHUNK)
        return cls(
            interner, lowered.initial_codes, program.name,
            tables, None, None, None, bridge,
        )

    @classmethod
    def from_system(cls, system: System) -> "VectorKernel":
        """Wrap an already-compiled ``System`` as sorted CSR edge arrays."""
        interner = StateInterner(system.schema)
        size = interner.size
        edge_keys = np.fromiter(
            (
                interner.encode(source) * size + interner.encode(target)
                for source, target in system.transitions()
            ),
            dtype=np.int64,
            count=system.transition_count(),
        )
        edge_keys.sort()
        sources = edge_keys // size
        targets = edge_keys % size
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=size), out=indptr[1:])
        initial_codes = tuple(
            sorted(interner.encode(state) for state in system.initial)
        )
        return cls(
            interner, initial_codes, system.name,
            None, indptr, targets, edge_keys, None, system,
        )


def _unique_sorted(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values — ``np.unique`` as an explicit sort+mask.

    ``np.unique`` routes some integer inputs through a hash table that
    is an order of magnitude slower than sorting on multi-million-
    element edge batches; the engine's dedup is always over int64 keys,
    where sort-and-compare-adjacent is the fast path.
    """
    if values.size == 0:
        return values
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[start, start+count)`` index ranges, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.repeat(starts - (ends - counts), counts)
    return np.arange(total, dtype=np.int64) + offsets
