"""The streamed successor kernel: vector semantics without the tables.

:class:`SharedKernel` is the shared engine's replacement for
:class:`~repro.kernel.vector.kernel.VectorKernel`.  The vector kernel
materializes one full-space ``(enabled, successor)`` int64/bool table
pair per action — the very allocation the ``MAX_VECTOR_CELLS`` ceiling
bounds.  The shared kernel keeps only the *lowered closures* (guards as
array functions, assignments as digit-delta recipes) and evaluates them
per code chunk on demand: resident cost is one chunk of transient
arrays regardless of ``|Sigma|``, trading recomputation for memory.

Semantics are the vector kernel's, bit for bit:

* per-chunk evaluation applies the same digit extraction, int64 value
  tables, guard masks, and digit-delta accumulation as
  ``VectorKernel.from_program`` — a chunk of the would-be table, never
  materialized;
* :meth:`succ_pairs` deduplicates and sorts ``(origin, target)`` pairs
  through the same sort-and-compare-adjacent kernel, so transition
  counts (and the counters derived from them) match;
* construction performs the same eager full-space out-of-domain sweep,
  raising the exact :class:`~repro.core.errors.GCLError` that
  ``compile_program`` (and so the vector kernel) raises, for the same
  first offending ``(action, assignment, state)``.

Fast path: domains whose int64 value table is the identity
(``0..radix-1``, which covers bools and modular counters) skip the
searchsorted inverse both in validation and evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ...gcl.daemon import CentralDaemon, Daemon
from ...gcl.program import Program
from ...core.state import State
from ...core.system import System
from ...gcl.semantics import compile_states
from ..interner import StateInterner
from ..vector.analyze import domain_type, structural_unlowerable_reason
from ..vector.kernel import _raise_out_of_domain, _unique_sorted
from ..vector.lower import ArrayEnv, ArrayFn, lower_expr
from .budget import MemoryContext, active_memory_context, chunk_codes
from .tables import TablePool

__all__ = ["SharedKernel", "SharedLoweringError"]


class SharedLoweringError(ValueError):
    """A program (or daemon) has no streamed array lowering.

    Engine selection consults ``shared_fallback_reason`` first, so
    checker paths never see this; it guards direct construction.
    """


class _VarPlan(object):
    """Per-variable lowering data: place, radix, values, inverse."""

    __slots__ = ("place", "radix", "values", "identity", "sorted_values", "sorted_digits")

    def __init__(self, place: int, radix: int, values: np.ndarray):
        self.place = place
        self.radix = radix
        self.values = values
        self.identity = bool(
            np.array_equal(values, np.arange(radix, dtype=np.int64))
        )
        order = np.argsort(values, kind="stable")
        self.sorted_values = values[order]
        self.sorted_digits = order.astype(np.int64)


class SharedKernel:
    """Chunk-streamed transition relation over an unbounded code space.

    Exposes the vector kernel's batch API (:meth:`succ_pairs`,
    :meth:`has_edge`) plus chunk-oriented forms the streamed fixpoints
    and the batch Monte-Carlo sampler consume.  Never allocates an
    array proportional to ``interner.size``.
    """

    def __init__(
        self,
        program: Program,
        daemon: Optional[Daemon] = None,
        keep_stutter: bool = True,
        name: Optional[str] = None,
        chunk: Optional[int] = None,
        validate: bool = True,
    ):
        chosen = daemon or CentralDaemon()
        reason = structural_unlowerable_reason(program, chosen)
        if reason is not None:
            raise SharedLoweringError(
                f"program {program.name!r} has no array lowering: {reason}"
            )
        self.program = program
        self.daemon = chosen
        schema = program.schema()
        self.interner = StateInterner(schema, enforce_ceiling=False)
        self.size = self.interner.size
        self.keep_stutter = keep_stutter
        self.name = name or (
            program.name
            if chosen.name == "central"
            else f"{program.name}@{chosen.name}"
        )
        var_types = {
            var_name: domain_type(domain)
            for var_name, domain in zip(schema.names, schema.domains)
        }
        places = self.interner.places_by_name()
        self._names: Tuple[str, ...] = schema.names
        self._vars: Dict[str, _VarPlan] = {}
        for var_name, domain in zip(schema.names, schema.domains):
            values = np.asarray([int(value) for value in domain], dtype=np.int64)
            self._vars[var_name] = _VarPlan(
                places[var_name], len(domain), values
            )
        self._guards: List[ArrayFn] = [
            lower_expr(action.guard, var_types) for action in program.actions
        ]
        self._assigns: List[List[Tuple[str, ArrayFn]]] = [
            [
                (target, lower_expr(rhs, var_types))
                for target, rhs in action.assignments.items()
            ]
            for action in program.actions
        ]
        self._free_vars: List[Tuple[str, ...]] = [
            tuple(
                dict.fromkeys(
                    free
                    for rhs in action.assignments.values()
                    for free in rhs.free_variables()
                )
            )
            for action in program.actions
        ]
        self.actions = program.actions
        if chunk is None:
            budget = (active_memory_context() or MemoryContext()).budget_bytes
            chunk = chunk_codes(budget, len(program.actions), len(schema.names))
        self.chunk = chunk
        self.initial_codes = tuple(
            sorted(self.interner.encode(state) for state in program.initial_states())
        )
        self.initial_array = np.asarray(self.initial_codes, dtype=np.int64)
        self._materialized: Optional[System] = None
        self._tables: Optional[TablePool] = None
        self._scratch: Dict[str, np.ndarray] = {}
        if validate:
            self._validate_full_space()

    @property
    def schema(self):
        """The schema of the packed state space."""
        return self.interner.schema

    def compile(self, states: Iterable[State]) -> System:
        """The tuple-state ``System`` of the transitions out of ``states``
        (see :meth:`repro.kernel.PackedKernel.compile`)."""
        return compile_states(
            self.program, states, self.daemon, self.keep_stutter, self.name, ()
        )

    def materialize(self) -> System:
        """The equivalent tuple-state ``System`` (cached on first call).

        Enumerates the full space in RAM — only the fair-trap search
        under strong fairness needs it.
        """
        if self._materialized is None:
            self._materialized = compile_states(
                self.program, self.schema.states(), self.daemon,
                self.keep_stutter, self.name,
            )
        return self._materialized

    # ------------------------------------------------------------------
    # Cross-round table reuse.
    # ------------------------------------------------------------------

    def attach_tables(self, pool: Optional[TablePool]) -> None:
        """Install (or clear) the run's action-table pool.

        The runtime attaches its pool before any fixpoint runs (so
        forked workers inherit it copy-on-write) and detaches it in
        its ``finally`` — the kernel itself may outlive the run.
        """
        self._tables = pool

    # ------------------------------------------------------------------
    # Chunk evaluation.
    # ------------------------------------------------------------------

    def _scratch_buffer(self, key: str, length: int) -> np.ndarray:
        """A reusable int64 work buffer (one per key, resized on demand).

        Chunks in a sweep share one length (plus one tail), so reuse
        turns per-chunk allocations into buffer rewrites.  Returned
        buffers are only valid until the next chunk's evaluation —
        every consumer in the engine finishes a chunk before asking
        for the next.
        """
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape[0] != length:
            buffer = np.empty(length, dtype=np.int64)
            self._scratch[key] = buffer
        return buffer

    def env_of(
        self, codes: np.ndarray, scratch: bool = False
    ) -> Tuple[Dict[str, np.ndarray], ArrayEnv]:
        """Digit columns and int64 value columns for a code chunk.

        With ``scratch`` the digit columns live in per-variable reuse
        buffers valid only until the next ``scratch`` call — the
        streamed evaluator's mode; direct callers get fresh arrays.
        """
        digits: Dict[str, np.ndarray] = {}
        env: ArrayEnv = {}
        for var_name in self._names:
            plan = self._vars[var_name]
            if scratch:
                digit = self._scratch_buffer(
                    f"digit:{var_name}", codes.shape[0]
                )
                np.floor_divide(codes, plan.place, out=digit)
                np.remainder(digit, plan.radix, out=digit)
            else:
                digit = (codes // plan.place) % plan.radix
            digits[var_name] = digit
            env[var_name] = digit if plan.identity else plan.values[digit]
        return digits, env

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
        """Evaluate one chunk action by action (the PR 9 hot path)."""
        digits, env = self.env_of(codes, scratch=True)
        for index in range(len(self._guards)):
            yield self._action_chunk(index, codes, digits, env)

    def _action_chunk(
        self,
        index: int,
        codes: np.ndarray,
        digits: Dict[str, np.ndarray],
        env: ArrayEnv,
    ) -> Tuple[np.ndarray, np.ndarray]:
        mask = np.broadcast_to(
            np.asarray(self._guards[index](env), dtype=bool), codes.shape
        )
        succ = self._scratch_buffer("succ", codes.shape[0])
        np.copyto(succ, codes)
        enabled = np.nonzero(mask)[0]
        if enabled.size:
            action_env: ArrayEnv = {
                free: env[free][enabled] for free in self._free_vars[index]
            }
            delta = np.zeros(enabled.shape, dtype=np.int64)
            for target, lowered in self._assigns[index]:
                plan = self._vars[target]
                values = np.asarray(lowered(action_env)).astype(
                    np.int64, copy=False
                )
                if values.ndim == 0:
                    values = np.broadcast_to(values, enabled.shape)
                if plan.identity:
                    new_digits = values
                else:
                    slots = np.searchsorted(plan.sorted_values, values)
                    slots = np.minimum(slots, plan.sorted_values.size - 1)
                    new_digits = plan.sorted_digits[slots]
                delta += (new_digits - digits[target][enabled]) * np.int64(
                    plan.place
                )
            succ[enabled] = codes[enabled] + delta
        return mask, succ

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
        return keys // self.size, keys % self.size

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
        if not self._guards:
            empty = np.empty(0, dtype=np.int64)
            yield empty, empty
            return
        drop = drop_self or not self.keep_stutter
        for mask, succ in self.iter_actions(codes):
            if drop:
                mask = mask & (succ != codes)
            positions = np.nonzero(mask)[0]
            yield positions, succ[positions]

    def has_edge(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Element-wise transition membership for parallel code arrays."""
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        hit = np.zeros(sources.shape, dtype=bool)
        for mask, succ in self.iter_actions(sources):
            found = mask & (succ == targets)
            if not self.keep_stutter:
                found &= targets != sources
            hit |= found
        return hit

    def terminal_chunk(
        self, codes: np.ndarray, drop_self: bool = False
    ) -> np.ndarray:
        """Mask of chunk codes with no successors (vector semantics)."""
        has_successor = np.zeros(codes.shape, dtype=bool)
        for mask, succ in self.iter_actions(codes):
            if drop_self or not self.keep_stutter:
                has_successor |= mask & (succ != codes)
            else:
                has_successor |= mask
        return ~has_successor

    def action_matrix(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked per-action ``(enabled, successor)`` matrices.

        Shape ``(actions, len(codes))``; the batch Monte-Carlo sampler
        draws uniformly over each column's distinct enabled successors.
        """
        enabled = np.zeros((len(self._guards), codes.shape[0]), dtype=bool)
        successors = np.empty((len(self._guards), codes.shape[0]), dtype=np.int64)
        for index, (mask, succ) in enumerate(self.iter_actions(codes)):
            enabled[index] = mask
            successors[index] = succ
        return enabled, successors

    def successors(self, code: int) -> Tuple[int, ...]:
        """Scalar bridge: successor codes of one code, ascending."""
        _, targets = self.succ_pairs(np.asarray([code], dtype=np.int64))
        return tuple(int(target) for target in targets)

    # ------------------------------------------------------------------
    # Eager out-of-domain validation.
    # ------------------------------------------------------------------

    def _validate_full_space(self) -> None:
        """Raise the vector kernel's exact error on out-of-domain writes.

        One streamed pass over the space, recording per
        ``(action, assignment)`` the smallest offending code; the
        lexicographically first pair in the vector kernel's iteration
        order raises — same action, same state, same message.
        """
        offenders: Dict[Tuple[int, int], int] = {}
        for start in range(0, self.size, self.chunk):
            codes = np.arange(
                start, min(start + self.chunk, self.size), dtype=np.int64
            )
            digits, env = self.env_of(codes)
            for index in range(len(self._guards)):
                mask = np.broadcast_to(
                    np.asarray(self._guards[index](env), dtype=bool),
                    codes.shape,
                )
                enabled = np.nonzero(mask)[0]
                if not enabled.size:
                    continue
                action_env: ArrayEnv = {
                    free: env[free][enabled] for free in self._free_vars[index]
                }
                for slot, (target, lowered) in enumerate(self._assigns[index]):
                    if (index, slot) in offenders:
                        continue
                    plan = self._vars[target]
                    values = np.asarray(lowered(action_env)).astype(
                        np.int64, copy=False
                    )
                    if values.ndim == 0:
                        values = np.broadcast_to(values, enabled.shape)
                    if plan.identity:
                        invalid = (values < 0) | (values >= plan.radix)
                    else:
                        slots = np.searchsorted(plan.sorted_values, values)
                        clipped = np.minimum(slots, plan.sorted_values.size - 1)
                        invalid = (slots >= plan.sorted_values.size) | (
                            plan.sorted_values[clipped] != values
                        )
                    if bool(invalid.any()):
                        offenders[(index, slot)] = int(
                            codes[enabled[int(np.argmax(invalid))]]
                        )
        if offenders:
            index, _slot = min(offenders)
            _raise_out_of_domain(
                self.interner,
                self.program,
                self.actions[index],
                offenders[min(offenders)],
            )
