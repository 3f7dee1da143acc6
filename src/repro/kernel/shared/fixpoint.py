"""Streamed fixpoints: vector verdicts in bounded RSS.

Re-implementations of the vector engine's fixpoints
(:mod:`repro.kernel.vector.fixpoint`) over the shared substrate:

* flags live in bit-packed :class:`~.frontier.BitField`\\ s (in a
  shared-memory segment when workers shard the rounds);
* member/frontier batches are evaluated one code chunk at a time
  through the table-free :class:`~.kernel.SharedKernel`;
* frontier rounds and eviction lists that outgrow their RAM cap spill
  delta-encoded to the run's :class:`~.spill.SpillStore`;
* the cycle and longest-path analyses run as one **forward,
  level-synchronous Kahn peel** (:func:`shared_longest_path` has the
  details): one streamed pass counts each region member's in-region
  in-degree into a full-space ``int32`` array, and each level's
  frontier is re-expanded through the streamed kernel to decrement its
  targets' in-degrees.  No edge is ever stored: resident cost is the
  in-degree array (4 B/state) plus one batch and the level's
  spill-capped :class:`~.frontier.CodeRuns`.

Verdict- and counter-compatibility with the vector fixpoints is exact:
the chunked core rounds evaluate the same Jacobi operator against the
same round-start snapshot (a member's eviction depends only on its own
out-edges and the snapshot, so chunk boundaries cannot change any
round's eviction set), and the peel is the vector engine's, level for
level: the same edge multiset, read a batch at a time.

Worker sharding follows the repo's fork protocol: the driver stages
kernel and round parameters in the :class:`~repro.parallel.pool.WorkerPool`
context (inherited copy-on-write — lowered closures need no pickling
and no re-derivation), workers attach to the flags segment by name and
scan their byte-range partition, and each returns its results through
a run-prefixed output segment the driver attaches, consumes, and
unlinks.  Supervision (timeouts, kills, quarantine-to-inline) comes
from the resilience supervisor; the registry's prefix sweep reclaims
any segment a killed worker left behind.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ...parallel.pool import (
    WorkerPool,
    using_worker_instrumentation,
    worker_context,
)
from ...resilience import chaos
from ..vector.kernel import VectorKernel, _unique_sorted
from .frontier import BitField, CodeRuns
from .image import SharedImage
from .kernel import SharedKernel
from .runtime import SharedRuntime
from .segments import attach_segment, create_worker_segment
from .visited import attach_visited, open_visited

__all__ = [
    "shared_reachable",
    "shared_core",
    "shared_terminals",
    "shared_has_cycle",
    "shared_longest_path",
]

def _partition_bounds(nbytes: int, parts: int) -> List[Tuple[int, int]]:
    """Byte-range partition of a bitfield across ``parts`` workers."""
    return [
        (part * nbytes // parts, (part + 1) * nbytes // parts)
        for part in range(parts)
    ]


def _consume_outputs(
    runtime: SharedRuntime, results: List[Tuple[Optional[str], int]]
) -> List[np.ndarray]:
    """Attach, copy out, and unlink every worker output segment.

    Outputs travel at the run's storage width; consumers widen at the
    arithmetic boundary.
    """
    arrays: List[np.ndarray] = []
    for name, count in results:
        if not name or count == 0:
            continue
        segment = runtime.registry.attach(name)
        try:
            codes = np.frombuffer(
                segment.buf, dtype=runtime.code_dtype, count=count
            ).copy()
        finally:
            runtime.registry.release(segment)
        arrays.append(codes)
    return arrays


# ----------------------------------------------------------------------
# Reachability.
# ----------------------------------------------------------------------


def _expand_task(payload: Tuple[int, int, int]) -> Tuple[Optional[str], int]:
    """Worker: expand one code-range partition of the staged frontier.

    Reads the frontier run (at the run's storage width) and the shared
    visited backing — shm segment or mmap file — zero-copy, expands
    its partition chunk-wise, and writes the deduplicated unvisited
    targets to an output segment.
    """
    part, parts, round_index = payload
    ctx = worker_context()["shared_reachable"]
    kernel: SharedKernel = ctx["kernel"]
    code_dtype: np.dtype = ctx["code_dtype"]
    frontier_segment = attach_segment(ctx["frontier_name"])
    attached = attach_visited(ctx["visited_ref"])
    frontier = None
    try:
        frontier = np.frombuffer(
            frontier_segment.buf, dtype=code_dtype, count=ctx["frontier_count"]
        )
        visited = attached.field
        lo = part * kernel.size // parts
        hi = (part + 1) * kernel.size // parts
        # Probe at the frontier's storage width: ``hi`` can equal
        # ``size`` (one past the largest code), which may not fit a
        # narrow dtype — but then every frontier code is below it.
        begin = int(np.searchsorted(frontier, np.asarray(lo, dtype=code_dtype)))
        if hi >= kernel.size:
            end = int(frontier.shape[0])
        else:
            end = int(
                np.searchsorted(frontier, np.asarray(hi, dtype=code_dtype))
            )
        fresh_parts: List[np.ndarray] = []
        for start in range(begin, end, ctx["chunk"]):
            codes = frontier[start : min(start + ctx["chunk"], end)]
            _, targets = kernel.succ_pairs(codes)
            fresh = _unique_sorted(targets)
            fresh = fresh[~visited.test(fresh)]
            if fresh.size:
                fresh_parts.append(fresh)
        if not fresh_parts:
            return None, 0
        fresh_all = _unique_sorted(np.concatenate(fresh_parts))
        return _write_output(
            ctx["prefix"], f"x{round_index}p{part}", fresh_all, code_dtype
        )
    finally:
        frontier = None  # noqa: F841 - drops the exported buffer view
        attached.close()
        frontier_segment.close()


def _write_output(
    prefix: str, tag: str, codes: np.ndarray, dtype: np.dtype
) -> Tuple[str, int]:
    """Write a worker result array into a fresh run-prefixed segment."""
    stored = np.ascontiguousarray(codes, dtype=dtype)
    out = create_worker_segment(prefix, tag, stored.nbytes)
    view = np.frombuffer(out.buf, dtype=dtype, count=stored.size)
    view[:] = stored
    del view  # release the exported buffer before unmapping
    name = out.name
    out.close()
    return name, int(stored.size)


def shared_reachable(
    kernel: SharedKernel,
    sources: np.ndarray,
    runtime: SharedRuntime,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> BitField:
    """Codes reachable from ``sources`` as a bit-packed field.

    The vector BFS with three substitutions: visited flags are one bit
    per code (in a shm segment when sharded, an mmap file when the
    field outgrows its budget slice — :func:`~.visited.open_visited`),
    each frontier round is a :class:`CodeRuns` that spills past its
    RAM cap, and rounds larger than the sharding threshold fan out
    over code-range partitions.  The visited *set* per round is
    identical to the vector engine's.
    """
    size = kernel.size
    handle = open_visited(runtime, size, "visited", instrumentation)
    visited = handle.field
    frontier = CodeRuns(
        runtime.spill, runtime.run_cap_bytes, dtype=runtime.code_dtype
    )
    start = _unique_sorted(np.asarray(sources, dtype=np.int64))
    visited.set_codes(start)
    frontier.append(start)
    progress = ProgressEmitter(instrumentation, "shared.reachable")
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    rounds = 0
    expanded = 0
    while frontier.count:
        rounds += 1
        expanded += frontier.count
        if chaos_hook is not None:
            chaos_hook("shared", expanded)
        if progress.enabled:
            instrumentation.observe("shm.frontier.size", frontier.count)
            progress.tick(rounds, frontier.count, expanded)
        next_frontier = CodeRuns(
            runtime.spill, runtime.run_cap_bytes, dtype=runtime.code_dtype
        )
        for run_index, run in enumerate(frontier.chunks()):
            if runtime.parallel(run.size) and handle.sharable:
                run_segment = runtime.registry.create(
                    run.nbytes, f"f{rounds}r{run_index}"
                )
                staged = np.frombuffer(
                    run_segment.buf, dtype=run.dtype, count=run.size
                )
                staged[:] = run
                del staged
                handle.flush()
                with WorkerPool(
                    runtime.workers,
                    shared_reachable={
                        "kernel": kernel,
                        "frontier_name": run_segment.name,
                        "frontier_count": int(run.size),
                        "code_dtype": runtime.code_dtype,
                        "visited_ref": handle.ref,
                        "prefix": runtime.registry.prefix,
                        "chunk": runtime.chunk,
                    },
                ) as pool:
                    # Route supervision recoveries (worker death,
                    # retries, quarantine) to the engine's sink.
                    with using_worker_instrumentation(instrumentation):
                        results = pool.map(
                            _expand_task,
                            [
                                (part, runtime.workers, rounds)
                                for part in range(runtime.workers)
                            ],
                        )
                runtime.registry.release(run_segment)
                for codes in _consume_outputs(runtime, results):
                    mask = ~visited.test(codes)
                    fresh = codes[mask]
                    visited.set_codes(fresh)
                    next_frontier.append(fresh)
            else:
                for offset in range(0, run.size, runtime.chunk):
                    codes = run[offset : offset + runtime.chunk]
                    _, targets = kernel.succ_pairs(codes)
                    fresh = _unique_sorted(targets)
                    fresh = fresh[~visited.test(fresh)]
                    visited.set_codes(fresh)
                    next_frontier.append(fresh)
        frontier.clear()
        frontier = next_frontier
        if frontier.spilled_runs:
            instrumentation.count("shm.spill.rounds")
    frontier.clear()
    # The caller owns a private bitfield either way; the shared
    # backing (segment or mmap file) is released here.
    return handle.detach_private()


# ----------------------------------------------------------------------
# The behavioural core.
# ----------------------------------------------------------------------


def _evict_chunk(
    members: np.ndarray,
    kernel: SharedKernel,
    abstract_kernel: VectorKernel,
    image: SharedImage,
    flags: BitField,
    abs_has_successor: np.ndarray,
    stutter_insensitive: bool,
    ignorable_stutter: bool,
) -> np.ndarray:
    """Members of one chunk the current Jacobi round evicts.

    A transliteration of one ``vector_core`` round restricted to
    ``members`` — exact, because a member's eviction depends only on
    its own out-edges and the round-start snapshot in ``flags``.
    """
    origins, targets = kernel.succ_pairs(members)
    image_members = image.of(members)
    sources = members[origins]
    image_source = image_members[origins]
    image_target = image.of(targets)
    abstract_edge = abstract_kernel.has_edge(image_source, image_target)
    self_loop = targets == sources
    if stutter_insensitive:
        stutter_progress = image_target == image_source
    else:
        stutter_progress = np.zeros(targets.shape, dtype=bool)
    member_target = flags.test(targets)
    if ignorable_stutter:
        evict_self = np.zeros(targets.shape, dtype=bool)
    else:
        evict_self = ~abstract_edge
    evict_edge = np.where(
        self_loop,
        evict_self,
        ~member_target | (~stutter_progress & ~abstract_edge),
    )
    progress_edge = np.where(
        self_loop,
        abstract_edge,
        member_target & (stutter_progress | abstract_edge),
    )
    count = members.size
    evict = np.bincount(origins[evict_edge], minlength=count) > 0
    progressed = np.bincount(origins[progress_edge], minlength=count) > 0
    evict |= ~progressed & abs_has_successor[image_members]
    return members[evict]


def _core_round_task(
    payload: Tuple[int, int, int]
) -> Tuple[Optional[str], int]:
    """Worker: evaluate one Jacobi round over a flags partition."""
    part, parts, round_index = payload
    ctx = worker_context()["shared_core"]
    kernel: SharedKernel = ctx["kernel"]
    attached = attach_visited(ctx["flags_ref"])
    try:
        flags = attached.field
        start_byte, end_byte = _partition_bounds(flags.nbytes, parts)[part]
        evicted_parts: List[np.ndarray] = []
        for members in flags.member_chunks(ctx["chunk"], start_byte, end_byte):
            evicted = _evict_chunk(
                members,
                kernel,
                ctx["abstract_kernel"],
                ctx["image"],
                flags,
                ctx["abs_has_successor"],
                ctx["stutter_insensitive"],
                ctx["ignorable_stutter"],
            )
            if evicted.size:
                evicted_parts.append(evicted)
        if not evicted_parts:
            return None, 0
        evicted_all = np.concatenate(evicted_parts)
        return _write_output(
            ctx["prefix"], f"c{round_index}p{part}", evicted_all,
            ctx["code_dtype"],
        )
    finally:
        attached.close()


def shared_core(
    kernel: SharedKernel,
    abstract_kernel: VectorKernel,
    image: SharedImage,
    legitimate: np.ndarray,
    stutter_insensitive: bool,
    fairness_ignores_stutter: bool,
    runtime: SharedRuntime,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> BitField:
    """The behavioural core as a bit-packed field over concrete codes.

    ``vector_core``'s Jacobi fixpoint with streamed init and rounds.
    Counters and per-iteration events are emitted with the vector
    engine's names and values — the rounds evaluate the identical
    operator, so ``check.fixpoint.iteration`` sequences agree.
    """
    size = kernel.size
    legitimate = np.asarray(legitimate, dtype=bool)
    handle = open_visited(runtime, size, "core", instrumentation)
    flags = handle.field
    remaining = 0
    for start in range(0, size, runtime.chunk):
        codes = np.arange(
            start, min(start + runtime.chunk, size), dtype=np.int64
        )
        images = image.of(codes)
        valid = images >= 0
        member = valid & legitimate[np.where(valid, images, 0)]
        hits = codes[member]
        flags.set_codes(hits)
        remaining += int(hits.size)
    instrumentation.count("check.states.enumerated", size)
    instrumentation.count("check.candidates.initial", remaining)
    abs_has_successor = ~abstract_kernel.terminal_flags()
    ignorable_stutter = stutter_insensitive or fairness_ignores_stutter
    progress = ProgressEmitter(instrumentation, "shared.core")
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    if chaos_hook is not None:
        chaos_hook("shared", size)
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if chaos_hook is not None:
            chaos_hook("shared", size * (iterations + 1))
        evicted_runs = CodeRuns(
            runtime.spill, runtime.run_cap_bytes, dtype=runtime.code_dtype
        )
        if runtime.parallel(remaining) and handle.sharable:
            handle.flush()
            with WorkerPool(
                runtime.workers,
                shared_core={
                    "kernel": kernel,
                    "abstract_kernel": abstract_kernel,
                    "image": image,
                    "flags_ref": handle.ref,
                    "code_dtype": runtime.code_dtype,
                    "abs_has_successor": abs_has_successor,
                    "stutter_insensitive": stutter_insensitive,
                    "ignorable_stutter": ignorable_stutter,
                    "prefix": runtime.registry.prefix,
                    "chunk": runtime.chunk,
                },
            ) as pool:
                # Route supervision recoveries to the engine's sink.
                with using_worker_instrumentation(instrumentation):
                    results = pool.map(
                        _core_round_task,
                        [
                            (part, runtime.workers, iterations)
                            for part in range(runtime.workers)
                        ],
                    )
            for codes in _consume_outputs(runtime, results):
                evicted_runs.append(codes)
        else:
            for members in flags.member_chunks(runtime.chunk):
                evicted = _evict_chunk(
                    members,
                    kernel,
                    abstract_kernel,
                    image,
                    flags,
                    abs_has_successor,
                    stutter_insensitive,
                    ignorable_stutter,
                )
                evicted_runs.append(evicted)
        evicted_total = evicted_runs.count
        for codes in evicted_runs.chunks():
            flags.clear_codes(codes)
        if evicted_runs.spilled_runs:
            instrumentation.count("shm.spill.rounds")
        evicted_runs.clear()
        changed = evicted_total > 0
        remaining -= evicted_total
        instrumentation.event(
            "check.fixpoint.iteration",
            index=iterations,
            evicted=evicted_total,
            remaining=remaining,
        )
        instrumentation.count("check.states.evicted", evicted_total)
        instrumentation.observe("check.round.evicted", evicted_total)
        progress.tick(iterations, remaining, size * iterations)
    instrumentation.count("check.fixpoint.iterations", iterations)
    return handle.detach_private()


# ----------------------------------------------------------------------
# Terminals, cycles, longest path (forward Kahn peel).
# ----------------------------------------------------------------------


def shared_terminals(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
) -> np.ndarray:
    """Codes in ``region`` with no successors at all, ascending."""
    found: List[np.ndarray] = []
    for codes in region.member_chunks(runtime.chunk):
        terminal = kernel.terminal_chunk(codes, drop_self)
        if terminal.any():
            found.append(codes[terminal])
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(found)


def _inside_targets(
    kernel: SharedKernel,
    codes: np.ndarray,
    region: BitField,
    drop_self: bool,
    image: Optional[SharedImage],
) -> Tuple[np.ndarray, bool]:
    """The targets of the edges out of ``codes`` staying inside
    ``region``, as a multiset (image-invisible ones only, with
    ``image``), and whether some edge left the region."""
    images = None if image is None else image.of(codes)
    parts: List[np.ndarray] = []
    exits = False
    for origins, targets in kernel.edge_parts(codes, drop_self):
        inside = region.test(targets)
        exits = exits or not bool(inside.all())
        targets = targets[inside]
        if images is not None:
            targets = targets[images[origins[inside]] == image.of(targets)]
        parts.append(targets)
    return np.concatenate(parts), exits


def _grouped(hits: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``hits``, ascending, and their multiplicities.

    One sort, so adding or subtracting the multiplicities at the
    distinct values is the exact, vectorized form of a ``ufunc.at``
    loop over ``hits``.
    """
    if not hits.size:
        return hits, np.empty(0, dtype=np.int32)
    hits = np.sort(hits)
    starts = np.flatnonzero(np.concatenate(([True], hits[1:] != hits[:-1])))
    counts = np.diff(np.append(starts, hits.shape[0]))
    return hits[starts], counts.astype(np.int32)


def _batches(runs: CodeRuns, size: int) -> Iterator[np.ndarray]:
    """The codes of ``runs`` joined into int64 batches of ``size``.

    A level's frontier arrives as many small runs, one per batch of
    the level before; expanding each run on its own would pay the
    per-call cost of the streamed evaluator once per run.
    """
    pending: List[np.ndarray] = []
    held = 0
    for run in runs.chunks():
        offset = 0
        while offset < run.shape[0]:
            piece = run[offset : offset + size - held]
            pending.append(piece)
            held += int(piece.shape[0])
            offset += int(piece.shape[0])
            if held == size:
                yield np.concatenate(pending).astype(np.int64)
                pending, held = [], 0
    if held:
        yield np.concatenate(pending).astype(np.int64)


def _forward_peel(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool,
    image: Optional[SharedImage],
) -> Tuple[bool, int]:
    """One forward, level-synchronous Kahn peel of ``region``.

    Returns ``(cyclic, worst)``: whether the levels failed to exhaust
    the region, and the worst case :func:`shared_longest_path` reports
    when they did.  Each member is expanded once to count in-degrees
    and once more if it is peeled; the only full-space array is the
    int32 in-degree, and each level is a :class:`CodeRuns` that spills
    past its RAM cap.
    """
    in_degree = np.zeros(kernel.size, dtype=np.int32)
    members = 0
    for codes in region.member_chunks(runtime.chunk):
        members += int(codes.shape[0])
        targets, _ = _inside_targets(kernel, codes, region, drop_self, image)
        nodes, counts = _grouped(targets)
        in_degree[nodes] += counts
    frontier = CodeRuns(
        runtime.spill, runtime.run_cap_bytes, dtype=runtime.code_dtype
    )
    for codes in region.member_chunks(runtime.chunk):
        frontier.append(codes[in_degree[codes] == 0])
    peeled = worst = level = 0
    while frontier.count:
        peeled += frontier.count
        exits = False
        next_level = CodeRuns(
            runtime.spill, runtime.run_cap_bytes, dtype=runtime.code_dtype
        )
        for batch in _batches(frontier, runtime.chunk):
            targets, left = _inside_targets(
                kernel, batch, region, drop_self, image
            )
            exits = exits or left
            nodes, counts = _grouped(targets)
            in_degree[nodes] -= counts
            next_level.append(nodes[in_degree[nodes] == 0])
        worst = max(worst, level + exits)
        if frontier.spilled_runs:
            runtime.instrumentation.count("shm.spill.rounds")
        frontier.clear()
        frontier = next_level
        level += 1
    runtime.instrumentation.count("shm.peel.levels", level)
    runtime.instrumentation.count("shm.peel.expanded", members + peeled)
    return peeled < members, worst


def shared_has_cycle(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
    image: Optional[SharedImage] = None,
) -> bool:
    """Whether a cycle (including a self-loop) lies within ``region``.

    Runs the forward Kahn peel (see :func:`shared_longest_path`): a
    cycle exists iff its levels do not exhaust the region.  With
    ``image`` the relation is first restricted to image-invisible
    edges — the invisible-cycles analysis inside the core.
    """
    cyclic, _ = _forward_peel(kernel, region, runtime, drop_self, image)
    return cyclic


def shared_longest_path(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
) -> Optional[int]:
    """Longest transition path staying within ``region``, or ``None``
    when a cycle (including a self-loop) lies within it.

    ``vector_longest_path``'s forward, level-synchronous Kahn peel
    with the tables replaced by the streamed kernel.  One pass over
    the region counts every member's in-region in-degree into a
    full-space ``int32`` array, with one grouped sort per chunk.  The
    members at in-degree 0 form level 0.  Each level's frontier is
    re-expanded through the table-free kernel in batches of
    ``runtime.chunk`` codes; one grouped sort per batch decrements the
    in-degrees of its in-region targets, and the nodes that reach 0
    form the next level.  No edge is stored.

    The edges are read straight from :meth:`SharedKernel.edge_parts`
    as a multiset, so two actions making the same move count twice.
    The in-degree count and the decrements see the same multiset, so
    a duplicated edge cannot change a level.

    A node's level is the longest in-region path ending at it, so the
    worst case is the maximum over levels ``L`` of ``L + 1`` when some
    node at level ``L`` has a transition leaving the region (a step
    into the core still counts), and ``L`` otherwise.  The levels
    exhaust the region exactly when no cycle lies within it, as
    :func:`shared_has_cycle` decides with the same peel.
    """
    cyclic, worst = _forward_peel(kernel, region, runtime, drop_self, None)
    return None if cyclic else worst
