"""Streamed fixpoints: vector verdicts in bounded RSS.

Re-implementations of the vector engine's fixpoints
(:mod:`repro.kernel.vector.fixpoint`) over the shared substrate:

* flags live in bit-packed :class:`~.frontier.BitField`\\ s (in a
  shared-memory segment when workers shard the rounds);
* member/frontier batches are evaluated one code chunk at a time
  through the table-free :class:`~.kernel.SharedKernel`;
* frontier rounds and eviction lists that outgrow their RAM cap spill
  delta-encoded to the run's :class:`~.spill.SpillStore`;
* the cycle and longest-path analyses run as an **out-of-core Kahn
  peel**: one streamed pass writes each in-region edge to the bucket
  file owning its target's code range (the bucket count is sized from
  the region's member count, not the state space), then the peel
  runs in *sweeps*.  A sweep walks the buckets in ascending order and
  loads each bucket holding pending nodes once; a node freed into a
  later bucket is taken in the same sweep, one freed into an earlier
  bucket waits for the next.  After sweep ``p`` every node of height
  below ``p`` is final, so bucket loads are bounded by
  (longest path + 1) × buckets, however a Kahn level scatters across
  the code range.  Resident cost is one bucket plus the per-code
  degree array, never the edge set.

Verdict- and counter-compatibility with the vector fixpoints is exact:
the chunked core rounds evaluate the same Jacobi operator against the
same round-start snapshot (a member's eviction depends only on its own
out-edges and the snapshot, so chunk boundaries cannot change any
round's eviction set), and the peel computes the same
processed-versus-member count as the in-RAM Kahn trim.

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

from typing import List, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ...parallel.pool import (
    WorkerPool,
    using_worker_instrumentation,
    worker_context,
)
from ...resilience import chaos
from ..vector.kernel import VectorKernel, _ranges, _unique_sorted
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

#: Cap on peel buckets; above this the per-bucket bookkeeping
#: outweighs the RAM saving.
_MAX_BUCKETS = 512


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
# Terminals, cycles, longest path (out-of-core Kahn peel).
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


class _PeelGraph:
    """Phase A of the out-of-core peel: degrees and bucketed in-edges.

    One streamed pass over the region computes the per-code in-region
    out-degree (the only full-space array the peel keeps) and appends
    each in-region edge, as a ``(target, source)`` pair, to the spill
    bucket owning the target's code range.
    """

    def __init__(
        self,
        kernel: SharedKernel,
        region: BitField,
        runtime: SharedRuntime,
        drop_self: bool,
        image: Optional[SharedImage],
        track_exits: bool,
    ):
        size = kernel.size
        self.runtime = runtime
        self.member_count = region.count()
        # Sized from the region, not the state space: a small region
        # (a converged core) fits one bucket however large the space.
        pair_bytes = 2 * runtime.code_dtype.itemsize
        edge_estimate = (
            self.member_count * max(1, len(kernel.actions)) * pair_bytes
        )
        self.buckets = max(
            1,
            min(_MAX_BUCKETS, -(-edge_estimate // runtime.run_cap_bytes)),
        )
        self.span = -(-size // self.buckets)
        self.out_degree = np.zeros(size, dtype=np.uint16)
        self.exit_bits = BitField(size) if track_exits else None
        writers = [
            runtime.spill.bucket_writer(str(bucket))
            for bucket in range(self.buckets)
        ]
        for codes in region.member_chunks(runtime.chunk):
            origins, targets = kernel.succ_pairs(codes)
            sources = codes[origins]
            if drop_self:
                live = targets != sources
                sources, targets = sources[live], targets[live]
            inside = region.test(targets)
            if self.exit_bits is not None:
                self.exit_bits.set_codes(sources[~inside])
            sources, targets = sources[inside], targets[inside]
            if image is not None and sources.size:
                invisible = image.of(sources) == image.of(targets)
                sources, targets = sources[invisible], targets[invisible]
            if not sources.size:
                continue
            # ``sources`` is nondecreasing (succ_pairs sorts by origin
            # and the filters preserve order), so the out-degree bump
            # is a boundary count, not a scalar ``ufunc.at`` loop.
            grouped = sources
            if np.any(grouped[1:] < grouped[:-1]):
                grouped = np.sort(grouped)
            starts = np.flatnonzero(
                np.concatenate(([True], grouped[1:] != grouped[:-1]))
            )
            per_source = np.diff(np.append(starts, grouped.shape[0]))
            self.out_degree[grouped[starts]] += per_source.astype(np.uint16)
            bucket_of = targets // self.span
            order = np.argsort(bucket_of, kind="stable")
            targets, sources = targets[order], sources[order]
            for bucket, lo, hi in self._slices(bucket_of[order]):
                writers[bucket].append(targets[lo:hi], sources[lo:hi])

    def initial_pending(
        self, region: BitField
    ) -> Tuple[List[List[np.ndarray]], int]:
        """Zero-out-degree members, routed to their owning buckets."""
        pending: List[List[np.ndarray]] = [[] for _ in range(self.buckets)]
        processed = 0
        for codes in region.member_chunks(self.runtime.chunk):
            zero = codes[self.out_degree[codes] == 0]
            processed += int(zero.size)
            self._route(pending, zero)
        return pending, processed

    def _slices(self, bucket_of: np.ndarray) -> List[Tuple[int, int, int]]:
        """``(bucket, lo, hi)`` for each bucket a sorted ``bucket_of``
        reaches; buckets that receive nothing are never touched."""
        edges = np.searchsorted(
            bucket_of, np.arange(self.buckets + 1, dtype=np.int64)
        ).tolist()
        return [
            (bucket, edges[bucket], edges[bucket + 1])
            for bucket in np.flatnonzero(np.diff(edges)).tolist()
        ]

    def _route(
        self, pending: List[List[np.ndarray]], nodes: np.ndarray
    ) -> None:
        """Queue ascending ``nodes`` on the buckets owning them."""
        if not nodes.size:
            return
        for bucket, lo, hi in self._slices(nodes // self.span):
            pending[bucket].append(nodes[lo:hi])

    def peel(
        self,
        pending: List[List[np.ndarray]],
        processed: int,
        depth: Optional[np.ndarray] = None,
    ) -> int:
        """Run the peel to exhaustion in sweeps; returns nodes processed.

        A sweep walks the buckets in ascending order and visits each
        one holding pending nodes once.  A node freed into a later
        bucket is taken in the same sweep; one freed into the bucket
        being visited or an earlier one waits for the next sweep.
        After sweep ``p`` every node of height below ``p`` is final,
        so a peel makes at most longest path + 1 sweeps and loads
        each bucket at most once per sweep.

        With ``depth`` (an int32 per-code array) accumulates the
        longest-path metric exactly as the in-RAM peel: when a node is
        finalized, each in-edge source's depth rises to at least
        ``1 + depth[node]``.  Neither that maximum nor the processed
        count depends on the order nodes are finalized in.
        """
        sweeps = visits = 0
        while any(pending):
            sweeps += 1
            for bucket in range(self.buckets):
                if pending[bucket]:
                    visits += 1
                    processed += self._visit(bucket, pending, depth)
        instrumentation = self.runtime.instrumentation
        instrumentation.count("shm.peel.buckets", self.buckets)
        instrumentation.count("shm.peel.sweeps", sweeps)
        instrumentation.count("shm.peel.visits", visits)
        return processed

    def _visit(
        self,
        bucket: int,
        pending: List[List[np.ndarray]],
        depth: Optional[np.ndarray],
    ) -> int:
        """Finalize one bucket's pending nodes; returns nodes freed."""
        nodes = _unique_sorted(np.concatenate(pending[bucket]))
        pending[bucket] = []
        targets_b, sources_b = self.runtime.spill.load_bucket_sorted(
            str(bucket)
        )
        # Probe at the bucket's storage width: widening the probe
        # instead would upcast (and copy) the whole memory map.
        probe = nodes.astype(targets_b.dtype, copy=False)
        left = np.searchsorted(targets_b, probe)
        right = np.searchsorted(targets_b, probe, side="right")
        counts = right - left
        in_sources = np.asarray(
            sources_b[_ranges(left, counts)], dtype=np.int64
        )
        if not in_sources.size:
            return 0
        # One shared sort groups the in-edges by source; the grouped
        # forms of the degree decrement and the depth max are exact
        # replacements for the scalar ``ufunc.at`` loops (subtraction
        # of per-group counts, ``reduceat`` max).
        if depth is not None:
            contrib = np.repeat(depth[nodes].astype(np.int32) + 1, counts)
            order = np.argsort(in_sources, kind="stable")
            grouped = in_sources[order]
            contrib = contrib[order]
        else:
            grouped = np.sort(in_sources)
        starts = np.flatnonzero(
            np.concatenate(([True], grouped[1:] != grouped[:-1]))
        )
        uniq = grouped[starts]
        per_source = np.diff(np.append(starts, grouped.shape[0]))
        if depth is not None:
            peak = np.maximum.reduceat(contrib, starts)
            depth[uniq] = np.maximum(depth[uniq], peak)
        self.out_degree[uniq] -= per_source.astype(np.uint16)
        newly = uniq[self.out_degree[uniq] == 0]
        self._route(pending, newly)
        return int(newly.size)


def _peel(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool,
    image: Optional[SharedImage],
    track_exits: bool,
    depth: Optional[np.ndarray],
) -> Tuple[int, int, Optional[BitField]]:
    """Build the bucketed graph, peel it, and clean the buckets up."""
    try:
        graph = _PeelGraph(
            kernel, region, runtime, drop_self, image, track_exits
        )
        if graph.member_count == 0:
            return 0, 0, None
        pending, processed = graph.initial_pending(region)
        if depth is not None and graph.exit_bits is not None:
            for codes in region.member_chunks(runtime.chunk):
                exits = codes[graph.exit_bits.test(codes)]
                depth[exits] = 1
        processed = graph.peel(pending, processed, depth)
        return processed, graph.member_count, graph.exit_bits
    finally:
        runtime.spill.drop_buckets()


def shared_has_cycle(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
    image: Optional[SharedImage] = None,
) -> bool:
    """Whether a cycle (including a self-loop) lies within ``region``.

    The vector engine's Kahn trim with the edge set on disk: a cycle
    exists iff the peel cannot exhaust the region.  With ``image`` the
    relation is first restricted to image-invisible edges.
    """
    processed, member_count, _ = _peel(
        kernel, region, runtime, drop_self, image, False, None
    )
    return processed < member_count


def shared_longest_path(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
) -> Optional[int]:
    """Longest transition path staying within ``region``, or ``None``
    when a cycle (including a self-loop) lies within it.

    The peel is :func:`shared_has_cycle`'s, with the depth tracked on
    top, so one peel decides divergence and the worst case together.
    """
    depth = np.zeros(kernel.size, dtype=np.int32)
    processed, member_count, _ = _peel(
        kernel, region, runtime, drop_self, None, True, depth
    )
    if member_count == 0:
        return 0
    if processed < member_count:
        return None
    longest = 0
    for codes in region.member_chunks(runtime.chunk):
        longest = max(longest, int(depth[codes].max()))
    return longest
