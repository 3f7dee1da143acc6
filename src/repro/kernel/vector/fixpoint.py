"""Frontier-array fixpoints over packed codes.

Array re-implementations of the packed engine's bitset fixpoints
(:mod:`repro.kernel.fixpoint`): reachability as a ``np.unique``-deduped
frontier iteration, the behavioural-core greatest fixpoint as Jacobi
rounds over whole member batches, and cycle/terminal/longest-path
analysis as Kahn peels over in-region edge arrays.

Every function computes exactly the set (or verdict) of its packed and
tuple counterparts and emits the same observability counters.  The one
documented divergence — shared with the packed engine's parallel mode
— is ``check.fixpoint.iterations`` and the per-iteration events: the
core fixpoint here runs whole-batch Jacobi rounds while the sequential
sweeps are Gauss–Seidel, so round *counts* may differ even though the
greatest fixpoint (the operator is monotone) and the total
``check.states.evicted`` are identical.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ...resilience import chaos
from .kernel import VectorKernel, _ranges, _unique_sorted

__all__ = [
    "region_edges",
    "vector_reachable",
    "vector_core",
    "vector_has_cycle",
    "vector_terminals",
    "vector_longest_path",
]


def vector_reachable(
    kernel: VectorKernel,
    sources: np.ndarray,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> np.ndarray:
    """Boolean flags of the codes reachable from ``sources`` (inclusive)."""
    seen = np.zeros(kernel.size, dtype=bool)
    frontier = _unique_sorted(np.asarray(sources, dtype=np.int64))
    if frontier.size:
        seen[frontier] = True
    progress = ProgressEmitter(instrumentation, "vector.reachable")
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    rounds = 0
    expanded = 0
    while frontier.size:
        rounds += 1
        expanded += int(frontier.size)
        if chaos_hook is not None:
            chaos_hook("vector", expanded)
        if progress.enabled:
            instrumentation.observe("vector.frontier.size", int(frontier.size))
            progress.tick(rounds, int(frontier.size), expanded)
        _, targets = kernel.succ_pairs(frontier)
        fresh = _unique_sorted(targets)
        fresh = fresh[~seen[fresh]]
        seen[fresh] = True
        frontier = fresh
    return seen


def vector_core(
    kernel: VectorKernel,
    abstract_kernel: VectorKernel,
    image_of: np.ndarray,
    legitimate: np.ndarray,
    stutter_insensitive: bool,
    fairness_ignores_stutter: bool,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> np.ndarray:
    """The behavioural core as boolean flags over concrete codes.

    The same greatest fixpoint as ``packed_core`` /
    ``behavioural_core``, evaluated as whole-batch Jacobi rounds: each
    round classifies every remaining member's outgoing edges at once
    against a snapshot of the membership flags, then evicts.  Eviction
    per edge transliterates ``_must_evict_packed``:

    * a self-loop whose image step is not an abstract edge evicts
      unless stuttering is ignorable, and counts as progress exactly
      when the image step *is* an abstract edge;
    * a non-self edge evicts when its target left the membership, or
      when it is neither an insensitive image-stutter nor an abstract
      edge; it counts as progress otherwise;
    * a member with no progress at all evicts unless its image is
      terminal in the abstraction (premature deadlock).
    """
    size = kernel.size
    image_of = np.asarray(image_of, dtype=np.int64)
    legitimate = np.asarray(legitimate, dtype=bool)
    valid = image_of >= 0
    flags = valid & legitimate[np.where(valid, image_of, 0)]
    remaining = int(flags.sum())
    instrumentation.count("check.states.enumerated", size)
    instrumentation.count("check.candidates.initial", remaining)
    abs_has_successor = ~abstract_kernel.terminal_flags()
    ignorable_stutter = stutter_insensitive or fairness_ignores_stutter
    progress = ProgressEmitter(instrumentation, "vector.core")
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    if chaos_hook is not None:
        chaos_hook("vector", size)
    iterations = 0
    changed = True
    while changed:
        iterations += 1
        if chaos_hook is not None:
            chaos_hook("vector", size * (iterations + 1))
        members = np.nonzero(flags)[0]
        origins, targets = kernel.succ_pairs(members)
        sources = members[origins]
        image_source = image_of[sources]
        image_target = image_of[targets]
        abstract_edge = abstract_kernel.has_edge(image_source, image_target)
        self_loop = targets == sources
        if stutter_insensitive:
            stutter_progress = image_target == image_source
        else:
            stutter_progress = np.zeros(targets.shape, dtype=bool)
        member_target = flags[targets]
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
        evict |= ~progressed & abs_has_successor[image_of[members]]
        evicted = int(evict.sum())
        flags[members[evict]] = False
        changed = evicted > 0
        remaining -= evicted
        instrumentation.event(
            "check.fixpoint.iteration",
            index=iterations,
            evicted=evicted,
            remaining=remaining,
        )
        instrumentation.count("check.states.evicted", evicted)
        instrumentation.observe("check.round.evicted", evicted)
        progress.tick(iterations, remaining, size * iterations)
    instrumentation.count("check.fixpoint.iterations", iterations)
    return flags


def region_edges(
    kernel: VectorKernel,
    region: np.ndarray,
    drop_self: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transition edges staying inside ``region``, plus exit flags.

    Returns ``(sources, targets, has_exit)``: parallel arrays of
    in-region edges (sorted by source, then target) and a per-code
    full-space mask of region members with at least one transition
    *leaving* the region — the "one last step into the core" the
    worst-case metric counts.
    """
    codes = np.nonzero(region)[0]
    origins, targets = kernel.succ_pairs(codes)
    sources = codes[origins]
    if drop_self:
        live = targets != sources
        sources, targets = sources[live], targets[live]
    inside = region[targets]
    has_exit = np.zeros(kernel.size, dtype=bool)
    has_exit[sources[~inside]] = True
    return sources[inside], targets[inside], has_exit


def _peel_order(
    count: int, sources: np.ndarray, targets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Shared Kahn peel state for the cycle and longest-path analyses.

    ``sources``/``targets`` are *relabelled* node indices in
    ``[0, count)``.  Returns the reverse-CSR arrays (in-edge sources
    sorted by target, with ``indptr``), the per-node out-degrees, the
    initial zero-out-degree queue, and its size.
    """
    out_degree = np.bincount(sources, minlength=count)
    order = np.argsort(targets, kind="stable")
    in_sources = sources[order]
    in_indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=count), out=in_indptr[1:])
    queue = np.nonzero(out_degree == 0)[0]
    return in_sources, in_indptr, out_degree, queue, int(queue.size)


def vector_has_cycle(
    kernel: VectorKernel,
    region: np.ndarray,
    drop_self: bool = False,
    image_of: Optional[np.ndarray] = None,
) -> bool:
    """Whether a cycle (including a self-loop) lies within ``region``.

    Kahn-style trim: repeatedly peel region nodes whose every in-region
    edge leads to an already-peeled node; a cycle exists iff the peel
    does not exhaust the region.  With ``image_of`` the relation is
    first restricted to image-invisible edges (``image_of[source] ==
    image_of[target]``) — the invisible-cycles analysis inside the
    core.
    """
    codes = np.nonzero(region)[0]
    count = codes.size
    if count == 0:
        return False
    sources, targets, _ = region_edges(kernel, region, drop_self)
    if image_of is not None:
        image_of = np.asarray(image_of, dtype=np.int64)
        invisible = image_of[sources] == image_of[targets]
        sources, targets = sources[invisible], targets[invisible]
    sources = np.searchsorted(codes, sources)
    targets = np.searchsorted(codes, targets)
    in_sources, in_indptr, out_degree, queue, processed = _peel_order(
        count, sources, targets
    )
    while queue.size:
        counts = in_indptr[queue + 1] - in_indptr[queue]
        in_edges = in_sources[_ranges(in_indptr[queue], counts)]
        out_degree -= np.bincount(in_edges, minlength=count)
        queue = _unique_sorted(in_edges)
        queue = queue[out_degree[queue] == 0]
        processed += int(queue.size)
    return processed < count


def vector_terminals(
    kernel: VectorKernel, region: np.ndarray, drop_self: bool = False
) -> np.ndarray:
    """Codes in ``region`` with no successors at all, ascending."""
    return np.nonzero(region & kernel.terminal_flags(drop_self))[0]


def vector_longest_path(
    kernel: VectorKernel,
    region: np.ndarray,
    drop_self: bool = False,
) -> Optional[int]:
    """Longest transition path staying within ``region``, or ``None``
    when a cycle (including a self-loop) lies within it.

    The worst-case convergence metric: a step landing outside the
    region (into the core) still counts as one step.  Kahn peel in
    reverse topological order, finalizing a node's depth once all of
    its in-region out-edges are finalized, with
    ``depth[v] = max(exit ? 1 : 0, max over in-region v->u of
    1 + depth[u])`` accumulated through ``np.maximum.at``.  The peel
    exhausts the region exactly when :func:`vector_has_cycle`'s does,
    so one peel decides divergence and the worst case together.
    """
    codes = np.nonzero(region)[0]
    count = codes.size
    if count == 0:
        return 0
    sources, targets, has_exit = region_edges(kernel, region, drop_self)
    sources = np.searchsorted(codes, sources)
    targets = np.searchsorted(codes, targets)
    in_sources, in_indptr, out_degree, queue, processed = _peel_order(
        count, sources, targets
    )
    depth = np.where(has_exit[codes], np.int64(1), np.int64(0))
    while queue.size:
        counts = in_indptr[queue + 1] - in_indptr[queue]
        gathered = _ranges(in_indptr[queue], counts)
        in_edges = in_sources[gathered]
        finalized = np.repeat(queue, counts)
        np.maximum.at(depth, in_edges, 1 + depth[finalized])
        out_degree -= np.bincount(in_edges, minlength=count)
        queue = _unique_sorted(in_edges)
        queue = queue[out_degree[queue] == 0]
        processed += int(queue.size)
    if processed < count:
        return None
    return int(depth.max())
