"""Frontier-array fixpoints over packed codes.

Array re-implementations of the packed engine's bitset fixpoints
(:mod:`repro.kernel.fixpoint`): reachability as a ``np.unique``-deduped
frontier iteration, the behavioural-core greatest fixpoint as Jacobi
rounds over whole member batches, and terminals as one mask.

Divergence and the worst case come from one forward, level-synchronous
Kahn peel of a region (:func:`vector_longest_path` has the details).
It peels from the nodes without an in-region in-edge, keeps in-degrees
in a full-space ``int32`` array, and reads the action tables directly
as an edge multiset (:meth:`VectorKernel.edge_parts`): codes are never
relabelled, and no reverse adjacency is built.  A node's level is the
longest in-region path ending at it, so the level index gives the worst
case, and a cycle lies within the region iff the levels do not exhaust
it.

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

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ...resilience import chaos
from .kernel import VectorKernel, _unique_sorted

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


def _evict_chunk(
    members: np.ndarray,
    kernel: VectorKernel,
    abstract_kernel: VectorKernel,
    image_of: Callable[[np.ndarray], np.ndarray],
    member: Callable[[np.ndarray], np.ndarray],
    abs_has_successor: np.ndarray,
    stutter_insensitive: bool,
    ignorable_stutter: bool,
) -> np.ndarray:
    """The codes of ``members`` one Jacobi round of the core fixpoint
    evicts.

    ``image_of`` maps codes to abstract codes and ``member`` tests
    codes against the round-start membership snapshot; ``kernel`` is
    read only through ``succ_pairs``, so the shared engine's streamed
    kernel serves as well as a vector one.  A member's eviction depends
    only on its own out-edges and the snapshot, so any split of the
    members into chunks evicts the same codes.  Eviction per edge
    transliterates ``_must_evict_packed``:

    * a self-loop whose image step is not an abstract edge evicts
      unless stuttering is ignorable, and counts as progress exactly
      when the image step *is* an abstract edge;
    * a non-self edge evicts when its target left the membership, or
      when it is neither an insensitive image-stutter nor an abstract
      edge; it counts as progress otherwise;
    * a member with no progress at all evicts unless its image is
      terminal in the abstraction (premature deadlock).
    """
    origins, targets = kernel.succ_pairs(members)
    image_members = image_of(members)
    sources = members[origins]
    image_source = image_members[origins]
    image_target = image_of(targets)
    abstract_edge = abstract_kernel.has_edge(image_source, image_target)
    self_loop = targets == sources
    if stutter_insensitive:
        stutter_progress = image_target == image_source
    else:
        stutter_progress = np.zeros(targets.shape, dtype=bool)
    member_target = member(targets)
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
    round is one :func:`_evict_chunk` over every remaining member,
    against a snapshot of the membership flags, then evicts what it
    returns.
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
        evicted_codes = _evict_chunk(
            np.nonzero(flags)[0],
            kernel,
            abstract_kernel,
            image_of.__getitem__,
            flags.__getitem__,
            abs_has_successor,
            stutter_insensitive,
            ignorable_stutter,
        )
        flags[evicted_codes] = False
        evicted = int(evicted_codes.size)
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
) -> Tuple[np.ndarray, np.ndarray]:
    """The transition edges staying inside ``region``.

    Returns ``(sources, targets)``: parallel arrays of in-region edges,
    deduplicated and sorted by source, then target — the edge list the
    cycle-witness search reads.
    """
    codes = np.nonzero(region)[0]
    origins, targets = kernel.succ_pairs(codes)
    sources = codes[origins]
    if drop_self:
        live = targets != sources
        sources, targets = sources[live], targets[live]
    inside = region[targets]
    return sources[inside], targets[inside]


def _region_parts(
    kernel: VectorKernel,
    codes: np.ndarray,
    region: np.ndarray,
    drop_self: bool,
    image_of: Optional[np.ndarray],
) -> Iterator[Tuple[np.ndarray, bool]]:
    """Per part of :meth:`VectorKernel.edge_parts` out of ``codes``:
    the targets of the edges staying inside ``region`` (image-invisible
    ones only, with ``image_of``), and whether some edge left it."""
    for origins, targets in kernel.edge_parts(codes, drop_self):
        inside = region[targets]
        exits = not bool(inside.all())
        if image_of is not None:
            inside &= image_of[codes[origins]] == image_of[targets]
        yield targets[inside], exits


def _grouped(hits: np.ndarray, dtype: np.dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values of ``hits``, ascending, and their multiplicities.

    One sort, so adding or subtracting the multiplicities at the
    distinct values is the exact, vectorized form of a ``ufunc.at``
    loop over ``hits``.  The sort runs at the code width ``dtype``,
    which every code fits.
    """
    hits = hits.astype(dtype)
    if not hits.size:
        return hits, np.empty(0, dtype=np.int32)
    hits.sort()
    starts = np.flatnonzero(np.concatenate(([True], hits[1:] != hits[:-1])))
    counts = np.diff(np.append(starts, hits.shape[0]))
    return hits[starts], counts.astype(np.int32)


def _forward_peel(
    kernel: VectorKernel,
    region: np.ndarray,
    drop_self: bool,
    image_of: Optional[np.ndarray] = None,
) -> Tuple[bool, int]:
    """One forward, level-synchronous Kahn peel of ``region``.

    Returns ``(cyclic, worst)``: whether the levels failed to exhaust
    the region, and the worst case :func:`vector_longest_path` reports
    when they did.
    """
    codes = np.nonzero(region)[0]
    if image_of is not None:
        image_of = np.asarray(image_of, dtype=np.int64)
    in_degree = np.zeros(kernel.size, dtype=np.int32)
    for targets, _ in _region_parts(kernel, codes, region, drop_self, image_of):
        in_degree += np.bincount(targets, minlength=kernel.size)
    frontier = codes[in_degree[codes] == 0]
    peeled = 0
    worst = 0
    level = 0
    while frontier.size:
        peeled += int(frontier.size)
        parts = []
        exits = False
        for targets, left in _region_parts(
            kernel, frontier, region, drop_self, image_of
        ):
            parts.append(targets)
            exits |= left
        worst = max(worst, level + exits)
        nodes, counts = _grouped(np.concatenate(parts), np.dtype(np.int64))
        in_degree[nodes] -= counts
        frontier = nodes[in_degree[nodes] == 0]
        level += 1
    return peeled < codes.size, worst


def vector_has_cycle(
    kernel: VectorKernel,
    region: np.ndarray,
    drop_self: bool = False,
    image_of: Optional[np.ndarray] = None,
) -> bool:
    """Whether a cycle (including a self-loop) lies within ``region``.

    Runs the forward Kahn peel (see :func:`vector_longest_path`): a
    cycle exists iff its levels do not exhaust the region.  With
    ``image_of`` the relation is first restricted to image-invisible
    edges (``image_of[source] == image_of[target]``) — the
    invisible-cycles analysis inside the core.
    """
    cyclic, _ = _forward_peel(kernel, region, drop_self, image_of)
    return cyclic


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
    region (into the core) still counts as one step.  One forward,
    level-synchronous Kahn peel decides both.  It counts every region
    node's in-region in-degree into a full-space ``int32`` array, starts
    from the nodes at in-degree 0, and expands each level's frontier to
    its in-region successors, decrementing their in-degrees with one
    grouped sort per level; the nodes that reach 0 form the next level.
    Codes are never relabelled.

    The edges are read straight from the action tables as a multiset,
    so two actions making the same move count twice.  The in-degree
    count and the decrements see the same multiset, so a duplicated
    edge cannot change a level.

    A node's level is the longest in-region path ending at it, so the
    worst case is the maximum over levels ``L`` of ``L + 1`` when some
    node at level ``L`` has a transition leaving the region, and ``L``
    otherwise.  The levels exhaust the region exactly when no cycle
    lies within it, as :func:`vector_has_cycle` decides with the same
    peel.
    """
    cyclic, worst = _forward_peel(kernel, region, drop_self)
    return None if cyclic else worst
