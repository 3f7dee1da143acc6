"""Streamed fixpoints: vector verdicts in bounded RSS.

Re-implementations of the vector engine's fixpoints
(:mod:`repro.kernel.vector.fixpoint`) over the shared substrate:

* flags live in bit-packed, private :class:`~.frontier.BitField`\\ s;
* member/frontier batches are evaluated one code chunk at a time
  through the table-free :class:`~.kernel.SharedKernel`;
* frontier rounds and eviction lists that outgrow their RAM cap spill
  delta-encoded to the run's :class:`~.spill.SpillStore`;
* the deadlock, cycle and longest-path analyses share one **forward,
  level-synchronous Kahn peel** (:func:`shared_longest_path` has the
  details).  One streamed pass (:func:`shared_terminals`) finds the
  region's terminals and counts each member's in-region in-degree
  into a full-space ``int32`` array that holds ``-1`` outside the
  region, so the same array answers membership with one gather per
  batch.  The peel starts from those counts, and each level's
  frontier is re-expanded through the streamed kernel to decrement
  its targets' in-degrees.  A check therefore expands the region
  outside the core twice: once in the deadlock search, once as it is
  peeled.  No edge is ever stored: resident cost is the in-degree
  array (4 B/state) plus one batch and the level's spill-capped
  :class:`~.frontier.CodeRuns`.  A peel that stops short of the region
  leaves the in-degree positive at exactly the members it did not
  peel, its *remainder*: the members reachable from a cycle.  A
  failing check lists its cycle witness's edges within the remainder
  alone.

Verdict- and counter-compatibility with the vector fixpoints is exact:
the core rounds run the vector engine's own eviction round, chunk by
chunk, against the same round-start snapshot (a member's eviction
depends only on its own out-edges and the snapshot, so chunk
boundaries cannot change any round's eviction set), and the peel is
the vector engine's, level for level: the same edge multiset, read a
batch at a time, grouped by the same helper.

Every fixpoint runs in the calling process.  The sequential peel
takes most of a check's time, so sharding the core rounds across
worker processes measured no faster (docs/PERFORMANCE.md); whole
checks fan out one per worker in ``verify-tree`` and campaigns.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ...resilience import chaos
from ..vector.fixpoint import _evict_chunk, _grouped
from ..vector.kernel import VectorKernel
from .frontier import BitField, CodeRuns
from .image import SharedImage
from .kernel import SharedKernel
from .runtime import SharedRuntime

__all__ = [
    "RegionDegrees",
    "shared_core",
    "shared_terminals",
    "shared_has_cycle",
    "shared_longest_path",
]


# ----------------------------------------------------------------------
# The behavioural core.
# ----------------------------------------------------------------------


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

    ``vector_core``'s Jacobi fixpoint with streamed init and rounds:
    each round runs the vector engine's eviction round
    (``_evict_chunk``) once per chunk of members, with ``image.of``
    as the image map and ``flags.test`` as the round-start membership.
    Counters and per-iteration events are emitted with the vector
    engine's names and values — the rounds evaluate the identical
    operator, so ``check.fixpoint.iteration`` sequences agree.
    """
    size = kernel.size
    legitimate = np.asarray(legitimate, dtype=bool)
    flags = BitField(size)
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
        for members in flags.member_chunks(runtime.chunk):
            evicted_runs.append(
                _evict_chunk(
                    members,
                    kernel,
                    abstract_kernel,
                    image.of,
                    flags.test,
                    abs_has_successor,
                    stutter_insensitive,
                    ignorable_stutter,
                )
            )
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
    return flags


# ----------------------------------------------------------------------
# Terminals, cycles, longest path (forward Kahn peel).
# ----------------------------------------------------------------------


class RegionDegrees(NamedTuple):
    """What one streamed pass over a region finds.

    ``in_degree`` is a full-space ``int32`` array: each member's count
    of in-region in-edges, and ``-1`` outside the region, so the array
    also answers membership.  ``members`` is the region's size and
    ``terminals`` its members with no successor at all, ascending.

    A peel consumes ``in_degree`` in place: each member's count drops
    by its in-edges from peeled members.  Afterwards it is ``0`` at
    every peeled member, still ``-1`` outside the region, and ``> 0``
    at exactly the members the peel left (its remainder).  A node on a
    cycle keeps an in-edge from that cycle, so the remainder holds
    every cycle and all that the cycles reach within the region, and
    is empty iff the region is acyclic.
    """

    in_degree: np.ndarray
    members: int
    terminals: np.ndarray


def _inside_targets(
    kernel: SharedKernel,
    codes: np.ndarray,
    in_degree: np.ndarray,
    drop_self: bool,
    image: Optional[SharedImage],
    moves: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, bool]:
    """The targets of the edges out of ``codes`` staying inside the
    region, as a multiset (image-invisible ones only, with ``image``),
    and whether some edge left the region.

    One gather from ``in_degree`` over the action parts, concatenated,
    decides membership for the whole batch.  With ``moves``, also
    marks the positions of the codes that have an edge at all.
    """
    images = None if image is None else image.of(codes)
    parts: List[np.ndarray] = []
    invisible: List[np.ndarray] = []
    for origins, targets in kernel.edge_parts(codes, drop_self):
        if moves is not None:
            moves[origins] = True
        parts.append(targets)
        if images is not None:
            invisible.append(images[origins] == image.of(targets))
    targets = np.concatenate(parts)
    keep = in_degree[targets] >= 0
    exits = not bool(keep.all())
    if images is not None:
        keep &= np.concatenate(invisible)
    elif not exits:
        return targets, exits
    return targets[keep], exits


def _count(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool,
    image: Optional[SharedImage],
) -> RegionDegrees:
    """Expand every member of ``region`` once: its terminals, and the
    in-region in-degrees, with one grouped sort per chunk."""
    in_degree = np.full(kernel.size, -1, dtype=np.int32)
    members = 0
    for codes in region.member_chunks(runtime.chunk):
        in_degree[codes] = 0
        members += int(codes.shape[0])
    found: List[np.ndarray] = []
    for codes in region.member_chunks(runtime.chunk):
        moves = np.zeros(codes.shape, dtype=bool)
        targets, _ = _inside_targets(
            kernel, codes, in_degree, drop_self, image, moves
        )
        if not moves.all():
            found.append(codes[~moves])
        nodes, counts = _grouped(targets, runtime.code_dtype)
        in_degree[nodes] += counts
    terminals = (
        np.concatenate(found) if found else np.empty(0, dtype=np.int64)
    )
    return RegionDegrees(in_degree, members, terminals)


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
    degrees: RegionDegrees,
    runtime: SharedRuntime,
    drop_self: bool,
    image: Optional[SharedImage],
) -> Tuple[bool, int]:
    """One forward, level-synchronous Kahn peel of ``region`` from the
    in-degrees ``degrees`` counted over it.

    Returns ``(cyclic, worst)``: whether the levels failed to exhaust
    the region, and the worst case :func:`shared_longest_path` reports
    when they did.  Each peeled member is expanded once; each level is
    a :class:`CodeRuns` that spills past its RAM cap.  Counts the
    members left un-peeled as ``shm.peel.remainder``; ``in_degree`` is
    then positive at exactly those (:class:`RegionDegrees`).
    """
    in_degree = degrees.in_degree
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
                kernel, batch, in_degree, drop_self, image
            )
            exits = exits or left
            nodes, counts = _grouped(targets, runtime.code_dtype)
            left = in_degree[nodes] - counts
            in_degree[nodes] = left
            next_level.append(nodes[left == 0])
        worst = max(worst, level + exits)
        if frontier.spilled_runs:
            runtime.instrumentation.count("shm.spill.rounds")
        frontier.clear()
        frontier = next_level
        level += 1
    instrumentation = runtime.instrumentation
    instrumentation.count("shm.peel.levels", level)
    instrumentation.count("shm.peel.expanded", degrees.members + peeled)
    instrumentation.count("shm.peel.remainder", degrees.members - peeled)
    return peeled < degrees.members, worst


def shared_terminals(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
) -> RegionDegrees:
    """One streamed pass over ``region``: its members with no
    successors at all (``.terminals``, ascending) and the in-region
    in-degrees a peel of the same region and ``drop_self`` starts from.

    The deadlock search runs this pass, and hands the result to
    :func:`shared_longest_path` as ``degrees``, so each member of the
    region outside the core is expanded twice per check: here, and
    when the peel reaches it.
    """
    return _count(kernel, region, runtime, drop_self, None)


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
    degrees = _count(kernel, region, runtime, drop_self, image)
    cyclic, _ = _forward_peel(
        kernel, region, degrees, runtime, drop_self, image
    )
    return cyclic


def shared_longest_path(
    kernel: SharedKernel,
    region: BitField,
    runtime: SharedRuntime,
    drop_self: bool = False,
    degrees: Optional[RegionDegrees] = None,
) -> Optional[int]:
    """Longest transition path staying within ``region``, or ``None``
    when a cycle (including a self-loop) lies within it.

    ``vector_longest_path``'s forward, level-synchronous Kahn peel
    with the tables replaced by the streamed kernel.  One pass over
    the region counts every member's in-region in-degree into a
    full-space ``int32`` array, with one grouped sort per chunk; the
    array holds ``-1`` outside the region, so one gather per batch
    tells which targets stay inside.  ``degrees``, when given, is that
    pass already run by :func:`shared_terminals` over the same region
    and ``drop_self``; the peel leaves its ``in_degree`` positive at
    exactly the members it could not peel.  The members at in-degree
    0 form level 0.  Each level's frontier is re-expanded through the
    table-free kernel in batches of ``runtime.chunk`` codes; one
    grouped sort per batch decrements the in-degrees of its in-region
    targets, and the nodes that reach 0 form the next level.  No edge
    is stored.

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
    if degrees is None:
        degrees = _count(kernel, region, runtime, drop_self, None)
    cyclic, worst = _forward_peel(
        kernel, region, degrees, runtime, drop_self, None
    )
    return None if cyclic else worst
