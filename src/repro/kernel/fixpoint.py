"""Bitset fixpoints over packed state codes.

Packed re-implementations of the checker's hot set computations —
reachability, the behavioural-core greatest fixpoint, cycle/terminal
detection, and the worst-case convergence metric — operating on flag
arrays indexed by interner codes instead of Python sets of tuples.

Every function here computes exactly the set its tuple counterpart in
:mod:`repro.checker.convergence` / :mod:`repro.checker.graph`
computes (the eviction operator is monotone, so iteration order is
free), and emits the same observability counters.  The one documented
divergence is ``check.fixpoint.iterations`` and the per-iteration
events: the sequential packed sweep visits codes in ascending order
while the tuple sweep visits set order, so Gauss–Seidel round *counts*
may differ even though the fixpoint — and the total
``check.states.evicted`` — are identical.

Every function runs in the calling process: the packed engine decides
identically at every worker count.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ..resilience import chaos

#: Sequential loops report progress once per this many expansions —
#: frequent enough for a live ticker, cheap enough to disappear in the
#: noise (the emitter itself throttles on wall time on top of this).
_HEARTBEAT_EVERY = 4096
from .bitset import make_flags

__all__ = [
    "SuccessorFn",
    "packed_reachable",
    "packed_core",
    "packed_has_cycle",
    "packed_terminals",
    "packed_longest_path",
]

#: A packed successor function: code in, ascending successor codes out.
SuccessorFn = Callable[[int], Tuple[int, ...]]


def packed_reachable(
    succ_of: SuccessorFn,
    sources: Iterable[int],
    size: int,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> bytearray:
    """Flags of the codes reachable from ``sources`` (inclusive), by a
    plain stack search."""
    seen = make_flags(size)
    initial: List[int] = []
    for code in sources:
        if not seen[code]:
            seen[code] = 1
            initial.append(code)
    progress = ProgressEmitter(instrumentation, "packed.reachable")
    # Resolved once per call: with no active fault plan the hook is a
    # single ``is not None`` test per expansion, free in the hot loop.
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    stack = initial
    expanded = 0
    while stack:
        code = stack.pop()
        expanded += 1
        if chaos_hook is not None:
            chaos_hook("packed", expanded)
        if progress.enabled and expanded % _HEARTBEAT_EVERY == 0:
            progress.tick(0, len(stack), expanded)
        for successor in succ_of(code):
            if not seen[successor]:
                seen[successor] = 1
                stack.append(successor)
    return seen


def _must_evict_packed(
    code: int,
    concrete_succ: SuccessorFn,
    abstract_succ: SuccessorFn,
    image_of: Sequence[int],
    member_flags: Sequence[int],
    stutter_insensitive: bool,
    fairness_ignores_stutter: bool,
) -> bool:
    """Packed transliteration of ``checker.convergence._must_evict``."""
    image = image_of[code]
    image_successors = abstract_succ(image)
    progress = False
    for successor in concrete_succ(code):
        target_image = image_of[successor]
        if successor == code:
            if image in image_successors:
                progress = True
                continue
            if stutter_insensitive or fairness_ignores_stutter:
                continue  # ignorable stutter, no progress
            return True
        if not member_flags[successor]:
            return True
        if target_image == image and stutter_insensitive:
            progress = True
            continue
        if target_image not in image_successors:
            return True
        progress = True
    if not progress:
        # Effectively terminal: must match a terminal abstract state.
        return bool(image_successors)
    return False


def packed_core(
    concrete_succ: SuccessorFn,
    abstract_succ: SuccessorFn,
    image_of: Sequence[int],
    legitimate: bytearray,
    size: int,
    stutter_insensitive: bool,
    fairness_ignores_stutter: bool,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> bytearray:
    """The behavioural core as flags over concrete codes.

    Same greatest fixpoint as ``checker.convergence.behavioural_core``:
    candidates are the codes whose image is legitimate, then states
    with escaping transitions or premature deadlocks are evicted until
    stable.  ``image_of[code]`` may be ``-1`` for states whose image
    is not a valid abstract state; they are simply never candidates.
    """
    flags = make_flags(size)
    remaining = 0
    for code in range(size):
        image = image_of[code]
        if image >= 0 and legitimate[image]:
            flags[code] = 1
            remaining += 1
    instrumentation.count("check.states.enumerated", size)
    instrumentation.count("check.candidates.initial", remaining)
    progress = ProgressEmitter(instrumentation, "packed.core")
    chaos_hook = (
        chaos.engine_states if chaos.active_plan() is not None else None
    )
    if chaos_hook is not None:
        chaos_hook("packed", size)
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        if chaos_hook is not None:
            # Cumulative enumeration: the candidate scan plus one full
            # membership sweep per fixpoint round.
            chaos_hook("packed", size * (iterations + 1))
        evicted = 0
        for code in range(size):
            if flags[code] and _must_evict_packed(
                code, concrete_succ, abstract_succ, image_of, flags,
                stutter_insensitive, fairness_ignores_stutter,
            ):
                flags[code] = 0
                evicted += 1
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


def packed_has_cycle(succ_of: SuccessorFn, region: bytearray) -> bool:
    """Whether a cycle (including a self-loop) lies within ``region``.

    ``succ_of`` must already reflect the analysis semantics (callers
    filter self-loops for weak/strong fairness before passing it in).
    """
    size = len(region)
    color = bytearray(size)  # 0 white, 1 gray, 2 black
    for root in range(size):
        if not region[root] or color[root]:
            continue
        color[root] = 1
        stack: List[Tuple[int, Iterable[int]]] = [(root, iter(succ_of(root)))]
        while stack:
            code, pending = stack[-1]
            descended = False
            for successor in pending:
                if not region[successor]:
                    continue
                if color[successor] == 1:
                    return True
                if color[successor] == 0:
                    color[successor] = 1
                    stack.append((successor, iter(succ_of(successor))))
                    descended = True
                    break
            if not descended:
                color[code] = 2
                stack.pop()
    return False


def packed_terminals(succ_of: SuccessorFn, region: bytearray) -> List[int]:
    """Codes in ``region`` with no successors at all, ascending."""
    return [
        code
        for code in range(len(region))
        if region[code] and not succ_of(code)
    ]


def packed_longest_path(
    succ_of: SuccessorFn, outside: bytearray
) -> Optional[int]:
    """Longest transition path staying within the ``outside`` region,
    or ``None`` when a cycle (including a self-loop) lies within it.

    Packed transliteration of
    ``checker.convergence.worst_case_convergence_steps``: memoized
    longest-path DFS over the region, where a step landing outside the
    region (i.e. into the core) still counts as one step.  The DFS's
    in-progress check finds exactly the cycles
    :func:`packed_has_cycle` finds, so one walk decides divergence and
    the worst case together.
    """
    depth: Dict[int, int] = {}
    in_progress: Set[int] = set()
    for root in range(len(outside)):
        if not outside[root] or root in depth:
            continue
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            code, expanded = stack.pop()
            if expanded:
                best = 0
                for successor in succ_of(code):
                    if outside[successor]:
                        best = max(best, 1 + depth[successor])
                    else:
                        best = max(best, 1)
                depth[code] = best
                in_progress.discard(code)
                continue
            if code in depth:
                continue
            if code in in_progress:
                return None
            in_progress.add(code)
            stack.append((code, True))
            for successor in succ_of(code):
                if outside[successor] and successor not in depth:
                    if successor in in_progress:
                        return None
                    stack.append((successor, False))
    return max(depth.values(), default=0)
