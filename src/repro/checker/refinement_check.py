"""Decision procedures for the paper's refinement relations.

Three relations are decided here, each over finite systems and each
optionally through an abstraction function (paper, Section 2.3):

* ``[C subseteq A]_init`` — refinement from initial states;
* ``[C subseteq A]`` — everywhere refinement;
* ``[C <= A]`` — convergence refinement.

The convergence-refinement procedure is the heart of the reproduction.
It is exact on finite systems and works transition-locally:

1. every transition of ``C`` reachable from ``C``'s initial states
   must map to a transition of ``A`` (this gives the
   ``[C subseteq A]_init`` clause);
2. every transition of ``C`` anywhere in the state space must map to a
   non-empty *path* of ``A`` — a length-1 path is an exact step, a
   longer path is a *compression* (the concrete jumps over states the
   abstract passes through, as in the paper's Section 4.2 diagram);
3. no compressing transition may lie on a cycle of ``C``: a cycle
   through a compression would be traversed infinitely often by some
   computation, forcing infinitely many omissions, which the
   convergence-isomorphism definition forbids;
4. every terminal state of ``C`` must map to a terminal state of
   ``A``, so the matched abstract computation is maximal where the
   concrete one ends.

Together, 1-4 hold iff ``[C <= A]``: given 2-4 one splices the
abstract paths of consecutive concrete transitions into an abstract
computation of which the concrete computation is a convergence
isomorphism, and conversely each clause is necessary (a violation of
any one yields a concrete computation with no abstract partner).

Stuttering (``stutter_insensitive=True``) extends the relation to the
paper's ``C3``, whose illegitimate-state tau steps repeat a state:
transitions whose abstract image does not move are then permitted, as
long as no cycle of ``C`` consists solely of such invisible steps
(which would hide divergence).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.abstraction import AbstractionFunction, identity_abstraction
from ..core.state import State
from ..core.system import System, Transition
from ..obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from .budget import BudgetExceeded, BudgetMeter
from .convergence import (
    SystemOrProgram,
    _as_system,
    _require_known_engine,
    _source_name,
)
from .graph import shortest_path
from .witnesses import CheckResult, Witness, WitnessKind

__all__ = [
    "check_init_refinement",
    "check_everywhere_refinement",
    "check_convergence_refinement",
    "check_everywhere_eventually_refinement",
    "compression_transitions",
    "expand_to_abstract_path",
]


def _schema_of(source: SystemOrProgram):
    return source.schema if isinstance(source, System) else source.schema()


def _select_refinement_engine(
    engine: str,
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    state_budget: Optional[int],
    instrumentation: Instrumentation,
    shared_meter: bool = False,
) -> str:
    """The refinement engine that actually runs (``engine.*`` counters).

    The packed and vector engines run refinement clauses
    *optimistically*: they can prove success, but a violation witness
    depends on tuple-set iteration order, so failures replay on the
    tuple engine.  Budgeted checks (and clauses sharing an enclosing
    meter) go straight to the tuple engine — the PARTIAL cut must
    follow its exploration order.  The vector engine additionally
    falls back to the *packed* engine when NumPy is missing or the
    program lies outside the statically lowerable fragment.  The
    refinement clauses have no streamed form, so a shared request
    continues at vector with a reasoned fallback, as the stabilization
    chain does when the shared engine refuses a check.
    """
    _require_known_engine(engine)
    if engine == "tuple":
        return "tuple"
    if engine == "shared":
        instrumentation.event(
            "engine.fallback",
            requested="shared",
            reason="no streamed refinement clauses",
        )
        instrumentation.count("engine.fallback.vector", 1)
        engine = "vector"
    from ..kernel import packed_fallback_reason

    reason = packed_fallback_reason(concrete, abstract)
    if reason is None and shared_meter:
        reason = "a shared budget meter pins the check to the tuple engine"
    if reason is None and state_budget is not None:
        reason = (
            f"state budget {state_budget} is set; budgeted exploration "
            f"follows the tuple engine's order"
        )
    if reason is not None:
        instrumentation.count("engine.fallback.tuple", 1)
        instrumentation.event("engine.fallback", requested=engine, reason=reason)
        return "tuple"
    if engine == "vector":
        from ..kernel.vector import vector_fallback_reason

        vector_reason = vector_fallback_reason(concrete, abstract)
        if vector_reason is None:
            instrumentation.count("engine.vector", 1)
            instrumentation.event("engine.selected", engine="vector")
            return "vector"
        instrumentation.count("engine.fallback.packed", 1)
        instrumentation.event(
            "engine.fallback", requested="vector", reason=vector_reason
        )
    instrumentation.count("engine.packed", 1)
    instrumentation.event("engine.selected", engine="packed")
    return "packed"


_VIOLATION_REPLAY_REASON = (
    "violation found; replaying on the tuple engine for the witness"
)
_ALPHA_REPLAY_REASON = (
    "the abstraction maps some state outside the abstract schema; "
    "replaying on the tuple engine"
)


def _packed_violation_fallback(
    instrumentation: Instrumentation,
    reason: str = _VIOLATION_REPLAY_REASON,
    requested: str = "packed",
) -> None:
    """Record that a packed/vector attempt is handing the check back."""
    instrumentation.count("engine.fallback.tuple", 1)
    instrumentation.event("engine.fallback", requested=requested, reason=reason)


def _packed_refinement_context(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
):
    """Kernels and the dense image table for a packed refinement attempt.

    Returns ``None`` when some concrete state's image is not a valid
    abstract state — the tuple engine's membership tests then carry the
    semantics, so the attempt is abandoned before it starts.
    """
    from ..kernel import as_kernel, image_codes

    if alpha is None:
        _schema_of(concrete).require_compatible(
            _schema_of(abstract), "refinement check without an abstraction function"
        )
    kernel = as_kernel(concrete)
    abstract_kernel = kernel if abstract is concrete else as_kernel(abstract)
    image_of = image_codes(kernel.interner, abstract_kernel.interner, alpha)
    if any(code < 0 for code in image_of):
        return None
    return kernel, abstract_kernel, image_of


def _packed_init_clauses(
    kernel,
    abstract_kernel,
    image_of: List[int],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
) -> Optional[Tuple[int, int]]:
    """The ``[C (= A]_init`` clauses over packed codes.

    Returns ``(reachable_count, transitions_checked)`` when every
    clause holds, ``None`` on the first violation (the caller replays
    on the tuple engine for the witness).  Counters are *not* emitted
    here — the caller owns them, so a failed attempt emits nothing.
    """
    from ..kernel import count_flags, packed_reachable

    initial_images = set(abstract_kernel.initial_codes)
    for code in kernel.initial_codes:
        if image_of[code] not in initial_images:
            return None
    with instrumentation.span("refine.init_clause"):
        reachable = packed_reachable(
            kernel.successors, kernel.initial_codes, kernel.size
        )
    abstract_succ = abstract_kernel.successors
    checked = 0
    for code in range(kernel.size):
        if not reachable[code]:
            continue
        successors = kernel.successors(code)
        image = image_of[code]
        if not successors:
            if not open_systems and abstract_succ(image):
                return None
            continue
        for successor in successors:
            checked += 1
            target_image = image_of[successor]
            if target_image == image and stutter_insensitive:
                continue
            if target_image not in abstract_succ(image):
                return None
    return count_flags(reachable), checked


def _packed_path2(
    abstract_succ,
    abstract_size: int,
    source: int,
    target: int,
    memo: Dict[int, bytearray],
) -> bool:
    """Is there an abstract path of length >= 2 from source to target?

    A path of two or more transitions decomposes as two fixed steps
    followed by any walk: ``source -> mid -> start ~> target`` — the
    packed equivalent of ``shortest_path(..., min_length=2)``'s
    existence test, with inclusive-reachability flags memoized per
    ``start`` code.
    """
    from ..kernel import packed_reachable

    for mid in abstract_succ(source):
        for start in abstract_succ(mid):
            flags = memo.get(start)
            if flags is None:
                flags = packed_reachable(abstract_succ, (start,), abstract_size)
                memo[start] = flags
            if flags[target]:
                return True
    return False


def _dict_reachable(adjacency: Dict[int, List[int]], start: int) -> Set[int]:
    """Inclusive reachability over an explicit edge list (stutter graph)."""
    seen = {start}
    stack = [start]
    while stack:
        code = stack.pop()
        for successor in adjacency.get(code, ()):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return seen


def _packed_init_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Packed ``[C (= A]_init``; ``None`` means replay on the tuple engine."""
    context = _packed_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(instrumentation, _ALPHA_REPLAY_REASON)
        return None
    kernel, abstract_kernel, image_of = context
    clauses = _packed_init_clauses(
        kernel, abstract_kernel, image_of, stutter_insensitive, open_systems,
        instrumentation,
    )
    if clauses is None:
        _packed_violation_fallback(instrumentation)
        return None
    reachable_count, checked = clauses
    instrumentation.count("refine.reachable.size", reachable_count)
    instrumentation.count("refine.init.transitions.checked", checked)
    return CheckResult(
        True,
        name,
        detail=f"{reachable_count} reachable states, {checked} transitions checked",
    )


def _packed_everywhere_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Packed ``[C (= A]``; ``None`` means replay on the tuple engine."""
    context = _packed_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(instrumentation, _ALPHA_REPLAY_REASON)
        return None
    kernel, abstract_kernel, image_of = context
    abstract_succ = abstract_kernel.successors
    checked = 0
    for code in range(kernel.size):
        successors = kernel.successors(code)
        image = image_of[code]
        if not successors:
            if not open_systems and abstract_succ(image):
                _packed_violation_fallback(instrumentation)
                return None
            continue
        for successor in successors:
            checked += 1
            target_image = image_of[successor]
            if target_image == image and stutter_insensitive:
                continue
            if target_image not in abstract_succ(image):
                _packed_violation_fallback(instrumentation)
                return None
    instrumentation.count("refine.everywhere.transitions.checked", checked)
    return CheckResult(True, name, detail=f"{checked} transitions checked")


def _packed_convergence_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Packed ``[C <= A]``; ``None`` means replay on the tuple engine.

    Runs all four clauses over packed codes and, on success, emits the
    tuple engine's exact counters and success detail.  Any violation
    abandons the attempt with *no* counters emitted (only spans, which
    measure work actually done) — the tuple replay then produces the
    byte-identical witness and counters.
    """
    from ..kernel import packed_reachable

    context = _packed_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(instrumentation, _ALPHA_REPLAY_REASON)
        return None
    kernel, abstract_kernel, image_of = context
    init_clauses = _packed_init_clauses(
        kernel, abstract_kernel, image_of, stutter_insensitive, open_systems,
        instrumentation,
    )
    if init_clauses is None:
        _packed_violation_fallback(instrumentation)
        return None
    reachable_count, init_checked = init_clauses

    size = kernel.size
    abstract_succ = abstract_kernel.successors
    exact = 0
    stutter_edges: List[Tuple[int, int]] = []
    compression_edges: List[Tuple[int, int]] = []
    path2_memo: Dict[int, bytearray] = {}
    holds = True
    progress = ProgressEmitter(instrumentation, "refine.transition_scan")
    with instrumentation.span("refine.transition_scan"):
        for code in range(size):
            if progress.enabled and code and code % 4096 == 0:
                progress.tick(0, size - code, code)
            image = image_of[code]
            for successor in kernel.successors(code):
                target_image = image_of[successor]
                if target_image == image:
                    if stutter_insensitive:
                        stutter_edges.append((code, successor))
                        continue
                    if image in abstract_succ(image):
                        exact += 1
                        continue
                    holds = False
                    break
                if target_image in abstract_succ(image):
                    exact += 1
                    continue
                if _packed_path2(
                    abstract_succ, abstract_kernel.size, image, target_image,
                    path2_memo,
                ):
                    compression_edges.append((code, successor))
                    continue
                holds = False
                break
            if not holds:
                break
    if not holds:
        _packed_violation_fallback(instrumentation)
        return None

    cycle_memo: Dict[int, bytearray] = {}
    with instrumentation.span("refine.cycle_clause"):
        for source, target in compression_edges:
            flags = cycle_memo.get(target)
            if flags is None:
                flags = packed_reachable(kernel.successors, (target,), size)
                cycle_memo[target] = flags
            if flags[source]:
                holds = False
                break
    if not holds:
        _packed_violation_fallback(instrumentation)
        return None

    if stutter_edges:
        adjacency: Dict[int, List[int]] = {}
        for source, target in stutter_edges:
            adjacency.setdefault(source, []).append(target)
        stutter_memo: Dict[int, Set[int]] = {}
        for source, target in stutter_edges:
            if source == target:
                continue
            seen = stutter_memo.get(target)
            if seen is None:
                seen = _dict_reachable(adjacency, target)
                stutter_memo[target] = seen
            if source in seen:
                _packed_violation_fallback(instrumentation)
                return None

    if not open_systems:
        for code in range(size):
            if not kernel.successors(code) and abstract_succ(image_of[code]):
                _packed_violation_fallback(instrumentation)
                return None

    instrumentation.count("refine.reachable.size", reachable_count)
    instrumentation.count("refine.init.transitions.checked", init_checked)
    instrumentation.count("refine.transitions.exact", exact)
    instrumentation.count("refine.transitions.compressing", len(compression_edges))
    instrumentation.count("refine.transitions.stuttering", len(stutter_edges))
    return CheckResult(
        True,
        name,
        detail=(
            f"{exact} exact transitions, {len(compression_edges)} compressions, "
            f"{len(stutter_edges)} stutters"
        ),
    )


def _vector_refinement_context(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
):
    """Kernels and the image array for a vector refinement attempt.

    The array analogue of :func:`_packed_refinement_context`: returns
    ``None`` when some concrete state's image is not a valid abstract
    state, abandoning the attempt to the tuple engine.
    """
    from ..kernel.vector import as_vector_kernel, vector_image_codes

    if alpha is None:
        _schema_of(concrete).require_compatible(
            _schema_of(abstract), "refinement check without an abstraction function"
        )
    kernel = as_vector_kernel(concrete)
    abstract_kernel = kernel if abstract is concrete else as_vector_kernel(abstract)
    image_of = vector_image_codes(kernel.interner, abstract_kernel.interner, alpha)
    if bool((image_of < 0).any()):
        return None
    return kernel, abstract_kernel, image_of


def _vector_init_clauses(
    kernel,
    abstract_kernel,
    image_of,
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
) -> Optional[Tuple[int, int]]:
    """The ``[C (= A]_init`` clauses over code arrays.

    Returns ``(reachable_count, transitions_checked)`` when every
    clause holds, ``None`` on the first violation (the caller replays
    on the tuple engine for the witness).  As in the packed attempt,
    counters are *not* emitted here — a failed attempt emits nothing.
    ``transitions_checked`` matches the packed count exactly because
    ``succ_pairs`` deduplicates per (origin, target) pair, just as the
    packed kernel's sorted successor tuples do.
    """
    import numpy as np

    from ..kernel.vector import vector_reachable

    if not bool(
        np.isin(image_of[kernel.initial_array], abstract_kernel.initial_array).all()
    ):
        return None
    with instrumentation.span("refine.init_clause"):
        reachable = vector_reachable(
            kernel, kernel.initial_array, instrumentation=instrumentation
        )
    codes = np.nonzero(reachable)[0]
    origins, targets = kernel.succ_pairs(codes)
    sources = codes[origins]
    image_source = image_of[sources]
    image_target = image_of[targets]
    checked = int(origins.size)
    if stutter_insensitive:
        needs_edge = image_target != image_source
    else:
        needs_edge = np.ones(targets.shape, dtype=bool)
    if needs_edge.any() and not bool(
        abstract_kernel.has_edge(
            image_source[needs_edge], image_target[needs_edge]
        ).all()
    ):
        return None
    if not open_systems:
        has_successor = np.bincount(origins, minlength=codes.size) > 0
        terminal_images = image_of[codes[~has_successor]]
        if bool((~abstract_kernel.terminal_flags()[terminal_images]).any()):
            return None
    return int(codes.size), checked


def _vector_init_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Vector ``[C (= A]_init``; ``None`` means replay on the tuple engine."""
    context = _vector_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(
            instrumentation, _ALPHA_REPLAY_REASON, requested="vector"
        )
        return None
    kernel, abstract_kernel, image_of = context
    clauses = _vector_init_clauses(
        kernel, abstract_kernel, image_of, stutter_insensitive, open_systems,
        instrumentation,
    )
    if clauses is None:
        _packed_violation_fallback(instrumentation, requested="vector")
        return None
    reachable_count, checked = clauses
    instrumentation.count("refine.reachable.size", reachable_count)
    instrumentation.count("refine.init.transitions.checked", checked)
    return CheckResult(
        True,
        name,
        detail=f"{reachable_count} reachable states, {checked} transitions checked",
    )


def _vector_everywhere_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Vector ``[C (= A]``; ``None`` means replay on the tuple engine."""
    import numpy as np

    context = _vector_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(
            instrumentation, _ALPHA_REPLAY_REASON, requested="vector"
        )
        return None
    kernel, abstract_kernel, image_of = context
    codes = np.arange(kernel.size, dtype=np.int64)
    origins, targets = kernel.succ_pairs(codes)
    image_source = image_of[origins]
    image_target = image_of[targets]
    checked = int(origins.size)
    if stutter_insensitive:
        needs_edge = image_target != image_source
    else:
        needs_edge = np.ones(targets.shape, dtype=bool)
    if needs_edge.any() and not bool(
        abstract_kernel.has_edge(
            image_source[needs_edge], image_target[needs_edge]
        ).all()
    ):
        _packed_violation_fallback(instrumentation, requested="vector")
        return None
    if not open_systems:
        terminal_images = image_of[kernel.terminal_flags()]
        if bool((~abstract_kernel.terminal_flags()[terminal_images]).any()):
            _packed_violation_fallback(instrumentation, requested="vector")
            return None
    instrumentation.count("refine.everywhere.transitions.checked", checked)
    return CheckResult(True, name, detail=f"{checked} transitions checked")


def _vector_convergence_attempt(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """Vector ``[C <= A]``; ``None`` means replay on the tuple engine.

    All four clauses over code arrays, success-only like the packed
    attempt: on success the tuple engine's exact counters and detail
    are emitted; any violation abandons the attempt with no counters
    (only spans, which measure work actually done) and the tuple
    replay produces the byte-identical witness.
    """
    import numpy as np

    from ..kernel.vector import vector_reachable
    from ..kernel.vector.kernel import _unique_sorted

    context = _vector_refinement_context(concrete, abstract, alpha)
    if context is None:
        _packed_violation_fallback(
            instrumentation, _ALPHA_REPLAY_REASON, requested="vector"
        )
        return None
    kernel, abstract_kernel, image_of = context
    init_clauses = _vector_init_clauses(
        kernel, abstract_kernel, image_of, stutter_insensitive, open_systems,
        instrumentation,
    )
    if init_clauses is None:
        _packed_violation_fallback(instrumentation, requested="vector")
        return None
    reachable_count, init_checked = init_clauses

    with instrumentation.span("refine.transition_scan"):
        codes = np.arange(kernel.size, dtype=np.int64)
        sources, targets = kernel.succ_pairs(codes)
        image_source = image_of[sources]
        image_target = image_of[targets]
        same_image = image_target == image_source
        abstract_edge = abstract_kernel.has_edge(image_source, image_target)
        if stutter_insensitive:
            stutter_mask = same_image
        else:
            stutter_mask = np.zeros(targets.shape, dtype=bool)
        exact = int((~stutter_mask & abstract_edge).sum())
        rest = ~stutter_mask & ~abstract_edge
        rest_sources = sources[rest]
        rest_targets = targets[rest]
        rest_image_source = image_source[rest]
        rest_image_target = image_target[rest]
        # A same-image step with no abstract self-loop (and stuttering
        # not allowed) is an immediate violation, never a compression.
        if bool((rest_image_source == rest_image_target).any()):
            _packed_violation_fallback(instrumentation, requested="vector")
            return None
        # Clause 2 for the rest: the image must be realizable as an
        # abstract path of length >= 2 — two fixed steps then any walk.
        # One reachability per distinct source image, from the union of
        # its two-step frontier (the union of the packed attempt's
        # per-start memoized flags).
        for image in _unique_sorted(rest_image_source):
            _, mids = abstract_kernel.succ_pairs(image.reshape(1))
            starts = np.empty(0, dtype=np.int64)
            if mids.size:
                _, starts = abstract_kernel.succ_pairs(_unique_sorted(mids))
                starts = _unique_sorted(starts)
            if starts.size == 0:
                _packed_violation_fallback(instrumentation, requested="vector")
                return None
            reach = vector_reachable(abstract_kernel, starts)
            if not bool(reach[rest_image_target[rest_image_source == image]].all()):
                _packed_violation_fallback(instrumentation, requested="vector")
                return None

    # Clause 3: no compression on a cycle of C — one concrete
    # reachability per distinct compression target.
    with instrumentation.span("refine.cycle_clause"):
        for target in _unique_sorted(rest_targets):
            reach = vector_reachable(kernel, target.reshape(1))
            if bool(reach[rest_sources[rest_targets == target]].any()):
                _packed_violation_fallback(instrumentation, requested="vector")
                return None

    # Invisible divergence: no cycle made purely of stutter edges
    # (literal self-loops excepted, as in the tuple engine).
    stutter_count = int(stutter_mask.sum())
    if stutter_count:
        stutter_sources = sources[stutter_mask].tolist()
        stutter_targets = targets[stutter_mask].tolist()
        adjacency: Dict[int, List[int]] = {}
        for source, target in zip(stutter_sources, stutter_targets):
            adjacency.setdefault(source, []).append(target)
        stutter_memo: Dict[int, Set[int]] = {}
        for source, target in zip(stutter_sources, stutter_targets):
            if source == target:
                continue
            seen = stutter_memo.get(target)
            if seen is None:
                seen = _dict_reachable(adjacency, target)
                stutter_memo[target] = seen
            if source in seen:
                _packed_violation_fallback(instrumentation, requested="vector")
                return None

    if not open_systems:
        terminal_images = image_of[kernel.terminal_flags()]
        if bool((~abstract_kernel.terminal_flags()[terminal_images]).any()):
            _packed_violation_fallback(instrumentation, requested="vector")
            return None

    instrumentation.count("refine.reachable.size", reachable_count)
    instrumentation.count("refine.init.transitions.checked", init_checked)
    instrumentation.count("refine.transitions.exact", exact)
    instrumentation.count("refine.transitions.compressing", int(rest_sources.size))
    instrumentation.count("refine.transitions.stuttering", stutter_count)
    return CheckResult(
        True,
        name,
        detail=(
            f"{exact} exact transitions, {int(rest_sources.size)} compressions, "
            f"{stutter_count} stutters"
        ),
    )


def _resolve_alpha(
    concrete: System, abstract: System, alpha: Optional[AbstractionFunction]
) -> AbstractionFunction:
    """Default to the identity abstraction when schemas coincide."""
    if alpha is not None:
        return alpha
    concrete.schema.require_compatible(
        abstract.schema, "refinement check without an abstraction function"
    )
    return identity_abstraction(concrete.schema)


def _partial_result(
    name: str, exc: BudgetExceeded, instrumentation: Instrumentation
) -> CheckResult:
    """The ``PARTIAL`` verdict for a budget-capped refinement check."""
    instrumentation.event(
        "refine.partial",
        phase=exc.partial.phase,
        explored=exc.partial.explored,
        frontier=exc.partial.frontier,
        budget=exc.partial.budget,
    )
    return CheckResult(False, name, partial=exc.partial)


def _reachable_metered(system: System, meter: BudgetMeter, phase: str):
    """``system.reachable()`` with per-state budget charging."""
    if meter.budget is None:
        return system.reachable()
    seen = set(system.initial)
    frontier = list(seen)
    while frontier:
        meter.charge(phase, frontier=len(frontier))
        state = frontier.pop()
        for successor in system.successors(state):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def check_init_refinement(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    open_systems: bool = False,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    meter: Optional[BudgetMeter] = None,
    workers: int = 1,
    engine: str = "tuple",
) -> CheckResult:
    """Decide ``[C subseteq A]_init``.

    Every computation of ``C`` starting from an initial state must be
    (map to) a computation of ``A``.  Decided transition-locally over
    the reachable part of ``C``: reachable transitions must map to
    transitions of ``A``, initial states must map into ``A``'s initial
    states, and reachable terminal states must map to terminal states
    (maximality).

    Args:
        concrete: the implementation ``C``.
        abstract: the specification ``A``.
        alpha: abstraction function; identity if omitted (schemas must
            then match).
        stutter_insensitive: permit concrete transitions whose image
            does not move the abstract state.
        open_systems: treat both systems as *open* (sets of transitions
            rather than complete automata): finite paths need not be
            maximal, so the terminal-state clauses are skipped.  This
            is the right reading for the paper's wrappers, whose
            standalone automata are disabled almost everywhere.
        instrumentation: observability sink (reachable-state and
            transition counts); the null default is free.
        state_budget: optional cap on states/transitions enumerated;
            past it the result is a structured ``PARTIAL`` verdict
            instead of a memory blow-up.
        meter: a shared :class:`~repro.checker.budget.BudgetMeter`
            (used by enclosing checks to pool one budget across
            clauses); overrides ``state_budget`` and lets
            :class:`~repro.checker.budget.BudgetExceeded` propagate to
            the owner.
        workers: worker processes for the reachability phase (sharded
            BFS above 1); the clause scans and witnesses are identical
            for every worker count.
        engine: ``"packed"`` proves the clauses over dense state codes
            (bitset reachability, no transition table); any violation,
            unpackable schema, or budget replays on the tuple engine,
            so verdicts and witnesses are identical either way.
    """
    own_meter = meter is None
    active = meter if meter is not None else BudgetMeter(state_budget)
    name = f"[{_source_name(concrete)} (= {_source_name(abstract)}]_init"
    selected = _select_refinement_engine(
        engine, concrete, abstract, state_budget, instrumentation,
        shared_meter=meter is not None,
    )
    if selected != "tuple":
        attempt = (
            _vector_init_attempt if selected == "vector" else _packed_init_attempt
        )
        result = attempt(
            concrete, abstract, alpha, stutter_insensitive, open_systems,
            instrumentation, name,
        )
        if result is not None:
            return result
    concrete_system = _as_system(concrete)
    abstract_system = (
        concrete_system if abstract is concrete else _as_system(abstract)
    )
    try:
        return _decide_init_refinement(
            concrete_system, abstract_system, alpha, stutter_insensitive,
            open_systems, instrumentation, active, name, workers,
        )
    except BudgetExceeded as exc:
        if not own_meter:
            raise
        return _partial_result(name, exc, instrumentation)


def _decide_init_refinement(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    meter: BudgetMeter,
    name: str,
    workers: int = 1,
) -> CheckResult:
    """The clauses of :func:`check_init_refinement`, budget-metered."""
    mapping = _resolve_alpha(concrete, abstract, alpha)
    for state in concrete.initial:
        image = mapping(state)
        if image not in abstract.initial:
            return CheckResult(
                False,
                name,
                Witness(
                    WitnessKind.ILLEGAL_TRANSITION,
                    f"initial state maps to {image!r}, not initial in {abstract.name}",
                    (state,),
                    concrete.schema,
                ),
            )
    with instrumentation.span("refine.init_clause"):
        if workers > 1:
            from ..parallel import parallel_reachable

            reachable = parallel_reachable(
                concrete,
                concrete.initial,
                workers,
                meter=meter if meter.budget is not None else None,
                phase="refine.init.reachable",
                instrumentation=instrumentation,
            )
        else:
            reachable = _reachable_metered(
                concrete, meter, "refine.init.reachable"
            )
    instrumentation.count("refine.reachable.size", len(reachable))
    checked = 0
    # Canonical scan order: the reachable set may have been assembled
    # sequentially or shard-parallel; sorting makes the first witness
    # (and so the whole verdict) independent of how it was built.
    for state in sorted(reachable, key=repr):
        image = mapping(state)
        successors = concrete.successors(state)
        if not successors:
            if not open_systems and not abstract.is_terminal(image):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.BAD_TERMINAL,
                        "reachable terminal state of the concrete maps to a "
                        "non-terminal abstract state (maximality fails)",
                        (state,),
                        concrete.schema,
                    ),
                )
            continue
        for successor in successors:
            checked += 1
            meter.charge("refine.init.transitions", unit="transitions")
            target_image = mapping(successor)
            if target_image == image and stutter_insensitive:
                continue
            if not abstract.has_transition(image, target_image):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.ILLEGAL_TRANSITION,
                        f"reachable transition has no image in {abstract.name}: "
                        f"{image!r} -> {target_image!r}",
                        (state, successor),
                        concrete.schema,
                    ),
                )
    instrumentation.count("refine.init.transitions.checked", checked)
    return CheckResult(
        True,
        name,
        detail=f"{len(reachable)} reachable states, {checked} transitions checked",
    )


def check_everywhere_refinement(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    open_systems: bool = False,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    meter: Optional[BudgetMeter] = None,
    engine: str = "tuple",
) -> CheckResult:
    """Decide ``[C subseteq A]`` — every computation of ``C`` is one of ``A``.

    Same conditions as :func:`check_init_refinement` but quantified
    over the whole state space rather than the reachable part, and
    without the initial-state clause (everywhere refinement constrains
    behaviour, not initial sets).  ``open_systems`` skips the
    maximality clause, as for :func:`check_init_refinement`.
    ``state_budget``/``meter``/``engine`` behave as for
    :func:`check_init_refinement`.
    """
    own_meter = meter is None
    active = meter if meter is not None else BudgetMeter(state_budget)
    name = f"[{_source_name(concrete)} (= {_source_name(abstract)}]"
    selected = _select_refinement_engine(
        engine, concrete, abstract, state_budget, instrumentation,
        shared_meter=meter is not None,
    )
    if selected != "tuple":
        attempt = (
            _vector_everywhere_attempt
            if selected == "vector"
            else _packed_everywhere_attempt
        )
        result = attempt(
            concrete, abstract, alpha, stutter_insensitive, open_systems,
            instrumentation, name,
        )
        if result is not None:
            return result
    concrete_system = _as_system(concrete)
    abstract_system = (
        concrete_system if abstract is concrete else _as_system(abstract)
    )
    try:
        return _decide_everywhere_refinement(
            concrete_system, abstract_system, alpha, stutter_insensitive,
            open_systems, instrumentation, active, name,
        )
    except BudgetExceeded as exc:
        if not own_meter:
            raise
        return _partial_result(name, exc, instrumentation)


def _decide_everywhere_refinement(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    meter: BudgetMeter,
    name: str,
) -> CheckResult:
    """The scan of :func:`check_everywhere_refinement`, budget-metered."""
    mapping = _resolve_alpha(concrete, abstract, alpha)
    checked = 0
    for state in meter.metered(concrete.schema.states(), "refine.everywhere"):
        image = mapping(state)
        successors = concrete.successors(state)
        if not successors:
            if not open_systems and not abstract.is_terminal(image):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.BAD_TERMINAL,
                        "terminal state of the concrete maps to a non-terminal "
                        "abstract state (maximality fails)",
                        (state,),
                        concrete.schema,
                    ),
                )
            continue
        for successor in successors:
            checked += 1
            target_image = mapping(successor)
            if target_image == image and stutter_insensitive:
                continue
            if not abstract.has_transition(image, target_image):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.ILLEGAL_TRANSITION,
                        f"transition has no image in {abstract.name}: "
                        f"{image!r} -> {target_image!r}",
                        (state, successor),
                        concrete.schema,
                    ),
                )
    instrumentation.count("refine.everywhere.transitions.checked", checked)
    return CheckResult(True, name, detail=f"{checked} transitions checked")


def compression_transitions(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
) -> List[Transition]:
    """All transitions of ``C`` that compress a multi-step path of ``A``.

    A transition compresses when its abstract image is not a single
    ``A``-transition but is realizable as an ``A``-path of length two
    or more.  Raises nothing on unmatched transitions — those are the
    business of :func:`check_convergence_refinement`; unmatched
    transitions are simply skipped here.
    """
    mapping = _resolve_alpha(concrete, abstract, alpha)
    result: List[Transition] = []
    for source, target in concrete.transitions():
        image_source, image_target = mapping(source), mapping(target)
        if image_source == image_target and stutter_insensitive:
            continue
        if abstract.has_transition(image_source, image_target):
            continue
        if shortest_path(abstract, image_source, image_target, min_length=2) is not None:
            result.append((source, target))
    return result


def check_convergence_refinement(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    open_systems: bool = False,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    workers: int = 1,
    engine: str = "tuple",
) -> CheckResult:
    """Decide ``[C <= A]`` — convergence refinement (paper, Section 2).

    See the module docstring for the four clauses and the argument
    that they are sound and complete on finite systems.

    Args:
        concrete: the implementation ``C``.
        abstract: the specification ``A``.
        alpha: abstraction function from ``C``'s space onto ``A``'s;
            identity when omitted.
        stutter_insensitive: extend the relation modulo stuttering
            (needed for the paper's ``C3``; see Section 6).
        open_systems: treat both operands as open systems (wrappers):
            skip the maximality/terminal clauses.
        instrumentation: observability sink (per-clause timings,
            exact/compression/stutter counts, the verdict); the null
            default is free.
        state_budget: one budget pooled across every clause; past it
            the result is a structured ``PARTIAL`` verdict instead of
            a memory blow-up.
        workers: worker processes for the reachability phase and the
            transition scan (sharded above 1); the cycle clauses and
            witness search run sequentially either way, so the verdict
            — witness and rendering included — is identical for every
            worker count.  Degrades to 1 where fork-based pools are
            unavailable.
        engine: ``"packed"`` proves all four clauses over dense state
            codes (programs lower straight to a successor kernel, no
            transition table); any violation, unpackable schema, or
            state budget replays on the tuple engine, so verdicts,
            witnesses, and counters are identical either way.

    Returns:
        :class:`CheckResult` whose detail reports how many transitions
        were exact, compressing, and stuttering.
    """
    selected = _select_refinement_engine(
        engine, concrete, abstract, state_budget, instrumentation
    )
    if workers > 1:
        from ..parallel import resolve_workers

        workers = resolve_workers(workers)
        if workers > 1:
            instrumentation.count("parallel.workers", workers)
    meter = BudgetMeter(state_budget)
    name = f"[{_source_name(concrete)} <= {_source_name(abstract)}]"
    with instrumentation.span("refine.total"):
        try:
            result = None
            if selected == "vector":
                result = _vector_convergence_attempt(
                    concrete, abstract, alpha, stutter_insensitive,
                    open_systems, instrumentation, name,
                )
            elif selected == "packed":
                result = _packed_convergence_attempt(
                    concrete, abstract, alpha, stutter_insensitive,
                    open_systems, instrumentation, name,
                )
            if result is None:
                concrete_system = _as_system(concrete)
                abstract_system = (
                    concrete_system
                    if abstract is concrete
                    else _as_system(abstract)
                )
                result = _decide_convergence_refinement(
                    concrete_system,
                    abstract_system,
                    alpha,
                    stutter_insensitive,
                    open_systems,
                    instrumentation,
                    meter,
                    name,
                    workers,
                )
        except BudgetExceeded as exc:
            return _partial_result(name, exc, instrumentation)
    witness = result.witness
    instrumentation.event(
        "refine.verdict",
        check=result.check,
        holds=result.holds,
        witness=witness.kind.name if witness is not None else None,
    )
    return result


def _decide_convergence_refinement(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    meter: BudgetMeter,
    name: str,
    workers: int = 1,
) -> CheckResult:
    """The clauses of :func:`check_convergence_refinement`, instrumented."""
    mapping = _resolve_alpha(concrete, abstract, alpha)

    init_part = check_init_refinement(
        concrete,
        abstract,
        mapping,
        stutter_insensitive=stutter_insensitive,
        open_systems=open_systems,
        instrumentation=instrumentation,
        meter=meter,
        workers=workers,
    )
    if not init_part.holds:
        return CheckResult(False, name, init_part.witness, detail="init-refinement clause failed")

    exact = 0
    stutters: List[Transition] = []
    compressions: List[Transition] = []
    if workers > 1:
        from ..parallel import parallel_transition_scan

        with instrumentation.span("refine.transition_scan"):
            scan = parallel_transition_scan(
                list(concrete.transitions()),
                abstract,
                mapping,
                stutter_insensitive,
                workers,
                meter=meter if meter.budget is not None else None,
                phase="refine.transition_scan",
                instrumentation=instrumentation,
            )
        if scan.violation is not None:
            kind, source, target = scan.violation
            image_source, image_target = mapping(source), mapping(target)
            if kind == "stutter-no-self-loop":
                message = (
                    "stuttering transition but the abstract has no self-loop at "
                    f"{image_source!r} (rerun with stutter_insensitive=True to "
                    "compare modulo stuttering)"
                )
            else:
                message = (
                    f"no path of {abstract.name} realizes the image "
                    f"{image_source!r} -> {image_target!r}"
                )
            return CheckResult(
                False,
                name,
                Witness(
                    WitnessKind.NO_ABSTRACT_PATH,
                    message,
                    (source, target),
                    concrete.schema,
                ),
            )
        exact = scan.exact
        stutters = scan.stutters
        compressions = scan.compressions
    else:
        progress = ProgressEmitter(instrumentation, "refine.transition_scan")
        scanned = 0
        with instrumentation.span("refine.transition_scan"):
            for source, target in meter.metered(
                concrete.transitions(), "refine.transition_scan", unit="transitions"
            ):
                scanned += 1
                if progress.enabled and scanned % 4096 == 0:
                    progress.tick(0, 0, scanned)
                image_source, image_target = mapping(source), mapping(target)
                if image_source == image_target:
                    if stutter_insensitive:
                        stutters.append((source, target))
                        continue
                    if abstract.has_transition(image_source, image_target):
                        exact += 1
                        continue
                    return CheckResult(
                        False,
                        name,
                        Witness(
                            WitnessKind.NO_ABSTRACT_PATH,
                            "stuttering transition but the abstract has no self-loop at "
                            f"{image_source!r} (rerun with stutter_insensitive=True to "
                            "compare modulo stuttering)",
                            (source, target),
                            concrete.schema,
                        ),
                    )
                if abstract.has_transition(image_source, image_target):
                    exact += 1
                    continue
                if shortest_path(abstract, image_source, image_target, min_length=2) is None:
                    return CheckResult(
                        False,
                        name,
                        Witness(
                            WitnessKind.NO_ABSTRACT_PATH,
                            f"no path of {abstract.name} realizes the image "
                            f"{image_source!r} -> {image_target!r}",
                            (source, target),
                            concrete.schema,
                        ),
                    )
                compressions.append((source, target))
    instrumentation.count("refine.transitions.exact", exact)
    instrumentation.count("refine.transitions.compressing", len(compressions))
    instrumentation.count("refine.transitions.stuttering", len(stutters))

    # Clause 3: finitely many omissions — no compression on a cycle of C.
    with instrumentation.span("refine.cycle_clause"):
        for source, target in compressions:
            if source in concrete.reachable_from([target]):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.COMPRESSION_ON_CYCLE,
                        "compressing transition lies on a cycle of the concrete "
                        "system: a computation around the cycle omits abstract "
                        "states infinitely often",
                        (source, target),
                        concrete.schema,
                    ),
                )

    # Invisible divergence: a cycle made purely of stutters would let C
    # loop forever while the matched abstract computation cannot move.
    if stutters:
        stutter_only = System(
            concrete.schema,
            stutters,
            initial=(),
            name=f"{concrete.name}|stutter-edges",
        )
        visible_self_loops = {
            (source, target)
            for source, target in stutters
            if source == target
        }
        for source, target in stutters:
            if (source, target) in visible_self_loops:
                # A literal self-loop is a fairness artefact; the caller
                # models weak fairness by dropping self-loops up front.
                continue
            if source in stutter_only.reachable_from([target]):
                return CheckResult(
                    False,
                    name,
                    Witness(
                        WitnessKind.COMPRESSION_ON_CYCLE,
                        "cycle of abstract-invisible transitions: the concrete "
                        "can diverge without the abstract moving",
                        (source, target),
                        concrete.schema,
                    ),
                )

    # Clause 4: terminal states must map to terminal states (closed
    # systems only; open systems have no maximality requirement).
    terminal_scan = (
        meter.metered(concrete.schema.states(), "refine.terminal_scan")
        if not open_systems
        else ()
    )
    for state in terminal_scan:
        if concrete.is_terminal(state) and not abstract.is_terminal(mapping(state)):
            return CheckResult(
                False,
                name,
                Witness(
                    WitnessKind.BAD_TERMINAL,
                    "terminal state of the concrete maps to a non-terminal "
                    "abstract state: the matched abstract computation would "
                    "not be maximal",
                    (state,),
                    concrete.schema,
                ),
            )

    return CheckResult(
        True,
        name,
        detail=(
            f"{exact} exact transitions, {len(compressions)} compressions, "
            f"{len(stutters)} stutters"
        ),
    )


def expand_to_abstract_path(
    concrete_sequence: Tuple[State, ...],
    abstract: System,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
) -> Optional[Tuple[State, ...]]:
    """Construct the abstract computation a concrete computation tracks.

    Splices the per-transition abstract paths together: each concrete
    step contributes either the matching single abstract transition or
    the shortest multi-step abstract path it compresses.  This is the
    constructive content of the completeness argument and is used to
    reproduce the paper's Section 4.2 compression diagram.

    Args:
        concrete_sequence: a computation (or prefix) of the concrete
            system, as produced by :meth:`System.computations`.
        abstract: the specification automaton.
        alpha: abstraction function; identity over the abstract schema
            when omitted (the sequence is then assumed to be already in
            abstract coordinates).
        stutter_insensitive: skip concrete steps whose image stutters.

    Returns:
        The abstract state sequence, or ``None`` when some concrete
        step has no abstract realization (i.e. the systems are not in
        a convergence-refinement relation to begin with).
    """
    if not concrete_sequence:
        return None
    mapping = alpha if alpha is not None else identity_abstraction(abstract.schema)
    result: List[State] = [mapping(concrete_sequence[0])]
    for source, target in zip(concrete_sequence, concrete_sequence[1:]):
        image_source, image_target = mapping(source), mapping(target)
        if image_source == image_target:
            if stutter_insensitive:
                continue
            if abstract.has_transition(image_source, image_target):
                result.append(image_target)
                continue
            return None
        if abstract.has_transition(image_source, image_target):
            result.append(image_target)
            continue
        path = shortest_path(abstract, image_source, image_target, min_length=2)
        if path is None:
            return None
        result.extend(path[1:])
    return tuple(result)


def check_everywhere_eventually_refinement(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    engine: str = "tuple",
) -> CheckResult:
    """Decide the related-work relation of the paper's Section 7.

    ``C`` is an *everywhere-eventually refinement* of ``A`` iff
    ``[C (= A]_init`` and every computation of ``C`` is an arbitrary
    finite prefix followed by a computation of ``A``.  The second
    clause is exactly "``C`` is stabilizing to the automaton ``A``
    with *every* state initial" — which reduces the check to the
    stabilization fixpoint with ``I_A = Sigma_A``.

    The relation is strictly more permissive than convergence
    refinement: ``C`` may converge along recovery paths ``A`` never
    uses (the paper's odd-states vs even-states example, reproduced in
    :mod:`repro.counterexamples.recovery_paths`).
    """
    from .convergence import check_stabilization

    if alpha is None:
        _schema_of(concrete).require_compatible(
            _schema_of(abstract), "refinement check without an abstraction function"
        )
        mapping = identity_abstraction(_schema_of(concrete))
    else:
        mapping = alpha
    name = f"[{_source_name(concrete)} ee-refines {_source_name(abstract)}]"
    init_part = check_init_refinement(
        concrete, abstract, mapping, state_budget=state_budget, engine=engine
    )
    if init_part.is_partial:
        return CheckResult(False, name, partial=init_part.partial)
    if not init_part.holds:
        return CheckResult(False, name, init_part.witness,
                           detail="init-refinement clause failed")
    abstract_system = _as_system(abstract)
    liberal = abstract_system.with_initial(
        abstract_system.schema.states(), name=f"{abstract_system.name}|all-initial"
    )
    suffix_part = check_stabilization(
        concrete, liberal, mapping, compute_steps=False,
        instrumentation=instrumentation, state_budget=state_budget,
        engine=engine,
    )
    return CheckResult(
        suffix_part.result.holds,
        name,
        suffix_part.result.witness,
        detail=suffix_part.result.detail,
        partial=suffix_part.result.partial,
    )
