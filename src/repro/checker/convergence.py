"""Stabilization checking (paper, Section 2).

The paper defines::

    C is stabilizing to A iff every computation of C has a suffix
    that is a suffix of some computation of A that starts at an
    initial state of A.

The decision procedure used here is the classical closure-and-
convergence argument, made exact for finite systems:

1. Compute ``L_A``, the states of ``A`` reachable from ``A``'s initial
   states — the *legitimate* abstract states.
2. Compute the *greatest* set ``G`` of concrete states from which
   ``C`` forever behaves like ``A``: start from all states whose
   abstraction lies in ``L_A`` and repeatedly remove states with an
   escaping transition (target outside ``G``, or image step outside
   ``T_A``) or a premature deadlock (terminal in ``C`` but not in
   ``A``).  ``G`` is a simulation-style fixpoint; from any state of
   ``G`` every computation of ``C`` maps to the continuation of some
   computation of ``A`` that passed through an initial state.
3. Check *convergence*: outside ``G`` there must be neither a cycle
   (a computation could circulate forever without acquiring a
   legitimate suffix) nor a terminal state (a computation could end
   before acquiring one).

The criterion is sound: (2) gives closure and suffix-matching, (3)
forces every maximal computation into ``G``.  It is also the standard
*complete* criterion for the protocol instances verified here (their
legitimate behaviour is exactly the reachable behaviour of the
specification); the one semantic knob is fairness, exposed as
``fairness='weak'`` which removes self-loops before the cycle
analysis — required by systems with stuttering actions such as the
paper's ``C3``.

Every engine runs this one procedure, written once in
:func:`_decide`.  An engine contributes a *backend*
(:data:`_BACKENDS`) that computes the sets in its own representation
— tuple states, packed int codes, NumPy flag arrays, or streamed bit
fields — and answers in tuple terms: ``legitimate()`` and ``core()``
return ``L_A`` and ``G``; ``outside_size()``, ``deadlock()`` (the
min-by-``repr`` stuck state outside ``G``, or ``None``) and
``has_cycle_outside()`` query the complement of ``G``;
``has_invisible_cycle()`` says whether ``G`` holds a cycle of
invisible steps; ``cycle_region()`` and ``invisible_region()`` give
the witness searches a *witness region* — an analysis system
(self-loops dropped under weak fairness) and a state set on which
:func:`find_cycle_within` returns the tuple engine's exact cycle.  The
tuple engine's region is its whole system and searched set; the
int-code engines compile only the states on a cycle (see
:class:`_KernelBackend`).  Only the fair-trap search under strong
fairness still takes the whole system, from ``analysis_system()`` and
``outside_states()``.  ``longest_path()`` is the worst case, and
``running()`` is a context held open for the whole decision (the
shared engine's runtime).  Backends return sets, flags, states and
regions; the skeleton alone holds the phase spans, the witness
messages, the invisible-step rebuild and the result, so the verdict,
witness, counters and spans do not depend on the engine.  Decoded sets
are built in ascending code order — schema order, the tuple engine's
own set layout — so every order-dependent search returns the same
witness.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..core.abstraction import AbstractionFunction, identity_abstraction
from ..core.state import State
from ..core.system import System
from ..gcl.program import Program
from ..kernel.shared.budget import (
    active_memory_context as _active_memory_context,
)
from ..obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from ..resilience.degrade import DEGRADATION_CHAIN, RECOVERABLE_ENGINE_FAULTS
from .budget import BudgetExceeded, BudgetMeter
from .fairness import find_fair_trap
from .graph import (
    find_cycle_within,
    has_cycle_within,
    states_on_cycles,
    terminal_states_within,
)
from .witnesses import CheckResult, Witness, WitnessKind

__all__ = [
    "StabilizationResult",
    "legitimate_abstract_states",
    "behavioural_core",
    "check_stabilization",
    "check_self_stabilization",
    "worst_case_convergence_steps",
    "worst_case_schedule",
    "convergence_profile",
]

#: Checker entry points accept a compiled system or a raw program; the
#: packed engine lowers programs directly, the tuple engine compiles.
SystemOrProgram = Union[System, Program]

ENGINES = ("packed", "tuple", "vector", "shared")


def _as_system(source: SystemOrProgram) -> System:
    """The tuple-engine view of a check source."""
    return source if isinstance(source, System) else source.compile()


def _source_name(source: SystemOrProgram) -> str:
    return source.name


def _require_known_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            + ", ".join(map(repr, ENGINES))
        )


def _select_engine(
    engine: str,
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    state_budget: Optional[int],
    instrumentation: Instrumentation,
    alpha: Optional[AbstractionFunction] = None,
) -> str:
    """The engine that actually runs, emitting the ``engine.*`` counters.

    The packed and vector engines are refused (with an automatic
    fallback to the tuple engine) when a schema is too large to
    intern, or when a state budget is tight enough that the tuple
    engine could cut the check PARTIAL — the budgeted exploration
    order is the tuple engine's, so PARTIAL verdicts must come from it
    byte-for-byte.  The vector engine additionally falls back to the
    *packed* engine when NumPy is missing or the program lies outside
    the statically lowerable fragment (non-central daemons,
    non-int/bool domains, dynamically typed expressions).

    The shared engine is tried first when explicitly requested
    (``engine="shared"``) or when a memory context
    (:func:`repro.kernel.shared.using_memory_budget`) is active and
    the vector engine was requested — and, crucially, *before* the
    packed-interner gate: the packed ceiling is exactly the limit the
    streamed engine exists to bypass, so a mega-state space must not
    bounce to the tuple engine just because it cannot intern.  Budgeted
    checks still honour the tuple-replay floor.
    """
    _require_known_engine(engine)
    if engine == "tuple":
        return "tuple"
    from ..kernel import packed_fallback_reason, source_schema

    shared_eligible = engine == "shared" or (
        engine == "vector" and _active_memory_context() is not None
    )
    if shared_eligible:
        from ..kernel.shared import shared_fallback_reason

        shared_reason = shared_fallback_reason(concrete, abstract, alpha)
        if shared_reason is None and state_budget is not None:
            floor = (
                2 * source_schema(abstract).size()
                + 2 * source_schema(concrete).size()
            )
            if state_budget < floor:
                shared_reason = (
                    f"state budget {state_budget} is below the engine "
                    f"floor of {floor} states (a PARTIAL cut must replay "
                    f"the tuple engine's exploration order)"
                )
        if shared_reason is None:
            instrumentation.count("engine.shared", 1)
            instrumentation.event("engine.selected", engine="shared")
            return "shared"
        instrumentation.event(
            "engine.fallback", requested="shared", reason=shared_reason
        )
        if engine == "shared":
            instrumentation.count("engine.fallback.vector", 1)

    reason = packed_fallback_reason(concrete, abstract)
    if reason is None and state_budget is not None:
        # The tuple engine meters the legitimate reachability twice
        # (the check.legitimate span and behavioural_core's own call),
        # the candidate scan, and the outside scan — at most
        # 2|Sigma_A| + 2|Sigma_C| charges.  At or above this floor no
        # budget can trip, so skipping the meter is sound.
        floor = 2 * source_schema(abstract).size() + 2 * source_schema(concrete).size()
        if state_budget < floor:
            reason = (
                f"state budget {state_budget} is below the packed-engine "
                f"floor of {floor} states (a PARTIAL cut must replay the "
                f"tuple engine's exploration order)"
            )
    if reason is not None:
        instrumentation.count("engine.fallback.tuple", 1)
        instrumentation.event("engine.fallback", requested=engine, reason=reason)
        return "tuple"
    if engine in ("vector", "shared"):
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


@dataclass(frozen=True)
class StabilizationResult:
    """Outcome of a stabilization check, with quantitative extras.

    Attributes:
        result: the underlying verdict/witness.
        legitimate_abstract: ``L_A`` — legitimate states of the spec.
        core: ``G`` — concrete states from which behaviour is forever
            legitimate (empty on some failures).
        worst_case_steps: length of the longest transition path that
            stays outside ``G`` (the adversarial convergence time), or
            ``None`` when the check failed.
        engine: the engine that actually decided the check (after
            preflight fallback and runtime degradation) when it came
            through :func:`check_stabilization`; ``None`` on directly
            constructed results.  Excluded from equality — verdicts
            are engine-identical, and the differential tests compare
            results across engines.
    """

    result: CheckResult
    legitimate_abstract: FrozenSet[State]
    core: FrozenSet[State]
    worst_case_steps: Optional[int]
    engine: Optional[str] = field(default=None, compare=False)

    @property
    def holds(self) -> bool:
        """The verdict."""
        return self.result.holds

    @property
    def is_partial(self) -> bool:
        """Did the check stop at its state budget rather than decide?"""
        return self.result.is_partial

    def __bool__(self) -> bool:
        return self.result.holds

    def format(self) -> str:
        """Render the verdict plus the quantitative summary."""
        lines = [self.result.format()]
        lines.append(
            f"  |L_A|={len(self.legitimate_abstract)} |core|={len(self.core)}"
            + (
                f" worst-case convergence={self.worst_case_steps} steps"
                if self.worst_case_steps is not None
                else ""
            )
        )
        return "\n".join(lines)


def legitimate_abstract_states(
    abstract: System,
    meter: Optional[BudgetMeter] = None,
) -> FrozenSet[State]:
    """``L_A``: the abstract states reachable from the abstract initial states.

    Args:
        abstract: the specification system.
        meter: optional state budget; the reachability search then
            charges one unit per state expanded and stops with a
            :class:`~repro.checker.budget.BudgetExceeded` (carrying the
            frontier size) instead of outgrowing memory.
    """
    if meter is None or meter.budget is None:
        return abstract.reachable()
    seen: Set[State] = set(abstract.initial)
    frontier: List[State] = list(seen)
    while frontier:
        meter.charge("check.legitimate", frontier=len(frontier))
        state = frontier.pop()
        for successor in abstract.successors(state):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(seen)


def _must_evict(
    state: State,
    core: Set[State],
    concrete: System,
    abstract: System,
    mapping,
    stutter_insensitive: bool,
    fairness_ignores_stutter: bool,
) -> bool:
    """Whether ``state`` leaves ``core``, the live set being swept."""
    image = mapping(state)
    progress = False
    for successor in concrete.successors(state):
        target_image = mapping(successor)
        if successor == state:
            if abstract.has_transition(image, image):
                progress = True
                continue
            if stutter_insensitive or fairness_ignores_stutter:
                continue  # ignorable stutter, no progress
            return True
        if successor not in core:
            return True
        if target_image == image and stutter_insensitive:
            progress = True
            continue
        if not abstract.has_transition(image, target_image):
            return True
        progress = True
    if not progress:
        # No successors at all, or only ignorable self-loops: the
        # state is effectively terminal and must match a terminal
        # state of the specification.
        return not abstract.is_terminal(image)
    return False


def behavioural_core(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    fairness: str = "none",
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    meter: Optional[BudgetMeter] = None,
) -> FrozenSet[State]:
    """The greatest set ``G`` of concrete states forever tracking ``A``.

    Greatest-fixpoint computation described in the module docstring.
    A state belongs to ``G`` iff its abstraction is legitimate, all of
    its transitions stay in ``G`` with images that are ``A``-steps
    (or invisible, in stutter-insensitive mode), and it deadlocks only
    where ``A`` does.

    Args:
        concrete: implementation ``C`` (candidate stabilizing system).
        abstract: specification ``A`` (the stabilization target).
        alpha: abstraction from ``C``'s space onto ``A``'s; identity
            when omitted.
        stutter_insensitive: treat image-stuttering steps as legal.
        fairness: under ``'weak'``/``'strong'``, a self-loop whose
            image is *not* an ``A``-self-loop is ignored rather than
            disqualifying — fairness prevents the daemon from taking
            it forever, and taking it finitely often only stutters.
            A self-loop whose image IS an ``A``-transition remains
            acceptable under every mode (legitimate stuttering
            behaviour of the specification itself).
        instrumentation: observability sink; counts the states
            enumerated, the fixpoint iterations, and the evictions per
            iteration (null and free by default).
        meter: optional state budget; the full-space scan then raises
            :class:`~repro.checker.budget.BudgetExceeded` at the cap
            instead of materializing an unbounded candidate set.
    """
    mapping = alpha if alpha is not None else identity_abstraction(concrete.schema)
    legitimate = legitimate_abstract_states(abstract, meter=meter)
    fairness_ignores_stutter = fairness in ("weak", "strong")
    enumerated = 0
    core: Set[State] = set()
    for state in concrete.schema.states():
        if meter is not None:
            meter.charge("check.core", frontier=len(core))
        enumerated += 1
        if mapping(state) in legitimate:
            core.add(state)
    instrumentation.count("check.states.enumerated", enumerated)
    instrumentation.count("check.candidates.initial", len(core))
    progress = ProgressEmitter(instrumentation, "check.core")
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        evicted = 0
        for state in list(core):
            if _must_evict(
                state, core, concrete, abstract, mapping,
                stutter_insensitive, fairness_ignores_stutter,
            ):
                core.discard(state)
                changed = True
                evicted += 1
        instrumentation.event(
            "check.fixpoint.iteration",
            index=iterations,
            evicted=evicted,
            remaining=len(core),
        )
        instrumentation.count("check.states.evicted", evicted)
        instrumentation.observe("check.round.evicted", evicted)
        progress.tick(iterations, len(core), enumerated * iterations)
    instrumentation.count("check.fixpoint.iterations", iterations)
    return frozenset(core)


def worst_case_convergence_steps(
    concrete: System, core: FrozenSet[State], fairness: str = "none"
) -> int:
    """Length of the longest transition path staying outside ``core``.

    Assumes the region outside ``core`` is acyclic (which the
    stabilization check has established); the value is then the exact
    adversarial convergence time: the maximum, over all states and all
    daemon choices, of the number of steps taken before entering
    ``core``.

    Args:
        concrete: the checked system (self-loops ignored under
            ``fairness='weak'``).
        core: the legitimate behavioural core ``G``.
        fairness: ``'none'``, ``'weak'``, or ``'strong'``; must match
            the value used for the stabilization check.  Under
            ``'strong'`` the metric only exists when the region outside
            the core happens to be acyclic.

    Raises:
        ValueError: if a cycle outside ``core`` is detected after all.
    """
    system = (
        concrete.without_self_loops() if fairness in ("weak", "strong") else concrete
    )
    outside = [state for state in system.schema.states() if state not in core]
    outside_set = set(outside)
    # Longest path in a DAG by memoized DFS (iterative).
    depth: Dict[State, int] = {}
    in_progress: Set[State] = set()
    for root in outside:
        if root in depth:
            continue
        stack: List[Tuple[State, bool]] = [(root, False)]
        while stack:
            state, expanded = stack.pop()
            if expanded:
                best = 0
                for successor in system.successors(state):
                    if successor in outside_set:
                        best = max(best, 1 + depth[successor])
                    else:
                        best = max(best, 1)
                depth[state] = best
                in_progress.discard(state)
                continue
            if state in depth:
                continue
            if state in in_progress:
                raise ValueError("cycle outside the core; check stabilization first")
            in_progress.add(state)
            stack.append((state, True))
            for successor in system.successors(state):
                if successor in outside_set and successor not in depth:
                    if successor in in_progress:
                        raise ValueError(
                            "cycle outside the core; check stabilization first"
                        )
                    stack.append((successor, False))
    return max(depth.values(), default=0)


def check_stabilization(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    fairness: str = "none",
    compute_steps: bool = True,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    workers: int = 1,
    engine: str = "tuple",
) -> StabilizationResult:
    """Decide "``C`` is stabilizing to ``A``".

    Args:
        concrete: the candidate system ``C`` (often a composite
            ``C [] W``); transient faults may land it in any state of
            its space, so convergence is demanded from *every* state.
        abstract: the stabilization target ``A``.
        alpha: abstraction function, identity when the spaces coincide.
        stutter_insensitive: accept image-stuttering steps (``C3``).
        fairness: ``'none'`` for raw central-daemon semantics,
            ``'weak'`` to discard self-loops before the cycle analysis
            (a stuttering action is never scheduled forever to the
            exclusion of enabled, state-changing actions), or
            ``'strong'`` for strong action fairness (divergence must
            be a fair trap; see :mod:`repro.checker.fairness`).
        compute_steps: also compute the worst-case convergence time
            (skippable for speed in large sweeps).
        instrumentation: observability sink (phase timings, state
            counts, fixpoint iterations, the verdict); the null
            default is free.
        state_budget: optional cap on the number of states the check
            may enumerate across all of its phases.  When the cap is
            hit the result is a structured ``PARTIAL`` verdict
            (``result.is_partial`` is true, ``result.result.partial``
            reports states explored and frontier size) — never a
            ``MemoryError``.
        workers: worker processes for the shared engine's rounds.
            The tuple, packed and vector engines decide in one
            process; asked for more than one worker, they say so with
            a ``parallel.sequential`` event.  The verdict — witness
            and formatted rendering included — is identical for every
            worker count.  Degrades to 1 (with the same event) where
            fork-based pools are unavailable.
        engine: ``'tuple'`` (the default) walks tuple states through
            an eagerly compiled :class:`System`; ``'packed'`` interns
            states as dense ints and runs the bitset fixpoints of
            :mod:`repro.kernel` — same verdicts, witnesses, and
            counters, decoded back to tuples at this boundary.  Packed
            falls back to tuple automatically (with an
            ``engine.fallback`` event) for unpackable schemas or tight
            state budgets.  Both sides may be a
            :class:`~repro.gcl.program.Program`; the packed engine then
            skips transition-table materialization entirely.

    Returns:
        A :class:`StabilizationResult`; its witness on failure is a
        divergent cycle, an illegitimate deadlock, or an empty core.
    """
    if fairness not in ("none", "weak", "strong"):
        raise ValueError(f"unknown fairness mode {fairness!r}")
    selected = _select_engine(
        engine, concrete, abstract, state_budget, instrumentation, alpha
    )
    request = _Request(
        concrete,
        abstract,
        alpha,
        stutter_insensitive,
        fairness,
        compute_steps,
        instrumentation,
        BudgetMeter(state_budget),
        workers,
    )
    with instrumentation.span("check.total"):
        try:
            result = _decide_with_degradation(selected, request)
        except BudgetExceeded as exc:
            instrumentation.event(
                "check.partial",
                phase=exc.partial.phase,
                explored=exc.partial.explored,
                frontier=exc.partial.frontier,
                budget=exc.partial.budget,
            )
            return StabilizationResult(
                CheckResult(False, request.name, partial=exc.partial),
                frozenset(),
                frozenset(),
                None,
                # Only metered (tuple-engine) exploration can trip the
                # budget; _select_engine guarantees tight budgets land
                # there.
                engine="tuple",
            )
    instrumentation.count("check.legitimate.size", len(result.legitimate_abstract))
    instrumentation.count("check.core.size", len(result.core))
    witness = result.result.witness
    instrumentation.event(
        "check.verdict",
        check=result.result.check,
        holds=result.holds,
        witness=witness.kind.name if witness is not None else None,
        worst_case_steps=result.worst_case_steps,
    )
    return result


@dataclass(frozen=True)
class _Request:
    """One stabilization question, as :func:`check_stabilization` got it."""

    concrete: SystemOrProgram
    abstract: SystemOrProgram
    alpha: Optional[AbstractionFunction]
    stutter_insensitive: bool
    fairness: str
    compute_steps: bool
    instrumentation: Instrumentation
    meter: BudgetMeter
    workers: int

    @property
    def name(self) -> str:
        return (
            f"{_source_name(self.concrete)} stabilizing to "
            f"{_source_name(self.abstract)}"
        )

    @property
    def drop_self(self) -> bool:
        """Weak and strong fairness ignore self-loops in the analysis."""
        return self.fairness in ("weak", "strong")


def _decide_with_degradation(
    selected: str, request: _Request
) -> StabilizationResult:
    """Run the selected engine's decide, degrading on runtime faults.

    Preflight fallback (:func:`_select_engine`) handles the failures
    known *before* the check starts; this wrapper handles the ones
    that surface mid-fixpoint — ``MemoryError`` from an array that
    outgrew RAM, ``ImportError`` from an accelerator that broke on
    first use, an :class:`~repro.resilience.degrade.EngineFault` from
    kernel internals.  On each such fault the check restarts on the
    next engine down the chain (vector → packed → tuple), with a
    reasoned ``engine.fallback`` event marked ``during="runtime"``.
    Restarting is sound because the engines are pure functions of
    their inputs with identical verdicts (the CI differentials pin
    this), so a partial first attempt leaves nothing behind but the
    counters it already emitted.

    ``BudgetExceeded`` always propagates: it is a structured PARTIAL
    verdict, not an engine fault.  The last engine's faults propagate
    too — masking a tuple-engine crash would hide a real failure.
    """
    chain = DEGRADATION_CHAIN[selected]
    if selected == "shared":
        # Filter the chain to engines that can actually run these
        # sources: a mega-state space degrading out of the shared
        # engine must not crash on the vector/packed preflight limits
        # mid-recovery (their lowering errors are ValueErrors, not
        # recoverable faults).
        from ..kernel import packed_fallback_reason
        from ..kernel.vector import vector_fallback_reason

        sources = (request.concrete, request.abstract)
        chain = tuple(
            engine_name
            for engine_name in chain
            if (
                engine_name == "shared"
                or engine_name == "tuple"
                or (
                    engine_name == "vector"
                    and vector_fallback_reason(*sources) is None
                )
                or (
                    engine_name == "packed"
                    and packed_fallback_reason(*sources) is None
                )
            )
        )
    instrumentation = request.instrumentation
    for position, engine_name in enumerate(chain):
        if engine_name != "shared":
            _note_sequential(instrumentation, engine_name, request.workers)
        try:
            decided = _decide(_BACKENDS[engine_name](request), request)
            # Stamp the engine that actually decided (not the one
            # requested): runtime degradation may have moved down the
            # chain since preflight selection.
            return replace(decided, engine=engine_name)
        except BudgetExceeded:
            raise
        except RECOVERABLE_ENGINE_FAULTS as fault:
            if position == len(chain) - 1:
                raise
            fallback = chain[position + 1]
            instrumentation.count(f"engine.fallback.{fallback}", 1)
            instrumentation.count("resilience.engine.fallback", 1)
            instrumentation.event(
                "engine.fallback",
                requested=engine_name,
                during="runtime",
                reason=f"{type(fault).__name__}: {fault}",
            )
    raise AssertionError("engine degradation chain exhausted")  # pragma: no cover


def _note_sequential(
    instrumentation: Instrumentation,
    engine: str,
    workers: int,
    reason: Optional[str] = None,
) -> None:
    """Say why a ``workers > 1`` request runs in one process.

    Emits one ``parallel.sequential`` event; a one-worker request is
    silent.  Only the shared engine fans a decision out, so the default
    reason names ``engine`` as one that does not.
    """
    if workers > 1:
        instrumentation.event(
            "parallel.sequential",
            engine=engine,
            workers=workers,
            reason=reason
            or f"the {engine} engine decides in one process; only the "
            "shared engine fans out",
        )


def _decide(backend, request: _Request) -> StabilizationResult:
    """The phases of :func:`check_stabilization`, each under a span."""
    instrumentation = request.instrumentation
    with backend.running():
        with instrumentation.span("check.legitimate"):
            legitimate = backend.legitimate()
        with instrumentation.span("check.core"):
            core = backend.core()
        witness = _refutation(backend, request, core)
        steps: Optional[int] = None
        if witness is None:
            with instrumentation.span("check.worst_case"):
                # Under strong fairness the sup over fair runs may be
                # unbounded when cycles remain outside the core; report
                # no finite metric.
                if request.compute_steps and not backend.has_cycle_outside():
                    steps = backend.longest_path()
    detail = "" if witness is not None else (
        f"core has {len(core)} of {backend.schema.size()} states; "
        f"legitimate spec states: {len(legitimate)}"
    )
    return StabilizationResult(
        CheckResult(witness is None, request.name, witness, detail),
        legitimate,
        core,
        steps,
    )


def _refutation(
    backend, request: _Request, core: FrozenSet[State]
) -> Optional[Witness]:
    """The witness of the first convergence obligation that fails.

    ``None`` when the core is closed and every computation outside it
    reaches it: no deadlock, no (fair) divergent cycle, and — in
    stutter-insensitive mode — no cycle of invisible steps inside it.
    """
    if not core:
        return Witness(
            WitnessKind.CLOSURE_VIOLATION,
            "no concrete state forever tracks the specification (behavioural core is empty)",
        )
    instrumentation = request.instrumentation
    instrumentation.count("check.outside.size", backend.outside_size())
    with instrumentation.span("check.deadlock_search"):
        stuck = backend.deadlock()
    if stuck is not None:
        return Witness(
            WitnessKind.ILLEGITIMATE_DEADLOCK,
            "a computation can end outside the legitimate core",
            (stuck,),
            backend.schema,
        )
    if request.fairness == "strong":
        with instrumentation.span("check.cycle_search"):
            trap = None
            if backend.has_cycle_outside():
                system = backend.analysis_system()
                trap = find_fair_trap(system, backend.outside_states())
        if trap is not None:
            with instrumentation.span("check.witness"):
                cycle = find_cycle_within(system, trap) or tuple(
                    sorted(trap, key=repr)[:4]
                )
            return Witness(
                WitnessKind.DIVERGENT_CYCLE,
                "a strongly fair computation can stay forever outside the legitimate core (fair trap)",
                cycle,
                backend.schema,
            )
    else:
        with instrumentation.span("check.cycle_search"):
            divergent = backend.has_cycle_outside()
        if divergent:
            with instrumentation.span("check.witness"):
                cycle = find_cycle_within(*backend.cycle_region()) or ()
            return Witness(
                WitnessKind.DIVERGENT_CYCLE,
                "a computation can cycle forever outside the legitimate core",
                cycle,
                backend.schema,
            )
    # Inside the core, stuttering must also be finitary: a cycle whose
    # every step is image-invisible would give an infinite concrete
    # computation whose abstract image is finite and non-maximal.
    if request.stutter_insensitive and request.alpha is not None:
        with instrumentation.span("check.invisible_cycles"):
            cycle = None
            if backend.has_invisible_cycle():
                with instrumentation.span("check.witness"):
                    cycle = _invisible_cycle(*backend.invisible_region(), request)
        if cycle is not None:
            return Witness(
                WitnessKind.DIVERGENT_CYCLE,
                "cycle of abstract-invisible steps inside the core",
                cycle,
                backend.schema,
            )
    return None


def _invisible_steps(
    system: System, states: FrozenSet[State], request: _Request
) -> System:
    """The steps of ``system`` within ``states`` that alpha cannot see.

    Canonical order: the states may have been assembled by any engine;
    sorting keeps the edge list (and so the cycle witness) identical
    either way.
    """
    alpha = request.alpha
    return System(
        system.schema,
        [
            (source, target)
            for source in sorted(states, key=repr)
            for target in system.successors(source)
            if target in states and alpha(source) == alpha(target)
        ],
        (),
        name=f"{_source_name(request.concrete)}|invisible",
    )


def _invisible_cycle(
    system: System, states: FrozenSet[State], request: _Request
) -> Optional[Tuple[State, ...]]:
    """A cycle within ``states`` whose every step is invisible under alpha."""
    return find_cycle_within(_invisible_steps(system, states, request), states)


def _decoded(interner, codes) -> FrozenSet[State]:
    """The tuple states of int ``codes``, decoded in the order given."""
    return frozenset(interner.decode(int(code)) for code in codes)


class _TupleBackend:
    """The reference engine: tuple states of compiled systems, metered.

    Its witness regions are the whole analysis system and searched set,
    so its witnesses are the oracle the other engines must reproduce.
    """

    def __init__(self, request: _Request):
        self.request = request
        self.concrete = _as_system(request.concrete)
        self.abstract = (
            self.concrete
            if request.abstract is request.concrete
            else _as_system(request.abstract)
        )
        self.schema = self.concrete.schema
        self.system = (
            self.concrete.without_self_loops()
            if request.drop_self
            else self.concrete
        )

    def running(self):
        return nullcontext()

    def legitimate(self) -> FrozenSet[State]:
        return legitimate_abstract_states(self.abstract, meter=self.request.meter)

    def core(self) -> FrozenSet[State]:
        request = self.request
        self.core_states = behavioural_core(
            self.concrete,
            self.abstract,
            request.alpha,
            stutter_insensitive=request.stutter_insensitive,
            fairness=request.fairness,
            instrumentation=request.instrumentation,
            meter=request.meter,
        )
        return self.core_states

    def outside_size(self) -> int:
        states = self.request.meter.metered(
            self.schema.states(), "check.outside"
        )
        self.outside = frozenset(
            state for state in states if state not in self.core_states
        )
        return len(self.outside)

    def deadlock(self) -> Optional[State]:
        stuck = terminal_states_within(self.system, self.outside)
        return min(stuck, key=repr, default=None)

    def has_cycle_outside(self) -> bool:
        return has_cycle_within(self.system, self.outside)

    def has_invisible_cycle(self) -> bool:
        core = self.core_states
        return bool(
            states_on_cycles(_invisible_steps(self.system, core, self.request), core)
        )

    def cycle_region(self) -> Tuple[System, FrozenSet[State]]:
        return self.system, self.outside

    def invisible_region(self) -> Tuple[System, FrozenSet[State]]:
        return self.system, self.core_states

    def outside_states(self) -> FrozenSet[State]:
        return self.outside

    def analysis_system(self) -> System:
        return self.system

    def longest_path(self) -> int:
        return worst_case_convergence_steps(
            self.concrete, self.core_states, fairness=self.request.fairness
        )


class _KernelBackend:
    """What the int-code engines share: decoding back to tuple states.

    A cycle witness is built from a *witness region*, not the whole
    tuple system.  The searched set's edges are trimmed and split into
    SCCs on int codes (:func:`repro.kernel.cycles.cycle_codes`); only
    the codes on a cycle are decoded, and only their transitions are
    compiled — through the same per-state move generator, and the same
    ``without_self_loops`` step, as the tuple engine's system.  Each
    region source therefore iterates its successors exactly as there,
    and the skeleton's breadth-first search from the min-by-``repr``
    cycle state, which never leaves that state's SCC, returns the tuple
    engine's witness byte for byte.  The region's state set must hold
    every successor of a region source that lies in the searched set:
    a smaller set would rebuild the restricted successor sets from a
    different insertion sequence.  Only the fair-trap search under
    strong fairness still materializes the whole system.
    """

    def __init__(self, request: _Request, kernel, abstract_kernel):
        self.request = request
        self.kernel = kernel
        self.abstract_kernel = abstract_kernel
        self.interner = kernel.interner
        self.schema = kernel.interner.schema
        self.size = kernel.size

    def running(self):
        return nullcontext()

    def _decoded_core(self, codes) -> FrozenSet[State]:
        core = _decoded(self.interner, codes)
        self.core_size = len(core)
        return core

    def _min_state(self, codes) -> Optional[State]:
        return min(
            (self.interner.decode(int(code)) for code in codes),
            key=repr,
            default=None,
        )

    def cycle_region(self) -> Tuple[System, FrozenSet[State]]:
        return self._region(self.outside, invisible=False)

    def invisible_region(self) -> Tuple[System, FrozenSet[State]]:
        return self._region(self.core_flags, invisible=True)

    def _region(self, searched, invisible: bool) -> Tuple[System, FrozenSet[State]]:
        """The witness region of the cycles within ``searched``.

        ``_edges`` lists the analysis edges inside ``searched`` (only
        the image-invisible ones with ``invisible``), and
        ``_successors_in`` the successors of some codes that lie in it.
        """
        from ..kernel.cycles import cycle_codes

        on_cycle = cycle_codes(*self._edges(searched, invisible))
        decode = self.interner.decode
        system = self.kernel.compile(decode(code) for code in on_cycle)
        if self.request.drop_self:
            system = system.without_self_loops()
        allowed = set(on_cycle).union(self._successors_in(on_cycle, searched))
        return system, _decoded(self.interner, allowed)

    def analysis_system(self) -> System:
        system = self.kernel.materialize()
        return system.without_self_loops() if self.request.drop_self else system


class _PackedBackend(_KernelBackend):
    """Bitset fixpoints over interned int codes (:mod:`repro.kernel`)."""

    def __init__(self, request: _Request):
        from ..kernel import as_kernel, drop_self_loops

        kernel = as_kernel(
            request.concrete, instrumentation=request.instrumentation
        )
        super().__init__(
            request,
            kernel,
            kernel
            if request.abstract is request.concrete
            else as_kernel(
                request.abstract, instrumentation=request.instrumentation
            ),
        )
        self.succ = (
            drop_self_loops(kernel.successors)
            if request.drop_self
            else kernel.successors
        )

    def legitimate(self) -> FrozenSet[State]:
        from ..kernel import packed_reachable

        abstract = self.abstract_kernel
        self.legitimate_flags = packed_reachable(
            abstract.successors,
            abstract.initial_codes,
            abstract.size,
            instrumentation=self.request.instrumentation,
        )
        codes = compress(range(abstract.size), self.legitimate_flags)
        return _decoded(abstract.interner, codes)

    def core(self) -> FrozenSet[State]:
        from ..kernel import image_codes, packed_core

        request = self.request
        self.image_of = image_codes(
            self.interner, self.abstract_kernel.interner, request.alpha
        )
        self.core_flags = packed_core(
            self.kernel.successors,
            self.abstract_kernel.successors,
            self.image_of,
            self.legitimate_flags,
            self.size,
            request.stutter_insensitive,
            request.drop_self,
            instrumentation=request.instrumentation,
        )
        core = self._decoded_core(compress(range(self.size), self.core_flags))
        if self.abstract_kernel is not self.kernel:
            # The abstraction's successor function is done after the
            # core fixpoint; release its memo instead of carrying it
            # through the witness phases.
            request.instrumentation.count(
                "kernel.memo.evictions", self.abstract_kernel.clear_memo()
            )
        return core

    def outside_size(self) -> int:
        self.outside = bytearray(0 if flag else 1 for flag in self.core_flags)
        return self.size - self.core_size

    def deadlock(self) -> Optional[State]:
        from ..kernel import packed_terminals

        return self._min_state(packed_terminals(self.succ, self.outside))

    def has_cycle_outside(self) -> bool:
        from ..kernel import packed_has_cycle

        return packed_has_cycle(self.succ, self.outside)

    def has_invisible_cycle(self) -> bool:
        from ..kernel import packed_has_cycle

        succ, image_of, core_flags = self.succ, self.image_of, self.core_flags

        def invisible_succ(code: int) -> Tuple[int, ...]:
            image = image_of[code]
            return tuple(
                target
                for target in succ(code)
                if core_flags[target] and image_of[target] == image
            )

        return packed_has_cycle(invisible_succ, core_flags)

    def _edges(self, searched, invisible: bool) -> Tuple[List[int], List[int]]:
        succ, image_of = self.succ, self.image_of
        sources: List[int] = []
        targets: List[int] = []
        for code in compress(range(self.size), searched):
            for target in succ(code):
                if searched[target] and (
                    not invisible or image_of[target] == image_of[code]
                ):
                    sources.append(code)
                    targets.append(target)
        return sources, targets

    def _successors_in(self, codes: List[int], searched) -> List[int]:
        return [
            target
            for code in codes
            for target in self.succ(code)
            if searched[target]
        ]

    def outside_states(self) -> FrozenSet[State]:
        return _decoded(self.interner, compress(range(self.size), self.outside))

    def longest_path(self) -> int:
        from ..kernel import packed_longest_path

        return packed_longest_path(self.succ, self.outside)


class _VectorBackend(_KernelBackend):
    """Whole-frontier array fixpoints (:mod:`repro.kernel.vector`)."""

    def __init__(self, request: _Request):
        from ..kernel.vector import as_vector_kernel

        kernel = as_vector_kernel(request.concrete)
        super().__init__(
            request,
            kernel,
            kernel
            if request.abstract is request.concrete
            else as_vector_kernel(request.abstract),
        )

    def legitimate(self) -> FrozenSet[State]:
        import numpy as np

        from ..kernel.vector import vector_reachable

        abstract = self.abstract_kernel
        self.legitimate_flags = vector_reachable(
            abstract,
            abstract.initial_array,
            instrumentation=self.request.instrumentation,
        )
        return _decoded(abstract.interner, np.nonzero(self.legitimate_flags)[0])

    def core(self) -> FrozenSet[State]:
        import numpy as np

        from ..kernel.vector import vector_core, vector_image_codes

        request = self.request
        self.image_of = vector_image_codes(
            self.interner, self.abstract_kernel.interner, request.alpha
        )
        self.core_flags = vector_core(
            self.kernel,
            self.abstract_kernel,
            self.image_of,
            self.legitimate_flags,
            request.stutter_insensitive,
            request.drop_self,
            instrumentation=request.instrumentation,
        )
        return self._decoded_core(np.nonzero(self.core_flags)[0])

    def outside_size(self) -> int:
        self.outside = ~self.core_flags
        return self.size - self.core_size

    def deadlock(self) -> Optional[State]:
        from ..kernel.vector import vector_terminals

        return self._min_state(
            vector_terminals(
                self.kernel, self.outside, drop_self=self.request.drop_self
            )
        )

    def has_cycle_outside(self) -> bool:
        from ..kernel.vector import vector_has_cycle

        return vector_has_cycle(
            self.kernel, self.outside, drop_self=self.request.drop_self
        )

    def has_invisible_cycle(self) -> bool:
        from ..kernel.vector import vector_has_cycle

        return vector_has_cycle(
            self.kernel,
            self.core_flags,
            drop_self=self.request.drop_self,
            image_of=self.image_of,
        )

    def _edges(self, searched, invisible: bool):
        from ..kernel.vector import region_edges

        sources, targets, _ = region_edges(
            self.kernel, searched, self.request.drop_self
        )
        if invisible:
            keep = self.image_of[sources] == self.image_of[targets]
            sources, targets = sources[keep], targets[keep]
        return sources, targets

    def _successors_in(self, codes: List[int], searched) -> List[int]:
        import numpy as np

        _, targets = self.kernel.succ_pairs(np.asarray(codes, dtype=np.int64))
        return targets[searched[targets]].tolist()

    def outside_states(self) -> FrozenSet[State]:
        import numpy as np

        return _decoded(self.interner, np.nonzero(self.outside)[0])

    def longest_path(self) -> int:
        from ..kernel.vector import vector_longest_path

        return vector_longest_path(
            self.kernel, self.outside, drop_self=self.request.drop_self
        )


class _SharedBackend(_KernelBackend):
    """Streamed fixpoints of the shared-memory engine.

    Membership flags are bit-packed (segment-backed when workers split
    the rounds), successor evaluation is chunked through the
    table-free :class:`~repro.kernel.shared.SharedKernel`, and
    collections past the memory budget spill to the run's spill
    directory.  The abstract side runs on the in-RAM vector kernel
    (preflight guarantees it fits), so ``L_A`` is computed exactly as
    the vector backend computes it.
    """

    legitimate = _VectorBackend.legitimate

    def __init__(self, request: _Request):
        from ..kernel.shared import SharedKernel
        from ..kernel.vector import as_vector_kernel

        super().__init__(
            request,
            SharedKernel(request.concrete),
            as_vector_kernel(request.abstract),
        )

    @contextmanager
    def running(self):
        from ..kernel.shared import open_runtime
        from ..parallel import resolve_workers

        request = self.request
        workers = request.workers
        if workers > 1:
            workers = resolve_workers(workers)
            if workers == 1:
                _note_sequential(
                    request.instrumentation,
                    "shared",
                    request.workers,
                    "fork-based worker pools are unavailable in this process",
                )
        with open_runtime(
            self.kernel,
            workers=workers,
            instrumentation=request.instrumentation,
        ) as self.runtime:
            yield

    def _members(self, bits):
        return (
            code
            for codes in bits.member_chunks(self.runtime.chunk)
            for code in codes
        )

    def core(self) -> FrozenSet[State]:
        from ..kernel.shared import SharedImage, shared_core

        request = self.request
        self.image = SharedImage(
            self.interner, self.abstract_kernel.interner, request.alpha
        )
        self.core_flags = shared_core(
            self.kernel,
            self.abstract_kernel,
            self.image,
            self.legitimate_flags,
            request.stutter_insensitive,
            request.drop_self,
            self.runtime,
            instrumentation=request.instrumentation,
        )
        return self._decoded_core(self._members(self.core_flags))

    def outside_size(self) -> int:
        from ..kernel.shared import BitField

        self.outside = BitField(self.size)
        self.core_flags.complement_into(self.outside)
        return self.size - self.core_size

    def deadlock(self) -> Optional[State]:
        from ..kernel.shared import shared_terminals

        return self._min_state(
            shared_terminals(
                self.kernel,
                self.outside,
                self.runtime,
                drop_self=self.request.drop_self,
            )
        )

    def has_cycle_outside(self) -> bool:
        from ..kernel.shared import shared_has_cycle

        return shared_has_cycle(
            self.kernel,
            self.outside,
            self.runtime,
            drop_self=self.request.drop_self,
        )

    def has_invisible_cycle(self) -> bool:
        from ..kernel.shared import shared_has_cycle

        return shared_has_cycle(
            self.kernel,
            self.core_flags,
            self.runtime,
            drop_self=self.request.drop_self,
            image=self.image,
        )

    def _edges(self, searched, invisible: bool):
        import numpy as np

        # Stored at the run's code width: the edge list is the region
        # build's one allocation proportional to the searched set.
        dtype = self.runtime.code_dtype
        empty = np.empty(0, dtype=dtype)
        source_parts, target_parts = [empty], [empty]
        for codes in searched.member_chunks(self.runtime.chunk):
            origins, targets = self.kernel.succ_pairs(codes)
            sources = codes[origins]
            keep = searched.test(targets)
            if self.request.drop_self:
                keep &= targets != sources
            sources, targets = sources[keep], targets[keep]
            if invisible:
                keep = self.image.of(sources) == self.image.of(targets)
                sources, targets = sources[keep], targets[keep]
            source_parts.append(sources.astype(dtype, copy=False))
            target_parts.append(targets.astype(dtype, copy=False))
        return np.concatenate(source_parts), np.concatenate(target_parts)

    def _successors_in(self, codes: List[int], searched) -> List[int]:
        import numpy as np

        _, targets = self.kernel.succ_pairs(np.asarray(codes, dtype=np.int64))
        return targets[searched.test(targets)].tolist()

    def outside_states(self) -> FrozenSet[State]:
        return _decoded(self.interner, self._members(self.outside))

    def longest_path(self) -> int:
        from ..kernel.shared import shared_longest_path

        return shared_longest_path(
            self.kernel,
            self.outside,
            self.runtime,
            drop_self=self.request.drop_self,
        )


#: Engine name → backend class, walked by :func:`_decide_with_degradation`.
_BACKENDS = {
    "tuple": _TupleBackend,
    "packed": _PackedBackend,
    "vector": _VectorBackend,
    "shared": _SharedBackend,
}


def check_self_stabilization(
    system: SystemOrProgram,
    fairness: str = "none",
    compute_steps: bool = True,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    state_budget: Optional[int] = None,
    workers: int = 1,
    engine: str = "tuple",
) -> StabilizationResult:
    """Decide whether a system is self-stabilizing (stabilizing to itself).

    The paper notes the definition "allows the possibility that A is
    stabilizing to A" — this helper instantiates exactly that case,
    with the identity abstraction.
    """
    return check_stabilization(
        system,
        system,
        alpha=None,
        fairness=fairness,
        compute_steps=compute_steps,
        instrumentation=instrumentation,
        state_budget=state_budget,
        workers=workers,
        engine=engine,
    )


def worst_case_schedule(
    concrete: System, core: FrozenSet[State], fairness: str = "none"
) -> Tuple[State, ...]:
    """An explicit worst-case recovery: the longest transition path that
    stays outside ``core``, ending with its first step into it.

    The checker's ``worst_case_steps`` is the *length* of this path;
    this function materializes the path itself so the adversarial
    schedule can be inspected, rendered
    (:func:`repro.simulation.visualize.render_trace` via the states'
    environments), or replayed.

    Args:
        concrete: the verified system.
        core: its behavioural core (from :func:`behavioural_core` or a
            :class:`StabilizationResult`).
        fairness: must match the mode of the verification (self-loops
            are skipped for ``'weak'``/``'strong'``).

    Returns:
        The state sequence, starting at the worst state and ending at
        the first core state reached (empty when every state is in the
        core).

    Raises:
        ValueError: if a cycle outside ``core`` exists (no finite worst
            case).
    """
    system = (
        concrete.without_self_loops() if fairness in ("weak", "strong") else concrete
    )
    outside = [state for state in system.schema.states() if state not in core]
    outside_set = set(outside)
    depth: Dict[State, int] = {}
    best_next: Dict[State, Optional[State]] = {}
    in_progress: Set[State] = set()
    for root in outside:
        if root in depth:
            continue
        stack: List[Tuple[State, bool]] = [(root, False)]
        while stack:
            state, expanded = stack.pop()
            if expanded:
                best = 0
                choice: Optional[State] = None
                for successor in sorted(system.successors(state), key=repr):
                    if successor in outside_set:
                        candidate = 1 + depth[successor]
                    else:
                        candidate = 1
                    if candidate > best:
                        best = candidate
                        choice = successor
                depth[state] = best
                best_next[state] = choice
                in_progress.discard(state)
                continue
            if state in depth:
                continue
            if state in in_progress:
                raise ValueError("cycle outside the core; check stabilization first")
            in_progress.add(state)
            stack.append((state, True))
            for successor in system.successors(state):
                if successor in outside_set and successor not in depth:
                    if successor in in_progress:
                        raise ValueError(
                            "cycle outside the core; check stabilization first"
                        )
                    stack.append((successor, False))
    if not depth:
        return ()
    start = max(depth, key=lambda state: (depth[state], repr(state)))
    path: List[State] = [start]
    current: Optional[State] = start
    while current is not None and current in outside_set:
        current = best_next.get(current)
        if current is not None:
            path.append(current)
    return tuple(path)


def convergence_profile(
    concrete: System, core: FrozenSet[State], fairness: str = "none"
) -> Dict[int, int]:
    """Histogram of recovery depths: how many states sit each number of
    steps away from the core, under the *best-case* daemon.

    Depth 0 counts the core itself; depth ``d`` counts the states whose
    shortest escape into the core takes ``d`` transitions.  States that
    cannot reach the core at all are reported under depth ``-1`` (a
    verified-stabilizing system has none).  Complements
    :func:`worst_case_convergence_steps`, which is the max over the
    *adversarial* daemon; together they bracket every real daemon.

    Args:
        concrete: the system.
        core: its behavioural core.
        fairness: ``'weak'``/``'strong'`` ignore self-loops, matching
            the verification mode.
    """
    system = (
        concrete.without_self_loops() if fairness in ("weak", "strong") else concrete
    )
    # Reverse-BFS from the core.
    predecessors: Dict[State, List[State]] = {}
    for source, target in system.transitions():
        predecessors.setdefault(target, []).append(source)
    depth_of: Dict[State, int] = {state: 0 for state in core}
    frontier: List[State] = list(core)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[State] = []
        for state in frontier:
            for predecessor in predecessors.get(state, ()):  # may be outside core
                if predecessor not in depth_of:
                    depth_of[predecessor] = depth
                    next_frontier.append(predecessor)
        frontier = next_frontier
    histogram: Dict[int, int] = {}
    for state in system.schema.states():
        bucket = depth_of.get(state, -1)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return histogram
