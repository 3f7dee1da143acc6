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

Every engine runs this one procedure, written once in :func:`_decide`.
Which engines may run a check, and in which order, is decided by
:func:`~repro.checker.engines.engine_chain` (shared → vector → packed →
tuple, each kept only where its preflight passes), and
:func:`~repro.checker.engines.run_chain` moves a check down that list
when a spill write fails.  An engine contributes a *backend*
(:data:`_BACKENDS`) that computes
the sets in its own representation — tuple states, packed int codes,
NumPy flag arrays, or streamed bit fields — and answers in tuple
terms: ``legitimate()`` and ``core()`` return ``L_A`` and ``G``, and
``core()`` also keeps the complement of ``G`` for the queries after
it: ``deadlock()`` (the min-by-``repr`` stuck state outside ``G``, or
``None``) and ``longest_path()``.  ``longest_path()`` is the worst
case, or ``None`` when a cycle lies outside ``G``: that one walk
decides divergence for every check, and its count is reported only
with ``compute_steps``; ``has_invisible_cycle()`` says whether ``G``
holds a cycle of invisible steps; ``cycle_region()`` and
``invisible_region()`` give the witness searches a *witness region* —
an analysis system (self-loops dropped under weak and strong
fairness) and a state set on which :func:`find_cycle_within` returns
the tuple engine's exact cycle and :func:`find_fair_trap` its exact
trap.  The tuple engine's region is its whole system and searched
set; the int-code engines compile only the states on a cycle (see
:class:`_KernelBackend`), so no check materializes the whole system.
Every fairness mode takes the one divergence path: under strong
fairness a cycle outside ``G`` fails the check only through a fair
trap, searched for in the cycle region, and the witness is a cycle
inside that trap.  ``running()`` is a context held open for the
whole decision (the shared engine's runtime).  Backends return sets,
flags, states and regions; the skeleton alone holds the phase spans,
the witness messages, the invisible-step rebuild and the result, so
the verdict, witness, counters and spans do not depend on the engine.
Decoded sets are built in ascending code order — schema order, the
tuple engine's own set layout — so every order-dependent search
returns the same witness.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from ..core.abstraction import AbstractionFunction, identity_abstraction
from ..core.state import State
from ..core.system import System
from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from .engines import engine_chain, run_chain
from .fairness import find_fair_trap
from .graph import (
    find_cycle_within,
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


def _as_system(source: SystemOrProgram) -> System:
    """The tuple-engine view of a check source."""
    return source if isinstance(source, System) else source.compile()


def _source_name(source: SystemOrProgram) -> str:
    return source.name


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
            ``None`` when the check failed, ran without
            ``compute_steps``, or passed under strong fairness with
            cycles left outside ``G``.
        engine: the engine that actually decided the check (after
            preflight fallback and a failed spill write) when it came
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


def legitimate_abstract_states(abstract: System) -> FrozenSet[State]:
    """``L_A``: the abstract states reachable from the abstract initial states."""
    return abstract.reachable()


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
    """
    mapping = alpha if alpha is not None else identity_abstraction(concrete.schema)
    legitimate = legitimate_abstract_states(abstract)
    fairness_ignores_stutter = fairness in ("weak", "strong")
    enumerated = 0
    core: Set[State] = set()
    for state in concrete.schema.states():
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
    return max(_outside_depths(system, core).values(), default=0)


def _outside_depths(system: System, core: FrozenSet[State]) -> Dict[State, int]:
    """:func:`_longest_path_within` over the states outside ``core``.

    Raises:
        ValueError: if a cycle lies outside ``core``.
    """
    depth = _longest_path_within(
        system,
        frozenset(state for state in system.schema.states() if state not in core),
    )
    if depth is None:
        raise ValueError("cycle outside the core; check stabilization first")
    return depth


def _longest_path_within(
    system: System, outside: FrozenSet[State]
) -> Optional[Dict[State, int]]:
    """Each state of ``outside`` mapped to the length of the longest
    transition path from it that stays within ``outside``, or ``None``
    when a cycle (including a self-loop) lies within it.

    A step leaving ``outside`` still counts as one step.  Memoized DFS
    (iterative): its in-progress check meets every cycle of the region,
    so one walk decides divergence and the worst case together.
    """
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
                    if successor in outside:
                        best = max(best, 1 + depth[successor])
                    else:
                        best = max(best, 1)
                depth[state] = best
                in_progress.discard(state)
                continue
            if state in depth:
                continue
            if state in in_progress:
                return None
            in_progress.add(state)
            stack.append((state, True))
            for successor in system.successors(state):
                if successor in outside and successor not in depth:
                    if successor in in_progress:
                        return None
                    stack.append((successor, False))
    return depth


def check_stabilization(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    fairness: str = "none",
    compute_steps: bool = True,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
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
        workers: accepted so per-spec fan-outs (``verify-tree``,
            campaigns) can pass their count through.  Every engine
            decides one check in one process; asked for more than one
            worker, the check says so once, with a
            ``parallel.sequential`` event naming the first engine of
            its chain.  The verdict — witness and formatted rendering
            included — is identical for every worker count.
        engine: ``'tuple'`` (the default) walks tuple states through
            an eagerly compiled :class:`System`; ``'vector'`` runs
            whole-space array fixpoints, ``'shared'`` streams them in
            chunks, and ``'packed'`` is an alias of ``'vector'`` — same
            verdicts, witnesses, and counters, decoded back to tuples
            at this boundary.  A request that cannot run as asked
            (unpackable schema, an unlowerable program, the cell
            ceiling) moves down shared → vector → packed →
            tuple with an ``engine.fallback`` event giving the reason
            (:func:`~repro.checker.engines.engine_chain`).  Both sides
            may be a :class:`~repro.gcl.program.Program`; the array
            engines then skip transition-table materialization.

    Returns:
        A :class:`StabilizationResult`; its witness on failure is a
        divergent cycle, an illegitimate deadlock, or an empty core.
    """
    if fairness not in ("none", "weak", "strong"):
        raise ValueError(f"unknown fairness mode {fairness!r}")
    request = _Request(
        concrete,
        abstract,
        alpha,
        stutter_insensitive,
        fairness,
        compute_steps,
        instrumentation,
    )
    chain = engine_chain(
        engine, concrete, abstract, alpha, _BACKENDS, instrumentation
    )
    with instrumentation.span("check.total"):
        _note_sequential(instrumentation, chain[0], workers)
        decided, result = run_chain(
            chain, lambda name: _attempt(name, request), instrumentation
        )
    # Stamp the engine that actually decided (not the one requested):
    # a failed spill write may have moved down the chain.
    result = replace(result, engine=decided)
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


def _attempt(engine: str, request: _Request) -> StabilizationResult:
    """Decide ``request`` on ``engine``, one step of :func:`run_chain`."""
    return _decide(_BACKENDS[engine](request), request)


#: Why a ``workers > 1`` request decides in one process, on every engine.
SEQUENTIAL_REASON = (
    "one check is decided in one process; verify-tree and campaigns fan "
    "out per spec"
)


def _note_sequential(
    instrumentation: Instrumentation, engine: str, workers: int
) -> None:
    """Say why a ``workers > 1`` request runs in one process.

    Emits one ``parallel.sequential`` event naming ``engine``; a
    one-worker request is silent.
    """
    if workers > 1:
        instrumentation.event(
            "parallel.sequential",
            engine=engine,
            workers=workers,
            reason=SEQUENTIAL_REASON,
        )


def _decide(backend, request: _Request) -> StabilizationResult:
    """The phases of :func:`check_stabilization`, each under a span."""
    instrumentation = request.instrumentation
    with backend.running():
        with instrumentation.span("check.legitimate"):
            legitimate = backend.legitimate()
        with instrumentation.span("check.core"):
            core = backend.core()
        witness, steps = _refutation(backend, request, core)
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
) -> Tuple[Optional[Witness], Optional[int]]:
    """The witness of the first convergence obligation that fails, and
    the worst-case step count when none does.

    The witness is ``None`` when the core is closed and every
    computation outside it reaches it: no deadlock, no (fair) divergent
    cycle, and — in stutter-insensitive mode — no cycle of invisible
    steps inside it.  The step count is ``None`` unless
    ``compute_steps`` asked for it and the region outside the core is
    acyclic: under strong fairness a cycle without a fair trap passes
    the check, but the sup over fair runs may then be unbounded.
    """
    if not core:
        return Witness(
            WitnessKind.CLOSURE_VIOLATION,
            "no concrete state forever tracks the specification (behavioural core is empty)",
        ), None
    instrumentation = request.instrumentation
    instrumentation.count("check.outside.size", backend.schema.size() - len(core))
    with instrumentation.span("check.deadlock_search"):
        stuck = backend.deadlock()
    if stuck is not None:
        return Witness(
            WitnessKind.ILLEGITIMATE_DEADLOCK,
            "a computation can end outside the legitimate core",
            (stuck,),
            backend.schema,
        ), None
    strong = request.fairness == "strong"
    with instrumentation.span("check.cycle_search"):
        divergent, steps = _cycle_search(backend, request)
        if divergent and strong:
            # Under strong fairness a cycle diverges only through a fair
            # trap in the cycle witness's region; the witness cycle is
            # then searched for inside the trap.
            system, searched = backend.cycle_region()
            searched = find_fair_trap(system, searched)
            divergent = searched is not None
    if divergent:
        with instrumentation.span("check.witness"):
            if not strong:
                system, searched = backend.cycle_region()
            cycle = find_cycle_within(system, searched) or ()
        return Witness(
            WitnessKind.DIVERGENT_CYCLE,
            "a strongly fair computation can stay forever outside the "
            "legitimate core (fair trap)"
            if strong
            else "a computation can cycle forever outside the legitimate core",
            cycle,
            backend.schema,
        ), None
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
            ), None
    return None, steps


def _cycle_search(backend, request: _Request) -> Tuple[bool, Optional[int]]:
    """Whether a cycle lies outside the core, and the worst-case step
    count when ``compute_steps`` asks for it and none does.

    One longest-path walk answers both questions; a check that skips
    the worst case drops the count.
    """
    steps = backend.longest_path()
    return steps is None, steps if request.compute_steps else None


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


#: Codes per array pass of :func:`_states_of`: enough to amortize a
#: pass's NumPy calls, few enough that its per-variable column lists
#: stay small next to the state set they fill.
DECODE_CHUNK = 1 << 12


def _states_of(interner, codes) -> Iterator[State]:
    """The tuple states of int ``codes``, in their order, decoded
    :data:`DECODE_CHUNK` codes per array pass."""
    for start in range(0, len(codes), DECODE_CHUNK):
        yield from interner.decode_array(codes[start:start + DECODE_CHUNK])


def _decoded(interner, codes) -> FrozenSet[State]:
    """The tuple states of an array of int ``codes``, added to the set
    in the array's order (which decides how the set iterates)."""
    return frozenset(_states_of(interner, codes))


class _TupleBackend:
    """The reference engine: tuple states of compiled systems.

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
        return legitimate_abstract_states(self.abstract)

    def core(self) -> FrozenSet[State]:
        request = self.request
        self.core_states = behavioural_core(
            self.concrete,
            self.abstract,
            request.alpha,
            stutter_insensitive=request.stutter_insensitive,
            fairness=request.fairness,
            instrumentation=request.instrumentation,
        )
        self.outside = frozenset(
            state for state in self.schema.states() if state not in self.core_states
        )
        return self.core_states

    def deadlock(self) -> Optional[State]:
        stuck = terminal_states_within(self.system, self.outside)
        return min(stuck, key=repr, default=None)

    def has_invisible_cycle(self) -> bool:
        core = self.core_states
        return bool(
            states_on_cycles(_invisible_steps(self.system, core, self.request), core)
        )

    def cycle_region(self) -> Tuple[System, FrozenSet[State]]:
        return self.system, self.outside

    def invisible_region(self) -> Tuple[System, FrozenSet[State]]:
        return self.system, self.core_states

    def longest_path(self) -> Optional[int]:
        depth = _longest_path_within(self.system, self.outside)
        return None if depth is None else max(depth.values(), default=0)


class _KernelBackend:
    """What the int-code engines share: decoding back to tuple states.

    A cycle witness is built from a *witness region*, not the whole
    tuple system.  The searched set's edges are trimmed and split into
    SCCs on int codes (:func:`repro.kernel.cycles.cycle_codes`); only
    the codes on a cycle are decoded, and only their transitions are
    compiled — by the kernel's ``compile``, which lists each source's
    moves in the tuple engine's order and, under weak and strong
    fairness (``drop_self``), leaves the self-loops out as the tuple
    engine's ``without_self_loops`` step does.  Each region source
    therefore iterates its successors exactly as there,
    and the skeleton's breadth-first search from the min-by-``repr``
    cycle state, which never leaves that state's SCC, returns the tuple
    engine's witness byte for byte.  The region's state set must hold
    every successor of a region source that lies in the searched set:
    a smaller set would rebuild the restricted successor sets from a
    different insertion sequence.  The edges, though, need only be
    listed within a part of the searched set that holds every cycle:
    a non-trivial SCC (or a self-loop) stays intact in any induced
    subgraph holding all of its nodes, so ``cycle_codes`` returns the
    same codes.  The shared engine lists them within its peel's
    remainder.  The fair-trap search under strong fairness runs on the
    same region: every non-trivial component of the searched set lies
    among the compiled codes, with all of its states' moves, and
    :func:`find_fair_trap` picks its trap by ``repr``, not by the order
    the set iterates in.  The kernels' ``compile`` takes the on-cycle
    codes as they are; the region's state set is decoded in array
    passes, in the order its int code set iterates, so it is built from
    the same insertion sequence as a state-by-state decode.
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

    def _min_state(self, codes) -> Optional[State]:
        return min(_states_of(self.interner, codes), key=repr, default=None)

    def cycle_region(self) -> Tuple[System, FrozenSet[State]]:
        return self._region(self.outside, self.outside, invisible=False)

    def invisible_region(self) -> Tuple[System, FrozenSet[State]]:
        return self._region(self.core_flags, self.core_flags, invisible=True)

    def _region(
        self, listed, searched, invisible: bool
    ) -> Tuple[System, FrozenSet[State]]:
        """The witness region of the cycles within ``searched``.

        ``listed`` is a part of ``searched`` that holds all of its
        cycles.  ``_edges`` lists the analysis edges inside ``listed``
        (only the image-invisible ones with ``invisible``), and
        ``_successors_in`` the successors of some codes that lie in
        ``searched``.
        """
        from ..kernel.cycles import cycle_codes

        on_cycle = cycle_codes(*self._edges(listed, invisible))
        system = self.kernel.compile(on_cycle, self.request.drop_self)
        allowed = set(on_cycle).union(self._successors_in(on_cycle, searched))
        return system, _decoded(
            self.interner, np.fromiter(allowed, dtype=np.int64, count=len(allowed))
        )


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
        return _decoded(abstract.interner, np.flatnonzero(self.legitimate_flags))

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
        self.outside = bytearray(0 if flag else 1 for flag in self.core_flags)
        core = _decoded(self.interner, np.flatnonzero(self.core_flags))
        if self.abstract_kernel is not self.kernel:
            # The abstraction's successor function is done after the
            # core fixpoint; release its memo instead of carrying it
            # through the witness phases.
            request.instrumentation.count(
                "kernel.memo.evictions", self.abstract_kernel.clear_memo()
            )
        return core

    def deadlock(self) -> Optional[State]:
        from ..kernel import packed_terminals

        return self._min_state(packed_terminals(self.succ, self.outside))

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

    def _edges(self, listed, invisible: bool) -> Tuple[np.ndarray, np.ndarray]:
        succ, image_of = self.succ, self.image_of
        sources: List[int] = []
        targets: List[int] = []
        for code in compress(range(self.size), listed):
            for target in succ(code):
                if listed[target] and (
                    not invisible or image_of[target] == image_of[code]
                ):
                    sources.append(code)
                    targets.append(target)
        return np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)

    def _successors_in(self, codes: List[int], searched) -> List[int]:
        return [
            target
            for code in codes
            for target in self.succ(code)
            if searched[target]
        ]

    def longest_path(self) -> Optional[int]:
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
        from ..kernel.vector import vector_reachable

        abstract = self.abstract_kernel
        self.legitimate_flags = vector_reachable(
            abstract,
            abstract.initial_array,
            instrumentation=self.request.instrumentation,
        )
        return _decoded(abstract.interner, np.nonzero(self.legitimate_flags)[0])

    def core(self) -> FrozenSet[State]:
        from ..kernel.shared.image import SharedImage
        from ..kernel.vector import vector_core

        request = self.request
        self.image_of = SharedImage(
            self.interner, self.abstract_kernel.interner, request.alpha
        ).of(np.arange(self.size, dtype=np.int64))
        self.core_flags = vector_core(
            self.kernel,
            self.abstract_kernel,
            self.image_of,
            self.legitimate_flags,
            request.stutter_insensitive,
            request.drop_self,
            instrumentation=request.instrumentation,
        )
        self.outside = ~self.core_flags
        return _decoded(self.interner, np.nonzero(self.core_flags)[0])

    def deadlock(self) -> Optional[State]:
        from ..kernel.vector import vector_terminals

        return self._min_state(
            vector_terminals(
                self.kernel, self.outside, drop_self=self.request.drop_self
            )
        )

    def has_invisible_cycle(self) -> bool:
        from ..kernel.vector import vector_has_cycle

        return vector_has_cycle(
            self.kernel,
            self.core_flags,
            drop_self=self.request.drop_self,
            image_of=self.image_of,
        )

    def _edges(self, listed, invisible: bool):
        from ..kernel.vector import region_edges

        sources, targets = region_edges(
            self.kernel, listed, self.request.drop_self
        )
        if invisible:
            keep = self.image_of[sources] == self.image_of[targets]
            sources, targets = sources[keep], targets[keep]
        return sources, targets

    def _successors_in(self, codes: List[int], searched) -> List[int]:
        _, targets = self.kernel.succ_pairs(np.asarray(codes, dtype=np.int64))
        return targets[searched[targets]].tolist()

    def longest_path(self) -> Optional[int]:
        from ..kernel.vector import vector_longest_path

        return vector_longest_path(
            self.kernel, self.outside, drop_self=self.request.drop_self
        )


class _SharedBackend(_KernelBackend):
    """Streamed fixpoints of the shared engine.

    Membership flags are bit-packed, successor evaluation is chunked
    through the table-free :class:`~repro.kernel.shared.SharedKernel`,
    and collections past the memory budget spill to the run's spill
    directory.  Every fixpoint runs in this process.  The abstract side
    runs on the in-RAM vector kernel (preflight guarantees it fits), so
    ``L_A`` is computed exactly as the vector backend computes it.
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

        with open_runtime(
            self.kernel, instrumentation=self.request.instrumentation
        ) as self.runtime:
            yield

    def core(self) -> FrozenSet[State]:
        from ..kernel.shared import BitField, SharedImage, shared_core

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
        self.outside = BitField(self.size)
        self.core_flags.complement_into(self.outside)
        self.degrees = None
        return frozenset(
            state
            for codes in self.core_flags.member_chunks(self.runtime.chunk)
            for state in _states_of(self.interner, codes)
        )

    def deadlock(self) -> Optional[State]:
        from ..kernel.shared import shared_terminals

        self.degrees = shared_terminals(
            self.kernel,
            self.outside,
            self.runtime,
            drop_self=self.request.drop_self,
        )
        return self._min_state(self.degrees.terminals)

    def _outside_degrees(self):
        """The outside region's in-degrees the deadlock search counted
        (counted here if it has not run), for the peel to consume."""
        if self.degrees is None:
            self.deadlock()
        return self.degrees

    def _peeled(self, cyclic: bool) -> None:
        """Release the in-degree array the peel consumed.  On a cycle,
        first keep the peel's remainder: the members it left un-peeled,
        where ``in_degree`` stays positive.  Those are the members
        reachable from a cycle, so they hold every cycle, and the cycle
        witness lists its edges within them."""
        if cyclic:
            from ..kernel.shared import BitField

            in_degree = self.degrees.in_degree
            self.remainder = BitField(self.size)
            for codes in self.outside.member_chunks(self.runtime.chunk):
                self.remainder.set_codes(codes[in_degree[codes] > 0])
        self.degrees = None

    def has_invisible_cycle(self) -> bool:
        from ..kernel.shared import shared_has_cycle

        return shared_has_cycle(
            self.kernel,
            self.core_flags,
            self.runtime,
            drop_self=self.request.drop_self,
            image=self.image,
        )

    def cycle_region(self) -> Tuple[System, FrozenSet[State]]:
        return self._region(self.remainder, self.outside, invisible=False)

    def _edges(self, listed, invisible: bool):
        # Stored at the run's code width: the edge list is the region
        # build's one allocation proportional to the listed set.
        dtype = self.runtime.code_dtype
        empty = np.empty(0, dtype=dtype)
        source_parts, target_parts = [empty], [empty]
        for codes in listed.member_chunks(self.runtime.chunk):
            origins, targets = self.kernel.succ_pairs(codes)
            sources = codes[origins]
            keep = listed.test(targets)
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
        _, targets = self.kernel.succ_pairs(np.asarray(codes, dtype=np.int64))
        return targets[searched.test(targets)].tolist()

    def longest_path(self) -> Optional[int]:
        from ..kernel.shared import shared_longest_path

        steps = shared_longest_path(
            self.kernel,
            self.outside,
            self.runtime,
            drop_self=self.request.drop_self,
            degrees=self._outside_degrees(),
        )
        self._peeled(steps is None)
        return steps


#: Engine name → backend class, walked by :func:`~.engines.run_chain`.
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
    depth = _outside_depths(system, core)
    if not depth:
        return ()
    state: Optional[State] = max(
        depth, key=lambda start: (depth[start], repr(start))
    )
    path: List[State] = []
    while state is not None:
        path.append(state)
        if state not in depth:
            break
        # The first successor, in ``repr`` order, on a longest path.
        state = next(
            (
                successor
                for successor in sorted(system.successors(state), key=repr)
                if depth.get(successor, 0) + 1 == depth[state]
            ),
            None,
        )
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
