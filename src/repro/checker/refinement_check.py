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

Each relation has a tuple-engine reference procedure (the
``_decide_*`` functions), the oracle whose witnesses every engine
reports.  The vector engine decides the same clauses *optimistically*:
one skeleton (:func:`_refinement`) drives :class:`_VectorClauses` over
dense state codes and, when every clause holds, emits the tuple
engine's counters and detail.  The engines are vector and tuple
(:func:`~repro.checker.engines.engine_chain`): ``packed`` is an alias
of ``vector``, a shared request continues at vector (the clauses have
no streamed form), and where vector refuses the sources (an
unlowerable program, the cell ceiling) the check replays on tuple;
each says so in an ``engine.fallback`` event.  Clause 3 is one
strongly connected component labelling of the concrete edge list the
transition scan already expanded
(:func:`repro.kernel.cycles.component_labels`): a compression
``(s, t)`` lies on a cycle iff ``s`` and ``t`` share a component.  The
invisible-divergence clause is :func:`~repro.kernel.cycles.cycle_codes`
over the stutter edges that are not self-loops.  A violation — or an
abstraction mapping some state outside the abstract schema — abandons
the attempt with a reasoned ``engine.fallback`` event and replays the
check on the tuple engine (a witness depends on its set iteration
order), so verdicts, witnesses and counters are identical on every
engine; so does a runtime fault on vector
(:func:`~repro.checker.engines.run_chain`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.abstraction import AbstractionFunction, identity_abstraction
from ..core.state import State
from ..core.system import System, Transition
from ..kernel.engine import source_schema
from ..obs import NULL_INSTRUMENTATION, Instrumentation, ProgressEmitter
from .convergence import (
    SystemOrProgram,
    _as_system,
    _note_sequential,
    _source_name,
)
from .engines import engine_chain, run_chain
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


_VIOLATION_REPLAY_REASON = (
    "violation found; replaying on the tuple engine for the witness"
)
_ALPHA_REPLAY_REASON = (
    "the abstraction maps some state outside the abstract schema; "
    "replaying on the tuple engine"
)


class _VectorClauses:
    """The refinement clauses over code arrays (:mod:`repro.kernel.vector`).

    ``over()`` builds them from the check's sources, or returns
    ``None`` when the abstraction maps a state outside the abstract
    schema.  ``initial_ok()`` is the initial-image clause;
    ``reachable()`` the codes reachable from ``C``'s initial states;
    ``edges_hold(codes, ...)`` the transition and maximality clauses of
    ``[C (= A]`` over those codes (``None``: every code), returning the
    number of transitions checked; ``scan()`` classifies every
    transition as exact, stutter or compression;
    ``compression_on_cycle()`` and ``bad_terminal()`` are clauses 3 and
    4.  ``None`` or ``True`` reports a violation.  The clauses return
    counts, flags and edge lists only — :func:`_refinement` owns the
    spans, counters, events and verdict.  Transition counts match the
    tuple engine's because ``succ_pairs`` deduplicates per (origin,
    target) pair, as a compiled system's successor sets do.
    """

    def __init__(self, kernel, abstract_kernel, image_of, instrumentation):
        self.kernel = kernel
        self.abstract_kernel = abstract_kernel
        self.image_of = image_of
        self.instrumentation = instrumentation

    @classmethod
    def over(cls, concrete, abstract, alpha, instrumentation):
        """The clauses of ``concrete`` against ``abstract`` through
        ``alpha``; ``None`` when some image leaves the abstract schema.

        The image sweep enumerates every concrete code, so a
        ``raise-memory`` chaos fault on the vector engine can land here
        (:func:`repro.resilience.chaos.engine_states`).
        """
        from ..kernel.shared.image import SharedImage
        from ..kernel.vector import as_vector_kernel
        from ..resilience import chaos

        kernel = as_vector_kernel(concrete)
        abstract_kernel = kernel if abstract is concrete else as_vector_kernel(abstract)
        image_of = SharedImage(
            kernel.interner, abstract_kernel.interner, alpha
        ).of(np.arange(kernel.size, dtype=np.int64))
        if chaos.active_plan() is not None:
            chaos.engine_states("vector", kernel.size)
        if bool((image_of < 0).any()):
            return None
        return cls(kernel, abstract_kernel, image_of, instrumentation)

    def initial_ok(self) -> bool:
        initial_images = self.image_of[self.kernel.initial_array]
        return bool(
            np.isin(initial_images, self.abstract_kernel.initial_array).all()
        )

    def reachable(self):
        from ..kernel.vector import vector_reachable

        flags = vector_reachable(
            self.kernel,
            self.kernel.initial_array,
            instrumentation=self.instrumentation,
        )
        return np.nonzero(flags)[0]

    def _moving(self, images) -> bool:
        """Does any of these abstract codes have a successor?"""
        return bool((~self.abstract_kernel.terminal_flags()[images]).any())

    def edges_hold(
        self, codes, stutter_insensitive: bool, open_systems: bool
    ) -> Optional[int]:
        if codes is None:
            codes = np.arange(self.kernel.size, dtype=np.int64)
        origins, targets = self.kernel.succ_pairs(codes)
        image_source = self.image_of[codes[origins]]
        image_target = self.image_of[targets]
        if stutter_insensitive:
            needs_edge = image_target != image_source
        else:
            needs_edge = np.ones(targets.shape, dtype=bool)
        if needs_edge.any() and not bool(
            self.abstract_kernel.has_edge(
                image_source[needs_edge], image_target[needs_edge]
            ).all()
        ):
            return None
        if not open_systems:
            stuck = np.bincount(origins, minlength=codes.size) == 0
            if self._moving(self.image_of[codes[stuck]]):
                return None
        return int(origins.size)

    def scan(self, stutter_insensitive: bool):
        """The exact count, the stutter and compression edges, and the
        whole concrete edge list, which clause 3 labels; ``None`` on an
        unrealizable transition."""
        from ..kernel.vector import vector_reachable
        from ..kernel.vector.kernel import _unique_sorted

        abstract_kernel = self.abstract_kernel
        sources, targets = self.kernel.succ_pairs(
            np.arange(self.kernel.size, dtype=np.int64)
        )
        image_source = self.image_of[sources]
        image_target = self.image_of[targets]
        abstract_edge = abstract_kernel.has_edge(image_source, image_target)
        if stutter_insensitive:
            stutter_mask = image_target == image_source
        else:
            stutter_mask = np.zeros(targets.shape, dtype=bool)
        exact = int((~stutter_mask & abstract_edge).sum())
        rest = ~stutter_mask & ~abstract_edge
        rest_image_source = image_source[rest]
        rest_image_target = image_target[rest]
        # A same-image step with no abstract self-loop (and stuttering
        # not allowed) is an immediate violation, never a compression.
        if bool((rest_image_source == rest_image_target).any()):
            return None
        # The rest must be realizable as abstract paths of length >= 2.
        # No edge left here has a direct abstract edge or equal images,
        # so a target reached from a successor of its source image lies
        # at least two steps away.  One reachability per distinct source
        # image, from its successors.
        for image in _unique_sorted(rest_image_source):
            _, starts = abstract_kernel.succ_pairs(image.reshape(1))
            if starts.size == 0:
                return None
            reach = vector_reachable(abstract_kernel, starts)
            if not bool(reach[rest_image_target[rest_image_source == image]].all()):
                return None
        stutters = np.column_stack((sources[stutter_mask], targets[stutter_mask]))
        compressions = np.column_stack((sources[rest], targets[rest]))
        return exact, stutters, compressions, (sources, targets)

    def compression_on_cycle(self, edges, concrete_edges) -> bool:
        """Does a compression lie on a cycle of ``concrete_edges``, the
        ``(sources, targets)`` arrays :meth:`scan` expanded?"""
        from ..kernel.cycles import component_labels

        if not edges.size:
            return False
        labels = component_labels(*concrete_edges)
        label_of = np.full(self.kernel.size, -1, dtype=np.int64)
        label_of[list(labels)] = list(labels.values())
        source_label = label_of[edges[:, 0]]
        return bool(((source_label >= 0) & (source_label == label_of[edges[:, 1]])).any())

    def bad_terminal(self) -> bool:
        return self._moving(self.image_of[self.kernel.terminal_flags()])


#: What an optimistic clause decision proves: the success counters
#: and the detail line, exactly as the tuple engine reports them.
_Proof = Tuple[Dict[str, int], str]


def _stutter_cycle(stutters: np.ndarray) -> bool:
    """Do the stutter edges, ``(source, target)`` rows, close a cycle
    (literal self-loops excepted, as in the tuple engine)?"""
    from ..kernel.cycles import cycle_codes

    moving = stutters[stutters[:, 0] != stutters[:, 1]]
    return bool(cycle_codes(moving[:, 0], moving[:, 1]))


def _init_holds(
    clauses, stutter_insensitive: bool, open_systems: bool,
    instrumentation: Instrumentation,
) -> Optional[_Proof]:
    """``[C (= A]_init`` over a clause backend; ``None`` on a violation."""
    if not clauses.initial_ok():
        return None
    with instrumentation.span("refine.init_clause"):
        reachable = clauses.reachable()
    checked = clauses.edges_hold(reachable, stutter_insensitive, open_systems)
    if checked is None:
        return None
    return (
        {
            "refine.reachable.size": len(reachable),
            "refine.init.transitions.checked": checked,
        },
        f"{len(reachable)} reachable states, {checked} transitions checked",
    )


def _everywhere_holds(
    clauses, stutter_insensitive: bool, open_systems: bool,
    instrumentation: Instrumentation,
) -> Optional[_Proof]:
    """``[C (= A]`` over a clause backend; ``None`` on a violation."""
    checked = clauses.edges_hold(None, stutter_insensitive, open_systems)
    if checked is None:
        return None
    return (
        {"refine.everywhere.transitions.checked": checked},
        f"{checked} transitions checked",
    )


def _convergence_holds(
    clauses, stutter_insensitive: bool, open_systems: bool,
    instrumentation: Instrumentation,
) -> Optional[_Proof]:
    """``[C <= A]``'s four clauses over a clause backend; ``None`` on
    a violation."""
    init = _init_holds(clauses, stutter_insensitive, open_systems, instrumentation)
    if init is None:
        return None
    counters, _ = init
    with instrumentation.span("refine.transition_scan"):
        scan = clauses.scan(stutter_insensitive)
    if scan is None:
        return None
    exact, stutters, compressions, edges = scan
    with instrumentation.span("refine.cycle_clause"):
        on_cycle = clauses.compression_on_cycle(compressions, edges)
    if on_cycle or _stutter_cycle(stutters):
        return None
    if not open_systems and clauses.bad_terminal():
        return None
    counters["refine.transitions.exact"] = exact
    counters["refine.transitions.compressing"] = len(compressions)
    counters["refine.transitions.stuttering"] = len(stutters)
    return counters, (
        f"{exact} exact transitions, {len(compressions)} compressions, "
        f"{len(stutters)} stutters"
    )


def _refinement(
    holds: Callable[..., Optional[_Proof]],
    decide: Callable[..., CheckResult],
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    engine: str,
    name: str,
    workers: int = 1,
) -> CheckResult:
    """Select an engine, decide the relation on it, replay on tuple.

    ``holds`` is the relation's optimistic decision over the vector
    clauses and ``decide`` its tuple reference, called with the
    compiled systems.  The engines are vector and tuple
    (:func:`~.engines.engine_chain`).  A proof emits its counters and is
    the verdict; a violation, or an image outside the abstract schema,
    emits only the reasoned fallback before the tuple replay, and a
    runtime fault on vector replays there too
    (:func:`~.engines.run_chain`).  After a violation the replay's
    systems are read off the vector attempt's kernels
    (``materialize()``); otherwise it compiles the sources.  Every
    engine decides refinement in one process, so a ``workers > 1``
    request is noted with a ``parallel.sequential`` event.
    """
    chain = engine_chain(
        engine, concrete, abstract, alpha, ("vector", "tuple"),
        instrumentation, unserved="no streamed refinement clauses",
    )
    _note_sequential(instrumentation, chain[0], workers)
    # The vector attempt's clauses, when they found a violation.
    refuted: List[_VectorClauses] = []

    def attempt(rung: str) -> Optional[CheckResult]:
        if rung == "vector":
            verdict, clauses = _vector_attempt(
                holds, concrete, abstract, alpha, stutter_insensitive,
                open_systems, instrumentation, name,
            )
            if verdict is None and clauses is not None:
                refuted.append(clauses)
            return verdict
        if refuted:
            concrete_system = refuted[0].kernel.materialize()
            abstract_system = refuted[0].abstract_kernel.materialize()
        else:
            concrete_system = _as_system(concrete)
            abstract_system = (
                concrete_system if abstract is concrete else _as_system(abstract)
            )
        return decide(
            concrete_system, abstract_system, alpha, stutter_insensitive,
            open_systems, instrumentation, name,
        )

    return run_chain(chain, attempt, instrumentation)[1]


def _vector_attempt(
    holds: Callable[..., Optional[_Proof]],
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Tuple[Optional[CheckResult], Optional[_VectorClauses]]:
    """The verdict when the vector clauses prove the relation, ``None``
    after a reasoned ``engine.fallback`` event when they do not; and
    the clauses (``None`` when the abstraction leaves the abstract
    schema)."""
    if alpha is None:
        source_schema(concrete).require_compatible(
            source_schema(abstract), "refinement check without an abstraction function"
        )
    clauses = _VectorClauses.over(concrete, abstract, alpha, instrumentation)
    proof = (
        None
        if clauses is None
        else holds(clauses, stutter_insensitive, open_systems, instrumentation)
    )
    if proof is not None:
        counters, detail = proof
        for counter, value in counters.items():
            instrumentation.count(counter, value)
        return CheckResult(True, name, detail=detail), clauses
    instrumentation.count("engine.fallback.tuple", 1)
    instrumentation.event(
        "engine.fallback",
        requested="vector",
        reason=_ALPHA_REPLAY_REASON if clauses is None else _VIOLATION_REPLAY_REASON,
    )
    return None, clauses


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


def check_init_refinement(
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction] = None,
    stutter_insensitive: bool = False,
    open_systems: bool = False,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
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
        workers: accepted for symmetry with the stabilization check;
            refinement always decides in one process (a request above
            1 emits a ``parallel.sequential`` event), so the verdict
            is identical for every worker count.
        engine: which engine decides (see the module docstring).
    """
    return _refinement(
        _init_holds, _decide_init_refinement,
        concrete, abstract, alpha, stutter_insensitive, open_systems,
        instrumentation, engine,
        f"[{_source_name(concrete)} (= {_source_name(abstract)}]_init",
        workers,
    )


def _decide_init_refinement(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> CheckResult:
    """The clauses of :func:`check_init_refinement`."""
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
        reachable = concrete.reachable()
    instrumentation.count("refine.reachable.size", len(reachable))
    checked = 0
    # Canonical scan order: sorting makes the first witness (and so the
    # whole verdict) independent of how the reachable set was built.
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
    engine: str = "tuple",
) -> CheckResult:
    """Decide ``[C subseteq A]`` — every computation of ``C`` is one of ``A``.

    Same conditions as :func:`check_init_refinement` but quantified
    over the whole state space rather than the reachable part, and
    without the initial-state clause (everywhere refinement constrains
    behaviour, not initial sets).  ``open_systems`` skips the
    maximality clause, and ``engine`` behaves, as for
    :func:`check_init_refinement`.
    """
    return _refinement(
        _everywhere_holds, _decide_everywhere_refinement,
        concrete, abstract, alpha, stutter_insensitive, open_systems,
        instrumentation, engine,
        f"[{_source_name(concrete)} (= {_source_name(abstract)}]",
    )


def _decide_everywhere_refinement(
    concrete: System,
    abstract: System,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> CheckResult:
    """The scan of :func:`check_everywhere_refinement`."""
    mapping = _resolve_alpha(concrete, abstract, alpha)
    checked = 0
    for state in concrete.schema.states():
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
) -> List[Transition]:
    """All transitions of ``C`` that compress a multi-step path of ``A``.

    A transition compresses when its abstract image is not a single
    ``A``-transition but is realizable as an ``A``-path of length two
    or more.  A step whose image stays put never compresses, with or
    without stuttering: it is a stutter, exact on an abstract
    self-loop, or a violation — the classification of
    :func:`check_convergence_refinement` and
    :func:`expand_to_abstract_path`.  Raises nothing on unmatched
    transitions — those are the business of
    :func:`check_convergence_refinement`; unmatched transitions are
    simply skipped here.
    """
    mapping = _resolve_alpha(concrete, abstract, alpha)
    result: List[Transition] = []
    for source, target in concrete.transitions():
        image_source, image_target = mapping(source), mapping(target)
        if image_source == image_target:
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
        workers: as for :func:`check_init_refinement`: refinement
            decides in one process, and the verdict — witness and
            rendering included — is identical for every worker count.
        engine: which engine decides (see the module docstring).

    Returns:
        :class:`CheckResult` whose detail reports how many transitions
        were exact, compressing, and stuttering.
    """
    with instrumentation.span("refine.total"):
        result = _refinement(
            _convergence_holds, _decide_convergence_refinement,
            concrete, abstract, alpha, stutter_insensitive, open_systems,
            instrumentation, engine,
            f"[{_source_name(concrete)} <= {_source_name(abstract)}]",
            workers,
        )
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
    name: str,
) -> CheckResult:
    """The clauses of :func:`check_convergence_refinement`, instrumented."""
    mapping = _resolve_alpha(concrete, abstract, alpha)

    def unrealized(source: State, target: State) -> CheckResult:
        """The verdict on a transition no abstract path realizes."""
        image_source, image_target = mapping(source), mapping(target)
        if image_source == image_target:
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

    init_part = check_init_refinement(
        concrete,
        abstract,
        mapping,
        stutter_insensitive=stutter_insensitive,
        open_systems=open_systems,
        instrumentation=instrumentation,
    )
    if not init_part.holds:
        return CheckResult(False, name, init_part.witness, detail="init-refinement clause failed")

    exact = 0
    stutters: List[Transition] = []
    compressions: List[Transition] = []
    progress = ProgressEmitter(instrumentation, "refine.transition_scan")
    scanned = 0
    with instrumentation.span("refine.transition_scan"):
        for source, target in concrete.transitions():
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
                return unrealized(source, target)
            if abstract.has_transition(image_source, image_target):
                exact += 1
                continue
            if shortest_path(abstract, image_source, image_target, min_length=2) is None:
                return unrealized(source, target)
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
    terminal_scan = concrete.schema.states() if not open_systems else ()
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
        source_schema(concrete).require_compatible(
            source_schema(abstract), "refinement check without an abstraction function"
        )
        mapping = identity_abstraction(source_schema(concrete))
    else:
        mapping = alpha
    name = f"[{_source_name(concrete)} ee-refines {_source_name(abstract)}]"
    init_part = check_init_refinement(
        concrete, abstract, mapping, instrumentation=instrumentation,
        engine=engine,
    )
    if not init_part.holds:
        return CheckResult(False, name, init_part.witness,
                           detail="init-refinement clause failed")
    abstract_system = _as_system(abstract)
    liberal = abstract_system.with_initial(
        abstract_system.schema.states(), name=f"{abstract_system.name}|all-initial"
    )
    suffix_part = check_stabilization(
        concrete, liberal, mapping, compute_steps=False,
        instrumentation=instrumentation, engine=engine,
    )
    return CheckResult(
        suffix_part.result.holds,
        name,
        suffix_part.result.witness,
        detail=suffix_part.result.detail,
    )
