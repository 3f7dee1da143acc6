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
``_decide_*`` functions), the oracle whose verdicts every engine
reports.  The vector engine decides the same clauses over dense state
codes: one skeleton (:func:`_refinement`) drives
:class:`_VectorClauses` and reports what they find — the tuple
engine's counters and detail when every clause holds, and otherwise
the tuple engine's witness, found on codes.  The engines are vector
and tuple (:func:`~repro.checker.engines.engine_chain`): ``packed`` is
an alias of ``vector``, a shared request continues at vector (the
clauses have no streamed form), and where vector refuses the sources
(an unlowerable program, the cell ceiling) the check replays on tuple;
each says so in an ``engine.fallback`` event.

Clause 2 is decided for every compression at once on the abstract's
strongly connected components
(:func:`repro.kernel.cycles.component_labels`): two distinct images in
one component are joined by an abstract path, and the other pairs by
one reachability over the condensation (:func:`_dag_reaches`).
Clause 3 is one labelling of the concrete edge list the transition
scan already expanded: a compression ``(s, t)`` lies on a cycle iff
``s`` and ``t`` share a component.  The invisible-divergence clause
labels the stutter edges that are not self-loops the same way.

A violated clause yields its violating codes or edges, and the witness
is the first of them in the order the tuple reference iterates, built
from the states the tuple bridge builds
(:meth:`~repro.kernel.vector.VectorKernel.compile`): initial states as
the compiled system's initial set iterates, reachable states by
``repr``, transitions as the compiled system lists them, the state
space in code order.  Every engine's states hold the schema's domain
objects (:meth:`~repro.core.state.StateSchema.pack`), so a message
shows alpha of the witness's own states.  So verdicts, witnesses and
counters are identical on every engine, and no whole system is built.  Only an
abstraction mapping some state outside the abstract schema, which has
no code image, replays the check on the tuple engine after a reasoned
``engine.fallback`` event.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.abstraction import AbstractionFunction, identity_abstraction
from ..core.state import State
from ..core.system import System, Transition
from ..gcl.expr import Const
from ..gcl.program import Program
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


_ALPHA_REPLAY_REASON = (
    "the abstraction maps some state outside the abstract schema; "
    "replaying on the tuple engine"
)

#: The most bytes one block of :func:`_dag_reaches` holds: a flag per
#: (node, source) pair of the block.
_REACH_BLOCK_BYTES = 1 << 24

#: A decision of the vector clauses: the ``refine.*`` counters the
#: tuple engine emits for it, the witness (``None``: the relation
#: holds) and the detail line.
_Decision = Tuple[Dict[str, int], Optional[Witness], str]


class _VectorClauses:
    """The refinement clauses over code arrays (:mod:`repro.kernel.vector`).

    ``over()`` builds them from the check's sources, or returns
    ``None`` when the abstraction maps a state outside the abstract
    schema.  ``init_clause()`` and ``everywhere_clause()`` decide
    ``[C (= A]_init`` and ``[C (= A]``; ``scan()`` classifies every
    transition as exact, stutter, compression or unrealizable, and
    ``on_cycle()`` finds the edges that lie on a cycle (clause 3 and
    the invisible-divergence clause); ``bad_terminal()`` is clause 4.
    Witnesses are built here (``unrealized()``, ``edge_witness()``)
    from the interner's decodings, which are the tuple engine's states
    too, and their messages show ``mapping`` of them;
    :func:`_refinement` owns the spans, counters, events and verdict.
    Transition counts match the tuple engine's because ``succ_pairs``
    deduplicates per (origin, target) pair, as a compiled system's
    successor sets do.
    """

    def __init__(self, kernel, abstract_kernel, image_of, mapping, instrumentation):
        self.kernel = kernel
        self.abstract_kernel = abstract_kernel
        self.image_of = image_of
        self.mapping = mapping
        self.instrumentation = instrumentation

    @classmethod
    def over(cls, concrete, abstract, alpha, instrumentation):
        """The clauses of ``concrete`` against ``abstract`` through
        ``alpha``; ``None`` when some image leaves the abstract schema.
        """
        from ..kernel.shared.image import SharedImage
        from ..kernel.vector import as_vector_kernel

        kernel = as_vector_kernel(concrete)
        abstract_kernel = kernel if abstract is concrete else as_vector_kernel(abstract)
        image_of = SharedImage(
            kernel.interner, abstract_kernel.interner, alpha
        ).of(np.arange(kernel.size, dtype=np.int64))
        if bool((image_of < 0).any()):
            return None
        mapping = alpha if alpha is not None else identity_abstraction(kernel.schema)
        return cls(kernel, abstract_kernel, image_of, mapping, instrumentation)

    # ------------------------------------------------------------------
    # [C (= A]_init and [C (= A].
    # ------------------------------------------------------------------

    def init_clause(self, stutter_insensitive: bool, open_systems: bool) -> _Decision:
        """``[C (= A]_init``: the initial images, then every transition
        and terminal state reachable from ``C``'s initial states."""
        from ..kernel.vector import vector_reachable

        witness = self._bad_initial()
        if witness is not None:
            return {}, witness, ""
        with self.instrumentation.span("refine.init_clause"):
            reachable = np.flatnonzero(
                vector_reachable(
                    self.kernel,
                    self.kernel.initial_array,
                    instrumentation=self.instrumentation,
                )
            )
        counters = {"refine.reachable.size": int(reachable.size)}
        origins, targets, bad, bad_terminal = self._violations(
            reachable, stutter_insensitive, open_systems
        )
        bad_sources = bad_terminal.copy()
        bad_sources[origins[bad]] = True
        if not bad_sources.any():
            checked = int(origins.size)
            counters["refine.init.transitions.checked"] = checked
            return counters, None, (
                f"{reachable.size} reachable states, {checked} transitions checked"
            )
        # The tuple engine scans the reachable states by repr.
        positions = np.flatnonzero(bad_sources)
        states = self.kernel.interner.decode_array(reachable[positions])
        index = min(range(len(states)), key=lambda i: repr(states[i]))
        position = int(positions[index])
        return counters, self._source_witness(
            "reachable ", int(reachable[position]), states[index],
            bool(bad_terminal[position]), targets[bad & (origins == position)],
        ), ""

    def everywhere_clause(self, stutter_insensitive: bool, open_systems: bool) -> _Decision:
        """``[C (= A]``: every transition and terminal state, in the
        tuple engine's code-order scan of the state space."""
        codes = np.arange(self.kernel.size, dtype=np.int64)
        origins, targets, bad, bad_terminal = self._violations(
            codes, stutter_insensitive, open_systems
        )
        bad_sources = bad_terminal.copy()
        bad_sources[origins[bad]] = True
        if not bad_sources.any():
            checked = int(origins.size)
            return (
                {"refine.everywhere.transitions.checked": checked},
                None,
                f"{checked} transitions checked",
            )
        code = int(np.argmax(bad_sources))
        return {}, self._source_witness(
            "", code, self.kernel.interner.decode(code), bool(bad_terminal[code]),
            targets[bad & (origins == code)],
        ), ""

    def _source_witness(
        self, scope: str, code: int, state: State, terminal: bool,
        bad_targets: np.ndarray,
    ) -> Witness:
        """The witness of the violating ``state`` (of ``code``) found
        by a scan of ``scope`` (``"reachable "`` or ``""``): its bad
        terminal, or its first successor among ``bad_targets``."""
        if terminal:
            return self._witness(
                WitnessKind.BAD_TERMINAL,
                f"{scope}terminal state of the concrete maps to a non-terminal "
                "abstract state (maximality fails)",
                (state,),
            )
        bad = set(bad_targets.tolist())
        encode = self.kernel.interner.encode
        successor = next(
            successor
            for successor in self.kernel.compile([code]).successors(state)
            if encode(successor) in bad
        )
        return self._witness(
            WitnessKind.ILLEGAL_TRANSITION,
            f"{scope}transition has no image in {self.abstract_kernel.name}: "
            f"{self.mapping(state)!r} -> {self.mapping(successor)!r}",
            (state, successor),
        )

    def _bad_initial(self) -> Optional[Witness]:
        """The first initial state, as the compiled system's initial
        set iterates, whose image is not initial in ``A``."""
        initial = self.kernel.initial_array
        bad = initial[
            ~np.isin(self.image_of[initial], self.abstract_kernel.initial_array)
        ]
        if not bad.size:
            return None
        bad_codes = set(bad.tolist())
        encode = self.kernel.interner.encode
        state = next(
            state for state in self.kernel.initial_states()
            if encode(state) in bad_codes
        )
        return self._witness(
            WitnessKind.ILLEGAL_TRANSITION,
            f"initial state maps to {self.mapping(state)!r}, not initial in "
            f"{self.abstract_kernel.name}",
            (state,),
        )

    def _violations(self, codes, stutter_insensitive: bool, open_systems: bool):
        """The transitions out of ``codes`` (``succ_pairs``' origin
        positions and targets), which of them have no abstract image,
        and which positions are terminal with a moving image."""
        origins, targets = self.kernel.succ_pairs(codes)
        image_source = self.image_of[codes[origins]]
        image_target = self.image_of[targets]
        bad = ~self.abstract_kernel.has_edge(image_source, image_target)
        if stutter_insensitive:
            bad &= image_target != image_source
        if open_systems:
            bad_terminal = np.zeros(codes.size, dtype=bool)
        else:
            bad_terminal = (np.bincount(origins, minlength=codes.size) == 0) & ~(
                self.abstract_kernel.terminal_flags()[self.image_of[codes]]
            )
        return origins, targets, bad, bad_terminal

    # ------------------------------------------------------------------
    # [C <= A]'s clauses 2-4.
    # ------------------------------------------------------------------

    def scan(self, stutter_insensitive: bool):
        """The exact count; the stutter, compression and unrealizable
        edges as ``(source, target)`` code rows; and the whole concrete
        edge list, which clause 3 labels."""
        sources, targets = self.kernel.succ_pairs(
            np.arange(self.kernel.size, dtype=np.int64)
        )
        image_source = self.image_of[sources]
        image_target = self.image_of[targets]
        abstract_edge = self.abstract_kernel.has_edge(image_source, image_target)
        if stutter_insensitive:
            stutter_mask = image_target == image_source
        else:
            stutter_mask = np.zeros(targets.shape, dtype=bool)
        exact = int((~stutter_mask & abstract_edge).sum())
        rest = np.flatnonzero(~stutter_mask & ~abstract_edge)
        # Only the rest's images are read from here on.
        image_source, image_target = image_source[rest], image_target[rest]
        realized = self._realizable(image_source, image_target)

        def rows(picked):
            return np.column_stack((sources[picked], targets[picked]))

        return (
            exact,
            rows(stutter_mask),
            rows(rest[realized]),
            rows(rest[~realized]),
            (sources, targets),
        )

    def _realizable(self, image_source, image_target) -> np.ndarray:
        """Which of these abstract code pairs, joined by no abstract
        edge, an abstract path joins — of two steps or more, then.

        A same-image pair never is.  Two distinct images in one
        strongly connected component of ``A`` are; the other pairs are
        decided by one reachability over the components' condensation.
        """
        realizable = image_source != image_target
        if not realizable.any():
            return realizable
        abstract = self.abstract_kernel
        sources, targets = abstract.succ_pairs(np.arange(abstract.size, dtype=np.int64))
        component = _components(sources, targets, abstract.size)
        source_component = component[image_source]
        target_component = component[image_target]
        across = realizable & (source_component != target_component)
        if across.any():
            between = component[sources] != component[targets]
            realizable[across] = _dag_reaches(
                component[sources][between],
                component[targets][between],
                source_component[across],
                target_component[across],
                abstract.size,
            )
        return realizable

    def on_cycle(self, edges: np.ndarray, graph) -> np.ndarray:
        """The rows of ``edges``, each of two distinct codes, whose
        codes share a strongly connected component of ``graph``,
        ``(sources, targets)`` arrays: the edges of ``graph`` among
        them lie on a cycle."""
        if not edges.size:
            return edges
        component = _components(*graph, self.kernel.size)
        return edges[component[edges[:, 0]] == component[edges[:, 1]]]

    def unrealized(self, edges: np.ndarray) -> Witness:
        """Clause 2's witness: the first of the unrealizable ``edges``."""
        source, target = self._first_transition(edges)
        image_source, image_target = self.mapping(source), self.mapping(target)
        if image_source == image_target:
            message = (
                "stuttering transition but the abstract has no self-loop at "
                f"{image_source!r} (rerun with stutter_insensitive=True to "
                "compare modulo stuttering)"
            )
        else:
            message = (
                f"no path of {self.abstract_kernel.name} realizes the image "
                f"{image_source!r} -> {image_target!r}"
            )
        return self._witness(WitnessKind.NO_ABSTRACT_PATH, message, (source, target))

    def edge_witness(self, edges: np.ndarray, message: str) -> Witness:
        """A cycle clause's witness: the first of ``edges``."""
        return self._witness(
            WitnessKind.COMPRESSION_ON_CYCLE, message, self._first_transition(edges)
        )

    def bad_terminal(self) -> Optional[Witness]:
        """Clause 4's witness: the first terminal state in code order
        whose image can move; ``None`` when there is none."""
        bad = self.kernel.terminal_flags() & ~(
            self.abstract_kernel.terminal_flags()[self.image_of]
        )
        if not bad.any():
            return None
        return self._witness(
            WitnessKind.BAD_TERMINAL,
            "terminal state of the concrete maps to a non-terminal "
            "abstract state: the matched abstract computation would "
            "not be maximal",
            (self.kernel.interner.decode(int(np.argmax(bad))),),
        )

    def _first_transition(self, edges: np.ndarray) -> Transition:
        """The first of the ``(source, target)`` code rows ``edges`` in
        the order ``C``'s compiled system lists its transitions.

        A program's sources come in code order, so only the least
        source is compiled; a wrapped system is listed in its own order.
        """
        bad = set(map(tuple, edges.tolist()))
        bad_sources = {source for source, _ in bad}
        encode = self.kernel.interner.encode
        region = self.kernel.compile([min(bad_sources)])
        for source in region.sources():
            code = encode(source)
            if code not in bad_sources:
                continue
            for target in region.successors(source):
                if (code, encode(target)) in bad:
                    return source, target
        raise AssertionError("no listed transition is among the edges")

    def _witness(self, kind: WitnessKind, message: str, states) -> Witness:
        return Witness(kind, message, tuple(states), self.kernel.schema)


def _components(sources: np.ndarray, targets: np.ndarray, size: int) -> np.ndarray:
    """Each code of ``[0, size)``'s strongly connected component in the
    digraph ``sources[i] -> targets[i]``: its label from
    :func:`~repro.kernel.cycles.component_labels`, or the code itself
    for a code on no cycle."""
    from ..kernel.cycles import component_labels

    component = np.arange(size, dtype=np.int64)
    labels = component_labels(sources, targets)
    if labels:
        component[np.fromiter(labels, dtype=np.int64, count=len(labels))] = (
            np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
        )
    return component


def _dag_reaches(
    edge_sources: np.ndarray,
    edge_targets: np.ndarray,
    pair_sources: np.ndarray,
    pair_targets: np.ndarray,
    size: int,
) -> np.ndarray:
    """Does a path of one edge or more lead from ``pair_sources[i]`` to
    ``pair_targets[i]`` in the acyclic digraph ``edge_sources[j] ->
    edge_targets[j]`` over the nodes ``[0, size)``?

    One pass in topological order carries, for every node, a flag per
    distinct pair source: does a path from that source reach the node.
    The edges leave the nodes level by level (Kahn), so a level's flags
    are final before they are passed on.  Sources go in blocks of at
    most :data:`_REACH_BLOCK_BYTES` of flags, one pass per block.
    """
    from ..kernel.vector.kernel import _ranges, _unique_sorted

    keys = _unique_sorted(edge_sources * np.int64(size) + edge_targets)
    edge_sources, edge_targets = keys // size, keys % size
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_sources, minlength=size), out=indptr[1:])
    in_degree = np.bincount(edge_targets, minlength=size)
    # Each level's out-edges, grouped by target.
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    frontier = np.flatnonzero(in_degree == 0)
    while frontier.size:
        out = _ranges(indptr[frontier], indptr[frontier + 1] - indptr[frontier])
        if not out.size:
            break
        order = np.argsort(edge_targets[out], kind="stable")
        level_sources = edge_sources[out][order]
        level_targets = edge_targets[out][order]
        starts = np.flatnonzero(
            np.concatenate(([True], level_targets[1:] != level_targets[:-1]))
        )
        heads = level_targets[starts]
        in_degree[heads] -= np.diff(np.append(starts, level_targets.size))
        levels.append((level_sources, starts, heads))
        frontier = heads[in_degree[heads] == 0]
    widest = max([size] + [sources.size for sources, _, _ in levels])
    block = max(1, _REACH_BLOCK_BYTES // widest)
    is_origin = np.zeros(size, dtype=bool)
    is_origin[pair_sources] = True
    origins = np.flatnonzero(is_origin)
    column = np.zeros(size, dtype=np.int64)
    column[origins] = np.arange(origins.size)
    column_of = column[pair_sources]
    reaches = np.zeros(pair_sources.shape, dtype=bool)
    for first in range(0, origins.size, block):
        members = origins[first:first + block]
        flags = np.zeros((size, members.size), dtype=bool)
        counts = indptr[members + 1] - indptr[members]
        flags[
            edge_targets[_ranges(indptr[members], counts)],
            np.repeat(np.arange(members.size), counts),
        ] = True
        for level_sources, starts, heads in levels:
            flags[heads] |= np.logical_or.reduceat(flags[level_sources], starts, axis=0)
        inside = np.flatnonzero((column_of >= first) & (column_of < first + members.size))
        reaches[inside] = flags[pair_targets[inside], column_of[inside] - first]
    return reaches


def _convergence_clauses(
    clauses: _VectorClauses, stutter_insensitive: bool, open_systems: bool
) -> _Decision:
    """``[C <= A]``'s four clauses over the vector clauses, in the
    tuple engine's order."""
    instrumentation = clauses.instrumentation
    counters, witness, _ = clauses.init_clause(stutter_insensitive, open_systems)
    if witness is not None:
        return counters, witness, "init-refinement clause failed"
    with instrumentation.span("refine.transition_scan"):
        exact, stutters, compressions, unrealized, edges = clauses.scan(
            stutter_insensitive
        )
    if unrealized.size:
        return counters, clauses.unrealized(unrealized), ""
    counters["refine.transitions.exact"] = exact
    counters["refine.transitions.compressing"] = len(compressions)
    counters["refine.transitions.stuttering"] = len(stutters)
    with instrumentation.span("refine.cycle_clause"):
        on_cycle = clauses.on_cycle(compressions, edges)
    if on_cycle.size:
        return counters, clauses.edge_witness(
            on_cycle,
            "compressing transition lies on a cycle of the concrete "
            "system: a computation around the cycle omits abstract "
            "states infinitely often",
        ), ""
    # Literal self-loops are fairness artefacts, as in the tuple engine.
    moving = stutters[stutters[:, 0] != stutters[:, 1]]
    invisible = clauses.on_cycle(moving, (moving[:, 0], moving[:, 1]))
    if invisible.size:
        return counters, clauses.edge_witness(
            invisible,
            "cycle of abstract-invisible transitions: the concrete "
            "can diverge without the abstract moving",
        ), ""
    terminal = None if open_systems else clauses.bad_terminal()
    if terminal is not None:
        return counters, terminal, ""
    return counters, None, (
        f"{exact} exact transitions, {len(compressions)} compressions, "
        f"{len(stutters)} stutters"
    )


def _refinement(
    clauses_decide: Callable[..., _Decision],
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
    """Select an engine and decide the relation on it.

    ``clauses_decide(clauses, stutter_insensitive, open_systems)``
    decides the relation over the vector clauses, witness included,
    and ``decide`` is its tuple reference, called with the compiled
    systems.  The engines are vector and tuple
    (:func:`~.engines.engine_chain`).  A vector decision emits its
    counters and is the verdict, holding or not; an image outside the
    abstract schema emits only the reasoned fallback before the tuple
    replay (:func:`~.engines.run_chain`).  Every engine decides
    refinement in one process, so a ``workers > 1`` request is noted
    with a ``parallel.sequential`` event.
    """
    chain = engine_chain(
        engine, concrete, abstract, alpha, ("vector", "tuple"),
        instrumentation, unserved="no streamed refinement clauses",
    )
    _note_sequential(instrumentation, chain[0], workers)

    def attempt(rung: str) -> Optional[CheckResult]:
        if rung == "vector":
            return _vector_attempt(
                clauses_decide, concrete, abstract, alpha, stutter_insensitive,
                open_systems, instrumentation, name,
            )
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
    clauses_decide: Callable[..., _Decision],
    concrete: SystemOrProgram,
    abstract: SystemOrProgram,
    alpha: Optional[AbstractionFunction],
    stutter_insensitive: bool,
    open_systems: bool,
    instrumentation: Instrumentation,
    name: str,
) -> Optional[CheckResult]:
    """The verdict of the vector clauses, emitting the tuple engine's
    counters for it; ``None`` after a reasoned ``engine.fallback``
    event when the abstraction leaves the abstract schema."""
    if alpha is None:
        source_schema(concrete).require_compatible(
            source_schema(abstract), "refinement check without an abstraction function"
        )
    clauses = _VectorClauses.over(concrete, abstract, alpha, instrumentation)
    if clauses is None:
        instrumentation.count("engine.fallback.tuple", 1)
        instrumentation.event(
            "engine.fallback", requested="vector", reason=_ALPHA_REPLAY_REASON
        )
        return None
    counters, witness, detail = clauses_decide(
        clauses, stutter_insensitive, open_systems
    )
    for counter, value in counters.items():
        instrumentation.count(counter, value)
    return CheckResult(witness is None, name, witness, detail)


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
        _VectorClauses.init_clause, _decide_init_refinement,
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
        _VectorClauses.everywhere_clause, _decide_everywhere_refinement,
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
            _convergence_clauses, _decide_convergence_refinement,
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
    # Every abstract state initial: a program stays a program, so the
    # stabilization check runs on its kernels, not on a compiled System.
    liberal_name = f"{_source_name(abstract)}|all-initial"
    if isinstance(abstract, Program):
        liberal = abstract.with_init(Const(True), name=liberal_name)
    else:
        liberal = abstract.with_initial(abstract.schema.states(), name=liberal_name)
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
