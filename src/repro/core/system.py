"""The system model of the paper: finite-state automata ``(Sigma, T, I)``.

Section 2 of the paper defines a *system* as a finite-state automaton
``(Sigma, T, I)`` where ``T`` is a set of transitions over ``Sigma``
and ``I`` a set of initial states.  A *computation* is a maximal
sequence of states related by ``T`` — maximal meaning that a finite
computation must end in a state with no outgoing transition.

:class:`System` is the library's concrete realization.  Transitions
are stored explicitly (adjacency mapping), optionally labelled with
the name of the action that produced them so that counterexamples can
be traced back to guarded commands.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .errors import StateSpaceError  # noqa: F401  (re-exported for callers)
from .state import State, StateSchema

__all__ = ["System", "Transition", "successors_closure"]

#: A transition is an ordered pair of states.
Transition = Tuple[State, State]


class System:
    """A finite-state automaton ``(Sigma, T, I)``.

    Args:
        schema: the state schema whose space is ``Sigma``.
        transitions: the transition relation, given either as an
            iterable of ``(source, target)`` pairs or as a mapping from
            source to an iterable of targets.
        initial: the set of initial states ``I`` (may be empty; the
            paper's wrappers are systems with no distinguished initial
            states of their own).
        name: optional human-readable name used in reports.
        labels: optional mapping from transition pair to a set of
            action names, recording which guarded command produced the
            transition.  Labels are advisory; all semantic checks use
            only the relation itself.

    Every state mentioned anywhere is validated against the schema so
    that malformed systems fail at construction, not mid-check.
    """

    def __init__(
        self,
        schema: StateSchema,
        transitions: Iterable[Transition] | Mapping[State, Iterable[State]],
        initial: Iterable[State],
        name: str = "system",
        labels: Optional[Mapping[Transition, Iterable[str]]] = None,
    ):
        self._schema = schema
        self._name = name
        adjacency: Dict[State, Set[State]] = {}
        if isinstance(transitions, Mapping):
            pairs: Iterable[Transition] = (
                (source, target)
                for source, targets in transitions.items()
                for target in targets
            )
        else:
            pairs = transitions
        for source, target in pairs:
            schema.validate(source)
            schema.validate(target)
            adjacency.setdefault(source, set()).add(target)
        self._adjacency: Dict[State, FrozenSet[State]] = {
            source: frozenset(targets) for source, targets in adjacency.items()
        }
        initial_set = frozenset(initial)
        for state in initial_set:
            schema.validate(state)
        self._initial = initial_set
        label_map: Dict[Transition, FrozenSet[str]] = {}
        if labels:
            for pair, names in labels.items():
                source, target = pair
                schema.validate(source)
                schema.validate(target)
                label_map[pair] = frozenset(names)
        self._labels = label_map

    @classmethod
    def of_members(
        cls,
        schema: StateSchema,
        adjacency: Mapping[State, Set[State]],
        initial: Iterable[State],
        name: str,
        labels: Mapping[Transition, Set[str]],
    ) -> "System":
        """The system the constructor builds from ``adjacency``'s pairs,
        in its order, for states already known to be members of
        ``schema`` (decoded from state codes, or validated while they
        were compiled): nothing is re-validated.

        ``adjacency`` maps each source to the set its successors were
        added to, so each successor set iterates as the constructor's.
        """
        system = cls.__new__(cls)
        system._schema = schema
        system._name = name
        system._adjacency = {
            source: frozenset(targets) for source, targets in adjacency.items()
        }
        system._initial = frozenset(initial)
        system._labels = {pair: frozenset(names) for pair, names in labels.items()}
        return system

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> StateSchema:
        """The schema of ``Sigma``."""
        return self._schema

    @property
    def name(self) -> str:
        """The system's display name."""
        return self._name

    @property
    def initial(self) -> FrozenSet[State]:
        """The set ``I`` of initial states."""
        return self._initial

    def successors(self, state: State) -> FrozenSet[State]:
        """The set ``{t : (state, t) in T}`` (empty for terminal states)."""
        return self._adjacency.get(state, frozenset())

    def has_transition(self, source: State, target: State) -> bool:
        """True iff ``(source, target)`` is in ``T``."""
        return target in self._adjacency.get(source, frozenset())

    def transitions(self) -> Iterator[Transition]:
        """Iterate over all transition pairs in ``T``."""
        for source, targets in self._adjacency.items():
            for target in targets:
                yield (source, target)

    def transition_count(self) -> int:
        """Number of transitions in ``T``."""
        return sum(len(targets) for targets in self._adjacency.values())

    def sources(self) -> Iterator[State]:
        """States with at least one outgoing transition."""
        return iter(self._adjacency)

    def labels_of(self, source: State, target: State) -> FrozenSet[str]:
        """Action names recorded for a transition (may be empty)."""
        return self._labels.get((source, target), frozenset())

    def is_terminal(self, state: State) -> bool:
        """True iff ``state`` has no outgoing transition.

        A finite computation may only end in such a state (maximality).
        """
        self._schema.validate(state)
        return not self._adjacency.get(state)

    def terminal_states(self) -> FrozenSet[State]:
        """All terminal states of the full state space ``Sigma``.

        Enumerates ``Sigma`` exhaustively; intended for the small
        instances on which the paper's theorems are verified.
        """
        return frozenset(
            state for state in self._schema.states() if not self._adjacency.get(state)
        )

    def enabled_anywhere(self) -> bool:
        """True iff the transition relation is non-empty."""
        return bool(self._adjacency)

    # ------------------------------------------------------------------
    # Derived systems
    # ------------------------------------------------------------------

    def with_initial(self, initial: Iterable[State], name: Optional[str] = None) -> "System":
        """Return the same automaton with a different initial-state set."""
        return System(
            self._schema,
            self._adjacency,
            initial,
            name=name or self._name,
            labels=self._labels,
        )

    def with_name(self, name: str) -> "System":
        """Return the same automaton under a different display name."""
        return System(self._schema, self._adjacency, self._initial, name=name, labels=self._labels)

    def restricted_to(self, states: Iterable[State], name: Optional[str] = None) -> "System":
        """The sub-automaton induced on ``states``.

        Transitions are kept only when both endpoints lie inside the
        given set; initial states are intersected with it.
        """
        keep = frozenset(states)
        for state in keep:
            self._schema.validate(state)
        transitions = {
            source: frozenset(t for t in targets if t in keep)
            for source, targets in self._adjacency.items()
            if source in keep
        }
        labels = {
            pair: names
            for pair, names in self._labels.items()
            if pair[0] in keep and pair[1] in keep
        }
        return System(
            self._schema,
            transitions,
            self._initial & keep,
            name=name or f"{self._name}|restricted",
            labels=labels,
        )

    def without_self_loops(self, name: Optional[str] = None) -> "System":
        """Drop all stuttering transitions ``(s, s)``.

        Used to check convergence of systems with stuttering actions
        (the paper's ``C3``) under weak fairness: an action that only
        stutters cannot be scheduled forever to the exclusion of
        actions that change the state.
        """
        transitions = {
            source: frozenset(t for t in targets if t != source)
            for source, targets in self._adjacency.items()
        }
        labels = {pair: names for pair, names in self._labels.items() if pair[0] != pair[1]}
        return System(
            self._schema,
            transitions,
            self._initial,
            name=name or f"{self._name}|no-stutter",
            labels=labels,
        )

    def reachable_from(self, sources: Iterable[State]) -> FrozenSet[State]:
        """All states reachable from ``sources`` (inclusive) via ``T``."""
        frontier: List[State] = []
        seen: Set[State] = set()
        for state in sources:
            self._schema.validate(state)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
        while frontier:
            state = frontier.pop()
            for successor in self._adjacency.get(state, ()):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return frozenset(seen)

    def reachable(self) -> FrozenSet[State]:
        """All states reachable from the initial states (inclusive)."""
        return self.reachable_from(self._initial)

    # ------------------------------------------------------------------
    # Computations
    # ------------------------------------------------------------------

    def computations(
        self,
        start: State,
        max_length: int,
    ) -> Iterator[Tuple[State, ...]]:
        """Enumerate computation prefixes from ``start``.

        Yields every maximal sequence of at most ``max_length`` states:
        a yielded sequence either ends in a terminal state (a genuine
        finite computation) or has exactly ``max_length`` states (a
        prefix of some longer, possibly infinite, computation).

        Args:
            start: the first state of every yielded sequence.
            max_length: inclusive bound on the number of states.

        Raises:
            ValueError: if ``max_length`` is not positive.
        """
        if max_length <= 0:
            raise ValueError("max_length must be positive")
        self._schema.validate(start)
        stack: List[Tuple[Tuple[State, ...], State]] = [((start,), start)]
        while stack:
            prefix, last = stack.pop()
            successors = self._adjacency.get(last)
            if not successors or len(prefix) == max_length:
                yield prefix
                continue
            for successor in sorted(successors, key=repr):
                stack.append((prefix + (successor,), successor))

    def is_computation(self, sequence: Sequence[State], require_maximal: bool = True) -> bool:
        """Check whether ``sequence`` is a computation (prefix) of this system.

        Args:
            sequence: the candidate state sequence (non-empty).
            require_maximal: when true, a finite sequence must end in a
                terminal state, matching the paper's maximality clause;
                when false, any finite path through ``T`` is accepted.
        """
        if not sequence:
            return False
        for state in sequence:
            if not self._schema.is_valid(state):
                return False
        for current, following in zip(sequence, sequence[1:]):
            if not self.has_transition(current, following):
                return False
        if require_maximal and not self.is_terminal(sequence[-1]):
            return False
        return True

    def random_computation(self, start: State, steps: int, rng) -> Tuple[State, ...]:
        """Follow ``steps`` uniformly random transitions from ``start``.

        Stops early at a terminal state.  Used by the simulation
        substrate and property tests.
        """
        self._schema.validate(start)
        sequence = [start]
        current = start
        for _ in range(steps):
            successors = self._adjacency.get(current)
            if not successors:
                break
            current = rng.choice(sorted(successors, key=repr))
            sequence.append(current)
        return tuple(sequence)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"System({self._name!r}, |T|={self.transition_count()}, "
            f"|I|={len(self._initial)}, {self._schema.describe()})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same schema, relation, and initial set.

        Display names and labels are ignored — two systems written
        differently but denoting the same automaton compare equal,
        which is exactly what the paper's "the above system is equal to
        Dijkstra's system" claims need.
        """
        if not isinstance(other, System):
            return NotImplemented
        return (
            self._schema.compatible_with(other._schema)
            and self._adjacency == other._adjacency
            and self._initial == other._initial
        )

    def __hash__(self) -> int:
        return hash(
            (
                self._schema,
                frozenset((s, ts) for s, ts in self._adjacency.items()),
                self._initial,
            )
        )


def successors_closure(
    system: System, state: State, max_depth: int
) -> Dict[State, int]:
    """Map every state reachable from ``state`` to its BFS distance.

    Args:
        system: the automaton to explore.
        state: the start state (distance 0).
        max_depth: inclusive depth bound; states farther than this are
            omitted.

    Returns:
        dict mapping reachable state to its minimum distance.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    system.schema.validate(state)
    distances: Dict[State, int] = {state: 0}
    frontier = [state]
    depth = 0
    while frontier and depth < max_depth:
        depth += 1
        next_frontier: List[State] = []
        for current in frontier:
            for successor in system.successors(current):
                if successor not in distances:
                    distances[successor] = depth
                    next_frontier.append(successor)
        frontier = next_frontier
    return distances
