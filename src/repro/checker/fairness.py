"""Strong-fairness analysis for convergence checking.

The paper's Theorem 6 states that ``BTR [] W1 [] W2`` is stabilizing
to ``BTR``.  Under a completely unconstrained central daemon this is
not literally true: in a state where an up-token and a down-token are
co-located, the daemon may forever prefer the token-*moving* actions
(the tokens cross, bounce off the ends, and meet again) and never
schedule ``W2``'s cancellation.  The informal argument in Section 3.2
("tokens moving in opposite directions will cancel each other")
implicitly appeals to action fairness: an action that is enabled
infinitely often fires infinitely often — *strong fairness*.

This module decides divergence under strong fairness exactly, using
the action labels recorded on compiled transitions.  A set of states
``D`` outside the legitimate core supports a strongly fair divergent
run iff, after iteratively discarding states that fair runs can visit
only finitely often, a non-trivial strongly connected *fair trap*
remains:

* ``D`` is strongly connected with at least one transition inside it;
* for every action ``a`` enabled at some state of ``D`` there is an
  ``a``-labelled transition from ``D`` into ``D`` (so a run can keep
  honouring ``a``'s fairness obligation without leaving ``D``).

If some action ``a`` is enabled at ``s`` in ``D`` but every
``a``-transition within ``D`` is missing, a fair run confined to ``D``
may visit ``s`` only finitely often; such states are removed and the
component analysis repeats.  The refinement story told by the
reproduction hinges on this distinction: the *abstract* wrapped ring
needs strong fairness, while Dijkstra's *concrete* refinements
converge under the raw unfair daemon — the refinement compresses away
exactly the co-location states whose scheduling needed fairness.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from ..core.state import State
from ..core.system import System
from .graph import strongly_connected_components

__all__ = ["find_fair_trap", "has_fair_divergence"]


def _enabled_actions_at(system: System, state: State) -> FrozenSet[str]:
    """Names of actions with a transition from ``state`` (anywhere).

    Transitions without recorded labels are treated as anonymous
    actions private to their edge, named by the edge itself — each is
    its own fairness obligation.
    """
    names: Set[str] = set()
    for target in system.successors(state):
        labels = system.labels_of(state, target)
        if labels:
            names |= labels
        else:
            names.add(f"<anon {state!r}->{target!r}>")
    return frozenset(names)


def _action_transitions_within(
    system: System, component: FrozenSet[State]
) -> Dict[str, bool]:
    """Map each action enabled in ``component`` to whether it has a
    transition staying inside ``component``."""
    sustained: Dict[str, bool] = {}
    for state in component:
        for action in _enabled_actions_at(system, state):
            sustained.setdefault(action, False)
        for target in system.successors(state):
            if target not in component:
                continue
            labels = system.labels_of(state, target) or frozenset(
                (f"<anon {state!r}->{target!r}>",)
            )
            for action in labels:
                sustained[action] = True
    return sustained


def find_fair_trap(
    system: System, states: Iterable[State]
) -> Optional[FrozenSet[State]]:
    """Find a strongly-fair divergent trap within ``states``, if any.

    The search runs in levels.  The first level is the non-trivial
    components of ``states``; the next is the non-trivial components of
    what the discard step leaves of the current level's unfair ones.
    The first level with a fair component returns the one whose
    ``repr``-least state is least.  The trap therefore depends only on
    the graph, not on how ``states`` iterates: any ``states`` holding
    the same cycles, such as an engine's witness region, gives the same
    trap.

    Args:
        system: the automaton (with transition labels; unlabelled
            transitions are treated as private anonymous actions).
        states: the candidate region (typically the complement of the
            legitimate core).

    Returns:
        A set of states supporting a strongly fair infinite run that
        never leaves the region, or ``None`` when every strongly fair
        computation must exit the region (i.e. converges).
    """
    level: List[FrozenSet[State]] = [frozenset(states)]
    while level:
        fair: List[FrozenSet[State]] = []
        next_level: List[FrozenSet[State]] = []
        for region in level:
            for component in strongly_connected_components(system, region):
                # Only components that can sustain an infinite run matter.
                if len(component) == 1:
                    (only,) = component
                    if not system.has_transition(only, only):
                        continue
                sustained = _action_transitions_within(system, component)
                broken = {action for action, ok in sustained.items() if not ok}
                if not broken:
                    fair.append(component)
                    continue
                survivors = frozenset(
                    state
                    for state in component
                    if not (_enabled_actions_at(system, state) & broken)
                )
                if survivors and survivors != component:
                    next_level.append(survivors)
        if fair:
            return min(fair, key=lambda component: min(map(repr, component)))
        level = next_level
    return None


def has_fair_divergence(system: System, states: Iterable[State]) -> bool:
    """Boolean form of :func:`find_fair_trap`."""
    return find_fair_trap(system, states) is not None
