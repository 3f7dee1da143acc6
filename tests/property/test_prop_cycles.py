"""Property tests: the int-code SCC helpers against the tuple graph SCCs.

:func:`repro.kernel.cycles.cycle_codes` (trim, then an iterative
Tarjan) must find exactly the nodes :func:`repro.checker.graph.
states_on_cycles` finds on the same digraph — self-loops, isolated
nodes, cycles nested through shared nodes and several disjoint
components included — and exactly what its definition before
:func:`~repro.kernel.cycles.component_labels` existed found.  Two
nodes share a component label iff each reaches the other.  Edges
given as plain int lists and as int arrays must give the same answers.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.graph import states_on_cycles
from repro.core.state import StateSchema
from repro.core.system import System
from repro.kernel import cycles
from repro.kernel.cycles import component_labels, cycle_codes

NODES = 12


def _reference(edges):
    schema = StateSchema({"v": tuple(range(NODES))})
    system = System(
        schema, [((source,), (target,)) for source, target in edges], ()
    )
    return sorted(state[0] for state in states_on_cycles(system, schema.states()))


def _inputs(edges, arrays: bool):
    sources = [source for source, _ in edges]
    targets = [target for _, target in edges]
    if arrays:
        import numpy as np

        return (
            np.asarray(sources, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        )
    return sources, targets


def _helper(edges, arrays: bool):
    return cycle_codes(*_inputs(edges, arrays))


def _reaches(edges):
    """``(u, v)`` for every path of one or more edges from ``u`` to ``v``."""
    reach = set(edges)
    while True:
        longer = {
            (source, target)
            for source, middle in reach
            for step, target in edges
            if step == middle
        }
        if longer <= reach:
            return reach
        reach |= longer


def _previous_cycle_codes(sources, targets):
    """``cycle_codes`` as defined before the labelling: trim, then a
    recursive Tarjan that keeps components with more than one member or
    with a self-loop."""
    if not isinstance(sources, list):
        sources, targets = sources.tolist(), targets.tolist()
    while True:
        has_in, has_out = set(targets), set(sources)
        kept = [
            edge
            for edge in zip(sources, targets)
            if edge[0] in has_in and edge[1] in has_out
        ]
        if len(kept) == len(sources):
            break
        sources = [source for source, _ in kept]
        targets = [target for _, target in kept]
    adjacency = {}
    for source, target in zip(sources, targets):
        adjacency.setdefault(source, []).append(target)
    index, lowlink, stack, found = {}, {}, [], []

    def visit(node):
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        for successor in adjacency.get(node, []):
            if successor not in index:
                visit(successor)
                lowlink[node] = min(lowlink[node], lowlink[successor])
            elif successor in stack:
                lowlink[node] = min(lowlink[node], index[successor])
        if lowlink[node] == index[node]:
            component = stack[stack.index(node):]
            del stack[stack.index(node):]
            if len(component) > 1 or node in adjacency.get(node, []):
                found.extend(component)

    for root in adjacency:
        if root not in index:
            visit(root)
    return sorted(found)


_PATHS = [False, True]

node = st.integers(min_value=0, max_value=NODES - 1)


@st.composite
def digraphs(draw):
    """Random edges plus planted cycles, some sharing nodes."""
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        ring = draw(st.lists(node, min_size=1, max_size=5, unique=True))
        edges += list(zip(ring, ring[1:] + ring[:1]))
    return draw(st.permutations(edges))


@pytest.mark.parametrize("arrays", _PATHS)
@settings(max_examples=300, deadline=None)
@given(edges=digraphs())
def test_cycle_codes_match_states_on_cycles(edges, arrays):
    assert _helper(edges, arrays) == _reference(edges)


@pytest.mark.parametrize("arrays", _PATHS)
@settings(max_examples=300, deadline=None)
@given(edges=digraphs())
def test_cycle_codes_match_their_previous_definition(edges, arrays):
    assert _helper(edges, arrays) == _previous_cycle_codes(*_inputs(edges, arrays))


@pytest.mark.parametrize("arrays", _PATHS)
@settings(max_examples=300, deadline=None)
@given(edges=digraphs())
def test_labels_shared_iff_mutually_reachable(edges, arrays):
    """Clause 3 of convergence refinement rests on this: an edge
    ``(s, t)`` lies on a cycle iff ``s`` and ``t`` share a label."""
    labels = component_labels(*_inputs(edges, arrays))
    reach = _reaches(edges)
    for first in range(NODES):
        if (first, first) in reach:
            assert first in labels
        for second in range(NODES):
            if first == second:
                continue
            shared = (
                first in labels
                and second in labels
                and labels[first] == labels[second]
            )
            mutual = (first, second) in reach and (second, first) in reach
            assert shared == mutual, (first, second)


@pytest.mark.parametrize("arrays", _PATHS)
@settings(max_examples=200, deadline=None)
@given(edges=digraphs())
def test_trim_keeps_every_cycle_and_no_dead_end(edges, arrays):
    """The trim is the helper's speed: it must leave only nodes with an
    in-edge and an out-edge, and never drop an edge of a cycle."""
    kept = cycles._trimmed(*_inputs(edges, arrays))
    kept_edges = set(zip(*kept))
    on_cycle = set(_reference(edges))
    assert {
        edge for edge in edges if edge[0] in on_cycle and edge[1] in on_cycle
    } <= kept_edges
    assert set(kept[0]) == set(kept[1])


@pytest.mark.parametrize("arrays", _PATHS)
@pytest.mark.parametrize(
    "edges,expected",
    [
        ([], []),
        ([(3, 3)], [3]),  # a self-loop alone
        ([(0, 1), (1, 2)], []),  # a path, nodes 3.. isolated
        ([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], [0, 1, 2, 3]),  # two SCCs
        ([(0, 1), (1, 2), (2, 0), (1, 3), (3, 1)], [0, 1, 2, 3]),  # nested
        ([(5, 6), (6, 5), (0, 5), (6, 7), (7, 7)], [5, 6, 7]),  # tails trimmed
        ([(9, 10), (10, 9), (10, 9)], [9, 10]),  # duplicate edges
    ],
)
def test_cycle_codes_on_named_shapes(edges, expected, arrays):
    assert _helper(edges, arrays) == expected == _reference(edges)
