"""Unit tests for repro.core.system."""

import random

import pytest

from repro.core.errors import StateSpaceError
from repro.core.state import StateSchema
from repro.core.system import System, successors_closure


@pytest.fixture
def schema():
    return StateSchema({"v": (0, 1, 2, 3)})


@pytest.fixture
def diamond(schema):
    """0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; initial 0; 3 terminal."""
    return System(
        schema,
        [((0,), (1,)), ((0,), (2,)), ((1,), (3,)), ((2,), (3,))],
        initial=[(0,)],
        name="diamond",
        labels={((0,), (1,)): ["left"], ((0,), (2,)): ["right"]},
    )


class TestConstruction:
    def test_accepts_mapping_form(self, schema):
        system = System(schema, {(0,): [(1,), (2,)]}, initial=[(0,)])
        assert system.transition_count() == 2

    def test_rejects_invalid_transition_state(self, schema):
        with pytest.raises(StateSpaceError):
            System(schema, [((0,), (9,))], initial=[])

    def test_rejects_invalid_initial_state(self, schema):
        with pytest.raises(StateSpaceError):
            System(schema, [], initial=[(9,)])

    def test_rejects_a_state_holding_another_type(self):
        # True equals the domain's 1 but is not the domain's value.
        bits = StateSchema({"v": (0, 1)})
        with pytest.raises(StateSpaceError):
            System(bits, [((0,), (True,))], initial=[(0,)])
        with pytest.raises(StateSpaceError):
            System(bits, [], initial=[(True,)])

    def test_empty_system_is_legal(self, schema):
        system = System(schema, [], initial=[])
        assert not system.enabled_anywhere()

    def test_duplicate_transitions_collapse(self, schema):
        system = System(schema, [((0,), (1,)), ((0,), (1,))], initial=[])
        assert system.transition_count() == 1


class TestAccessors:
    def test_successors(self, diamond):
        assert diamond.successors((0,)) == frozenset({(1,), (2,)})
        assert diamond.successors((3,)) == frozenset()

    def test_has_transition(self, diamond):
        assert diamond.has_transition((0,), (1,))
        assert not diamond.has_transition((1,), (0,))

    def test_transition_iteration_and_count(self, diamond):
        assert sorted(diamond.transitions()) == sorted(
            [((0,), (1,)), ((0,), (2,)), ((1,), (3,)), ((2,), (3,))]
        )
        assert diamond.transition_count() == 4

    def test_labels(self, diamond):
        assert diamond.labels_of((0,), (1,)) == frozenset({"left"})
        assert diamond.labels_of((1,), (3,)) == frozenset()

    def test_terminal_states(self, diamond):
        assert diamond.is_terminal((3,))
        assert not diamond.is_terminal((0,))
        assert diamond.terminal_states() == frozenset({(3,)})


class TestDerivedSystems:
    def test_with_initial_swaps_initial_only(self, diamond):
        other = diamond.with_initial([(1,)])
        assert other.initial == frozenset({(1,)})
        assert other.transition_count() == diamond.transition_count()

    def test_restricted_to_drops_cross_edges(self, diamond):
        sub = diamond.restricted_to([(0,), (1,)])
        assert sub.has_transition((0,), (1,))
        assert not sub.has_transition((0,), (2,))
        assert not sub.has_transition((1,), (3,))
        assert sub.initial == frozenset({(0,)})

    def test_restricted_keeps_labels_inside(self, diamond):
        sub = diamond.restricted_to([(0,), (1,)])
        assert sub.labels_of((0,), (1,)) == frozenset({"left"})

    def test_without_self_loops(self, schema):
        system = System(schema, [((0,), (0,)), ((0,), (1,))], initial=[])
        stripped = system.without_self_loops()
        assert not stripped.has_transition((0,), (0,))
        assert stripped.has_transition((0,), (1,))

    def test_reachable(self, diamond):
        assert diamond.reachable() == frozenset({(0,), (1,), (2,), (3,)})

    def test_reachable_from_subset(self, diamond):
        assert diamond.reachable_from([(1,)]) == frozenset({(1,), (3,)})


class TestComputations:
    def test_all_maximal_computations_of_diamond(self, diamond):
        runs = set(diamond.computations((0,), max_length=10))
        assert runs == {((0,), (1,), (3,)), ((0,), (2,), (3,))}

    def test_bounded_prefix_of_cycle(self, schema):
        system = System(schema, [((0,), (1,)), ((1,), (0,))], initial=[])
        runs = list(system.computations((0,), max_length=3))
        assert runs == [((0,), (1,), (0,))]

    def test_max_length_must_be_positive(self, diamond):
        with pytest.raises(ValueError):
            list(diamond.computations((0,), 0))

    def test_is_computation_maximal_vs_prefix(self, diamond):
        assert diamond.is_computation([(0,), (1,), (3,)])
        assert not diamond.is_computation([(0,), (1,)])
        assert diamond.is_computation([(0,), (1,)], require_maximal=False)

    def test_is_computation_rejects_non_transition(self, diamond):
        assert not diamond.is_computation([(0,), (3,)], require_maximal=False)

    def test_is_computation_rejects_empty_and_invalid(self, diamond):
        assert not diamond.is_computation([])
        assert not diamond.is_computation([(9,)], require_maximal=False)

    def test_random_computation_stops_at_terminal(self, diamond):
        run = diamond.random_computation((0,), 10, random.Random(0))
        assert run[0] == (0,)
        assert run[-1] == (3,)
        assert len(run) == 3


class TestEquality:
    def test_equality_ignores_name_and_labels(self, schema):
        a = System(schema, [((0,), (1,))], initial=[(0,)], name="a",
                   labels={((0,), (1,)): ["x"]})
        b = System(schema, [((0,), (1,))], initial=[(0,)], name="b")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_transitions(self, schema):
        a = System(schema, [((0,), (1,))], initial=[(0,)])
        b = System(schema, [((0,), (2,))], initial=[(0,)])
        assert a != b

    def test_inequality_on_initial(self, schema):
        a = System(schema, [((0,), (1,))], initial=[(0,)])
        b = System(schema, [((0,), (1,))], initial=[(1,)])
        assert a != b


class TestSuccessorsClosure:
    def test_distances(self, diamond):
        distances = successors_closure(diamond, (0,), max_depth=5)
        assert distances == {(0,): 0, (1,): 1, (2,): 1, (3,): 2}

    def test_depth_bound(self, diamond):
        distances = successors_closure(diamond, (0,), max_depth=1)
        assert (3,) not in distances

    def test_negative_depth_rejected(self, diamond):
        with pytest.raises(ValueError):
            successors_closure(diamond, (0,), -1)
