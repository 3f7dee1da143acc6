"""Unit tests for the refinement relations (graph + definitional forms)."""

import pytest

from repro.core.refinement import (
    check_convergence_refinement,
    check_everywhere_refinement,
    check_init_refinement,
    compression_transitions,
    convergence_refines_on_computations,
    everywhere_refines_on_computations,
    expand_to_abstract_path,
    refines_init_on_computations,
)
from repro.core.state import StateSchema
from repro.core.system import System
from repro.checker.witnesses import WitnessKind


@pytest.fixture
def schema():
    return StateSchema({"v": tuple(range(6))})


def sys_of(schema, pairs, initial=((0,),), name="s"):
    return System(schema, [((a,), (b,)) for a, b in pairs], initial=initial, name=name)


@pytest.fixture
def abstract(schema):
    """0 -> 1 -> 2 -> 3 -> 0 (cycle) plus recovery edges 4 -> 2, 5 -> 4."""
    return sys_of(
        schema,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2), (5, 4)],
        name="A",
    )


class TestInitRefinement:
    def test_identical_system_refines(self, abstract):
        assert check_init_refinement(abstract, abstract).holds

    def test_subrelation_refines(self, schema, abstract):
        concrete = sys_of(schema, [(0, 1), (1, 2), (2, 3), (3, 0)], name="C")
        assert check_init_refinement(concrete, abstract).holds

    def test_unreachable_junk_is_ignored(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 1)], name="C"
        )
        assert check_init_refinement(concrete, abstract).holds

    def test_reachable_illegal_transition_fails(self, schema, abstract):
        concrete = sys_of(schema, [(0, 2)], name="C")
        result = check_init_refinement(concrete, abstract)
        assert not result.holds
        assert result.witness.kind is WitnessKind.ILLEGAL_TRANSITION

    def test_initial_state_must_map_into_abstract_initial(self, schema, abstract):
        concrete = sys_of(schema, [(1, 2)], initial=((1,),), name="C")
        assert not check_init_refinement(concrete, abstract).holds

    def test_premature_termination_fails_maximality(self, schema, abstract):
        concrete = sys_of(schema, [(0, 1)], name="C")  # halts at 1; A moves on
        result = check_init_refinement(concrete, abstract)
        assert not result.holds
        assert result.witness.kind is WitnessKind.BAD_TERMINAL

    def test_open_systems_skip_maximality(self, schema, abstract):
        concrete = sys_of(schema, [(0, 1)], name="C")
        assert check_init_refinement(concrete, abstract, open_systems=True).holds

    def test_agrees_with_definitional_oracle(self, schema, abstract):
        good = sys_of(schema, [(0, 1), (1, 2), (2, 3), (3, 0)], name="C")
        bad = sys_of(schema, [(0, 2)], name="C")
        assert refines_init_on_computations(good, abstract, max_length=8)
        assert not refines_init_on_computations(bad, abstract, max_length=8)


class TestEverywhereRefinement:
    def test_full_copy_everywhere_refines(self, abstract):
        assert check_everywhere_refinement(abstract, abstract).holds

    def test_init_only_refinement_is_not_everywhere(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 3)], name="C"
        )
        assert check_init_refinement(concrete, abstract).holds
        assert not check_everywhere_refinement(concrete, abstract).holds

    def test_terminal_mismatch_detected(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (5, 4)], name="C"
        )
        # state 4 is terminal in C but A can move 4 -> 2.
        result = check_everywhere_refinement(concrete, abstract)
        assert not result.holds
        assert result.witness.kind is WitnessKind.BAD_TERMINAL

    def test_agrees_with_definitional_oracle(self, schema, abstract):
        bad = sys_of(schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 3)], name="C")
        assert not everywhere_refines_on_computations(bad, abstract, max_length=6)
        assert everywhere_refines_on_computations(abstract, abstract, max_length=6)


class TestConvergenceRefinement:
    def test_everywhere_refinement_implies_convergence(self, schema, abstract):
        concrete = sys_of(schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2)], name="C")
        assert check_everywhere_refinement(concrete, abstract, open_systems=True).holds
        assert check_convergence_refinement(concrete, abstract, open_systems=True).holds

    def test_compression_off_cycle_is_accepted(self, schema, abstract):
        # C jumps 5 -> 2 where A goes 5 -> 4 -> 2: a one-shot compression.
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2), (5, 2)], name="C"
        )
        result = check_convergence_refinement(concrete, abstract)
        assert result.holds
        assert compression_transitions(concrete, abstract) == [((5,), (2,))]

    def test_same_image_step_is_never_a_compression(self):
        # 0 -> 0 has an abstract path back to 0 (0 -> 1 -> 0) but no
        # abstract self-loop: refinement rejects the step and no
        # abstract path expands it, so it compresses nothing.
        schema = StateSchema({"v": (0, 1, 2)})
        concrete = sys_of(schema, [(0, 0), (1, 0), (2, 0)], (), name="C")
        abstract = sys_of(schema, [(0, 1), (1, 0), (2, 0)], (), name="A")
        assert compression_transitions(concrete, abstract) == []
        result = check_convergence_refinement(concrete, abstract)
        assert not result.holds
        assert "no self-loop" in result.witness.message
        assert expand_to_abstract_path(((0,), (0,)), abstract) is None
        with_loop = sys_of(schema, [(0, 0), (0, 1), (1, 0), (2, 0)], (), name="A")
        assert compression_transitions(concrete, with_loop) == []

    def test_compression_on_cycle_is_rejected(self, schema):
        # A has two cycles: 0->1->2->0 and 3->4->5->3.  C follows the
        # first exactly but shortcuts the second (3->5), so from the
        # (unreachable, fault-entered) state 3 it compresses forever.
        abstract = sys_of(
            schema, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], name="A"
        )
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 0), (3, 5), (5, 3)], name="C"
        )
        result = check_convergence_refinement(concrete, abstract)
        assert not result.holds
        assert result.witness.kind is WitnessKind.COMPRESSION_ON_CYCLE

    def test_unrealizable_step_is_rejected(self, schema, abstract):
        # An unreachable transition (no initial states) whose image has
        # no realizing path: A cannot get from 2 back up to 5.
        concrete = sys_of(schema, [(2, 5)], initial=(), name="C")
        result = check_convergence_refinement(concrete, abstract, open_systems=True)
        assert not result.holds
        assert result.witness.kind is WitnessKind.NO_ABSTRACT_PATH

    def test_reachable_illegal_step_fails_init_clause(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 5)], name="C"
        )
        result = check_convergence_refinement(concrete, abstract)
        assert not result.holds
        assert result.witness.kind is WitnessKind.ILLEGAL_TRANSITION

    def test_strict_stutter_needs_abstract_self_loop(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 4), (4, 2), (5, 4)],
            name="C",
        )
        strict = check_convergence_refinement(concrete, abstract)
        assert not strict.holds
        relaxed = check_convergence_refinement(
            concrete, abstract, stutter_insensitive=True
        )
        assert relaxed.holds

    def test_agrees_with_definitional_oracle_positive(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 2), (5, 2)], name="C"
        )
        assert convergence_refines_on_computations(
            concrete, abstract, max_length=6
        )

    def test_agrees_with_definitional_oracle_negative(self, schema, abstract):
        concrete = sys_of(
            schema, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 5)], name="C"
        )
        assert not convergence_refines_on_computations(
            concrete, abstract, max_length=6
        )

    def test_schema_mismatch_without_alpha_raises(self, schema, abstract):
        from repro.core.errors import SchemaMismatchError

        other = System(StateSchema({"w": (0, 1)}), [], initial=[])
        with pytest.raises(SchemaMismatchError):
            check_convergence_refinement(other, abstract)


class TestExpandToAbstractPath:
    def test_exact_steps_pass_through(self, abstract):
        path = expand_to_abstract_path(((0,), (1,), (2,)), abstract)
        assert path == ((0,), (1,), (2,))

    def test_compression_is_expanded(self, schema, abstract):
        # concrete jumps 5 -> 2; the witness inserts the 4 in between.
        path = expand_to_abstract_path(((5,), (2,)), abstract)
        assert path == ((5,), (4,), (2,))

    def test_unrealizable_returns_none(self, schema, abstract):
        assert expand_to_abstract_path(((2,), (5,)), abstract) is None

    def test_stutters_skipped_in_stutter_mode(self, abstract):
        path = expand_to_abstract_path(
            ((0,), (0,), (1,)), abstract, stutter_insensitive=True
        )
        assert path == ((0,), (1,))

    def test_empty_sequence(self, abstract):
        assert expand_to_abstract_path((), abstract) is None
