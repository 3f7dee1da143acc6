"""Unit tests for repro.core.state."""

import pytest

from repro.core.errors import SchemaMismatchError, StateSpaceError
from repro.core.state import StateSchema, StateSpace


@pytest.fixture
def schema():
    return StateSchema({"x": (0, 1), "y": (0, 1, 2)})


class TestStateSchemaConstruction:
    def test_rejects_empty_variable_set(self):
        with pytest.raises(ValueError):
            StateSchema({})

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            StateSchema({"x": ()})

    def test_rejects_duplicate_domain_values(self):
        with pytest.raises(ValueError):
            StateSchema({"x": (1, 1)})

    def test_preserves_declaration_order(self, schema):
        assert schema.names == ("x", "y")

    def test_size_is_domain_product(self, schema):
        assert schema.size() == 6

    def test_len_counts_variables(self, schema):
        assert len(schema) == 2

    def test_contains_variable_names(self, schema):
        assert "x" in schema
        assert "z" not in schema


class TestPackUnpack:
    def test_pack_orders_by_schema(self, schema):
        assert schema.pack({"y": 2, "x": 1}) == (1, 2)

    def test_pack_rejects_missing_variable(self, schema):
        with pytest.raises(StateSpaceError):
            schema.pack({"x": 0})

    def test_pack_rejects_unknown_variable(self, schema):
        with pytest.raises(StateSpaceError):
            schema.pack({"x": 0, "y": 0, "z": 0})

    def test_pack_rejects_out_of_domain(self, schema):
        with pytest.raises(StateSpaceError):
            schema.pack({"x": 5, "y": 0})

    def test_unpack_inverts_pack(self, schema):
        assignment = {"x": 1, "y": 2}
        assert schema.unpack(schema.pack(assignment)) == assignment

    def test_value_reads_single_component(self, schema):
        assert schema.value((1, 2), "y") == 2

    def test_replace_updates_one_component(self, schema):
        assert schema.replace((0, 0), y=2) == (0, 2)

    def test_replace_rejects_out_of_domain(self, schema):
        with pytest.raises(StateSpaceError):
            schema.replace((0, 0), y=9)

    def test_replace_rejects_unknown_name(self, schema):
        with pytest.raises(StateSpaceError):
            schema.replace((0, 0), z=1)

    def test_pack_stores_the_domain_value(self, schema):
        state = schema.pack({"x": True, "y": 2})
        assert state == (1, 2) and type(state[0]) is int

    def test_replace_stores_the_domain_value(self, schema):
        state = schema.replace((0, 0), x=True)
        assert state == (1, 0) and type(state[0]) is int


class TestValidation:
    def test_validate_accepts_member(self, schema):
        schema.validate((1, 2))

    def test_validate_rejects_wrong_arity(self, schema):
        with pytest.raises(StateSpaceError):
            schema.validate((1,))

    def test_validate_rejects_non_tuple(self, schema):
        with pytest.raises(StateSpaceError):
            schema.validate([1, 2])

    def test_validate_rejects_an_equal_value_of_another_type(self, schema):
        with pytest.raises(StateSpaceError, match="'x'=True is out of domain"):
            schema.validate((True, 0))

    def test_is_valid_boolean_form(self, schema):
        assert schema.is_valid((0, 0))
        assert not schema.is_valid((0, 9))


class TestEnumeration:
    def test_states_enumerates_full_space(self, schema):
        assert len(list(schema.states())) == 6

    def test_states_are_distinct(self, schema):
        states = list(schema.states())
        assert len(set(states)) == len(states)

    def test_every_enumerated_state_is_valid(self, schema):
        assert all(schema.is_valid(s) for s in schema.states())


class TestCompatibility:
    def test_equal_schemas_are_compatible(self, schema):
        other = StateSchema({"x": (0, 1), "y": (0, 1, 2)})
        assert schema.compatible_with(other)
        assert schema == other
        assert hash(schema) == hash(other)

    def test_different_domains_incompatible(self, schema):
        other = StateSchema({"x": (0, 1), "y": (0, 1)})
        assert not schema.compatible_with(other)

    def test_require_compatible_raises_with_context(self, schema):
        other = StateSchema({"z": (0, 1)})
        with pytest.raises(SchemaMismatchError, match="box test"):
            schema.require_compatible(other, "box test")

    def test_format_state_mentions_names(self, schema):
        assert schema.format_state((1, 2)) == "x=1 y=2"


class TestStateSpace:
    def test_len_matches_schema_size(self, schema):
        assert len(StateSpace(schema)) == 6

    def test_membership(self, schema):
        space = StateSpace(schema)
        assert (0, 2) in space
        assert (0, 9) not in space
        assert "nope" not in space

    def test_as_frozenset_is_cached_and_complete(self, schema):
        space = StateSpace(schema)
        first = space.as_frozenset()
        assert first is space.as_frozenset()
        assert len(first) == 6

    def test_sample_draws_valid_states(self, schema):
        import random

        space = StateSpace(schema)
        for state in space.sample(20, random.Random(1)):
            assert schema.is_valid(state)

    def test_sample_rejects_negative_count(self, schema):
        import random

        with pytest.raises(ValueError):
            StateSpace(schema).sample(-1, random.Random(1))

    def test_space_helper_on_schema(self, schema):
        assert isinstance(schema.space(), StateSpace)
