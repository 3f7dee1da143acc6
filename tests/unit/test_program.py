"""Unit tests for repro.gcl.program."""

import pytest

from repro.core.errors import GCLError
from repro.gcl.action import GuardedAction
from repro.gcl.domain import BoolDomain, ModularDomain
from repro.gcl.expr import Const, Eq, Ne, Var
from repro.gcl.process import Process
from repro.gcl.program import Program
from repro.gcl.variable import Variable


@pytest.fixture
def variables():
    return [Variable("x", ModularDomain(3)), Variable("b", BoolDomain())]


@pytest.fixture
def actions():
    return [
        GuardedAction("dec", Ne(Var("x"), Const(0)), {"x": Const(0)}),
        GuardedAction("flip", Var("b"), {"b": Const(False)}),
    ]


class TestConstruction:
    def test_rejects_duplicate_variables(self, actions):
        doubled = [Variable("x", ModularDomain(3)), Variable("x", ModularDomain(3))]
        with pytest.raises(GCLError):
            Program("p", doubled, [])

    def test_rejects_duplicate_action_names(self, variables):
        action = GuardedAction("a", Const(True), {"x": Const(0)})
        with pytest.raises(GCLError):
            Program("p", variables, [action, action])

    def test_rejects_undeclared_variables(self, variables):
        rogue = GuardedAction("a", Const(True), {"zz": Const(0)})
        with pytest.raises(GCLError):
            Program("p", variables, [rogue])

    def test_rejects_process_action_mismatch(self, variables, actions):
        process = Process("p0", ["x"], [], [actions[0]])  # misses "flip"
        with pytest.raises(GCLError):
            Program("p", variables, actions, processes=[process])

    def test_variable_lookup(self, variables, actions):
        program = Program("p", variables, actions)
        assert program.variable("x").domain == ModularDomain(3)
        with pytest.raises(KeyError):
            program.variable("zz")


class TestSchemaAndStates:
    def test_schema_follows_declaration_order(self, variables, actions):
        program = Program("p", variables, actions)
        assert program.schema().names == ("x", "b")
        assert program.schema().size() == 6

    def test_env_state_roundtrip(self, variables, actions):
        program = Program("p", variables, actions)
        env = {"x": 2, "b": True}
        assert program.env_of(program.state_of(env)) == env

    def test_enabled_actions(self, variables, actions):
        program = Program("p", variables, actions)
        enabled = program.enabled_actions(program.state_of({"x": 1, "b": False}))
        assert [a.name for a in enabled] == ["dec"]


class TestInitialStates:
    def test_predicate_init(self, variables, actions):
        program = Program(
            "p", variables, actions, init=Eq(Var("x"), Const(0))
        )
        initials = set(program.initial_states())
        assert initials == {(0, False), (0, True)}
        assert program.is_initial((0, True))
        assert not program.is_initial((1, True))

    def test_explicit_init(self, variables, actions):
        program = Program(
            "p", variables, actions, init=[{"x": 1, "b": False}]
        )
        assert set(program.initial_states()) == {(1, False)}
        assert program.is_initial((1, False))

    def test_no_init(self, variables, actions):
        program = Program("p", variables, actions, init=None)
        assert list(program.initial_states()) == []
        assert not program.is_initial((0, False))

    def test_non_boolean_predicate_rejected(self, variables, actions):
        program = Program("p", variables, actions, init=Var("x"))
        with pytest.raises(GCLError):
            list(program.initial_states())


class TestStructuralHelpers:
    def test_with_actions_replaces_list(self, variables, actions):
        program = Program("p", variables, actions, init=None)
        slim = program.with_actions(actions[:1], name="slim")
        assert len(slim.actions) == 1
        assert slim.name == "slim"

    def test_with_init_replaces_initial(self, variables, actions):
        program = Program("p", variables, actions, init=None)
        seeded = program.with_init([{"x": 0, "b": False}])
        assert list(seeded.initial_states()) == [(0, False)]

    def test_merged_with_concatenates_actions(self, variables, actions):
        base = Program("base", variables, actions[:1], init=None)
        wrap = Program("wrap", variables, actions[1:], init=None)
        merged = base.merged_with(wrap)
        assert [a.name for a in merged.actions] == ["dec", "flip"]
        assert merged.name == "base [] wrap"

    def test_merged_with_rejects_different_variables(self, variables, actions):
        other = Program("o", [Variable("x", ModularDomain(3))], [], init=None)
        base = Program("base", variables, actions, init=None)
        with pytest.raises(GCLError):
            base.merged_with(other)

    def test_merged_with_rejects_name_collision(self, variables, actions):
        base = Program("base", variables, actions, init=None)
        with pytest.raises(GCLError):
            base.merged_with(base)


class TestCompilation:
    def test_compile_validates_each_source_once(self, monkeypatch):
        """Unpacking a source validates it and packing a move's target
        checks its domains, so assembling the system validates nothing
        again: one ``validate`` call per state of the space."""
        from repro.core.state import StateSchema
        from repro.gcl.semantics import compile_program
        from repro.rings import kstate_program

        calls = []
        validate = StateSchema.validate

        def counting(schema, state):
            calls.append(state)
            return validate(schema, state)

        monkeypatch.setattr(StateSchema, "validate", counting)
        program = kstate_program(3, 3)
        system = compile_program(program)
        assert len(calls) == program.schema().size()
        assert any(True for _ in system.transitions())

    def test_explicit_initial_is_validated(self, variables, actions):
        from repro.core.errors import StateSpaceError
        from repro.gcl.semantics import compile_states

        program = Program("p", variables, actions, init=None)
        with pytest.raises(StateSpaceError):
            compile_states(program, [], initial=[(5, False)])


class TestDerivedSystems:
    """``with_name``, ``without_self_loops`` and ``restricted_to`` derive
    from an already-validated system, so they validate only caller
    input (``restricted_to``'s set, ``with_initial``'s states) and
    build exactly what the validating constructor builds."""

    @pytest.fixture
    def system(self):
        from repro.rings import c3_program

        # C3 takes stuttering steps, so without_self_loops drops edges.
        return c3_program(3).compile()

    @staticmethod
    def constructed(derived):
        from repro.core.system import System

        return System(
            derived.schema,
            {source: derived.successors(source) for source in derived.sources()},
            derived.initial,
            name=derived.name,
            labels={pair: derived.labels_of(*pair) for pair in derived.transitions()},
        )

    @staticmethod
    def count_validations(monkeypatch):
        from repro.core.state import StateSchema

        calls = []
        validate = StateSchema.validate

        def counting(schema, state):
            calls.append(state)
            return validate(schema, state)

        monkeypatch.setattr(StateSchema, "validate", counting)
        return calls

    def test_derivations_validate_only_caller_input(self, system, monkeypatch):
        keep = sorted(system.reachable(), key=repr)[:5]
        initial = sorted(system.initial, key=repr)[:1]
        calls = self.count_validations(monkeypatch)
        system.with_name("renamed")
        system.without_self_loops()
        assert calls == []
        system.restricted_to(keep)
        assert len(calls) == len(keep)
        system.with_initial(initial)
        assert len(calls) == len(keep) + len(initial)

    def test_derivations_equal_the_constructor_in_iteration_order(self, system):
        keep = set(list(system.sources())[::2])
        for derived in (
            system.with_name("renamed"),
            system.without_self_loops(),
            system.restricted_to(keep),
            system.with_initial(list(keep)[:2]),
        ):
            expected = self.constructed(derived)
            assert derived == expected
            assert list(derived.sources()) == list(expected.sources())
            for source in derived.sources():
                assert list(derived.successors(source)) == list(
                    expected.successors(source)
                )
            assert list(derived.initial) == list(expected.initial)

    def test_sources_left_without_successors_are_dropped(self):
        from repro.core.state import StateSchema
        from repro.core.system import System

        schema = StateSchema({"x": range(3)})
        a, b = (0,), (1,)
        system = System(schema, [(a, b), (b, b)], [a])
        restricted = system.restricted_to([a])
        assert list(restricted.sources()) == []
        assert not restricted.enabled_anywhere()
        no_stutter = system.without_self_loops()
        assert list(no_stutter.sources()) == [a]

    def test_caller_states_are_still_validated(self, system):
        from repro.core.errors import StateSpaceError

        with pytest.raises(StateSpaceError):
            system.restricted_to([(9, 9, 9)])
        with pytest.raises(StateSpaceError):
            system.with_initial([(9, 9, 9)])
