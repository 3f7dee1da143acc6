"""Unit tests for daemons and program compilation."""

import pytest

from repro.core.errors import GCLError
from repro.gcl.action import GuardedAction
from repro.gcl.daemon import CentralDaemon, DistributedDaemon, SynchronousDaemon
from repro.gcl.domain import IntRange, ModularDomain
from repro.gcl.expr import Add, Const, Eq, Lt, Ne, Var
from repro.gcl.program import Program
from repro.gcl.semantics import compile_program, compile_states, program_moves
from repro.gcl.variable import Variable


@pytest.fixture
def two_counter_program():
    """Two counters that each tick toward 2 independently."""
    variables = [Variable("a", ModularDomain(3)), Variable("b", ModularDomain(3))]
    actions = [
        GuardedAction("tick.a", Ne(Var("a"), Const(2)), {"a": Add(Var("a"), Const(1))}),
        GuardedAction("tick.b", Ne(Var("b"), Const(2)), {"b": Add(Var("b"), Const(1))}),
    ]
    return Program("ticks", variables, actions, init=[{"a": 0, "b": 0}])


class TestCentralDaemon:
    def test_interleaves_one_action_per_step(self, two_counter_program):
        system = two_counter_program.compile(CentralDaemon())
        assert system.successors((0, 0)) == frozenset({(1, 0), (0, 1)})

    def test_labels_record_the_action(self, two_counter_program):
        system = two_counter_program.compile()
        assert system.labels_of((0, 0), (1, 0)) == frozenset({"tick.a"})

    def test_terminal_when_no_guard_holds(self, two_counter_program):
        system = two_counter_program.compile()
        assert system.is_terminal((2, 2))

    def test_initial_states_carried_over(self, two_counter_program):
        system = two_counter_program.compile()
        assert system.initial == frozenset({(0, 0)})


class TestSynchronousDaemon:
    def test_all_enabled_fire_together(self, two_counter_program):
        system = two_counter_program.compile(SynchronousDaemon())
        assert system.successors((0, 0)) == frozenset({(1, 1)})

    def test_single_enabled_action(self, two_counter_program):
        system = two_counter_program.compile(SynchronousDaemon())
        assert system.successors((2, 1)) == frozenset({(2, 2)})

    def test_name_gets_daemon_suffix(self, two_counter_program):
        system = two_counter_program.compile(SynchronousDaemon())
        assert "synchronous" in system.name

    def test_program_order_resolves_write_conflicts(self):
        variables = [Variable("x", IntRange(0, 5))]
        actions = [
            GuardedAction("first", Const(True), {"x": Const(1)}),
            GuardedAction("second", Const(True), {"x": Const(2)}),
        ]
        program = Program("conflict", variables, actions, init=[{"x": 0}])
        system = program.compile(SynchronousDaemon())
        assert system.successors((0,)) == frozenset({(2,)})


class TestDistributedDaemon:
    def test_includes_singletons_and_pairs(self, two_counter_program):
        system = two_counter_program.compile(DistributedDaemon(max_concurrency=2))
        assert system.successors((0, 0)) == frozenset({(1, 0), (0, 1), (1, 1)})

    def test_concurrency_one_equals_central(self, two_counter_program):
        central = two_counter_program.compile(CentralDaemon())
        distributed = two_counter_program.compile(
            DistributedDaemon(max_concurrency=1), name="ticks"
        )
        assert central == distributed

    def test_rejects_non_positive_concurrency(self):
        with pytest.raises(ValueError):
            DistributedDaemon(0)


class TestCompilationGuards:
    def test_out_of_domain_write_is_a_compile_error(self):
        variables = [Variable("x", IntRange(0, 1))]
        actions = [
            GuardedAction("grow", Lt(Var("x"), Const(5)), {"x": Add(Var("x"), Const(1))})
        ]
        program = Program("boom", variables, actions, init=[{"x": 0}])
        with pytest.raises(GCLError, match="out of domain"):
            compile_program(program)

    def test_keep_stutter_flag(self):
        """``compile_program`` keeps stuttering moves; ``compile_states``
        leaves them out on request, as ``without_self_loops`` does."""
        variables = [Variable("x", IntRange(0, 1))]
        actions = [GuardedAction("idle", Eq(Var("x"), Const(0)), {"x": Const(0)})]
        program = Program("idle", variables, actions, init=[{"x": 0}])
        with_stutter = compile_program(program)
        without = compile_states(program, [(0,), (1,)], keep_stutter=False)
        assert with_stutter.has_transition((0,), (0,))
        assert not without.has_transition((0,), (0,))
        assert without == with_stutter.without_self_loops()

    def test_explicit_name_override(self, two_counter_program):
        system = two_counter_program.compile(name="custom")
        assert system.name == "custom"


class TestProgramMovesErrors:
    """Only a schema's own ``StateSpaceError`` reads as an
    out-of-domain write; any other fault of ``pack`` surfaces as is."""

    def test_out_of_domain_action_is_named(self):
        variables = [Variable("x", IntRange(0, 1))]
        actions = [GuardedAction("grow", Const(True), {"x": Const(2)})]
        program = Program("boom", variables, actions, init=[{"x": 0}])
        with pytest.raises(GCLError, match="drive the state out of domain"):
            list(program_moves(program, CentralDaemon(), (0,)))

    def test_memory_error_in_pack_is_not_an_input_error(
        self, two_counter_program, monkeypatch
    ):
        from repro.core.state import StateSchema

        def exhausted(self, assignment):
            raise MemoryError("no room for the successor")

        monkeypatch.setattr(StateSchema, "pack", exhausted)
        with pytest.raises(MemoryError, match="no room for the successor"):
            list(program_moves(two_counter_program, CentralDaemon(), (0, 0)))
