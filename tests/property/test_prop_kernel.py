"""Property-based differential testing of the packed kernel engine.

Random small guarded-command programs (same generator design as
``test_prop_parallel``) drive the packed engine against the tuple
engine: interning must round-trip every state in enumeration order,
the lowered successor kernel must agree with the compiled transition
table, the bitset fixpoints must compute the tuple sets exactly, and
the full stabilization verdict, witness rendering included, must be
byte-identical.  ``engine="packed"`` is served by vector, so the
verdict tests reach the packed kernel through
:func:`tests.packed_rung.packed_rung`.  Refinement has no packed rung:
there the refused vector request must replay on the tuple reference,
say why, and render the reference's verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_convergence_refinement, check_self_stabilization
from repro.gcl.action import GuardedAction
from repro.gcl.domain import ModularDomain
from repro.gcl.expr import AddMod, Const, Eq, Ne, Var
from repro.gcl.program import Program
from repro.gcl.variable import Variable
from repro.kernel import (
    PackedKernel,
    StateInterner,
    codes_of_flags,
    packed_reachable,
    packed_terminals,
)
from repro.obs import Recorder
from tests.packed_rung import PACKED_RUNG_REASON, packed_rung

MODULUS = 3
VAR_NAMES = ("u", "w.0")


@st.composite
def small_programs(draw):
    """Random well-typed two-variable programs over ``mod 3``."""
    n_actions = draw(st.integers(min_value=1, max_value=3))
    actions = []
    for index in range(n_actions):
        guard_var = draw(st.sampled_from(VAR_NAMES))
        guard_value = draw(st.integers(min_value=0, max_value=MODULUS - 1))
        guard_kind = draw(st.sampled_from([Eq, Ne]))
        target = draw(st.sampled_from(VAR_NAMES))
        effect = draw(
            st.one_of(
                st.integers(min_value=0, max_value=MODULUS - 1).map(Const),
                st.sampled_from(
                    [AddMod(Var(name), Const(1), MODULUS) for name in VAR_NAMES]
                ),
            )
        )
        actions.append(
            GuardedAction(
                f"act.{index}",
                guard_kind(Var(guard_var), Const(guard_value)),
                {target: effect},
            )
        )
    variables = [Variable(name, ModularDomain(MODULUS)) for name in VAR_NAMES]
    init = Eq(Var("u"), Const(0))
    return Program("fuzzed", variables, actions, init=init)


class TestPackedPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_interning_round_trips_in_enumeration_order(self, program):
        schema = program.schema()
        interner = StateInterner(schema)
        for code, state in enumerate(schema.states()):
            assert interner.encode(state) == code
            assert interner.decode(code) == state

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_kernel_successors_match_the_compiled_table(self, program):
        kernel = PackedKernel.from_program(program)
        system = program.compile()
        for code, state in enumerate(system.schema.states()):
            expected = sorted(
                kernel.interner.encode(s) for s in system.successors(state)
            )
            assert list(kernel.successors(code)) == expected

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_packed_reachable_equals_tuple_reachable(self, program):
        kernel = PackedKernel.from_program(program)
        system = program.compile()
        flags = packed_reachable(
            kernel.successors, kernel.initial_codes, kernel.size
        )
        decoded = {kernel.interner.decode(c) for c in codes_of_flags(flags)}
        assert decoded == set(system.reachable())

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_packed_terminals_equal_tuple_terminals(self, program):
        kernel = PackedKernel.from_program(program)
        system = program.compile()
        everywhere = bytearray(b"\x01") * kernel.size
        decoded = {
            kernel.interner.decode(c)
            for c in packed_terminals(kernel.successors, everywhere)
        }
        expected = {
            state
            for state in system.schema.states()
            if system.is_terminal(state)
        }
        assert decoded == expected


class TestPackedVerdicts:
    @settings(max_examples=25, deadline=None)
    @given(small_programs())
    def test_self_stabilization_verdict_identical(self, program):
        """End to end: the full decision procedure renders the same
        verdict — witness states included — on both engines."""
        tuple_verdict = check_self_stabilization(
            program, compute_steps=False, engine="tuple"
        )
        with packed_rung():
            packed_verdict = check_self_stabilization(
                program, compute_steps=False, engine="packed"
            )
        assert tuple_verdict.format() == packed_verdict.format()
        assert tuple_verdict.core == packed_verdict.core
        assert (
            tuple_verdict.legitimate_abstract
            == packed_verdict.legitimate_abstract
        )

    @settings(max_examples=25, deadline=None)
    @given(small_programs(), small_programs())
    def test_convergence_refinement_verdict_identical(self, concrete, spec):
        _assert_refinement_replays_on_tuple(concrete, spec, False)

    @settings(max_examples=15, deadline=None)
    @given(small_programs(), small_programs())
    def test_stutter_insensitive_refinement_identical(self, concrete, spec):
        _assert_refinement_replays_on_tuple(concrete, spec, True)


def _assert_refinement_replays_on_tuple(concrete, spec, stutter):
    tuple_verdict = check_convergence_refinement(
        concrete, spec, stutter_insensitive=stutter, engine="tuple"
    )
    recorder = Recorder()
    with packed_rung():
        packed_verdict = check_convergence_refinement(
            concrete, spec, stutter_insensitive=stutter, engine="packed",
            instrumentation=recorder,
        )
    assert tuple_verdict.format() == packed_verdict.format()
    record = recorder.record()
    assert "engine.packed" not in record.counters
    assert record.counters["engine.fallback.tuple"] == 1
    assert any(
        event.fields["reason"] == PACKED_RUNG_REASON
        for event in record.events
        if event.name == "engine.fallback"
    )
