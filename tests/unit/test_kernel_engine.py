"""Unit tests for the packed successor kernel and engine selection.

The contract: a kernel lowered straight from a program produces
exactly the successor codes the compiled transition table holds, under
every daemon and ``keep_stutter`` mode, raising the compiler's exact
errors; and the checkers' engine selection emits the ``engine.*``
counters, falls back with a reason where packing cannot apply, and
rejects unknown engines the way the CLI rejects a bad flag.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import rings
from repro.checker import check_convergence_refinement, check_stabilization
from repro.checker.engines import ENGINES, engine_chain
from repro.core.errors import GCLError
from repro.core.state import StateSchema
from repro.core.system import System
from repro.gcl import parse_program
from repro.gcl.daemon import CentralDaemon, DistributedDaemon, SynchronousDaemon
from repro.kernel import PackedKernel, as_kernel, packed_fallback_reason
from repro.obs import Recorder
from repro.rings import (
    btr3_abstraction,
    btr_program,
    c3_composed,
    dijkstra_three_state,
    kstate_program,
)
from tests.packed_rung import PACKED_RUNG_REASON

DAEMONS = [
    ("central", lambda: CentralDaemon()),
    ("synchronous", lambda: SynchronousDaemon()),
    ("distributed-2", lambda: DistributedDaemon(max_concurrency=2)),
]

PROGRAMS = [
    ("btr", lambda: btr_program(3)),
    ("dijkstra3", lambda: dijkstra_three_state(3)),
    ("c3-composed", lambda: c3_composed(3)),
    ("kstate", lambda: kstate_program(3, 3)),
]


class TestSuccessorParity:
    @pytest.mark.parametrize(
        "pname,build", PROGRAMS, ids=[p[0] for p in PROGRAMS]
    )
    @pytest.mark.parametrize(
        "dname,daemon", DAEMONS, ids=[d[0] for d in DAEMONS]
    )
    @pytest.mark.parametrize("keep_stutter", [True, False])
    def test_kernel_matches_compiled_table(
        self, pname, build, dname, daemon, keep_stutter
    ):
        program = build()
        kernel = PackedKernel.from_program(
            program, daemon=daemon(), keep_stutter=keep_stutter
        )
        system = program.compile(daemon=daemon(), keep_stutter=keep_stutter)
        interner = kernel.interner
        assert kernel.name == system.name
        assert sorted(kernel.initial_codes) == sorted(
            interner.encode(state) for state in system.initial
        )
        for code, state in enumerate(system.schema.states()):
            expected = sorted(
                interner.encode(s) for s in system.successors(state)
            )
            assert list(kernel.successors(code)) == expected

    def test_from_system_round_trips(self):
        system = btr_program(3).compile()
        kernel = PackedKernel.from_system(system)
        for code, state in enumerate(system.schema.states()):
            assert [
                kernel.interner.decode(s) for s in kernel.successors(code)
            ] == sorted(system.successors(state))

    def test_materialize_equals_compile(self):
        """The kernel's materialized system is byte-identically the
        compiled one — witness construction depends on this."""
        program = dijkstra_three_state(3)
        kernel = PackedKernel.from_program(program)
        materialized = kernel.materialize()
        compiled = program.compile()
        assert materialized.name == compiled.name
        assert materialized.initial == compiled.initial
        assert set(materialized.transitions()) == set(compiled.transitions())

    @pytest.mark.parametrize(
        "dname,daemon", DAEMONS, ids=[d[0] for d in DAEMONS]
    )
    @pytest.mark.parametrize("keep_stutter", [True, False])
    def test_compile_keeps_each_sources_successor_order(
        self, dname, daemon, keep_stutter
    ):
        """Compiling a few states gives each of them the successor set
        of the full compilation, iterating in the same order — through
        ``without_self_loops`` too.  Cycle witnesses depend on this."""
        program = kstate_program(3, 3)
        kernel = PackedKernel.from_program(
            program, daemon=daemon(), keep_stutter=keep_stutter
        )
        full = program.compile(daemon=daemon(), keep_stutter=keep_stutter)
        states = list(full.schema.states())[::3]
        part = kernel.compile(states)
        assert part.name == full.name
        assert part.initial == frozenset()
        for system, whole in (
            (part, full),
            (part.without_self_loops(), full.without_self_loops()),
        ):
            for state in states:
                assert list(system.successors(state)) == list(
                    whole.successors(state)
                )

    def test_array_kernels_compile_like_packed(self):
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        program = dijkstra_three_state(3)
        states = list(program.schema().states())[1::4]
        expected = PackedKernel.from_program(program).compile(states)
        for kernel in (VectorKernel.from_program(program), SharedKernel(program)):
            part = kernel.compile(states)
            assert part.name == expected.name
            for state in states:
                assert list(part.successors(state)) == list(
                    expected.successors(state)
                )

    def test_from_system_compiles_to_the_wrapped_system(self):
        system = btr_program(3).compile()
        kernel = PackedKernel.from_system(system)
        assert kernel.compile([next(iter(system.schema.states()))]) is system
        assert kernel.materialize() is system

    def test_out_of_domain_move_raises_the_compilers_error(self):
        """A program whose action drives the state out of domain must
        raise through the kernel with the compiler's exact message."""
        from repro.gcl.action import GuardedAction
        from repro.gcl.domain import IntRange
        from repro.gcl.expr import Add, Const, Eq, Var
        from repro.gcl.program import Program
        from repro.gcl.variable import Variable

        bad = Program(
            "escaper",
            [Variable("x", IntRange(0, 2))],
            [GuardedAction("up", Eq(Var("x"), Const(2)), {"x": Add(Var("x"), Const(1))})],
            init=Eq(Var("x"), Const(0)),
        )
        with pytest.raises(GCLError) as compiled_err:
            bad.compile()
        kernel = PackedKernel.from_program(bad)
        code = kernel.interner.encode((2,))
        with pytest.raises(GCLError) as kernel_err:
            kernel.successors(code)
        assert str(kernel_err.value) == str(compiled_err.value)


def _c2_composed(n):
    return (
        rings.c2_program(n)
        .merged_with(rings.w1_local_program(n))
        .merged_with(rings.w2_refined_program(n), name="C2 [] W1'' [] W2'")
    )


#: Every ring family of ``repro.rings``, by the size of its ring.
RING_FAMILIES = {
    "btr": rings.btr_program,
    "btr3": rings.btr3_program,
    "btr4": rings.btr4_program,
    "c1": rings.c1_program,
    "c2-composed": _c2_composed,
    "c3": rings.c3_program,
    "c3-aggressive": rings.c3_aggressive_composed,
    "c3-composed": rings.c3_composed,
    "dijkstra3": rings.dijkstra_three_state,
    "dijkstra4": rings.dijkstra_four_state,
    "kstate": lambda n: rings.kstate_program(n, n),
    "utr": rings.utr_program,
}

SPEC_FILES = sorted(Path(__file__).resolve().parents[2].glob("examples/specs/*.gcl"))

BRIDGE_PROGRAMS = [
    (spec.name, lambda spec=spec: parse_program(spec.read_text()))
    for spec in SPEC_FILES
] + [
    (f"{family}-n{n}", lambda build=build, n=n: build(n))
    for family, build in sorted(RING_FAMILIES.items())
    for n in (3, 4)
]


def _mixed_writes():
    """Writes whose value type differs from the variable's domain, both
    ways: the scalar compiler keeps the written ``True``/``0``, not the
    domain's ``1``/``False``."""
    from repro.gcl.action import GuardedAction
    from repro.gcl.domain import BoolDomain, IntRange
    from repro.gcl.expr import Const, Eq, Not, Var
    from repro.gcl.program import Program
    from repro.gcl.variable import Variable

    return Program(
        "mixed",
        [Variable("x", IntRange(0, 1)), Variable("b", BoolDomain())],
        [
            GuardedAction("flag", Not(Var("b")), {"x": Eq(Var("x"), Const(0))}),
            GuardedAction("clear", Var("b"), {"b": Var("x"), "x": Const(0)}),
        ],
        init=Eq(Var("x"), Const(0)),
    )


def _assert_same_system(bridged: System, compiled: System) -> None:
    """Same pairs in the same order, the same labels, the same initial
    iteration and name; ``repr`` so a ``1`` never passes for ``True``."""
    pairs = list(compiled.transitions())
    assert repr(list(bridged.transitions())) == repr(pairs)
    assert [bridged.labels_of(*pair) for pair in pairs] == [
        compiled.labels_of(*pair) for pair in pairs
    ]
    assert repr(list(bridged.initial)) == repr(list(compiled.initial))
    assert bridged.name == compiled.name


class TestTupleBridges:
    """The array kernels' ``materialize()`` and ``compile(states)`` are
    read off their action tables, and must be the scalar compiler's
    systems exactly: witnesses, the fair trap and the refinement replay
    iterate them."""

    @staticmethod
    def _kernels(program, keep_stutter):
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        return (
            VectorKernel.from_program(program, keep_stutter=keep_stutter),
            SharedKernel(program, keep_stutter=keep_stutter),
        )

    @pytest.mark.parametrize("keep_stutter", [True, False])
    @pytest.mark.parametrize(
        "pname,build",
        BRIDGE_PROGRAMS + [("mixed-writes", _mixed_writes)],
        ids=[p[0] for p in BRIDGE_PROGRAMS] + ["mixed-writes"],
    )
    def test_bridges_equal_the_compiler(self, pname, build, keep_stutter):
        import random

        from repro.gcl.semantics import compile_states

        program = build()
        compiled = program.compile(keep_stutter=keep_stutter)
        space = list(program.schema().states())
        states = random.Random(pname).sample(space, len(space) // 3)
        part = compile_states(program, states, keep_stutter=keep_stutter, initial=())
        for kernel in self._kernels(program, keep_stutter):
            _assert_same_system(kernel.materialize(), compiled)
            _assert_same_system(kernel.compile(states), part)

    def test_shared_bridge_spans_several_chunks(self):
        from repro.kernel.shared import SharedKernel

        program = rings.kstate_program(4, 4)
        kernel = SharedKernel(program, chunk=50)
        _assert_same_system(kernel.materialize(), program.compile())


class TestEngineSelection:
    @pytest.mark.usefixtures("packed_rung")
    def test_packed_counter_on_selection(self):
        recorder = Recorder()
        check_stabilization(
            btr_program(3), btr_program(3), engine="packed",
            instrumentation=recorder,
        )
        record = recorder.record()
        assert record.counters["engine.packed"] == 1
        assert "engine.fallback.tuple" not in record.counters

    def test_no_engine_counters_on_tuple(self):
        recorder = Recorder()
        check_stabilization(
            btr_program(3), btr_program(3), engine="tuple",
            instrumentation=recorder,
        )
        assert not any(
            name.startswith("engine.") for name in recorder.record().counters
        )

    def test_unpackable_schema_falls_back_with_reason(self):
        wide = StateSchema({f"x{i}": (0, 1) for i in range(23)})
        states = list(wide.states())[:2]
        system = System(wide, [(states[0], states[1])], initial=[states[0]])
        assert packed_fallback_reason(system) is not None
        recorder = Recorder()
        # The chain alone: the tuple check itself would sweep 2^23 states.
        chain = engine_chain(
            "packed", system, system, None, ENGINES, recorder
        )
        assert chain == ("tuple",)
        record = recorder.record()
        assert record.counters["engine.fallback.tuple"] == 1
        events = [e for e in record.events if e.name == "engine.fallback"]
        assert events and events[0].fields["requested"] == "packed"

    @pytest.mark.parametrize("checkfn", [
        check_stabilization, check_convergence_refinement,
    ])
    def test_unknown_engine_rejected(self, checkfn):
        with pytest.raises(ValueError, match=r"unknown engine 'bogus'"):
            checkfn(btr_program(3), btr_program(3), engine="bogus")

    def test_campaign_config_rejects_unknown_engine(self):
        from repro.campaign import CampaignConfig
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError, match=r"unknown engine"):
            CampaignConfig(engine="bogus")

    @pytest.mark.usefixtures("packed_rung")
    def test_refinement_replay_emits_fallback(self):
        """Refinement has no packed rung: with vector refused, a packed
        request replays on the tuple engine and says why."""
        recorder = Recorder()
        result = check_convergence_refinement(
            dijkstra_three_state(3), btr_program(3), btr3_abstraction(3),
            engine="packed", instrumentation=recorder,
        )
        assert not result.holds
        record = recorder.record()
        assert "engine.packed" not in record.counters
        assert record.counters["engine.fallback.tuple"] == 1
        reasons = [
            event.fields["reason"]
            for event in record.events
            if event.name == "engine.fallback"
        ]
        assert PACKED_RUNG_REASON in reasons


class TestAsKernel:
    def test_program_and_system_views_agree(self):
        program = kstate_program(3, 3)
        from_program = as_kernel(program)
        from_system = as_kernel(program.compile())
        assert from_program.size == from_system.size
        for code in range(from_program.size):
            assert from_program.successors(code) == from_system.successors(code)
