"""Unit tests for the packed successor kernel and engine selection.

The contract: a kernel lowered straight from a program produces
exactly the successor codes the compiled transition table holds under
the central daemon, with and without the self-loops that weak and
strong fairness drop, raising the compiler's exact errors; its
``compile(codes, drop_self)`` is the compiled system's restriction,
successor iteration order and labels included; and the checkers'
engine selection emits the ``engine.*`` counters, falls back with a
reason where packing cannot apply, and rejects unknown engines the way
the CLI rejects a bad flag.  Other daemons reach the kernels as
compiled systems (``from_system``).
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
from repro.gcl.daemon import CentralDaemon
from repro.kernel import (
    PackedKernel,
    StateInterner,
    as_kernel,
    drop_self_loops,
    packed_fallback_reason,
)
from repro.obs import Recorder
from repro.rings import (
    btr3_abstraction,
    btr_program,
    c3_composed,
    dijkstra_three_state,
    kstate_program,
)
from tests.packed_rung import PACKED_RUNG_REASON

#: Programs lower to kernels under the central daemon only.
DAEMONS = [("central", lambda: CentralDaemon())]

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
    @pytest.mark.parametrize("drop_self", [True, False])
    def test_kernel_matches_compiled_table(
        self, pname, build, dname, daemon, drop_self
    ):
        program = build()
        kernel = PackedKernel.from_program(program)
        system = program.compile(daemon=daemon())
        interner = kernel.interner
        assert kernel.name == system.name == program.name
        assert sorted(kernel.initial_codes) == sorted(
            interner.encode(state) for state in system.initial
        )
        successors = kernel.successors
        if drop_self:
            successors = drop_self_loops(successors)
            system = system.without_self_loops()
        for code, state in enumerate(system.schema.states()):
            expected = sorted(
                interner.encode(s) for s in system.successors(state)
            )
            assert list(successors(code)) == expected

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
    @pytest.mark.parametrize("drop_self", [True, False])
    def test_compile_keeps_each_sources_successor_order(
        self, dname, daemon, drop_self
    ):
        """Compiling a few states gives each of them the successor set
        of the full compilation, iterating in the same order — or, with
        ``drop_self``, that of its ``without_self_loops``.  Cycle
        witnesses depend on this."""
        program = kstate_program(3, 3)
        kernel = PackedKernel.from_program(program)
        full = program.compile(daemon=daemon())
        codes = range(0, full.schema.size(), 3)
        states = [kernel.interner.decode(code) for code in codes]
        part = kernel.compile(codes, drop_self)
        assert part.name == full.name
        assert part.initial == frozenset()
        whole = full.without_self_loops() if drop_self else full
        for state in states:
            assert list(part.successors(state)) == list(whole.successors(state))

    def test_array_kernels_compile_like_packed(self):
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        program = dijkstra_three_state(3)
        codes = range(1, program.schema().size(), 4)
        packed = PackedKernel.from_program(program)
        states = [packed.interner.decode(code) for code in codes]
        expected = packed.compile(codes)
        for kernel in (VectorKernel.from_program(program), SharedKernel(program)):
            part = kernel.compile(codes)
            assert part.name == expected.name
            for state in states:
                assert list(part.successors(state)) == list(
                    expected.successors(state)
                )

    def test_from_system_compiles_to_the_wrapped_system(self):
        system = btr_program(3).compile()
        kernel = PackedKernel.from_system(system)
        assert kernel.compile([0]) is system
        assert kernel.compile([0], drop_self=True) == system.without_self_loops()
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


def _sample(pname, program):
    """A third of ``program``'s codes, in a fixed shuffled order."""
    import random

    space = program.schema().size()
    return random.Random(pname).sample(range(space), space // 3)


BRIDGE_CASES = BRIDGE_PROGRAMS + [("mixed-writes", _mixed_writes)]
BRIDGE_IDS = [p[0] for p in BRIDGE_CASES]


class TestTupleBridges:
    """The array kernels' ``materialize()`` and ``compile(codes,
    drop_self)`` are read off their action tables, and must be the
    scalar compiler's systems exactly: witnesses, the fair trap and the
    refinement witnesses iterate them."""

    @staticmethod
    def _kernels(program):
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        return (VectorKernel.from_program(program), SharedKernel(program))

    @pytest.mark.parametrize("drop_self", [True, False])
    @pytest.mark.parametrize("pname,build", BRIDGE_CASES, ids=BRIDGE_IDS)
    def test_bridges_equal_the_compiler(self, pname, build, drop_self):
        from repro.gcl.semantics import compile_states

        program = build()
        compiled = program.compile()
        codes = _sample(pname, program)
        states = StateInterner(program.schema()).decode_array(codes)
        part = compile_states(
            program, states, keep_stutter=not drop_self, initial=()
        )
        for kernel in self._kernels(program):
            _assert_same_system(kernel.materialize(), compiled)
            _assert_same_system(kernel.compile(codes, drop_self), part)

    @pytest.mark.parametrize("pname,build", BRIDGE_CASES, ids=BRIDGE_IDS)
    def test_drop_self_compiles_without_self_loops(self, pname, build):
        """``compile(codes, drop_self=True)`` is
        ``compile(codes).without_self_loops()`` on every kernel, built
        from a program or from its compiled system: the same sources,
        each iterating its successors in the same order, and the same
        labels."""
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        program = build()
        system = program.compile()
        codes = _sample(pname, program)
        kernels = {
            "packed": PackedKernel.from_program(program),
            "packed-system": PackedKernel.from_system(system),
            "vector": VectorKernel.from_program(program),
            "vector-system": VectorKernel.from_system(system),
            "shared": SharedKernel(program),
        }
        for name, kernel in kernels.items():
            dropped = kernel.compile(codes, drop_self=True)
            expected = kernel.compile(codes).without_self_loops()
            pairs = list(expected.transitions())
            assert repr(list(dropped.transitions())) == repr(pairs), name
            assert [dropped.labels_of(*pair) for pair in pairs] == [
                expected.labels_of(*pair) for pair in pairs
            ], name
            assert dropped.initial == expected.initial, name

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
