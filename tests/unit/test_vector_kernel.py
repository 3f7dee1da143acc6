"""Unit tests for the vector engine's kernels, fixpoints, and fallback.

Engine selection and fallback reasons, the packed kernel's memo
eviction, and the array kernel and fixpoint parity with the packed
kernel.
"""

from __future__ import annotations

import pytest

from repro.checker import check_self_stabilization, check_stabilization
from repro.gcl.action import GuardedAction
from repro.gcl.daemon import CentralDaemon, SynchronousDaemon
from repro.gcl.domain import EnumDomain, IntRange, ModularDomain
from repro.gcl.expr import Add, AddMod, And, Const, Eq, Lt, Var
from repro.gcl.program import Program
from repro.gcl.variable import Variable
from repro.kernel import PackedKernel, StateInterner, image_codes
from repro.kernel.vector import (
    MAX_VECTOR_CELLS,
    unlowerable_reason,
    vector_fallback_reason,
)
from repro.obs import Recorder
from repro.rings import (
    btr3_abstraction,
    btr4_abstraction,
    btr_program,
    btrk_abstraction,
    dijkstra_three_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)
from tests.packed_rung import unlowerable


class TestClearMemo:
    def test_clear_memo_counts_and_resets(self):
        kernel = PackedKernel.from_program(dijkstra_three_state(3))
        before = [kernel.successors(code) for code in range(5)]
        assert kernel.clear_memo() == 5
        assert kernel.clear_memo() == 0
        assert [kernel.successors(code) for code in range(5)] == before

    @pytest.mark.usefixtures("packed_rung")
    def test_checker_evicts_abstract_memo_between_phases(self):
        recorder = Recorder()
        result = check_stabilization(
            dijkstra_three_state(3), btr_program(3), btr3_abstraction(3),
            engine="packed", instrumentation=recorder,
        )
        assert result.holds
        counters = recorder.record().counters
        assert counters.get("kernel.memo.evictions", 0) > 0

    @pytest.mark.usefixtures("packed_rung")
    def test_self_stabilization_shares_the_kernel_and_keeps_its_memo(self):
        recorder = Recorder()
        check_self_stabilization(
            dijkstra_three_state(3), engine="packed",
            instrumentation=recorder,
        )
        assert "kernel.memo.evictions" not in recorder.record().counters


class TestFallbackReasons:
    def test_non_central_daemon_has_no_lowering(self):
        reason = unlowerable_reason(utr_program(3), SynchronousDaemon())
        assert reason is not None and "daemon" in reason

    def test_central_daemon_rings_all_lower(self):
        for program in (
            utr_program(4),
            btr_program(4),
            dijkstra_three_state(4),
            kstate_program(4, 4),
        ):
            assert unlowerable_reason(program, CentralDaemon()) is None

    def test_non_integer_domain_refuses(self):
        program = Program(
            "strings",
            [Variable("x", EnumDomain(("a", "b")))],
            [GuardedAction("nop", Eq(Var("x"), Var("x")), {"x": Var("x")})],
        )
        reason = unlowerable_reason(program)
        assert reason is not None and "domain" in reason

    def test_cell_ceiling_refuses(self):
        variables = [Variable(f"v{i}", ModularDomain(8)) for i in range(10)]
        program = Program(
            "huge", variables,
            [GuardedAction("nop", Eq(Var("v0"), Var("v0")), {"v0": Var("v0")})],
        )
        assert program.schema().size() * (1 + 10) > MAX_VECTOR_CELLS
        reason = unlowerable_reason(program)
        assert reason is not None and "ceiling" in reason

    def test_vector_falls_back_to_packed_with_reason(self):
        concrete = unlowerable(dijkstra_three_state(3))
        reason = vector_fallback_reason(concrete)
        assert reason is not None
        recorder = Recorder()
        result = check_stabilization(
            concrete, btr_program(3), btr3_abstraction(3),
            engine="vector", instrumentation=recorder,
        )
        assert result.holds
        record = recorder.record()
        assert record.counters.get("engine.fallback.packed") == 1
        assert record.counters.get("engine.packed") == 1
        assert "engine.vector" not in record.counters
        events = [
            event for event in record.events if event.name == "engine.fallback"
        ]
        assert events and events[0].fields["requested"] == "vector"
        assert events[0].fields["reason"] == reason


class TestVectorKernelParity:
    @pytest.mark.parametrize(
        "program",
        [dijkstra_three_state(3), kstate_program(3, 3), btr_program(3)],
        ids=["dijkstra3", "kstate3", "btr3"],
    )
    def test_program_lowering_matches_packed_successors(self, program):
        from repro.kernel.vector import VectorKernel

        vector = VectorKernel.from_program(program)
        packed = PackedKernel.from_program(program)
        assert vector.initial_codes == packed.initial_codes
        for code in range(packed.size):
            assert vector.successors(code) == packed.successors(code), code

    def test_system_wrapping_matches_packed_successors(self):
        from repro.kernel.vector import VectorKernel

        system = dijkstra_three_state(3).compile()
        vector = VectorKernel.from_system(system)
        packed = PackedKernel.from_system(system)
        for code in range(packed.size):
            assert vector.successors(code) == packed.successors(code), code

    def test_succ_pairs_dedups_and_sorts(self):
        import numpy as np

        from repro.kernel.vector import as_vector_kernel

        kernel = as_vector_kernel(dijkstra_three_state(3))
        codes = np.arange(kernel.size, dtype=np.int64)
        origins, targets = kernel.succ_pairs(codes)
        keys = origins * kernel.size + targets
        assert bool((np.diff(keys) > 0).all())

    def test_has_edge_agrees_with_successor_sets(self):
        import numpy as np

        from repro.kernel.vector import as_vector_kernel

        kernel = as_vector_kernel(kstate_program(3, 3))
        for source in range(kernel.size):
            successors = set(kernel.successors(source))
            targets = np.arange(kernel.size, dtype=np.int64)
            sources = np.full(kernel.size, source, dtype=np.int64)
            flags = kernel.has_edge(sources, targets)
            assert {int(t) for t in targets[flags]} == successors

    def test_out_of_domain_write_raises_compile_programs_error(self):
        from repro.core.errors import GCLError
        from repro.kernel.vector import VectorKernel

        program = Program(
            "overflow",
            [Variable("x", IntRange(0, 2))],
            [
                GuardedAction(
                    "inc", Lt(Var("x"), Const(5)),
                    {"x": Add(Var("x"), Const(1))},
                )
            ],
        )
        packed = PackedKernel.from_program(program)
        with pytest.raises(GCLError) as packed_error:
            packed.successors(packed.interner.size - 1)
        with pytest.raises(GCLError) as vector_error:
            VectorKernel.from_program(program)
        assert str(vector_error.value) == str(packed_error.value)

    def test_out_of_domain_errors_name_tuples_first_state(self):
        """Every engine names the first offending state in code order,
        then the first action there: ``a1`` at ``y=1 x=2``, although
        ``a0``, listed first, also leaves the domain at ``y=4 x=2``."""
        from repro.core.errors import GCLError
        from repro.gcl.parser import parse_program
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        program = parse_program(
            "program overflow\n"
            "var y : 1..4\n"
            "var x : 0..2\n"
            "action a0 :: x == 2 --> x := 1, y := y + 1\n"
            "action a1 :: x < 5 --> x := x + 1\n"
        )
        errors = []
        for build in (
            program.compile,
            lambda: VectorKernel.from_program(program),
            lambda: SharedKernel(program),
            lambda: SharedKernel(program, chunk=5),
        ):
            with pytest.raises(GCLError) as raised:
                build()
            errors.append(str(raised.value))
        assert errors == [errors[0]] * 4
        assert errors[0].startswith(
            "program 'overflow': action(s) ('a1',) drive the state out of "
            "domain from y=1 x=2"
        )


class TestSweepFreeValidation:
    """Every K-state action reads two variables, so its support table has
    at most K² rows and validation reads out-of-domain writes off the
    tables: no checked batch of codes is ever evaluated."""

    @pytest.fixture
    def checked_batches(self, monkeypatch):
        from repro.kernel.vector.lower import LoweredProgram

        stream = LoweredProgram._stream
        batches = []

        def spy(self, *args):
            if args[-1] is not None:  # the offenders list of a checked batch
                batches.append(int(args[0].shape[0]))
            return stream(self, *args)

        monkeypatch.setattr(LoweredProgram, "_stream", spy)
        return batches

    def test_shared_kernel_construction_evaluates_no_checked_batch(
        self, checked_batches
    ):
        from repro.kernel.shared import SharedKernel, using_memory_budget

        with using_memory_budget("2M"):
            kernel = SharedKernel(kstate_program(7, 8))
        assert kernel.size == 8**7
        assert checked_batches == []

    def test_vector_lowering_evaluates_no_checked_batch(self, checked_batches):
        from repro.kernel.vector import VectorKernel

        kernel = VectorKernel.from_program(kstate_program(5, 5))
        assert kernel.size == 5**5
        assert checked_batches == []

    def test_untabled_actions_are_swept(self, checked_batches):
        """An action whose support outgrows the batch has no table, so
        validation sweeps the space batch by batch for it."""
        from repro.gcl.parser import parse_program
        from repro.kernel.shared import SharedKernel

        program = parse_program(
            "program wide\n"
            "var a : 0..9\n"
            "var b : 0..9\n"
            "action n0 :: a == 9 --> a := 0\n"
            "action w1 :: a + b > 20 --> a := a + b\n"
        )
        SharedKernel(program, chunk=50)
        assert checked_batches == [50, 50]


def _with_init(init):
    """A two-variable program whose only variation is its init.  ``x``
    climbs from 1 to 3; at ``x == 0`` only ``y`` spins, a fair trap
    wherever the init leaves ``x == 0`` out."""
    return Program(
        "initp",
        [Variable("x", IntRange(0, 3)), Variable("y", ModularDomain(3))],
        [
            GuardedAction(
                "up",
                And(Lt(Const(0), Var("x")), Lt(Var("x"), Const(3))),
                {"x": Add(Var("x"), Const(1))},
            ),
            GuardedAction(
                "spin", Eq(Var("x"), Const(0)), {"y": AddMod(Var("y"), Const(1), 3)}
            ),
        ],
        init=init,
    )


INITS = {
    "predicate": Lt(Var("y"), Var("x")),
    "explicit": [{"x": 2, "y": 1}, {"x": 1, "y": 0}, {"x": 3, "y": 2}],
    "none": None,
    "true": Const(True),
}


class TestLoweredInit:
    """A boolean init predicate is lowered and swept in batches; every
    other init keeps the scalar path, and its exact error."""

    @staticmethod
    def _kernels(program):
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        return VectorKernel.from_program(program), SharedKernel(program, chunk=5)

    @pytest.mark.parametrize("kind", sorted(INITS))
    def test_initial_codes_are_the_sorted_initial_states(self, kind):
        program = _with_init(INITS[kind])
        encode = StateInterner(program.schema()).encode
        expected = tuple(sorted(encode(state) for state in program.initial_states()))
        for kernel in self._kernels(program):
            assert kernel.initial_codes == expected

    @pytest.mark.parametrize("kind", ["predicate", "true"])
    def test_lowered_predicate_never_enumerates_scalar_states(self, kind, monkeypatch):
        program = _with_init(INITS[kind])
        # Under strong fairness the fair-trap search materializes the
        # system (the predicate case fails with a fair trap).
        expected = check_self_stabilization(
            program, fairness="strong", engine="tuple"
        ).format()

        def refuse(self):
            raise AssertionError("scalar initial-state scan")

        monkeypatch.setattr(Program, "initial_states", refuse)
        for kernel in self._kernels(program):
            kernel.materialize()
        for engine in ("vector", "shared"):
            assert check_self_stabilization(
                program, fairness="strong", engine=engine
            ).format() == expected

    def test_non_boolean_predicate_raises_the_scalar_error(self):
        from repro.core.errors import GCLError

        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        program = _with_init(Add(Var("x"), Const(1)))
        with pytest.raises(GCLError) as scalar:
            list(program.initial_states())
        for build in (VectorKernel.from_program, SharedKernel):
            with pytest.raises(GCLError) as lowered:
                build(program)
            assert str(lowered.value) == str(scalar.value)

    def test_parsed_kstate_checks_like_the_unparsed_ring(self):
        from repro.gcl import parse_program, render_program

        ring = kstate_program(6, 6)
        parsed = parse_program(render_program(ring))
        assert parsed.init_predicate is not None
        # Same program and name; only the init is a predicate now.
        ring = ring.with_actions(ring.actions, name=parsed.name)
        assert check_self_stabilization(parsed, engine="vector").format() == (
            check_self_stabilization(ring, engine="vector").format()
        )


class TestVectorFixpointParity:
    def test_reachable_matches_packed(self):
        import numpy as np

        from repro.kernel import codes_of_flags, packed_reachable
        from repro.kernel.vector import as_vector_kernel, vector_reachable

        program = kstate_program(3, 3)
        packed = PackedKernel.from_program(program)
        vector = as_vector_kernel(program)
        packed_flags = packed_reachable(
            packed.successors, packed.initial_codes, packed.size
        )
        vector_flags = vector_reachable(vector, vector.initial_array)
        assert list(codes_of_flags(packed_flags)) == [
            int(code) for code in np.nonzero(vector_flags)[0]
        ]

    def test_terminals_match_packed(self):
        import numpy as np

        from repro.kernel import packed_terminals
        from repro.kernel.vector import as_vector_kernel, vector_terminals

        program = dijkstra_three_state(3)
        packed = PackedKernel.from_program(program)
        vector = as_vector_kernel(program)
        everywhere = bytearray(b"\x01") * packed.size
        region = np.ones(vector.size, dtype=bool)
        assert packed_terminals(packed.successors, everywhere) == [
            int(code) for code in vector_terminals(vector, region)
        ]

    def test_cycle_detection_matches_packed(self):
        import numpy as np

        from repro.kernel import packed_has_cycle
        from repro.kernel.vector import as_vector_kernel, vector_has_cycle

        program = dijkstra_three_state(3)
        packed = PackedKernel.from_program(program)
        vector = as_vector_kernel(program)
        everywhere = bytearray(b"\x01") * packed.size
        region = np.ones(vector.size, dtype=bool)
        assert vector_has_cycle(vector, region) == packed_has_cycle(
            packed.successors, everywhere
        )


def _counter_program(*extra: GuardedAction) -> Program:
    """``x`` in 0..3 counting up to 3, plus ``extra`` actions."""
    return Program(
        "counter",
        [Variable("x", IntRange(0, 3))],
        [
            GuardedAction(
                "inc", Lt(Var("x"), Const(3)),
                {"x": Add(Var("x"), Const(1))},
            ),
            *extra,
        ],
    )


class _TableImage:
    """A dense image table behind ``SharedImage``'s ``of`` interface."""

    def __init__(self, table):
        self.table = table

    def of(self, codes):
        return self.table[codes]


def _shared_peel(program, members, drop_self=False, keep_stutter=True):
    """``(shared_has_cycle, shared_longest_path)`` of ``program`` over
    the codes flagged in ``members``, one code per batch."""
    import numpy as np

    from repro.kernel.shared import (
        BitField,
        SharedKernel,
        open_runtime,
        shared_has_cycle,
        shared_longest_path,
    )

    kernel = SharedKernel(program, keep_stutter=keep_stutter)
    region = BitField(kernel.size)
    region.set_codes(np.flatnonzero(np.asarray(members, dtype=bool)))
    with open_runtime(kernel) as runtime:
        runtime.chunk = 1
        return (
            shared_has_cycle(kernel, region, runtime, drop_self),
            shared_longest_path(kernel, region, runtime, drop_self),
        )


class TestForwardPeel:
    """Both forward peels read each action as an edge multiset: the
    vector one from its tables, the shared one from the streamed
    kernel."""

    def _both_kernels(self, program, keep_stutter=True):
        from repro.kernel.vector import VectorKernel

        return (
            VectorKernel.from_program(program, keep_stutter=keep_stutter),
            VectorKernel.from_system(program.compile(keep_stutter=keep_stutter)),
        )

    def test_duplicate_edges_keep_the_levels(self):
        """``jump`` repeats ``inc``'s move 0 -> 1: in-degree 2 at 1 must
        drop to 0, or the peel would report a cycle."""
        import numpy as np

        from repro.checker.convergence import _longest_path_within
        from repro.kernel.vector import vector_has_cycle, vector_longest_path

        program = _counter_program(
            GuardedAction("jump", Eq(Var("x"), Const(0)), {"x": Const(1)})
        )
        tables, csr = self._both_kernels(program)
        system = program.compile()
        for members in ([True, True, True, False], [True] * 4):
            region = np.asarray(members, dtype=bool)
            outside = frozenset(
                state
                for state, member in zip(system.schema.states(), members)
                if member
            )
            expected = max(_longest_path_within(system, outside).values())
            assert expected == 3
            for kernel in (tables, csr):
                assert vector_longest_path(kernel, region) == expected
                assert not vector_has_cycle(kernel, region)
            assert _shared_peel(program, members) == (False, expected)

    def test_kept_stutter_self_loop_is_a_cycle(self):
        import numpy as np

        from repro.kernel.vector import vector_has_cycle, vector_longest_path

        program = _counter_program(
            GuardedAction("stay", Eq(Var("x"), Const(0)), {"x": Const(0)})
        )
        members = [True] * 4
        region = np.ones(4, dtype=bool)
        for kernel in self._both_kernels(program, keep_stutter=True):
            assert vector_has_cycle(kernel, region, drop_self=False)
            assert vector_longest_path(kernel, region, drop_self=False) is None
            assert not vector_has_cycle(kernel, region, drop_self=True)
            assert vector_longest_path(kernel, region, drop_self=True) == 3
        assert _shared_peel(program, members, drop_self=False) == (True, None)
        assert _shared_peel(program, members, drop_self=True) == (False, 3)
        for kernel in self._both_kernels(program, keep_stutter=False):
            assert not vector_has_cycle(kernel, region)
            assert vector_longest_path(kernel, region) == 3
        assert _shared_peel(program, members, keep_stutter=False) == (False, 3)

    def test_image_keeps_only_invisible_cycles(self):
        """0 -> 1 -> 2 -> 3 -> 0 is a cycle, but the image table makes
        1 -> 2 and 3 -> 0 visible, so no invisible cycle remains."""
        import numpy as np

        from repro.kernel.shared import (
            BitField,
            SharedKernel,
            open_runtime,
            shared_has_cycle,
        )
        from repro.kernel.vector import vector_has_cycle

        program = _counter_program(
            GuardedAction("wrap", Eq(Var("x"), Const(3)), {"x": Const(0)})
        )
        image_of = np.asarray([0, 0, 1, 1], dtype=np.int64)
        region = np.ones(4, dtype=bool)
        for kernel in self._both_kernels(program):
            assert vector_has_cycle(kernel, region)
            assert not vector_has_cycle(kernel, region, image_of=image_of)
        kernel = SharedKernel(program)
        flags = BitField(kernel.size)
        flags.set_codes(np.arange(4, dtype=np.int64))
        with open_runtime(kernel) as runtime:
            assert shared_has_cycle(kernel, flags, runtime)
            assert not shared_has_cycle(
                kernel, flags, runtime, image=_TableImage(image_of)
            )

    def test_program_without_actions_has_no_edges(self):
        import numpy as np

        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import vector_has_cycle, vector_longest_path

        program = Program("idle", [Variable("x", IntRange(0, 3))], [])
        region = np.ones(4, dtype=bool)
        for kernel in (*self._both_kernels(program), SharedKernel(program)):
            origins, targets = kernel.succ_pairs(np.arange(4))
            assert origins.size == targets.size == 0
        for kernel in self._both_kernels(program):
            assert not vector_has_cycle(kernel, region)
            assert vector_longest_path(kernel, region) == 0
        assert _shared_peel(program, [True] * 4) == (False, 0)


def _image_table(concrete, abstract, alpha):
    """The whole-space image table, as the vector engine builds it."""
    import numpy as np

    from repro.kernel.shared import SharedImage

    image = SharedImage(concrete, abstract, alpha)
    return image.of(np.arange(concrete.size, dtype=np.int64))


class TestVectorImageTables:
    @pytest.mark.parametrize(
        "alpha,spec",
        [
            (utr_abstraction(4, 4), utr_program(4)),
            (btr3_abstraction(4), btr_program(4)),
            (btr4_abstraction(3), btr_program(3)),
            (btrk_abstraction(3, 5), btr_program(3)),
        ],
        ids=["utr", "btr3", "btr4", "btrk"],
    )
    def test_batch_tables_equal_scalar_tables(self, alpha, spec):
        import numpy as np

        concrete = StateInterner(alpha.concrete_schema)
        abstract = StateInterner(spec.schema())
        scalar = np.asarray(
            image_codes(concrete, abstract, alpha), dtype=np.int64
        )
        assert np.array_equal(
            scalar, _image_table(concrete, abstract, alpha)
        )

    def test_identity_is_an_arange(self):
        import numpy as np

        interner = StateInterner(utr_program(3).schema())
        table = _image_table(interner, interner, None)
        assert np.array_equal(table, np.arange(interner.size))

    def test_mismatched_schema_encodes_minus_one_like_scalar(self):
        import numpy as np

        alpha = utr_abstraction(4, 3)
        concrete = StateInterner(alpha.concrete_schema)
        abstract = StateInterner(btr_program(4).schema())
        scalar = np.asarray(
            image_codes(concrete, abstract, alpha), dtype=np.int64
        )
        assert np.array_equal(
            scalar, _image_table(concrete, abstract, alpha)
        )

    def test_hookless_abstraction_falls_back_to_the_scalar_loop(self):
        import numpy as np

        from repro.core.abstraction import AbstractionFunction

        schema = utr_program(3).schema()
        alpha = AbstractionFunction(
            schema, schema, lambda state: state, name="opaque"
        )
        assert alpha.array_mapping is None
        concrete = StateInterner(schema)
        table = _image_table(concrete, concrete, alpha)
        assert np.array_equal(table, np.arange(concrete.size))
