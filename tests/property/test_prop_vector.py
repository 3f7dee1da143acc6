"""Property-based differential testing of the vector engine.

The same random small guarded-command programs that drive
``test_prop_kernel`` drive the vector engine against both references:
the lowered successor tables must agree with the packed kernel code
for code, the frontier-array fixpoints must compute the bitset sets
exactly, and the full verdicts — stabilization and convergence
refinement, witness rendering included — must be byte-identical across
all three engines.  The fallback property (a vector request for a
program the vector engine cannot lower renders the same verdict on the
packed rung) reaches the packed kernel through engine selection.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_convergence_refinement, check_self_stabilization
from repro.kernel import PackedKernel, codes_of_flags, packed_reachable
from repro.obs import Recorder
from tests.packed_rung import unlowerable
from tests.property.test_prop_kernel import MODULUS, VAR_NAMES, small_programs
from tests.property.test_prop_shared import offset_programs

#: Codes in the state space of every ``small_programs`` program.
SPACE = MODULUS ** len(VAR_NAMES)

#: Subregions: uniformly random, or all but a few codes (which keeps
#: the cycles of the whole space, so both verdicts get drawn).
regions = st.one_of(
    st.lists(st.booleans(), min_size=SPACE, max_size=SPACE),
    st.sets(st.integers(min_value=0, max_value=SPACE - 1), max_size=3).map(
        lambda excluded: [code not in excluded for code in range(SPACE)]
    ),
)

#: Image tables: none, a projection onto one variable's digit (edges
#: moving only the other variable are invisible), or random.
images = st.one_of(
    st.none(),
    st.sampled_from(
        [
            [code // MODULUS for code in range(SPACE)],
            [code % MODULUS for code in range(SPACE)],
        ]
    ),
    st.lists(
        st.integers(min_value=0, max_value=MODULUS - 1),
        min_size=SPACE,
        max_size=SPACE,
    ),
)


class TestVectorPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_lowered_successors_match_packed(self, program):
        from repro.kernel.vector import VectorKernel

        vector = VectorKernel.from_program(program)
        packed = PackedKernel.from_program(program)
        assert vector.initial_codes == packed.initial_codes
        for code in range(packed.size):
            assert vector.successors(code) == packed.successors(code), code

    @settings(max_examples=40, deadline=None)
    @given(offset_programs())
    def test_lowered_successors_match_packed_on_offset_domains(self, program):
        """The codec's sorted inverse, off the identity fast path."""
        from repro.kernel.vector import VectorKernel

        vector = VectorKernel.from_program(program)
        packed = PackedKernel.from_program(program)
        assert vector.initial_codes == packed.initial_codes
        for code in range(packed.size):
            assert vector.successors(code) == packed.successors(code), code

    @settings(max_examples=40, deadline=None)
    @given(
        small_programs(),
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=SPACE - 1), unique=True),
    )
    def test_bridges_equal_the_compiler(self, program, keep_stutter, picked):
        """Both array kernels' table-backed ``materialize()`` and
        ``compile(states)`` are the scalar compiler's systems: the same
        pairs in the same order, labels, initial iteration and name."""
        from repro.gcl.semantics import compile_states
        from repro.kernel import StateInterner
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        decode = StateInterner(program.schema()).decode
        states = [decode(code) for code in picked]
        whole = program.compile(keep_stutter=keep_stutter)
        part = compile_states(program, states, keep_stutter=keep_stutter, initial=())
        for kernel in (
            VectorKernel.from_program(program, keep_stutter=keep_stutter),
            SharedKernel(program, keep_stutter=keep_stutter, chunk=4),
        ):
            for bridged, system in (
                (kernel.materialize(), whole),
                (kernel.compile(states), part),
            ):
                pairs = list(system.transitions())
                assert list(bridged.transitions()) == pairs
                assert [bridged.labels_of(*pair) for pair in pairs] == [
                    system.labels_of(*pair) for pair in pairs
                ]
                assert list(bridged.initial) == list(system.initial)
                assert bridged.name == system.name

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_vector_reachable_equals_packed_reachable(self, program):
        import numpy as np

        from repro.kernel.vector import as_vector_kernel, vector_reachable

        packed = PackedKernel.from_program(program)
        vector = as_vector_kernel(program)
        flags = packed_reachable(
            packed.successors, packed.initial_codes, packed.size
        )
        vector_flags = vector_reachable(vector, vector.initial_array)
        assert list(codes_of_flags(flags)) == [
            int(code) for code in np.nonzero(vector_flags)[0]
        ]

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_vector_terminals_and_cycles_match_packed(self, program):
        import numpy as np

        from repro.kernel import packed_has_cycle, packed_terminals
        from repro.kernel.vector import (
            as_vector_kernel,
            vector_has_cycle,
            vector_terminals,
        )

        packed = PackedKernel.from_program(program)
        vector = as_vector_kernel(program)
        everywhere = bytearray(b"\x01") * packed.size
        region = np.ones(vector.size, dtype=bool)
        assert packed_terminals(packed.successors, everywhere) == [
            int(code) for code in vector_terminals(vector, region)
        ]
        assert vector_has_cycle(vector, region) == packed_has_cycle(
            packed.successors, everywhere
        )


    @settings(max_examples=80, deadline=None)
    @given(small_programs(), regions, st.booleans(), images)
    def test_forward_peel_matches_the_references(
        self, program, members, drop_self, images
    ):
        """On random subregions, both kernel forms: the peel's worst
        case equals the tuple engine's DFS, and its cycle verdict the
        packed DFS's, on image-invisible edges too."""
        import numpy as np

        from repro.checker.convergence import _longest_path_within
        from repro.kernel import packed_has_cycle
        from repro.kernel.vector import (
            VectorKernel,
            vector_has_cycle,
            vector_longest_path,
        )

        system = program.compile()
        packed = PackedKernel.from_program(program)
        region = np.asarray(members, dtype=bool)
        image_of = None if images is None else np.asarray(images, dtype=np.int64)

        def analysed(code):
            return [
                target
                for target in packed.successors(code)
                if not (drop_self and target == code)
                and (image_of is None or image_of[target] == image_of[code])
            ]

        expected_cycle = packed_has_cycle(analysed, bytearray(members))
        outside = frozenset(
            packed.interner.decode(int(code)) for code in np.nonzero(region)[0]
        )
        depth = _longest_path_within(
            system.without_self_loops() if drop_self else system, outside
        )
        expected_steps = (
            None if depth is None else max(depth.values(), default=0)
        )
        for kernel in (
            VectorKernel.from_program(program),
            VectorKernel.from_system(system),
        ):
            assert (
                vector_has_cycle(kernel, region, drop_self, image_of)
                == expected_cycle
            )
            if image_of is None:
                assert (
                    vector_longest_path(kernel, region, drop_self)
                    == expected_steps
                )


class TestVectorVerdicts:
    @settings(max_examples=25, deadline=None)
    @given(small_programs())
    def test_self_stabilization_verdict_identical(self, program):
        """End to end across all three engines, witness states included."""
        verdicts = {
            engine: check_self_stabilization(
                program, compute_steps=False, engine=engine
            )
            for engine in ("tuple", "packed", "vector")
        }
        assert (
            verdicts["vector"].format()
            == verdicts["packed"].format()
            == verdicts["tuple"].format()
        )
        assert verdicts["vector"].core == verdicts["tuple"].core
        assert (
            verdicts["vector"].legitimate_abstract
            == verdicts["tuple"].legitimate_abstract
        )

    @settings(max_examples=15, deadline=None)
    @given(small_programs(), small_programs())
    def test_convergence_refinement_verdict_identical(self, concrete, spec):
        tuple_verdict = check_convergence_refinement(
            concrete, spec, engine="tuple"
        )
        vector_verdict = check_convergence_refinement(
            concrete, spec, engine="vector"
        )
        assert tuple_verdict.format() == vector_verdict.format()

    @settings(max_examples=15, deadline=None)
    @given(small_programs(), small_programs())
    def test_stutter_insensitive_refinement_identical(self, concrete, spec):
        tuple_verdict = check_convergence_refinement(
            concrete, spec, stutter_insensitive=True, engine="tuple"
        )
        vector_verdict = check_convergence_refinement(
            concrete, spec, stutter_insensitive=True, engine="vector"
        )
        assert tuple_verdict.format() == vector_verdict.format()

    @settings(max_examples=15, deadline=None)
    @given(small_programs())
    def test_unlowerable_program_falls_back_to_the_packed_rung(self, program):
        """A vector request for a program vector cannot lower falls
        back to the packed rung and renders the vector verdict of the
        equivalent lowerable program."""
        recorder = Recorder()
        fallback_verdict = check_self_stabilization(
            unlowerable(program), compute_steps=False, engine="vector",
            instrumentation=recorder,
        )
        vector_verdict = check_self_stabilization(
            program, compute_steps=False, engine="vector"
        )
        assert fallback_verdict.engine == "packed"
        assert fallback_verdict.format() == vector_verdict.format()
        assert recorder.record().counters["engine.fallback.packed"] == 1
