"""Property-based differential testing of the shared-memory engine.

Random well-typed programs drive the streamed kernel against the
references: chunk-streamed successor enumeration must agree with the
vector kernel at *every* chunk size (streaming is a partition of the
work, never a change to it), the core fixpoint must compute the same
set bit for bit, and the full shared-engine stabilization
verdict — selected explicitly or upgraded from a ``--mem-budget``
context — must render byte-identically to the sequential tuple
engine.  Programs here use a mod-5 space (25 states) so they clear
``SHARED_MIN_STATES`` and the shared engine genuinely runs; the kernel
properties also draw offset-range programs, whose value tables are not
``0..radix-1``, and check out-of-domain errors against the tuple engine.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checker import check_self_stabilization
from repro.gcl.action import GuardedAction
from repro.gcl.domain import BoolDomain, IntRange, ModularDomain
from repro.gcl.expr import Add, AddMod, And, Const, Eq, Ite, Lt, Ne, Not, Var
from repro.gcl.program import Program
from repro.gcl.variable import Variable
from repro.kernel.shared import SHARED_MIN_STATES, using_memory_budget
from repro.obs import Recorder
from tests.packed_rung import unlowerable
from tests.unit.test_vector_kernel import _TableImage

MODULUS = 5
VAR_NAMES = ("u", "w.0")


#: The peel property's space: 64,000 states, so one level of the peel
#: can outgrow the 64 KiB resident cap of its code runs and spill.
PEEL_MODULUS = 40
PEEL_VAR_NAMES = ("u", "v", "w")


@st.composite
def shared_programs(draw, modulus=MODULUS, var_names=VAR_NAMES, max_actions=3):
    """Random programs over modular variables — by default two mod-5
    variables, 25 states, large enough that a shared-engine request is
    honoured, small enough to cross-check exhaustively."""
    n_actions = draw(st.integers(min_value=1, max_value=max_actions))
    actions = []
    for index in range(n_actions):
        guard_var = draw(st.sampled_from(var_names))
        guard_value = draw(st.integers(min_value=0, max_value=modulus - 1))
        guard_kind = draw(st.sampled_from([Eq, Ne]))
        target = draw(st.sampled_from(var_names))
        effect = draw(
            st.one_of(
                st.integers(min_value=0, max_value=modulus - 1).map(Const),
                st.sampled_from(
                    [AddMod(Var(name), Const(1), modulus) for name in var_names]
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
    variables = [Variable(name, ModularDomain(modulus)) for name in var_names]
    init = Eq(Var("u"), Const(0))
    return Program("fuzzed", variables, actions, init=init)


#: The offset space: two ``2..6`` ranges, whose value tables are not
#: ``0..radix-1``, and a bool — 50 states.
OFFSET_LOW, OFFSET_HIGH = 2, 6
OFFSET_INTS = ("u", "w.0")
OFFSET_FLAG = "b"


@st.composite
def offset_programs(draw, overflow=False):
    """Random programs over offset ranges and a bool, so the codec's
    sorted inverse (not the identity fast path) maps values to digits.
    With ``overflow`` every integer write is an unguarded increment,
    which leaves the range from the top value."""
    values = st.integers(min_value=OFFSET_LOW, max_value=OFFSET_HIGH)
    n_actions = draw(st.integers(min_value=1, max_value=3))
    actions = []
    for index in range(n_actions):
        guard_var = Var(draw(st.sampled_from(OFFSET_INTS)))
        guard = draw(
            st.sampled_from(
                [
                    Eq(guard_var, Const(draw(values))),
                    Ne(guard_var, Const(draw(values))),
                    Var(OFFSET_FLAG),
                    Not(Var(OFFSET_FLAG)),
                ]
            )
        )
        target = draw(st.sampled_from(OFFSET_INTS + (OFFSET_FLAG,)))
        if target == OFFSET_FLAG:
            effects = [
                Not(Var(OFFSET_FLAG)),
                Const(draw(st.booleans())),
                Eq(Var(draw(st.sampled_from(OFFSET_INTS))), Const(draw(values))),
            ]
        else:
            step = Add(Var(target), Const(1))
            effects = [step] if overflow else [
                Const(draw(values)),
                Var(draw(st.sampled_from(OFFSET_INTS))),
                Ite(Lt(Var(target), Const(OFFSET_HIGH)), step, Const(OFFSET_LOW)),
            ]
        actions.append(
            GuardedAction(
                f"act.{index}", guard, {target: draw(st.sampled_from(effects))}
            )
        )
    variables = [
        Variable(name, IntRange(OFFSET_LOW, OFFSET_HIGH)) for name in OFFSET_INTS
    ] + [Variable(OFFSET_FLAG, BoolDomain())]
    init = Eq(Var("u"), Const(OFFSET_LOW))
    return Program("offset", variables, actions, init=init)


#: n0 reads one 5-valued variable and w1 two, so a 5-code batch tables
#: n0 and evaluates w1 directly.  w1 first leaves the range at u=4
#: w.0=6, in code order below every state where n0 does (u=6).
_DIRECT_OFFENDS_FIRST = Program(
    "direct-first",
    [Variable(name, IntRange(OFFSET_LOW, OFFSET_HIGH)) for name in OFFSET_INTS],
    [
        GuardedAction(
            "n0", Eq(Var("u"), Const(OFFSET_HIGH)), {"u": Add(Var("u"), Const(1))}
        ),
        GuardedAction(
            "w1",
            Lt(Const(9), Add(Var("u"), Var("w.0"))),
            {"u": Add(Var("u"), Var("w.0"))},
        ),
    ],
)


class TestSharedPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(shared_programs(), offset_programs()),
        st.integers(min_value=3, max_value=40),
    )
    def test_streamed_successors_match_vector_at_any_chunk(
        self, program, chunk
    ):
        """Chunking partitions the evaluation; it must never change it —
        on modular domains and on offset ranges with a bool alike."""
        import numpy as np

        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import as_vector_kernel

        shared = SharedKernel(program, chunk=chunk)
        vector = as_vector_kernel(program)
        assert shared.initial_codes == vector.initial_codes
        codes = np.arange(shared.size, dtype=np.int64)
        shared_origins, shared_targets = shared.succ_pairs(codes)
        vector_origins, vector_targets = vector.succ_pairs(codes)
        assert shared_origins.tolist() == vector_origins.tolist()
        assert shared_targets.tolist() == vector_targets.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        offset_programs(overflow=True), st.integers(min_value=3, max_value=40)
    )
    def test_out_of_domain_errors_match_tuple_at_any_chunk(
        self, program, chunk
    ):
        """A write leaving its range raises the tuple engine's error —
        its first offending state, and the first action there — on both
        array kernels, however the space is chunked."""
        from repro.core.errors import GCLError
        from repro.kernel.shared import SharedKernel
        from repro.kernel.vector import VectorKernel

        def error_of(build):
            try:
                build()
            except GCLError as exc:
                return str(exc)
            return None

        expected = error_of(program.compile)
        assert error_of(lambda: VectorKernel.from_program(program)) == expected
        assert error_of(lambda: SharedKernel(program, chunk=chunk)) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            shared_programs(), offset_programs(), offset_programs(overflow=True)
        ),
        st.integers(min_value=1, max_value=64),
    )
    @example(_DIRECT_OFFENDS_FIRST, 5)
    def test_support_tables_match_direct_evaluation(self, program, chunk):
        """A support table is the direct evaluation, gathered: the same
        ``(mask, successor)`` pairs and the same first out-of-domain
        error, whichever actions a batch size tables.  Every support
        here spans 2 to 50 rows, so a 64-code batch tables every action,
        a 1-code batch none, and the drawn batch some of them."""
        import numpy as np

        from repro.core.errors import GCLError
        from repro.kernel.shared import SharedKernel

        def outcome(chunk):
            try:
                kernel = SharedKernel(program, chunk=chunk)
                enabled, successors = kernel.action_matrix(
                    np.arange(kernel.size, dtype=np.int64)
                )
            except GCLError as exc:
                return str(exc)
            return enabled.tolist(), successors.tolist()

        tabled = outcome(64)
        assert outcome(1) == tabled
        assert outcome(chunk) == tabled
        if isinstance(tabled, str):
            with pytest.raises(GCLError) as raised:
                program.compile()
            assert str(raised.value) == tabled

    @settings(max_examples=40, deadline=None)
    @given(
        shared_programs(),
        st.integers(min_value=3, max_value=40),
        st.booleans(),
        st.booleans(),
    )
    def test_shared_core_equals_vector_core(
        self, program, chunk, stutter_insensitive, ignores_stutter
    ):
        """The streamed Jacobi rounds evict what the whole-space rounds
        evict, at every chunk size, and both reach the tuple engine's
        core: the two array engines share one eviction round, so only
        the independent reference checks the rule itself."""
        import numpy as np

        from repro.checker import behavioural_core
        from repro.kernel.shared import (
            SharedImage,
            SharedKernel,
            open_runtime,
            shared_core,
        )
        from repro.kernel.vector import (
            as_vector_kernel,
            vector_core,
            vector_reachable,
        )

        vector = as_vector_kernel(program)
        legitimate = vector_reachable(vector, vector.initial_array)
        expected = vector_core(
            vector, vector, np.arange(vector.size), legitimate,
            stutter_insensitive, ignores_stutter,
        )
        shared = SharedKernel(program, chunk=chunk)
        image = SharedImage(shared.interner, vector.interner, None)
        with open_runtime(shared) as runtime:
            runtime.chunk = chunk
            core = shared_core(
                shared, vector, image, legitimate,
                stutter_insensitive, ignores_stutter, runtime,
            )
            members = [
                int(code)
                for chunk_codes in core.member_chunks(chunk)
                for code in chunk_codes.tolist()
            ]
        assert members == np.flatnonzero(expected).tolist()
        system = program.compile()
        reference = behavioural_core(
            system, system, stutter_insensitive=stutter_insensitive,
            fairness="weak" if ignores_stutter else "none",
        )
        assert members == sorted(
            vector.interner.encode(state) for state in reference
        )


def _shared_peel(program, members, drop_self, image, chunk, recorder):
    """``(has_cycle, longest_path)`` from the shared peel under a 64 KiB
    budget, ``chunk`` codes per batch (no longest path with an image)."""
    import numpy as np

    from repro.kernel.shared import (
        BitField,
        SharedKernel,
        open_runtime,
        shared_has_cycle,
        shared_longest_path,
    )

    kernel = SharedKernel(program)
    region = BitField(kernel.size)
    region.set_codes(np.flatnonzero(members))
    with using_memory_budget("64K"):
        with open_runtime(kernel, instrumentation=recorder) as runtime:
            runtime.chunk = chunk
            cyclic = shared_has_cycle(
                kernel, region, runtime, drop_self, image
            )
            if image is not None:
                return cyclic, None
            return cyclic, shared_longest_path(
                kernel, region, runtime, drop_self
            )


def _vector_peel(program, members, drop_self, image_of):
    from repro.kernel.vector import (
        as_vector_kernel,
        vector_has_cycle,
        vector_longest_path,
    )

    kernel = as_vector_kernel(program)
    cyclic = vector_has_cycle(kernel, members, drop_self, image_of)
    if image_of is not None:
        return cyclic, None
    return cyclic, vector_longest_path(kernel, members, drop_self)


class TestSharedForwardPeel:
    """The shared peel re-expands each level through the streamed
    kernel; its verdicts must be the vector peel's, whatever the batch
    size and however the levels spill."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.one_of(
            shared_programs(),
            shared_programs(PEEL_MODULUS, PEEL_VAR_NAMES),
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.5, 0.95, 1.0]),
        st.booleans(),
        st.sampled_from([None, "low", "high", "random"]),
        st.integers(min_value=8, max_value=64),
    )
    def test_shared_peel_matches_the_vector_peel(
        self, program, seed, density, drop_self, image_kind, batches
    ):
        """Random subregions (dense ones keep the space's cycles) and
        image tables; ``chunk`` is a 1/8 to 1/64 share of the space, so
        a batch joins several runs of the level before."""
        import numpy as np

        schema = program.schema()
        size = schema.size()
        radix = len(schema.domains[0])
        rng = np.random.default_rng(seed)
        members = rng.random(size) < density
        codes = np.arange(size, dtype=np.int64)
        # Projections onto the lowest-place variable's digit, or onto
        # the others: edges moving only the other side are invisible.
        image_of = {
            None: None,
            "low": codes % radix,
            "high": codes // radix,
            "random": rng.integers(0, 4, size=size, dtype=np.int64),
        }[image_kind]
        image = None if image_of is None else _TableImage(image_of)
        chunk = max(1, size // batches)
        assert _shared_peel(
            program, members, drop_self, image, chunk, Recorder()
        ) == _vector_peel(program, members, drop_self, image_of)

    def test_spilled_levels_match_the_vector_peel(self):
        """Level 0, every code but the 1,600 with ``u == 1``, outgrows
        the 64 KiB run cap: the peel streams it back from spill, batch
        by batch."""
        import numpy as np

        program = Program(
            "plane",
            [
                Variable(name, ModularDomain(PEEL_MODULUS))
                for name in PEEL_VAR_NAMES
            ],
            [GuardedAction("lift", Eq(Var("u"), Const(0)), {"u": Const(1)})],
            init=Eq(Var("u"), Const(0)),
        )
        members = np.ones(program.schema().size(), dtype=bool)
        recorder = Recorder()
        shared = _shared_peel(program, members, False, None, 997, recorder)
        assert shared == _vector_peel(program, members, False, None)
        counters = recorder.record().counters
        assert shared == (False, 1)
        assert counters["shm.spill.rounds"] > 0
        # Two peels (cycle, then longest path) of two levels each.
        assert counters["shm.peel.levels"] == 4


def _mod_program(name, *actions):
    """A program over the two mod-5 variables of :func:`shared_programs`
    (``u`` is the high digit: code ``5·u + w.0``)."""
    variables = [Variable(var, ModularDomain(MODULUS)) for var in VAR_NAMES]
    init = Eq(Var("u"), Const(0))
    return Program(name, variables, list(actions), init=init)


#: At ``u == 3`` the only move is a self-loop, so those states are
#: terminal only when weak or strong fairness drops self-loops; every
#: other state moves ``w.0`` round a cycle.
_SELF_LOOP_ONLY = _mod_program(
    "self-loop-only",
    GuardedAction("stay", Eq(Var("u"), Const(3)), {"u": Const(3)}),
    GuardedAction(
        "spin", Ne(Var("u"), Const(3)),
        {"w.0": AddMod(Var("w.0"), Const(1), MODULUS)},
    ),
)

#: Outside the core lie ``u`` in 2..4 (codes 10–24); only ``w.0 == 4``
#: is stuck there, so at 3 codes a chunk the first terminal, 14, lies
#: in a later chunk than the region's first member, 10.
_LATE_TERMINAL = _mod_program(
    "late-terminal",
    GuardedAction(
        "climb", Ne(Var("w.0"), Const(4)),
        {"w.0": AddMod(Var("w.0"), Const(1), MODULUS)},
    ),
    GuardedAction("enter", Eq(Var("u"), Const(0)), {"u": Const(1)}),
)


def _self_request(program, fairness, compute_steps):
    """The self-stabilization question of ``program`` as the checker
    hands it to a backend."""
    from repro.checker.convergence import _Request

    return _Request(
        program, program, None, False, fairness, compute_steps, Recorder()
    )


def _outside_answers(engine, program, fairness, chunk):
    """``(deadlock witness, cycle verdict, worst case)`` of one engine's
    backend over the region outside the self-stabilization core, the
    walk asked after the deadlock search, as the checker asks it: a
    cycle is a longest path of ``None``."""
    from repro.checker.convergence import _BACKENDS

    request = _self_request(program, fairness, True)
    backend = _BACKENDS[engine](request)
    with backend.running():
        if engine == "shared":
            backend.runtime.chunk = chunk
        backend.legitimate()
        backend.core()
        stuck = backend.deadlock()
        worst = backend.longest_path()
    return stuck, worst is None, worst


class TestSharedOutsideAnswers:
    """The deadlock search's pass also counts the peel's in-degrees;
    what the checker reads off the outside region must stay the vector
    engine's, at every chunk size and fairness mode."""

    @settings(max_examples=40, deadline=None)
    @given(
        shared_programs(),
        st.integers(min_value=3, max_value=40),
        st.sampled_from(["none", "weak", "strong"]),
    )
    @example(_SELF_LOOP_ONLY, 3, "none")
    @example(_SELF_LOOP_ONLY, 3, "weak")
    @example(_SELF_LOOP_ONLY, 3, "strong")
    @example(_LATE_TERMINAL, 3, "none")
    def test_shared_outside_answers_equal_vector(
        self, program, chunk, fairness
    ):
        assert _outside_answers(
            "shared", program, fairness, chunk
        ) == _outside_answers("vector", program, fairness, chunk)


#: The only outside cycles are the self-loops of ``stay`` at ``u == 2``;
#: ``down`` steps ``u`` towards 0, so the peel's remainder is ``u`` in
#: {1, 2}: the self-looping states and the ones they reach.
_SELF_LOOP_CYCLE = _mod_program(
    "self-loop-cycle",
    GuardedAction("stay", Eq(Var("u"), Const(2)), {"u": Const(2)}),
    GuardedAction(
        "down", Ne(Var("u"), Const(0)),
        {"u": AddMod(Var("u"), Const(MODULUS - 1), MODULUS)},
    ),
)

#: The outside cycles spin ``w.0`` at ``u == 4`` (codes 20–24), and fall
#: to ``u == 1`` (codes 5–9) on the way home, so at 3 codes a chunk the
#: cycles lie in later chunks than the remainder's first member, 5.
_LATE_CYCLE = _mod_program(
    "late-cycle",
    GuardedAction(
        "spin", Eq(Var("u"), Const(4)),
        {"w.0": AddMod(Var("w.0"), Const(1), MODULUS)},
    ),
    GuardedAction("fall", Eq(Var("u"), Const(4)), {"u": Const(1)}),
    GuardedAction(
        "home", And(Ne(Var("u"), Const(0)), Ne(Var("u"), Const(4))),
        {"u": Const(0)},
    ),
)


def _shared_remainder(program, fairness, compute_steps, chunk):
    """The members the shared peel of the outside region leaves
    un-peeled, read from the backend's remainder, ascending; checked
    against the ``shm.peel.remainder`` counter."""
    from repro.checker.convergence import _SharedBackend

    request = _self_request(program, fairness, compute_steps)
    backend = _SharedBackend(request)
    with backend.running():
        backend.runtime.chunk = chunk
        backend.legitimate()
        backend.core()
        cyclic = backend.longest_path() is None
        remainder = (
            [
                int(code)
                for codes in backend.remainder.member_chunks(chunk)
                for code in codes
            ]
            if cyclic
            else []
        )
    counters = request.instrumentation.record().counters
    assert counters["shm.peel.remainder"] == len(remainder)
    return remainder


def _reference_remainder(program, fairness):
    """Plain Python over the vector engine's outside edges: the region
    members on a cycle (a self-loop counts) and all they reach."""
    from repro.checker.convergence import _VectorBackend
    from repro.kernel.vector import region_edges

    request = _self_request(program, fairness, False)
    backend = _VectorBackend(request)
    backend.legitimate()
    backend.core()
    sources, targets = region_edges(
        backend.kernel, backend.outside, request.drop_self
    )
    successors = {}
    for source, target in zip(sources.tolist(), targets.tolist()):
        successors.setdefault(source, set()).add(target)

    def reached(starts):
        seen, stack = set(), list(starts)
        while stack:
            for target in successors.get(stack.pop(), ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen

    on_cycle = {node for node in successors if node in reached([node])}
    return sorted(on_cycle | reached(on_cycle))


def _decided(backend_class, program, fairness, compute_steps, chunk=None):
    """The formatted verdict of one backend, at ``chunk`` codes a batch
    on the shared engine."""
    from repro.checker.convergence import _decide

    request = _self_request(program, fairness, compute_steps)
    backend = backend_class(request)
    if chunk is not None:
        running = backend.running

        @contextmanager
        def chunked():
            with running():
                backend.runtime.chunk = chunk
                yield

        backend.running = chunked
    return _decide(backend, request).format()


class TestSharedPeelRemainder:
    """A failing shared check builds its cycle witness from the peel's
    remainder; the remainder must be exactly the region members a
    cycle reaches, and the verdict the vector engine's, at every chunk
    size."""

    @settings(max_examples=40, deadline=None)
    @given(
        shared_programs(),
        st.integers(min_value=3, max_value=40),
        st.sampled_from(["none", "weak"]),
        st.booleans(),
    )
    @example(_SELF_LOOP_CYCLE, 3, "none", True)
    @example(_SELF_LOOP_CYCLE, 3, "none", False)
    @example(_LATE_CYCLE, 3, "none", True)
    @example(_LATE_CYCLE, 3, "weak", False)
    def test_remainder_is_what_the_cycles_reach(
        self, program, chunk, fairness, compute_steps
    ):
        from repro.checker.convergence import _SharedBackend, _VectorBackend

        assert _shared_remainder(
            program, fairness, compute_steps, chunk
        ) == _reference_remainder(program, fairness)
        assert _decided(
            _SharedBackend, program, fairness, compute_steps, chunk
        ) == _decided(_VectorBackend, program, fairness, compute_steps)


class TestSpillRoundTrips:
    """Spill encodings must be lossless at every awkward boundary."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 40)),
            min_size=0,
            max_size=200,
            unique=True,
        ),
        st.sampled_from([2, 4, 8]),
    )
    def test_delta_encoding_round_trips_any_sorted_run(self, codes, width):
        """Diff widths 1/2/4/8 are chosen per run; whatever is chosen
        must invert exactly, at every storage width that fits."""
        import numpy as np

        from repro.kernel.shared import SpillStore
        from repro.kernel.shared.width import code_dtype

        dtype = {2: np.int16, 4: np.int32, 8: np.int64}[width]
        limit = int(np.iinfo(dtype).max)
        codes = sorted(code for code in codes if code <= limit)
        with SpillStore(code_dtype=dtype) as store:
            array = np.asarray(codes, dtype=np.int64)
            handle = store.save_sorted(array.astype(dtype))
            loaded = store.load(handle)
            assert loaded.dtype == np.dtype(dtype)
            assert loaded.tolist() == codes
        assert code_dtype(limit).itemsize <= width

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.randoms(use_true_random=False),
    )
    def test_code_runs_round_trip_at_exact_cap_boundaries(
        self, run_count, jitter, rnd
    ):
        """Runs sized to land exactly on (and one element around) the
        64K resident cap must stream back identically, spilled or not."""
        import numpy as np

        from repro.kernel.shared import CodeRuns, SpillStore

        cap = 1 << 16
        per_run = cap // 8 + (jitter - 1)  # straddle the exact boundary
        with SpillStore() as store:
            runs = CodeRuns(store, cap, dtype=np.int64)
            originals = []
            base = 0
            for _ in range(run_count):
                stride = rnd.randint(1, 5)
                codes = base + np.arange(per_run, dtype=np.int64) * stride
                base = int(codes[-1]) + rnd.randint(1, 1000)
                originals.append(codes)
                runs.append(codes)
            streamed = list(runs.chunks())
            assert len(streamed) == len(originals)
            for out, original in zip(streamed, originals):
                assert out.tolist() == original.tolist()
            assert runs.count == sum(len(o) for o in originals)
            runs.clear()

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(
            [(1 << 15) - 1, 1 << 15, (1 << 15) + 1, (1 << 15) + 977]
        ),
        st.integers(min_value=0, max_value=1000),
    )
    def test_width_promotion_edges_round_trip_through_spill(
        self, size, offset
    ):
        """Codes near the int16/int32 promotion edge, stored at the
        width the module chooses for that size, must survive a full
        spill round trip — the closed-edge rule in executable form."""
        import numpy as np

        from repro.kernel.shared import CodeRuns, SpillStore
        from repro.kernel.shared.width import code_dtype, code_width

        dtype = code_dtype(size)
        assert code_width(size) == (2 if size <= (1 << 15) else 4)
        top = size - 1
        codes = np.unique(
            np.clip(
                np.asarray(
                    [0, 1, offset, top - 1, top], dtype=np.int64
                ),
                0,
                top,
            )
        )
        with SpillStore(code_dtype=dtype) as store:
            runs = CodeRuns(store, 1 << 16, dtype=dtype)
            runs.append(codes)
            (out,) = list(runs.chunks())
            assert out.dtype == dtype
            assert int(out.max()) == top
            assert out.tolist() == codes.tolist()
            handle = store.save_sorted(out)
            assert store.load(handle).tolist() == codes.tolist()


class TestSharedVerdicts:
    @settings(max_examples=25, deadline=None)
    @given(
        shared_programs(),
        st.sampled_from(["none", "weak", "strong"]),
        st.booleans(),
    )
    def test_self_stabilization_verdict_identical(
        self, program, fairness, compute_steps
    ):
        """End to end against the sequential reference, witness states
        and worst case included, under every fairness mode (so the
        fair-trap and worst-case branches are fuzzed too).
        """
        assert program.schema().size() >= SHARED_MIN_STATES
        kwargs = dict(fairness=fairness, compute_steps=compute_steps)
        tuple_verdict = check_self_stabilization(
            program, engine="tuple", **kwargs
        )
        shared_verdict = check_self_stabilization(
            program, engine="shared", **kwargs
        )
        assert shared_verdict.format() == tuple_verdict.format()
        assert shared_verdict.core == tuple_verdict.core
        assert (
            shared_verdict.legitimate_abstract
            == tuple_verdict.legitimate_abstract
        )

    @settings(max_examples=15, deadline=None)
    @given(shared_programs())
    def test_memory_context_upgrade_is_transparent(self, program):
        """A ``--mem-budget`` context upgrades vector requests to the
        shared engine without changing a byte of the verdict."""
        plain = check_self_stabilization(
            program, compute_steps=False, engine="vector"
        )
        recorder = Recorder()
        with using_memory_budget("4M"):
            streamed = check_self_stabilization(
                program, compute_steps=False, engine="vector",
                instrumentation=recorder,
            )
        assert streamed.format() == plain.format()
        assert recorder.record().counters["engine.shared"] == 1

    @settings(max_examples=15, deadline=None)
    @given(shared_programs())
    def test_unlowerable_request_degrades_to_the_packed_rung(self, program):
        """A shared request for a program no array engine lowers must
        degrade down the chain to packed and still render the shared
        verdict of the equivalent lowerable program."""
        recorder = Recorder()
        fallback_verdict = check_self_stabilization(
            unlowerable(program), compute_steps=False, engine="shared",
            instrumentation=recorder,
        )
        shared_verdict = check_self_stabilization(
            program, compute_steps=False, engine="shared"
        )
        assert fallback_verdict.format() == shared_verdict.format()
        counters = recorder.record().counters
        # Vector is refused too, so only the packed rung is counted.
        assert "engine.fallback.vector" not in counters
        assert counters["engine.fallback.packed"] == 1
        assert counters["engine.packed"] == 1
