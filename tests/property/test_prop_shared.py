"""Property-based differential testing of the shared-memory engine.

Random well-typed programs drive the streamed kernel against the
references: chunk-streamed successor enumeration must agree with the
vector kernel at *every* chunk size (streaming is a partition of the
work, never a change to it), the frontier/core fixpoints must compute
the same sets bit for bit, and the full shared-engine stabilization
verdict — selected explicitly or upgraded from a ``--mem-budget``
context — must render byte-identically to the sequential tuple
engine.  Programs here use a mod-5 space (25 states) so they clear
``SHARED_MIN_STATES`` and the shared engine genuinely runs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_self_stabilization
from repro.gcl.action import GuardedAction
from repro.gcl.domain import ModularDomain
from repro.gcl.expr import AddMod, Const, Eq, Ne, Var
from repro.gcl.program import Program
from repro.gcl.variable import Variable
from repro.kernel.shared import SHARED_MIN_STATES, using_memory_budget
from repro.kernel.vector import numpy_available
from repro.obs import Recorder

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed"
)

MODULUS = 5
VAR_NAMES = ("u", "w.0")


@st.composite
def shared_programs(draw):
    """Random two-variable programs over ``mod 5`` — 25 states, large
    enough that a shared-engine request is honoured, small enough to
    cross-check exhaustively."""
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


@needs_numpy
class TestSharedPrimitives:
    @settings(max_examples=40, deadline=None)
    @given(shared_programs(), st.integers(min_value=3, max_value=40))
    def test_streamed_successors_match_vector_at_any_chunk(
        self, program, chunk
    ):
        """Chunking partitions the evaluation; it must never change it."""
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

    @settings(max_examples=40, deadline=None)
    @given(shared_programs(), st.integers(min_value=3, max_value=40))
    def test_shared_reachable_equals_vector_reachable(self, program, chunk):
        import numpy as np

        from repro.kernel.shared import (
            SharedKernel,
            open_runtime,
            shared_reachable,
        )
        from repro.kernel.vector import as_vector_kernel, vector_reachable

        shared = SharedKernel(program, chunk=chunk)
        vector = as_vector_kernel(program)
        expected = np.nonzero(
            vector_reachable(vector, vector.initial_array)
        )[0].tolist()
        with open_runtime(shared) as runtime:
            visited = shared_reachable(
                shared, shared.initial_array, runtime
            )
            reached = [
                int(code)
                for member in visited.member_chunks(chunk)
                for code in member.tolist()
            ]
        assert reached == expected


@needs_numpy
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
        fair-trap and worst-case branches are fuzzed too).  On a
        pure-Python install the shared request walks the fallback
        chain, which must render the same verdict anyway.
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
        if numpy_available():
            assert recorder.record().counters["engine.shared"] == 1

    @settings(max_examples=15, deadline=None)
    @given(shared_programs())
    def test_fallback_verdict_identical_without_numpy(self, program):
        """With availability forced off, a shared request must degrade
        down the chain and still match the packed verdict."""
        from repro.kernel.vector import availability

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(availability, "HAVE_NUMPY", False)
            recorder = Recorder()
            fallback_verdict = check_self_stabilization(
                program, compute_steps=False, engine="shared",
                instrumentation=recorder,
            )
        packed_verdict = check_self_stabilization(
            program, compute_steps=False, engine="packed"
        )
        assert fallback_verdict.format() == packed_verdict.format()
        counters = recorder.record().counters
        assert counters["engine.fallback.vector"] == 1
        assert counters["engine.packed"] == 1
