"""Property-based testing of fault-transparent verdicts.

The resilience layer's core claim, stated as a property: for *any*
small programs and *any* injected fault plan (worker kills across
tasks and attempts), the supervised parallel verdict renders
identically to the fault-free sequential one.  Hypothesis drives both the program generator (shared
with ``test_prop_parallel``) and the fault-plan generator.  A check
decides in one process, so the kills land on the pool that does fork:
``verify-tree`` over a drawn tree of specs at two workers, one task
per spec.
"""

import io
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcl.pretty import render_program
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.resilience import (
    FaultAction,
    FaultPlan,
    SupervisionPolicy,
    using_chaos,
    using_policy,
)
from repro.verify_tree import verify_tree

from tests.property.test_prop_parallel import small_programs

import pytest

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)

#: Three ``mod 3`` variables: 27 states per spec.
SPEC_NAMES = ("u", "w.0", "w.1")

#: Fast retries so injected kills cost milliseconds, not seconds.
FAST = SupervisionPolicy(backoff_base=0.001, backoff_cap=0.005)


@st.composite
def fault_plans(draw):
    """Random recoverable fault plans of worker kills.

    Kills stay on bounded attempts (the default policy allows two
    retries, so attempts 0 and 1 always leave a clean third try — and
    even exhausting them only quarantines, which also recovers).
    """
    count = draw(st.integers(min_value=1, max_value=3))
    faults = [
        FaultAction(
            kind="kill-worker",
            task=draw(
                st.one_of(st.just("*"), st.integers(min_value=0, max_value=3))
            ),
            attempt=draw(st.integers(min_value=0, max_value=1)),
        )
        for _ in range(count)
    ]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return FaultPlan(seed=seed, faults=tuple(faults))


def _verify(tree, state, workers, instrumentation=None):
    """The verdict stream of a ``verify-tree`` run over ``tree`` from
    a fresh cache at ``state``."""
    out = io.StringIO()
    kwargs = {} if instrumentation is None else {
        "instrumentation": instrumentation
    }
    verify_tree(
        str(tree),
        cache_dir=str(state),
        workers=workers,
        out=out,
        err=io.StringIO(),
        **kwargs,
    )
    return out.getvalue()


class TestFaultTransparency:
    @settings(max_examples=8, deadline=None)
    @given(
        st.lists(small_programs(names=SPEC_NAMES), min_size=2, max_size=4),
        fault_plans(),
    )
    def test_supervised_verdict_equals_sequential_under_any_plan(
        self, programs, plan
    ):
        recorder = Recorder(kind="test")
        with tempfile.TemporaryDirectory() as scratch:
            root = pathlib.Path(scratch)
            tree = root / "specs"
            tree.mkdir()
            for index, program in enumerate(programs):
                (tree / f"spec{index}.gcl").write_text(
                    render_program(program), encoding="utf-8"
                )
            baseline = _verify(tree, root / "sequential", workers=1)
            with using_policy(FAST), using_chaos(plan):
                chaotic = _verify(
                    tree, root / "chaotic", workers=2,
                    instrumentation=recorder,
                )
        assert chaotic == baseline
        # The specs fanned out over a live two-worker pool.
        assert recorder.record().counters["parallel.workers"] == 2
