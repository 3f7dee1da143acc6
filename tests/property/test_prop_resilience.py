"""Property-based testing of fault-transparent verdicts.

The resilience layer's core claim, stated as a property: for *any*
small program and *any* injected fault plan (worker kills across
tasks and attempts, engine memory faults at arbitrary thresholds),
the supervised parallel verdict renders identically to the fault-free
sequential one.  Hypothesis drives both the program generator (shared
with ``test_prop_parallel``) and the fault-plan generator.  The kills
land on the shared engine's rounds — the one check that forks — run
with a tiny memory budget and a sharding threshold of one code, so
every round fans out.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_self_stabilization
from repro.kernel.shared import using_memory_budget
from repro.kernel.vector import numpy_available
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.resilience import (
    FaultAction,
    FaultPlan,
    SupervisionPolicy,
    using_chaos,
    using_policy,
)

from tests.property.test_prop_parallel import small_programs

import pytest

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)

#: Three ``mod 3`` variables: 27 states, above the shared engine's
#: small-space floor.
SHARED_NAMES = ("u", "w.0", "w.1")

#: Fast retries so injected kills cost milliseconds, not seconds.
FAST = SupervisionPolicy(backoff_base=0.001, backoff_cap=0.005)


@st.composite
def fault_plans(draw):
    """Random recoverable fault plans.

    Worker kills stay on bounded attempts (the default policy allows
    two retries, so attempts 0 and 1 always leave a clean third try —
    and even exhausting them only quarantines, which also recovers).
    Engine faults pick arbitrary thresholds; the degradation chain
    ends in the hook-less tuple engine, so every plan is survivable.
    """
    count = draw(st.integers(min_value=1, max_value=3))
    faults = []
    for _ in range(count):
        kind = draw(st.sampled_from(["kill-worker", "raise-memory"]))
        if kind == "kill-worker":
            faults.append(
                FaultAction(
                    kind="kill-worker",
                    task=draw(
                        st.one_of(
                            st.just("*"),
                            st.integers(min_value=0, max_value=3),
                        )
                    ),
                    attempt=draw(st.integers(min_value=0, max_value=1)),
                )
            )
        else:
            faults.append(
                FaultAction(
                    kind="raise-memory",
                    engine=draw(st.sampled_from(["packed", "*"])),
                    at_states=draw(st.integers(min_value=1, max_value=20)),
                )
            )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return FaultPlan(seed=seed, faults=tuple(faults))


class TestFaultTransparency:
    @pytest.mark.skipif(
        not numpy_available(), reason="the shared engine needs NumPy"
    )
    @settings(max_examples=8, deadline=None)
    @given(small_programs(names=SHARED_NAMES), fault_plans())
    def test_supervised_verdict_equals_sequential_under_any_plan(
        self, program, plan
    ):
        baseline = check_self_stabilization(program)
        recorder = Recorder(kind="test")
        with tempfile.TemporaryDirectory() as spill:
            with using_memory_budget(
                "1M", spill_dir=spill, parallel_min=1
            ), using_policy(FAST), using_chaos(plan):
                chaotic = check_self_stabilization(
                    program, workers=2, engine="shared",
                    instrumentation=recorder,
                )
        assert chaotic.format() == baseline.format()
        assert chaotic.holds == baseline.holds
        # The check started on the shared engine with a live pool.
        assert recorder.record().counters["parallel.workers"] == 2

    @settings(max_examples=8, deadline=None)
    @given(small_programs(), st.integers(min_value=1, max_value=10))
    def test_engine_faults_never_perturb_the_verdict(
        self, program, threshold
    ):
        baseline = check_self_stabilization(program, engine="tuple")
        plan = FaultPlan(
            faults=(
                FaultAction(
                    kind="raise-memory", engine="*", at_states=threshold
                ),
            )
        )
        with using_chaos(plan):
            degraded = check_self_stabilization(program, engine="packed")
        assert degraded.format() == baseline.format()
