"""Property-based worker-count invariance of the stabilization check.

Random small guarded-command programs (reusing the generator design of
``test_prop_programs``) are checked at one and at several workers on
every one-process engine: the verdict must render identically.  The
generator is shared with ``test_prop_resilience``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_self_stabilization
from repro.gcl.action import GuardedAction
from repro.gcl.domain import ModularDomain
from repro.gcl.expr import AddMod, Const, Eq, Ne, Var
from repro.gcl.program import Program
from repro.gcl.variable import Variable
from repro.parallel import parallel_available

import pytest

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)

MODULUS = 3
VAR_NAMES = ("u", "w.0")


@st.composite
def small_programs(draw, names=VAR_NAMES):
    """Random well-typed programs over ``mod 3`` variables ``names``
    (two by default)."""
    n_actions = draw(st.integers(min_value=1, max_value=3))
    actions = []
    for index in range(n_actions):
        guard_var = draw(st.sampled_from(names))
        guard_value = draw(st.integers(min_value=0, max_value=MODULUS - 1))
        guard_kind = draw(st.sampled_from([Eq, Ne]))
        target = draw(st.sampled_from(names))
        effect = draw(
            st.one_of(
                st.integers(min_value=0, max_value=MODULUS - 1).map(Const),
                st.sampled_from(
                    [AddMod(Var(name), Const(1), MODULUS) for name in names]
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
    variables = [Variable(name, ModularDomain(MODULUS)) for name in names]
    init = Eq(Var("u"), Const(0))
    return Program("fuzzed", variables, actions, init=init)


class TestWorkerCountInvariance:
    @settings(max_examples=15, deadline=None)
    @given(small_programs())
    def test_self_stabilization_verdict_identical(self, program):
        """End to end: the full decision procedure renders the same
        verdict at one and at two workers, on every engine that
        decides in one process."""
        system = program.compile()
        for engine in ("tuple", "packed", "vector"):
            sequential = check_self_stabilization(
                system, compute_steps=False, engine=engine
            )
            requested = check_self_stabilization(
                system, compute_steps=False, engine=engine, workers=2
            )
            assert sequential.format() == requested.format(), engine
