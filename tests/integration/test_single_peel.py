"""One walk of the region outside the core per stabilization check.

Every check decides divergence with one longest-path walk: the walk
returns ``None`` on a cycle and the step count otherwise, and a check
that skips the worst case (``compute_steps=False``) only drops the
count.  No engine runs a separate cycle walk of that region.  These
tests count the calls into each engine's two walks and pin that on
every engine and fairness mode, then check that the four engines
still report the same worst case, and that ``worst_case_schedule``
spells it out as a real path.
"""

from __future__ import annotations

import hashlib
import importlib
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.checker import (
    check_stabilization,
    worst_case_convergence_steps,
    worst_case_schedule,
)
from repro.rings import (
    btr3_abstraction,
    btr4_abstraction,
    btr_program,
    c3_composed,
    dijkstra_four_state,
    dijkstra_three_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)
from tests.packed_rung import packed_rung

ENGINES = ["tuple", "packed", "vector", "shared"]

#: Engine -> (module, cycle walk, longest-path walk), patched where the
#: backends resolve them at call time.  The tuple backend imports no
#: cycle walk; the spy is still set in its module, so one that came
#: back would be counted.
WALKS = {
    "tuple": (
        "repro.checker.convergence", "has_cycle_within", "_longest_path_within"
    ),
    "packed": ("repro.kernel", "packed_has_cycle", "packed_longest_path"),
    "vector": ("repro.kernel.vector", "vector_has_cycle", "vector_longest_path"),
    "shared": ("repro.kernel.shared", "shared_has_cycle", "shared_longest_path"),
}

#: Checks that pass with an acyclic outside region under every fairness
#: mode: (name, concrete, spec, alpha).
PASSING = [
    ("dijkstra4-n3", lambda: dijkstra_four_state(3), lambda: btr_program(3),
     lambda: btr4_abstraction(3)),
    ("dijkstra3-n4", lambda: dijkstra_three_state(4), lambda: btr_program(4),
     lambda: btr3_abstraction(4)),
    ("kstate-n4", lambda: kstate_program(4, 4), lambda: utr_program(4),
     lambda: utr_abstraction(4, 4)),
    ("kstate-n5-k5", lambda: kstate_program(5, 5), lambda: utr_program(5),
     lambda: utr_abstraction(5, 5)),
]


@pytest.fixture
def walks(monkeypatch):
    """Counts of ``(engine, "cycle" | "longest")`` walk calls."""
    calls: Counter = Counter()

    def counting(key, function):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)

        return wrapper

    for engine, (module_name, cycle, longest) in WALKS.items():
        if engine not in ENGINES:
            continue
        module = importlib.import_module(module_name)
        for kind, attribute in (("cycle", cycle), ("longest", longest)):
            function = getattr(module, attribute, None)
            if function is None:
                function = getattr(
                    importlib.import_module("repro.checker.graph"), attribute
                )
            monkeypatch.setattr(
                module,
                attribute,
                counting((engine, kind), function),
                raising=False,
            )
    return calls


def _check(engine, concrete, spec, alpha, fairness, compute_steps=True):
    # A packed request is served by vector; the packed kernel runs only
    # as vector's fallback rung.
    with packed_rung() if engine == "packed" else nullcontext():
        result = check_stabilization(
            concrete(), spec(), alpha=alpha(), fairness=fairness,
            compute_steps=compute_steps, engine=engine,
        )
    assert result.engine == engine
    return result


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fairness", ["none", "weak", "strong"])
@pytest.mark.parametrize(
    "name,concrete,spec,alpha", PASSING, ids=[case[0] for case in PASSING]
)
def test_passing_check_walks_the_outside_once(
    walks, engine, fairness, name, concrete, spec, alpha
):
    result = _check(engine, concrete, spec, alpha, fairness)
    assert result.holds and result.worst_case_steps is not None
    assert walks == Counter({(engine, "longest"): 1})


@pytest.mark.parametrize("engine", ENGINES)
def test_strong_fairness_without_fair_trap_walks_once(walks, engine):
    """Cycles outside the core but no fair trap: the check passes, the
    one walk's ``None`` sends it to the fair-trap search, and no finite
    worst case is reported."""
    result = _check(
        engine, lambda: c3_composed(3), lambda: btr_program(3),
        lambda: btr3_abstraction(3), "strong",
    )
    assert result.holds and result.worst_case_steps is None
    assert walks == Counter({(engine, "longest"): 1})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fairness", ["none", "weak", "strong"])
def test_divergent_check_walks_once(walks, engine, fairness):
    result = _check(
        engine, lambda: kstate_program(4, 2), lambda: utr_program(4),
        lambda: utr_abstraction(4, 2), fairness,
    )
    assert not result.holds and result.worst_case_steps is None
    assert walks == Counter({(engine, "longest"): 1})


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("fairness", ["none", "weak", "strong"])
@pytest.mark.parametrize(
    "name,concrete,spec,alpha", PASSING, ids=[case[0] for case in PASSING]
)
def test_skipping_steps_never_walks_longest_path(
    walks, engine, fairness, name, concrete, spec, alpha
):
    """Skipping the worst case changes what is reported, not what is
    walked: one longest-path walk and no cycle walk either way."""
    for compute_steps in (True, False):
        walks.clear()
        result = _check(
            engine, concrete, spec, alpha, fairness, compute_steps
        )
        assert result.holds
        assert (result.worst_case_steps is None) == (not compute_steps)
        assert walks == Counter({(engine, "longest"): 1})


@pytest.mark.parametrize("fairness", ["none", "weak", "strong"])
@pytest.mark.parametrize(
    "name,concrete,spec,alpha", PASSING, ids=[case[0] for case in PASSING]
)
def test_worst_case_agrees_across_engines(
    fairness, name, concrete, spec, alpha
):
    steps = {
        engine: _check(engine, concrete, spec, alpha, fairness).worst_case_steps
        for engine in ENGINES
    }
    reference = check_stabilization(
        concrete(), spec(), alpha=alpha(), fairness=fairness,
        compute_steps=False, engine="tuple",
    )
    expected = worst_case_convergence_steps(
        concrete().compile(), reference.core, fairness=fairness
    )
    assert steps == {engine: expected for engine in ENGINES}


#: SHA-256 prefixes of ``repr(worst_case_schedule(...))`` per
#: ``PASSING`` case: the path that picks, at each state, the first
#: successor in ``repr`` order on a longest path, pinned so that any
#: other tie-break among equally long paths shows.
SCHEDULE_DIGESTS = {
    "dijkstra4-n3": "8d1036f3632db08d",
    "dijkstra3-n4": "4adb6819b0713cd9",
    "kstate-n4": "082365772ca9f91c",
    "kstate-n5-k5": "f405f915d802f691",
}


@pytest.mark.parametrize(
    "name,concrete,spec,alpha", PASSING, ids=[case[0] for case in PASSING]
)
def test_worst_case_schedule_is_a_longest_path(name, concrete, spec, alpha):
    core = _check("tuple", concrete, spec, alpha, "none").core
    system = concrete().compile()
    path = worst_case_schedule(system, core)
    assert path[0] not in core and path[-1] in core
    assert all(state not in core for state in path[:-1])
    for source, target in zip(path, path[1:]):
        assert target in system.successors(source)
    assert len(path) - 1 == worst_case_convergence_steps(system, core)
    digest = hashlib.sha256(repr(path).encode()).hexdigest()[:16]
    assert digest == SCHEDULE_DIGESTS[name]
