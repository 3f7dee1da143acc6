"""One walk of the region outside the core per stabilization check.

A check asking for the worst case (``compute_steps=True``) decides
divergence and the worst case with one longest-path walk: the walk
returns ``None`` on a cycle and the step count otherwise.  A check
that skips the worst case runs the cheaper cycle walk and never the
longest-path one.  These tests count the calls into each engine's two
walks and pin both facts on every engine and fairness mode, then check
that the four engines still report the same worst case.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.checker import check_stabilization, worst_case_convergence_steps
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
#: backends resolve them at call time.
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
            monkeypatch.setattr(
                module,
                attribute,
                counting((engine, kind), getattr(module, attribute)),
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
    result = _check(
        engine, concrete, spec, alpha, fairness, compute_steps=False
    )
    assert result.holds and result.worst_case_steps is None
    assert walks == Counter({(engine, "cycle"): 1})


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
