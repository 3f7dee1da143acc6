"""Every engine request either runs as asked or says why it did not.

For each checker entry point and each engine name it accepts, the run
record must show the requested engine selected (``engine.selected``;
the tuple engine, being the reference, is selected silently) or an
``engine.fallback`` event for that request carrying a reason.  A
request that quietly runs on some other engine fails here.
"""

from __future__ import annotations

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_eventually_refinement,
    check_everywhere_refinement,
    check_init_refinement,
    check_self_stabilization,
    check_stabilization,
)
from repro.checker.convergence import SEQUENTIAL_REASON
from repro.checker.engines import ENGINES
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.rings import (
    kstate_program,
    utr_abstraction,
    utr_program,
)
from tests.packed_rung import UNLOWERABLE_REASON, unlowerable


def _spec_args():
    return kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4)


CHECKERS = {
    "stabilization": lambda **kwargs: check_stabilization(
        *_spec_args(), **kwargs
    ),
    "self-stabilization": lambda **kwargs: check_self_stabilization(
        kstate_program(4, 4), **kwargs
    ),
    "init-refinement": lambda **kwargs: check_init_refinement(
        *_spec_args(), **kwargs
    ),
    "everywhere-refinement": lambda **kwargs: check_everywhere_refinement(
        *_spec_args(), **kwargs
    ),
    "convergence-refinement": lambda **kwargs: check_convergence_refinement(
        *_spec_args(), **kwargs
    ),
    "everywhere-eventually-refinement": (
        lambda **kwargs: check_everywhere_eventually_refinement(
            *_spec_args(), **kwargs
        )
    ),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("checker", sorted(CHECKERS))
def test_request_runs_or_falls_back_with_a_reason(checker, engine):
    recorder = Recorder()
    CHECKERS[checker](engine=engine, instrumentation=recorder)
    events = recorder.record().events
    selected = [
        event.fields["engine"]
        for event in events
        if event.name == "engine.selected"
    ]
    fallbacks = [
        event.fields for event in events if event.name == "engine.fallback"
    ]
    if engine == "tuple":
        assert selected == [] and fallbacks == []
    elif set(selected) != {engine}:
        # A checker that decides several clauses selects once per
        # clause; every choice other than the request needs a reason.
        assert any(
            fallback["requested"] == engine and fallback["reason"]
            for fallback in fallbacks
        ), (selected, fallbacks)


def test_shared_refinement_request_continues_at_vector():
    recorder = Recorder()
    verdict = check_convergence_refinement(
        *_spec_args(), engine="shared", instrumentation=recorder
    )
    assert verdict.holds
    record = recorder.record()
    assert record.counters["engine.fallback.vector"] == 1
    first = next(
        event for event in record.events if event.name == "engine.fallback"
    )
    assert first.fields == {
        "requested": "shared",
        "reason": "no streamed refinement clauses",
    }


@pytest.mark.parametrize("engine", ENGINES)
def test_everywhere_eventually_records_its_init_clause(engine):
    recorder = Recorder()
    verdict = check_everywhere_eventually_refinement(
        *_spec_args(), engine=engine, instrumentation=recorder
    )
    counters = recorder.record().counters
    assert verdict.holds
    assert counters["refine.reachable.size"] > 0
    assert counters["refine.init.transitions.checked"] > 0


def _sequential_notes(record) -> list:
    return [
        event.fields
        for event in record.events
        if event.name == "parallel.sequential"
    ]


@pytest.mark.skipif(not parallel_available(), reason="no fork start method")
@pytest.mark.parametrize("engine", ["tuple", "packed", "vector"])
def test_worker_count_recorded_only_when_the_pool_runs(engine):
    """Refinement decides in one process on every engine: a
    ``workers=2`` request starts no pool and says so once."""
    recorder = Recorder()
    verdict = check_convergence_refinement(
        *_spec_args(), workers=2, engine=engine, instrumentation=recorder
    )
    record = recorder.record()
    assert verdict.holds
    assert "parallel.workers" not in record.counters
    notes = _sequential_notes(record)
    assert len(notes) == 1
    assert notes[0]["workers"] == 2
    assert notes[0]["reason"] == SEQUENTIAL_REASON


@pytest.mark.parametrize("engine", ENGINES)
def test_stabilization_worker_request_runs_or_says_why(engine):
    """No engine opens a pool for one check: every decision at
    ``workers=2`` emits one ``parallel.sequential`` event naming the
    engine that ran, with the one reason all engines share."""
    recorder = Recorder()
    verdict = check_stabilization(
        *_spec_args(), workers=2, engine=engine, instrumentation=recorder
    )
    record = recorder.record()
    assert verdict.holds
    assert "parallel.workers" not in record.counters
    assert _sequential_notes(record) == [
        {"engine": verdict.engine, "workers": 2, "reason": SEQUENTIAL_REASON}
    ]


def _unlowerable_spec_args():
    concrete, spec, alpha = _spec_args()
    return unlowerable(concrete), spec, alpha


def test_refused_shared_request_records_one_refusal_per_rung():
    """A shared request for a program no array engine lowers runs on
    packed: the record names each refused rung once and counts only
    the engine that runs."""
    recorder = Recorder()
    verdict = check_stabilization(
        *_unlowerable_spec_args(), engine="shared", instrumentation=recorder
    )
    record = recorder.record()
    assert verdict.holds and verdict.engine == "packed"
    fallbacks = [
        event.fields for event in record.events
        if event.name == "engine.fallback"
    ]
    assert [fields["requested"] for fields in fallbacks] == [
        "shared", "vector"
    ]
    assert all(UNLOWERABLE_REASON in fields["reason"] for fields in fallbacks)
    assert _engine_counters(record) == {
        "engine.fallback.packed": 1, "engine.packed": 1,
    }


def _engine_counters(record) -> dict:
    return {
        name: value for name, value in record.counters.items()
        if name.startswith("engine.")
    }


def test_packed_alias_refused_by_vector_counts_only_the_packed_rung():
    """A packed request that vector's preflight refuses never counts a
    fallback to vector: the record counts only the rung that runs."""
    recorder = Recorder()
    verdict = check_stabilization(
        *_unlowerable_spec_args(), engine="packed", instrumentation=recorder
    )
    assert verdict.holds and verdict.engine == "packed"
    assert _engine_counters(recorder.record()) == {
        "engine.fallback.packed": 1, "engine.packed": 1,
    }


def test_runtime_degradation_notes_one_process_once(tmp_path):
    """A shared check that degrades to vector at runtime still says
    once, naming the first engine, that it decides in one process."""
    from repro.kernel.shared import using_memory_budget
    from repro.resilience import FaultAction, FaultPlan, using_chaos

    args = kstate_program(5, 5), utr_program(5), utr_abstraction(5, 5)
    baseline = check_stabilization(*args, engine="vector")
    plan = FaultPlan(
        faults=(
            FaultAction(kind="raise-memory", engine="shared", at_states=1),
        )
    )
    recorder = Recorder()
    with using_chaos(plan), using_memory_budget(
        "1M", spill_dir=str(tmp_path)
    ):
        verdict = check_stabilization(
            *args, engine="shared", workers=2, instrumentation=recorder
        )
    record = recorder.record()
    assert verdict.engine == "vector"
    assert record.counters["resilience.engine.fallback"] == 1
    assert verdict.format() == baseline.format()
    assert _sequential_notes(record) == [
        {"engine": "shared", "workers": 2, "reason": SEQUENTIAL_REASON}
    ]


def test_unknown_engine_error_lists_every_engine():
    for check in (check_stabilization, check_convergence_refinement):
        with pytest.raises(ValueError) as caught:
            check(*_spec_args(), engine="bogus")
        for engine in ENGINES:
            assert repr(engine) in str(caught.value)
