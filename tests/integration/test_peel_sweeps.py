"""The shared engine's forward peel under a tight memory budget.

Under a 64 KiB budget the region outside the core of K-state(6, 6) is
peeled level by level, each level re-expanded through the streamed
kernel in chunk-sized batches.  These tests pin that the verdict, the
worst case and the witness still equal the in-RAM vector engine's, and
that the peel's driver-side counters match its design: at most one
level per step of the worst case plus one, and every member of the
region expanded exactly twice (once by the deadlock search, which also
counts in-degrees, once when it is peeled).
"""

from __future__ import annotations

import pytest

from repro.checker import check_stabilization
from repro.obs import Recorder
from repro.rings import (
    btr3_abstraction,
    btr_program,
    c3_composed,
    dijkstra_three_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)


def _pair(concrete, spec, alpha, **kwargs):
    """(shared result under 64 KiB, its counters, vector result)."""
    from repro.kernel.shared import using_memory_budget

    recorder = Recorder()
    with using_memory_budget("64K"):
        shared = check_stabilization(
            concrete, spec, alpha, engine="shared",
            instrumentation=recorder, **kwargs,
        )
    vector = check_stabilization(concrete, spec, alpha, engine="vector", **kwargs)
    assert (shared.engine, vector.engine) == ("shared", "vector")
    return shared, recorder.record(), vector


def test_many_bucket_peel_reports_the_vector_worst_case():
    shared, record, vector = _pair(
        kstate_program(6, 6), utr_program(6), utr_abstraction(6, 6)
    )
    assert shared.holds and vector.holds
    assert shared.worst_case_steps == vector.worst_case_steps == 38
    assert shared.format() == vector.format()
    counters = record.counters
    outside = 6 ** 6 - len(shared.core)
    assert outside > 0
    assert 0 < counters["shm.peel.levels"] <= shared.worst_case_steps + 1
    assert counters["shm.peel.expanded"] == 2 * outside


def test_peel_counters_identical_at_one_and_two_workers():
    """A check runs in one process at every worker count, so a
    two-worker request starts no pool and cannot move the peel."""
    from repro.kernel.shared import using_memory_budget

    peel = []
    for workers in (1, 2):
        recorder = Recorder()
        with using_memory_budget("64K"):
            result = check_stabilization(
                kstate_program(5, 5), utr_program(5), utr_abstraction(5, 5),
                engine="shared", workers=workers, instrumentation=recorder,
            )
        assert result.holds
        counters = recorder.record().counters
        assert "parallel.workers" not in counters
        peel.append(
            {
                name: value
                for name, value in counters.items()
                if name.startswith("shm.peel.")
            }
        )
    assert peel[0] == peel[1]
    assert set(peel[0]) == {
        "shm.peel.levels", "shm.peel.expanded", "shm.peel.remainder"
    }
    # The check holds, so the peel exhausts the region.
    assert peel[0]["shm.peel.remainder"] == 0


def test_outside_region_is_expanded_twice(monkeypatch):
    """The deadlock search's pass counts the peel's in-degrees, so the
    kernel evaluates the core rounds' members and the peel's
    expansions and nothing else: no separate terminal sweep."""
    from repro.kernel.shared import SharedKernel, using_memory_budget

    evaluated = []
    iter_actions = SharedKernel.iter_actions

    def spy(self, codes):
        evaluated.append(len(codes))
        return iter_actions(self, codes)

    monkeypatch.setattr(SharedKernel, "iter_actions", spy)
    recorder = Recorder()
    with using_memory_budget("1M"):
        result = check_stabilization(
            kstate_program(6, 6), utr_program(6), utr_abstraction(6, 6),
            engine="shared", compute_steps=True, instrumentation=recorder,
        )
    assert result.holds and result.engine == "shared"
    record = recorder.record()
    # Each core round walks the members left after the round before.
    remaining = [
        event.fields["remaining"] for event in record.events
        if event.name == "check.fixpoint.iteration"
    ]
    core = record.counters["check.candidates.initial"] + sum(remaining[:-1])
    assert sum(evaluated) == record.counters["shm.peel.expanded"] + core


def test_many_bucket_peel_finds_the_vector_witness():
    shared, _, vector = _pair(
        kstate_program(6, 4), utr_program(6), utr_abstraction(6, 4)
    )
    assert not shared.holds and not vector.holds
    assert shared.format() == vector.format()
    assert shared.result.witness.states == vector.result.witness.states


@pytest.mark.parametrize(
    "concrete,fairness",
    [(dijkstra_three_state, "none"), (c3_composed, "strong")],
    ids=["dijkstra3", "c3-composed"],
)
@pytest.mark.parametrize("n", [4, 6])
def test_invisible_cycle_check_agrees_with_vector(concrete, fairness, n):
    shared, record, vector = _pair(
        concrete(n), btr_program(n), btr3_abstraction(n),
        stutter_insensitive=True, fairness=fairness,
    )
    assert shared.format() == vector.format()
    assert shared.holds == vector.holds
    if shared.holds:
        assert "check.invisible_cycles" in {node.name for node in record.tree}
