"""The shared engine's out-of-core peel across many buckets.

Under a 64 KiB budget the region outside the core of K-state(6, 6)
splits into dozens of spill buckets, so every Kahn level of the peel
scatters across them.  The peel runs in sweeps over the buckets; these
tests pin that the verdict, the worst case and the witness still
equal the in-RAM vector engine's, and that the sweep count stays
within the longest path + 1 — the bound a lowest-bucket-first
schedule does not have.
"""

from __future__ import annotations

import pytest

from repro.checker import check_stabilization
from repro.kernel.vector import numpy_available
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

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the shared engine needs NumPy"
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
    buckets = counters["shm.peel.buckets"]
    sweeps = counters["shm.peel.sweeps"]
    assert buckets > 1
    assert sweeps <= shared.worst_case_steps + 1
    assert counters["shm.peel.visits"] <= sweeps * buckets


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
