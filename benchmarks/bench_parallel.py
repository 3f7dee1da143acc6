"""P01: the verification cache, cold miss against warm hit.

One artifact: a cache table — cold and warm wall time of ``repro
verify-tree`` (:func:`repro.verify_tree.verify_tree`) over a tree of
K-state(7, k) specs, k = 6 and 7 (279,936 and 823,543 states), where
the exact check costs about a second.  The cold run verifies every
spec and fills the cache; the warm run replays every verdict from it
and runs no engine fixpoint.  (The worker-scaling table this benchmark
once recorded timed sharded tuple and packed fixpoints; those engines
now decide in one process at every worker count, so the table would
time the same code twice.  ``docs/PERFORMANCE.md`` keeps its last
measurement.)
"""

from __future__ import annotations

import io
import time

from repro.analysis import format_table
from repro.gcl.pretty import render_program
from repro.obs import Recorder
from repro.rings import kstate_program
from repro.verify_tree import verify_tree

SIZES = (6, 7)


def _timed_tree(root, cache_dir):
    recorder = Recorder(kind="verify-tree")
    out = io.StringIO()
    start = time.perf_counter()
    report = verify_tree(
        str(root),
        cache_dir=str(cache_dir),
        instrumentation=recorder,
        out=out,
        err=io.StringIO(),
    )
    elapsed = time.perf_counter() - start
    return elapsed, report, out.getvalue(), recorder.record()


def test_p01_cache_cold_vs_warm(benchmark, record_table, tmp_path):
    root = tmp_path / "specs"
    root.mkdir()
    for k in SIZES:
        (root / f"kstate_n7_k{k}.gcl").write_text(
            render_program(kstate_program(7, k)), encoding="utf-8"
        )
    cache_dir = tmp_path / "cache"

    def cold_then_warm():
        cold = _timed_tree(root, cache_dir)
        warm = _timed_tree(root, cache_dir)
        return cold, warm

    cold, warm = benchmark.pedantic(cold_then_warm, rounds=1, iterations=1)
    cold_s, cold_report, cold_out, cold_record = cold
    warm_s, warm_report, warm_out, warm_record = warm
    assert cold_report.verified == len(SIZES) and cold_report.ok
    assert "check.total" in cold_record.spans
    # The warm run replays every spec byte for byte and runs no check.
    assert warm_report.replayed == len(SIZES) and warm_report.verified == 0
    assert warm_out == cold_out
    assert not any(name.startswith("check.") for name in warm_record.spans)
    assert not any(
        name.startswith("check.fixpoint") for name in warm_record.counters
    )
    rows = [
        {
            "path": "cold (miss + check + store)",
            "specs": len(SIZES),
            "ms": round(cold_s * 1000, 1),
        },
        {
            "path": "warm (hit, replay)",
            "specs": len(SIZES),
            "ms": round(warm_s * 1000, 1),
        },
    ]
    record_table(
        "p01_cache_cold_warm",
        format_table(
            rows,
            columns=["path", "specs", "ms"],
            title="P01 verify-tree cache: cold vs warm, "
            "K-state(7,6) + K-state(7,7)",
        ),
        rows=rows,
        engine="vector",
    )
