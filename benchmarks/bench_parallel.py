"""P01: the verification cache, cold miss against warm hit.

One artifact: a cache table — cold-miss vs warm-hit wall time for the
same verification through :class:`repro.parallel.VerificationCache`.
(The worker-scaling table this benchmark once recorded timed sharded
tuple and packed fixpoints; those engines now decide in one process
at every worker count, so the table would time the same code twice.
``docs/PERFORMANCE.md`` keeps its last measurement.)
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.checker import check_stabilization
from repro.parallel import VerificationCache, cache_key, program_fingerprint
from repro.rings import btr3_abstraction, btr_program, dijkstra_three_state


def _timed_check(n: int):
    concrete = dijkstra_three_state(n).compile()
    spec = btr_program(n).compile()
    alpha = btr3_abstraction(n)
    start = time.perf_counter()
    result = check_stabilization(concrete, spec, alpha, compute_steps=False)
    return time.perf_counter() - start, result


def test_p01_cache_cold_vs_warm(benchmark, record_table, tmp_path):
    cache = VerificationCache(tmp_path / "cache")
    key = cache_key(
        "bench-check",
        [
            program_fingerprint(dijkstra_three_state(4)),
            program_fingerprint(btr_program(4)),
        ],
        {"n": 4, "fairness": "none"},
    )

    def cold_then_warm():
        rows = []
        start = time.perf_counter()
        assert cache.get(key) is None  # cold miss
        _, result = _timed_check(4)
        cache.put(key, {"holds": result.holds, "text": result.format()})
        rows.append(
            {
                "path": "cold (miss + check + store)",
                "seconds": round(time.perf_counter() - start, 4),
            }
        )
        start = time.perf_counter()
        hit = cache.get(key)
        rows.append(
            {"path": "warm (hit)", "seconds": round(time.perf_counter() - start, 4)}
        )
        assert hit is not None and hit["holds"]
        return rows

    rows = benchmark.pedantic(cold_then_warm, rounds=1, iterations=1)
    record_table(
        "p01_cache_cold_warm",
        format_table(
            rows,
            columns=["path", "seconds"],
            title="P01 verification cache: cold miss vs warm hit (n=4)",
        ),
        rows=rows,
    )

