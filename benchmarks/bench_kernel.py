"""P02/P05: throughput of the packed and vector engines.

An N-sweep over the K-state ring (K = N, the smallest stabilizing
configuration) times the full stabilization check — K-state refines
the unidirectional token ring — across engines and reports states per
second and peak RSS.  Each (configuration, engine) cell runs in its own
spawned interpreter, so its peak RSS is that cell's own high-water
mark, not the sweep's.  Verdicts are asserted byte-identical at every
size; the speedup on the largest configuration is asserted against
each engine's headline claim: packed ≥ 3x over tuple (P02), vector
≥ 5x over packed (P05, on the ~10⁶-state (7, 7) configuration).  The
small configurations are expected to show the simpler engine ahead:
lowering the program to a kernel (and, for the vector engine,
materializing full-space action tables) has fixed cost that only pays
off once the state space is large enough to amortize it (see
docs/PERFORMANCE.md).

The P09/P10 mega sweep takes the shared engine past the vector
ceiling: ``run_mega.py`` streams K-state rings in a child process
under an explicit ``--mem-budget`` and the suite asserts the verdict
holds, spill engaged, the adaptive code width narrowed, and the
child's peak RSS stayed within the documented envelope (budget +
interpreter baseline + resident spill pages; see "Memory
architecture" in docs/PERFORMANCE.md).  The default smoke now carries
the 62.7M-state (7, 13) point; ``REPRO_MEGA=1`` adds the 16.7M-state
(8, 8) and the 134M-state (9, 8) acceptance points.  The P10 ablation
test re-runs one configuration with packing, table reuse, and the
mmap visited backing each disabled in turn and asserts the
deterministic per-axis signals: packing halves spill bytes per state,
and table reuse serves re-walked chunks from cache instead of
re-lowering them.

The winning mega row is also mirrored to the repository-level
``BENCH_kernel.json`` trajectory (engine, states, states/sec, peak
RSS, code width), keyed by configuration so re-runs update in place.

Artifacts: ``results/p02_kernel_scaling.{txt,json}``,
``results/p05_vector_scaling.{txt,json}``,
``results/p09_mega_scaling.{txt,json}``, and
``results/p10_mega_ablation.{txt,json}`` with the sweep tables, and
``results/{p02_kernel,p05_vector}.metrics.json`` with the ``engine.*``
and ``check.*`` counters from instrumented runs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import resource
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.analysis import format_table
from repro.checker import check_stabilization
from repro.kernel.vector import numpy_available
from repro.obs import Recorder
from repro.rings import kstate_program, utr_abstraction, utr_program

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="the P05 claims are about the vector engine, which needs NumPy",
)

#: (n, k) sweep: 256, 3125, and 46656 concrete states.  The largest is
#: where the >= 3x assertion applies; the CI smoke budget allows it
#: because the packed engine finishes it in about a second.
SWEEP = ((4, 4), (5, 5), (6, 6))

#: Required speedup of packed over tuple on the largest configuration.
REQUIRED_SPEEDUP = 3.0

#: (n, k) sweep for the vector engine: 3125, 46656, and 823543
#: concrete states.  The largest is the ~10⁶-state configuration the
#: ≥ 5x assertion applies to; the packed engine needs tens of seconds
#: there, which is exactly the gap the frontier arrays close.
VECTOR_SWEEP = ((5, 5), (6, 6), (7, 7))

#: Required speedup of vector over packed on the largest configuration.
REQUIRED_VECTOR_SPEEDUP = 5.0

#: P09/P10 mega sweep through the shared engine: (n, k, budget).  The
#: first smoke point is the previous vector ceiling — 823 543 states —
#: under a deliberately tiny 4 MiB budget, so out-of-core spill
#: genuinely engages.  The second is the P10 default-smoke headline:
#: 62 748 517 states (7, 13) under 512 MiB, with int32 code packing
#: active.  The REPRO_MEGA=1 acceptance points add 16.7M states (8, 8)
#: and the 1.3x10^8-state (9, 8) configuration.
MEGA_SWEEP = [(7, 7, "4M"), (7, 13, "512M")]
if os.environ.get("REPRO_MEGA") == "1":
    MEGA_SWEEP.append((8, 8, "64M"))
    MEGA_SWEEP.append((9, 8, "1G"))

#: The memory budget governs the engine's working set; peak process
#: RSS additionally carries the interpreter + NumPy baseline and
#: allocator transients (see "Memory architecture" in
#: docs/PERFORMANCE.md), so the bounded-RSS assertion allows this much
#: on top of the budget.
MEGA_RSS_ALLOWANCE_KIB = 256 * 1024

#: Spill buckets are read back through memmaps, whose resident pages
#: the kernel attributes to the process RSS until memory pressure
#: reclaims them.  Spill volume scales with states (measured ~45
#: bytes/state delta-encoded at the smoke points), so the RSS envelope
#: carries a per-state term with headroom on top of the fixed
#: allowance.  See "Memory architecture" in docs/PERFORMANCE.md.
MEGA_RSS_SPILL_RESIDENCY_B = 64

#: The (n, k, budget) configuration for the P10 ablation grid — small
#: enough that four full checks finish in seconds, large enough that
#: spill engages and the worst-case phase re-walks the core region
#: (the recurrence table reuse exists for).
MEGA_ABLATION_POINT = (6, 6, "4M")


def _mega_rss_ceiling_kib(budget_kib: int, states: int) -> int:
    """The documented RSS envelope for one mega configuration."""
    return (
        budget_kib
        + MEGA_RSS_ALLOWANCE_KIB
        + states * MEGA_RSS_SPILL_RESIDENCY_B // 1024
    )


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _timed_check(n: int, k: int, engine: str):
    concrete = kstate_program(n, k)
    spec = utr_program(n)
    alpha = utr_abstraction(n, k)
    size = concrete.schema().size()
    start = time.perf_counter()
    result = check_stabilization(
        concrete, spec, alpha, compute_steps=False, engine=engine
    )
    seconds = time.perf_counter() - start
    return seconds, size, result


def _cell(n: int, k: int, engine: str):
    """One timed check: (seconds, states, verdict text, peak RSS KiB)."""
    seconds, size, result = _timed_check(n, k, engine)
    return seconds, size, result.format(), _peak_rss_kib()


def _sweep_cells(sweep, engines):
    """Run every (configuration, engine) cell in its own spawned child.

    ``ru_maxrss`` only rises, so a fresh interpreter per cell is what
    makes each peak RSS that cell's own rather than the highest
    footprint seen so far in the sweep.  Yields ``(n, k, states,
    {engine: (seconds, peak RSS KiB)})`` after asserting the engines'
    verdicts byte-identical.
    """
    spawn = multiprocessing.get_context("spawn")
    for n, k in sweep:
        verdicts = {}
        cells = {}
        for engine in engines:
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                seconds, size, verdict, rss = pool.submit(
                    _cell, n, k, engine
                ).result()
            verdicts[engine] = verdict
            cells[engine] = (seconds, rss)
        reference = verdicts[engines[0]]
        assert all(text == reference for text in verdicts.values()), (
            f"verdict diverged at n={n}, k={k}"
        )
        yield n, k, size, cells


def _sweep_rows():
    """P02 rows: tuple vs packed, states/sec and peak RSS per engine."""
    rows = []
    for n, k, size, cells in _sweep_cells(SWEEP, ("tuple", "packed")):
        (tuple_s, tuple_rss), (packed_s, packed_rss) = (
            cells["tuple"], cells["packed"]
        )
        rows.append(
            {
                "n": n,
                "k": k,
                "states": size,
                "tuple_s": round(tuple_s, 4),
                "packed_s": round(packed_s, 4),
                "tuple_states_per_s": round(size / tuple_s),
                "packed_states_per_s": round(size / packed_s),
                "speedup": round(tuple_s / packed_s, 2),
                "tuple_peak_rss_kib": tuple_rss,
                "packed_peak_rss_kib": packed_rss,
            }
        )
    return rows


def _vector_sweep_rows():
    """P05 rows: packed vs vector, states/sec and peak RSS per engine."""
    rows = []
    for n, k, size, cells in _sweep_cells(VECTOR_SWEEP, ("packed", "vector")):
        (packed_s, packed_rss), (vector_s, vector_rss) = (
            cells["packed"], cells["vector"]
        )
        rows.append(
            {
                "n": n,
                "k": k,
                "states": size,
                "packed_s": round(packed_s, 4),
                "vector_s": round(vector_s, 4),
                "packed_states_per_s": round(size / packed_s),
                "vector_states_per_s": round(size / vector_s),
                "speedup": round(packed_s / vector_s, 2),
                "packed_peak_rss_kib": packed_rss,
                "vector_peak_rss_kib": vector_rss,
            }
        )
    return rows


def test_p02_kernel_scaling(benchmark, record_table):
    rows = benchmark.pedantic(_sweep_rows, rounds=1, iterations=1)
    largest = rows[-1]
    assert largest["speedup"] >= REQUIRED_SPEEDUP, (
        f"packed engine only {largest['speedup']}x over tuple on "
        f"{largest['states']} states; the kernel's headline claim is "
        f">= {REQUIRED_SPEEDUP}x"
    )
    record_table(
        "p02_kernel_scaling",
        format_table(
            rows,
            columns=[
                "n", "k", "states", "tuple_s", "packed_s",
                "tuple_states_per_s", "packed_states_per_s",
                "speedup", "tuple_peak_rss_kib", "packed_peak_rss_kib",
            ],
            title=(
                "P02 packed kernel throughput: K-state(n, k=n) "
                "stabilizing to UTR, tuple vs packed"
            ),
        ),
        rows=rows,
    )


def test_p02_kernel_counters(benchmark, record_metrics):
    recorder = Recorder(kind="bench")
    recorder.annotate(experiment="p02_kernel", n=5, k=5, engine="packed")

    def instrumented():
        return check_stabilization(
            kstate_program(5, 5),
            utr_program(5),
            utr_abstraction(5, 5),
            compute_steps=False,
            engine="packed",
            instrumentation=recorder,
        )

    result = benchmark.pedantic(instrumented, rounds=1, iterations=1)
    assert result.holds
    record = recorder.record()
    assert record.counters.get("engine.packed") == 1
    assert record.counters.get("check.states.enumerated", 0) > 0
    record_metrics("p02_kernel", recorder)


@needs_numpy
def test_p05_vector_scaling(benchmark, record_table):
    rows = benchmark.pedantic(_vector_sweep_rows, rounds=1, iterations=1)
    largest = rows[-1]
    assert largest["speedup"] >= REQUIRED_VECTOR_SPEEDUP, (
        f"vector engine only {largest['speedup']}x over packed on "
        f"{largest['states']} states; the frontier arrays' headline "
        f"claim is >= {REQUIRED_VECTOR_SPEEDUP}x"
    )
    record_table(
        "p05_vector_scaling",
        format_table(
            rows,
            columns=[
                "n", "k", "states", "packed_s", "vector_s",
                "packed_states_per_s", "vector_states_per_s",
                "speedup", "packed_peak_rss_kib", "vector_peak_rss_kib",
            ],
            title=(
                "P05 vector engine throughput: K-state(n, k=n) "
                "stabilizing to UTR, packed vs vector"
            ),
        ),
        rows=rows,
    )


def _run_mega_child(argv, timeout=3600):
    """Run ``run_mega.py`` in a child process and parse its JSON row.

    A child per configuration keeps ``ru_maxrss`` honest: it measures
    the shared engine alone — the parent's earlier sweeps would
    otherwise dominate the high-water mark."""
    root = pathlib.Path(__file__).resolve().parent.parent
    runner = root / "benchmarks" / "run_mega.py"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(root / "src"), env.get("PYTHONPATH")) if path
    )
    completed = subprocess.run(
        [sys.executable, str(runner), *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert completed.returncode == 0, (
        f"mega run {argv} failed:\n{completed.stderr}"
    )
    return json.loads(completed.stdout)


def _mega_rows():
    """P09/P10 rows, one child process per configuration."""
    rows = []
    for n, k, budget in MEGA_SWEEP:
        row = _run_mega_child(
            ["--n", str(n), "--k", str(k), "--mem-budget", budget]
        )
        rows.append(
            {
                "n": n,
                "k": k,
                "states": row["states"],
                "seconds": row["seconds"],
                "states_per_s": row["states_per_s"],
                "peak_rss_kib": row["peak_rss_kib"],
                "budget_kib": row["budget_bytes"] // 1024,
                "code_width": row["code_width"],
                "spill_files": row["counters"].get("shm.spill.files", 0),
                "spill_mib": round(
                    row["counters"].get("shm.spill.bytes", 0) / (1 << 20), 1
                ),
                "holds": row["holds"],
                "engine": row["engine"],
            }
        )
    return rows


def _update_bench_trajectory(rows):
    """Mirror the mega rows into the top-level ``BENCH_kernel.json``.

    The file is the repository's canonical perf trajectory: one row
    per (n, k, budget) configuration with the fields downstream
    tooling tracks across PRs.  Rows are keyed by configuration so a
    re-run updates in place instead of appending duplicates."""
    root = pathlib.Path(__file__).resolve().parent.parent
    path = root / "BENCH_kernel.json"
    payload = {"description": (
        "Canonical shared-engine trajectory: the mega smoke points "
        "from benchmarks/bench_kernel.py (run_mega.py child runs). "
        "Updated in place by test_p09_mega_bounded_rss."
    ), "rows": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing.get("rows"), list):
                payload["rows"] = existing["rows"]
        except (json.JSONDecodeError, OSError):
            pass
    keyed = {
        (row.get("n"), row.get("k"), row.get("budget_kib")): row
        for row in payload["rows"]
    }
    for row in rows:
        keyed[(row["n"], row["k"], row["budget_kib"])] = {
            "n": row["n"],
            "k": row["k"],
            "budget_kib": row["budget_kib"],
            "engine": row["engine"],
            "states": row["states"],
            "states_per_s": row["states_per_s"],
            "peak_rss_kib": row["peak_rss_kib"],
            "code_width": row["code_width"],
        }
    payload["rows"] = sorted(
        keyed.values(), key=lambda row: (row["states"], row["budget_kib"])
    )
    path.write_text(json.dumps(payload, indent=2) + "\n")


@needs_numpy
def test_p09_mega_bounded_rss(benchmark, record_table):
    """The shared engine's headline claim: state spaces past the
    vector ceiling complete with RSS bounded by the budget plus the
    documented baseline allowance, spilling the excess to disk."""
    rows = benchmark.pedantic(_mega_rows, rounds=1, iterations=1)
    for row in rows:
        assert row["holds"], f"verdict broke at {row['states']} states"
        assert row["engine"] == "shared", (
            f"expected the shared engine, got {row['engine']}"
        )
        assert row["spill_files"] > 0, (
            "the budget never tripped the spill path — the bounded-RSS "
            "claim was not exercised"
        )
        # Every sweep configuration fits int32 and exceeds int16: the
        # adaptive width must land on 4 bytes.
        assert row["code_width"] == 4, (
            f"expected int32 packing, got width {row['code_width']} at "
            f"{row['states']} states"
        )
        ceiling = _mega_rss_ceiling_kib(row["budget_kib"], row["states"])
        assert row["peak_rss_kib"] <= ceiling, (
            f"peak RSS {row['peak_rss_kib']} KiB exceeds the documented "
            f"envelope {ceiling} KiB (budget {row['budget_kib']} KiB + "
            f"{MEGA_RSS_ALLOWANCE_KIB} KiB baseline + "
            f"{MEGA_RSS_SPILL_RESIDENCY_B} B/state) at "
            f"{row['states']} states"
        )
    assert max(row["states"] for row in rows) >= 50_000_000, (
        "the default mega smoke must demonstrate >= 5x10^7 states"
    )
    _update_bench_trajectory(rows)
    record_table(
        "p09_mega_scaling",
        format_table(
            rows,
            columns=[
                "n", "k", "states", "seconds", "states_per_s",
                "peak_rss_kib", "budget_kib", "code_width",
                "spill_files", "spill_mib",
            ],
            title=(
                "P09/P10 shared engine at mega scale: K-state(n, k) "
                "stabilizing to UTR under a hard memory budget"
            ),
        ),
        rows=rows,
        engine="shared",
    )


@needs_numpy
def test_p10_mega_ablation(benchmark, record_table):
    """Each P10 axis must carry deterministic, measurable weight:
    packing halves the spilled bytes per state (the narrow dtype is
    exactly half of int64), and table reuse serves re-walked chunks
    from cache instead of re-lowering them.  Wall-clock is recorded
    per row but not asserted — at the smoke points the peel phases are
    sort/IO-bound, so throughput deltas sit inside machine noise while
    the work elimination is exact (see docs/PERFORMANCE.md)."""
    n, k, budget = MEGA_ABLATION_POINT

    def ablation_rows():
        rows = _run_mega_child(
            ["--n", str(n), "--k", str(k), "--mem-budget", budget,
             "--ablate"]
        )
        return {row["mode"]: row for row in rows}

    by_mode = benchmark.pedantic(ablation_rows, rounds=1, iterations=1)
    assert set(by_mode) == {"full", "no-pack", "no-tables", "no-mmap"}
    for mode, row in by_mode.items():
        assert row["holds"], f"verdict broke in ablation mode {mode}"
        assert row["engine"] == "shared", mode
    full, no_pack = by_mode["full"], by_mode["no-pack"]
    assert full["code_width"] == 4 and no_pack["code_width"] == 8
    assert full["spill_bytes_per_state"] > 0
    assert (
        no_pack["spill_bytes_per_state"]
        >= 1.9 * full["spill_bytes_per_state"]
    ), "int32 packing must (about) halve the spilled bytes per state"
    assert full["relowering_avoided_codes"] > 0, (
        "table reuse served no re-walked chunk from cache"
    )
    assert full["counters"].get("kernel.tables.hits", 0) > 0
    assert by_mode["no-tables"]["relowering_avoided_codes"] == 0
    rows = [
        {
            "mode": mode,
            "states": row["states"],
            "seconds": row["seconds"],
            "states_per_s": row["states_per_s"],
            "peak_rss_kib": row["peak_rss_kib"],
            "code_width": row["code_width"],
            "spill_bytes_per_state": row["spill_bytes_per_state"],
            "relowering_avoided_codes": row["relowering_avoided_codes"],
            "table_hits": row["counters"].get("kernel.tables.hits", 0),
        }
        for mode, row in by_mode.items()
    ]
    record_table(
        "p10_mega_ablation",
        format_table(
            rows,
            columns=[
                "mode", "states", "seconds", "states_per_s", "peak_rss_kib",
                "code_width", "spill_bytes_per_state",
                "relowering_avoided_codes", "table_hits",
            ],
            title=(
                f"P10 ablation at K-state({n}, {k}) under {budget}: "
                "packing, table reuse, and mmap visited each toggled off"
            ),
        ),
        rows=rows,
        engine="shared",
    )


@needs_numpy
def test_p05_vector_counters(benchmark, record_metrics, results_dir):
    recorder = Recorder(kind="bench")
    recorder.annotate(experiment="p05_vector", n=6, k=6, engine="vector")

    def instrumented():
        return check_stabilization(
            kstate_program(6, 6),
            utr_program(6),
            utr_abstraction(6, 6),
            compute_steps=False,
            engine="vector",
            instrumentation=recorder,
        )

    result = benchmark.pedantic(instrumented, rounds=1, iterations=1)
    assert result.holds
    record = recorder.record()
    assert record.counters.get("engine.vector") == 1
    assert record.counters.get("check.states.enumerated", 0) > 0
    record_metrics("p05_vector", recorder)
    payload = json.loads(
        (results_dir / "p05_vector.metrics.json").read_text()
    )
    environment = payload["environment"]
    assert environment["engine"] == "vector"
    assert environment["numpy"] is not None
    assert environment["python"]
