"""P09/P10 mega-scale runner: one K-state ring through the shared engine.

Streams the full stabilization check of K-state(n, k) refining the
unidirectional token ring through the shared-memory engine under an
explicit ``--mem-budget``, and prints one JSON row: states checked,
wall seconds, **this process's own** peak RSS (``ru_maxrss``, which is
why the bench suite runs this module as a subprocess — the parent's
NumPy baseline and earlier sweeps must not pollute the high-water
mark), the chosen code width, the verdict, the engine that actually
ran, and the ``shm.*`` / ``kernel.tables.*`` staging counters.

``--ablate`` runs the P10 ablation grid instead: the same
configuration four times — everything on, then adaptive code-width
packing, cross-round table reuse, and the mmap visited backing each
switched off in turn — and prints one row per mode, so the
contribution of each axis (bytes spilled per state, table hits and
re-lowering avoided, states/s, peak RSS) is measured rather than
asserted from theory.  Each mode runs in its own freshly spawned
interpreter, so its ``peak_rss_kib`` is that mode's high-water mark,
not the grid's.  Ablation rows run with ``compute_steps=True``, the
heavier path: one depth-tracking peel decides divergence and the worst
case together.  No chunk is walked three times on that path either,
so the table pool is consulted but serves no hit.

Standalone usage:

    PYTHONPATH=src python benchmarks/run_mega.py --n 7 --k 7 \
        --mem-budget 16M
    PYTHONPATH=src python benchmarks/run_mega.py --n 7 --k 13 \
        --mem-budget 512M          # 62.7M states, the P10 smoke point
    PYTHONPATH=src python benchmarks/run_mega.py --n 9 --k 8 \
        --mem-budget 1G            # 134M states (REPRO_MEGA point)
    PYTHONPATH=src python benchmarks/run_mega.py --n 7 --k 7 \
        --mem-budget 16M --ablate
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

#: Ablation modes: name -> context-flag overrides.
ABLATION_MODES = (
    ("full", {}),
    ("no-pack", {"pack_codes": False}),
    ("no-tables", {"reuse_tables": False}),
    ("no-mmap", {"mmap_visited": False}),
)


def _run_once(
    args, budget_bytes: int, overrides: dict, compute_steps: bool = False
) -> dict:
    from repro.checker import check_stabilization
    from repro.kernel.shared import using_memory_budget
    from repro.obs import Recorder
    from repro.rings import kstate_program, utr_abstraction, utr_program

    concrete = kstate_program(args.n, args.k)
    recorder = Recorder(kind="bench")
    recorder.annotate(
        experiment="p09_mega", n=args.n, k=args.k, engine="shared",
        budget=budget_bytes, workers=args.workers, **overrides,
    )
    start = time.perf_counter()
    with using_memory_budget(
        args.mem_budget, spill_dir=args.spill_dir, **overrides
    ):
        result = check_stabilization(
            concrete,
            utr_program(args.n),
            utr_abstraction(args.n, args.k),
            compute_steps=compute_steps,
            engine="shared",
            workers=args.workers,
            instrumentation=recorder,
        )
    seconds = time.perf_counter() - start
    record = recorder.record()
    widths = [
        event.fields for event in record.events
        if event.name == "shm.code_width"
    ]
    size = concrete.schema().size()
    counters = {
        name: value
        for name, value in sorted(record.counters.items())
        if name.startswith(("shm.", "engine.", "kernel.tables."))
    }
    return {
        "n": args.n,
        "k": args.k,
        "states": size,
        "seconds": round(seconds, 3),
        "states_per_s": round(size / seconds),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "budget_bytes": budget_bytes,
        "workers": args.workers,
        "code_width": widths[0]["width"] if widths else None,
        "spill_bytes_per_state": round(
            counters.get("shm.spill.bytes", 0) / size, 2
        ),
        "relowering_avoided_codes": counters.get(
            "kernel.tables.hit_codes", 0
        ),
        "holds": result.holds,
        "engine": result.engine,
        "counters": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="stream one K-state ring through the shared engine"
    )
    parser.add_argument("--n", type=int, default=7, help="ring size")
    parser.add_argument("--k", type=int, default=7, help="token modulus")
    parser.add_argument(
        "--mem-budget", default="256M",
        help="working-set budget for the shared engine (e.g. 16M, 1.5G)",
    )
    parser.add_argument(
        "--spill-dir", default=None,
        help="directory for out-of-core spill files (default: a temp dir)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    parser.add_argument(
        "--ablate", action="store_true",
        help="run the width/reuse/mmap ablation grid (one row per mode)",
    )
    parser.add_argument(
        "--json", default=None,
        help="write the result row(s) here instead of stdout",
    )
    args = parser.parse_args(argv)

    from repro.kernel.shared import parse_mem_budget

    budget_bytes = parse_mem_budget(args.mem_budget)
    if args.ablate:
        rows = []
        spawn = multiprocessing.get_context("spawn")
        for mode, overrides in ABLATION_MODES:
            # A fresh interpreter per mode: ``ru_maxrss`` only rises.
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                row = pool.submit(
                    _run_once, args, budget_bytes, overrides, True
                ).result()
            row["mode"] = mode
            rows.append(row)
        payload = rows
        ok = all(row["holds"] for row in rows)
    else:
        row = _run_once(args, budget_bytes, {})
        payload = row
        ok = row["holds"]

    text = json.dumps(payload, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
