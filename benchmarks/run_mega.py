"""P09 mega-scale runner: one K-state ring through the shared engine.

Streams the full stabilization check of K-state(n, k) refining the
unidirectional token ring through the shared-memory engine under an
explicit ``--mem-budget``, and prints one JSON row: states checked,
wall seconds, **this process's own** peak RSS (``ru_maxrss``, which is
why the bench suite runs this module as a subprocess — the parent's
NumPy baseline and earlier sweeps must not pollute the high-water
mark), the chosen code width, the verdict, the engine that actually
ran, the failing witness's kind (``null`` when the check holds), and
the ``shm.*`` / ``kernel.tables.*`` staging counters.  Exits 1 when
the check fails.

Standalone usage:

    PYTHONPATH=src python benchmarks/run_mega.py --n 7 --k 7 \
        --mem-budget 4M
    PYTHONPATH=src python benchmarks/run_mega.py --n 7 --k 13 \
        --mem-budget 512M          # 62.7M states, the P10 smoke point
    PYTHONPATH=src python benchmarks/run_mega.py --n 9 --k 8 \
        --mem-budget 1G            # 134M states (REPRO_MEGA point)
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def _run_once(args, budget_bytes: int) -> dict:
    from repro.checker import check_stabilization
    from repro.kernel.shared import using_memory_budget
    from repro.obs import Recorder
    from repro.rings import kstate_program, utr_abstraction, utr_program

    concrete = kstate_program(args.n, args.k)
    recorder = Recorder(kind="bench")
    recorder.annotate(
        experiment="p09_mega", n=args.n, k=args.k, engine="shared",
        budget=budget_bytes,
    )
    start = time.perf_counter()
    with using_memory_budget(args.mem_budget, spill_dir=args.spill_dir):
        result = check_stabilization(
            concrete,
            utr_program(args.n),
            utr_abstraction(args.n, args.k),
            compute_steps=False,
            engine="shared",
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
        "code_width": widths[0]["width"] if widths else None,
        "spill_bytes_per_state": round(
            counters.get("shm.spill.bytes", 0) / size, 2
        ),
        "relowering_avoided_codes": counters.get(
            "kernel.tables.hit_codes", 0
        ),
        "holds": result.holds,
        "witness": (
            None if result.holds else result.result.witness.kind.value
        ),
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
        "--json", default=None,
        help="write the result row here instead of stdout",
    )
    args = parser.parse_args(argv)

    from repro.kernel.shared import parse_mem_budget

    row = _run_once(args, parse_mem_budget(args.mem_budget))
    text = json.dumps(row, indent=2) + "\n"
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if row["holds"] else 1


if __name__ == "__main__":
    sys.exit(main())
