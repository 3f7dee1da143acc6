"""One benchmark child process: builds its inputs, runs its checks, and
prints what it measured as one JSON object on the last line of stdout.

``run.py`` starts every child in a fresh interpreter and runs one at a
time; this file is not meant to be started by hand.  With ``--spans``
the child wraps the checker's layers (:mod:`spans`), records the
checker's own phase spans through a ``Recorder``, and writes its spans
to that file when it ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import spans
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--window", type=float, required=True,
                        help="seconds of timed small-specs checks")
    parser.add_argument("--tmp", required=True, help="spill directory")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None, help="trace; write spans here")
    args = parser.parse_args(argv)

    # Set-up ends with every module a check calls imported and the
    # inputs built.
    import repro.checker  # noqa: F401
    import repro.gcl  # noqa: F401
    import repro.kernel.shared  # noqa: F401
    import repro.rings  # noqa: F401
    from repro.obs import NULL_INSTRUMENTATION, Recorder

    config = workloads.single(args.workload, args.smoke)
    ops = workloads.schedule(args.workload, args.seed, args.index, args.smoke)
    prebuilt = (
        {ops[0]: workloads.prepare(ops[0], config.engine, config, args.tmp)}
        if config is not None
        else {}
    )
    ready_at = time.monotonic()

    def prepared(op):
        return prebuilt.get(op) or workloads.prepare(op)

    if config is None:
        # Warm-up: lazy imports and first-use set-up finish untimed.
        for op in ops:
            prepared(op)[0](NULL_INSTRUMENTATION)

    sink = NULL_INSTRUMENTATION
    tracer = None
    missing = []
    if args.spans:
        tracer = spans.Tracer()
        missing = spans.install(tracer)
        sink = Recorder(kind="bench")

    def measure(op, check_number):
        run, states = prepared(op)
        if tracer is not None:
            tracer.check = check_number
            index = tracer.enter(spans.CHECK)
        start = time.perf_counter()
        try:
            result = run(sink)
        except Exception as exc:  # a failed check is reported, not fatal
            return {"op": op, "error": f"{type(exc).__name__}: {exc}"}
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.exit(index)
        return {
            "op": op,
            "seconds": seconds,
            "states": states,
            "digest": workloads.digest(result),
            "holds": result.holds,
            "steps": getattr(result, "worst_case_steps", None),
        }

    # Whole passes only, so every check weighs the same in every run.
    min_passes = 1 if config is not None or args.smoke else workloads.SMALL_MIN_PASSES
    checks = []
    passes = 0
    deadline = time.perf_counter() + args.window
    while passes < min_passes or time.perf_counter() < deadline:
        passes += 1
        for op in ops:
            checks.append(measure(op, len(checks)))

    report = {
        "ready_at": ready_at,
        "checks": checks,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record = sink.record()
        layers = spans.layer_metrics(
            tracer,
            record.counters,
            {name: stats.seconds for name, stats in record.spans.items()},
            max(1, len(checks)),
        )
        layers["parallel.worker_peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        report["layers"] = layers
        report["unwrapped"] = missing
        tracer.write(args.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
