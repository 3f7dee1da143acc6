"""Spans recorded from the benchmark's own files around calls into each
layer of the checker.

A traced child wraps the callables listed in :data:`LAYERS` where their
callers resolve them (package attributes the checker imports at call
time, class attributes for methods), runs its checks, and keeps every
span — name, start, end, parent, check — in memory until it exits.  A
layer's self time is its spans' duration minus the part their child
spans cover.  Generator and iterator results are timed per resumption,
so the work a streamed result does is charged to the layer that made
it, not to the one consuming it.

Spans inside the program itself are a later change; nothing here edits
the program.
"""

from __future__ import annotations

import collections.abc
import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The root span around each timed check; its self time is what no
#: layer covers.
CHECK = "check"

#: (span name, what to count, callables wrapped under that name).
#: ``calls`` counts entries, ``codes`` sums the length of the first
#: array argument.  Each target is ``module:attribute[.attribute]``.
LAYERS: Tuple[Tuple[str, Optional[str], Tuple[str, ...]], ...] = (
    ("gcl.parse", "calls", ("repro.gcl:parse_program",)),
    ("gcl.compile", None, ("repro.gcl.program:Program.compile",)),
    ("kernel.packed.lower", None, ("repro.kernel:as_kernel",)),
    (
        "kernel.packed.fixpoint",
        None,
        tuple(
            f"repro.kernel:packed_{name}"
            for name in ("reachable", "core", "has_cycle", "terminals", "longest_path")
        ),
    ),
    (
        "kernel.vector.lower",
        None,
        ("repro.kernel.vector.kernel:VectorKernel.from_program",),
    ),
    (
        "kernel.vector.expand",
        "calls",
        tuple(
            f"repro.kernel.vector.kernel:VectorKernel.{name}"
            for name in ("succ_pairs", "has_edge", "terminal_flags")
        ),
    ),
    (
        "kernel.vector.fixpoint",
        None,
        tuple(
            f"repro.kernel.vector:vector_{name}"
            for name in ("reachable", "core", "has_cycle", "terminals", "longest_path")
        ),
    ),
    (
        "kernel.shared.lower",
        None,
        (
            "repro.kernel.shared.kernel:SharedKernel.__init__",
            "repro.kernel.shared.kernel:SharedKernel.action_matrix",
        ),
    ),
    (
        "kernel.shared.expand",
        "codes",
        tuple(
            f"repro.kernel.shared.kernel:SharedKernel.{name}"
            for name in ("succ_pairs", "has_edge", "terminal_chunk")
        ),
    ),
    # The per-chunk evaluator behind a table-pool miss: without it the
    # evaluation a pool refill resumes would count as probe time.
    (
        "kernel.shared.expand",
        None,
        ("repro.kernel.shared.kernel:SharedKernel._stream_actions",),
    ),
    ("kernel.shared.image", None, ("repro.kernel.shared.image:SharedImage.of",)),
    ("kernel.shared.fixpoint.core", None, ("repro.kernel.shared:shared_core",)),
    (
        "kernel.shared.fixpoint.terminals",
        None,
        ("repro.kernel.shared:shared_terminals",),
    ),
    (
        "kernel.shared.fixpoint.has_cycle",
        None,
        ("repro.kernel.shared:shared_has_cycle",),
    ),
    (
        "kernel.shared.fixpoint.longest_path",
        None,
        ("repro.kernel.shared:shared_longest_path",),
    ),
    (
        "kernel.shared.spill.write",
        None,
        (
            "repro.kernel.shared.spill:SpillStore.save_sorted",
            "repro.kernel.shared.spill:_BucketWriter.append",
        ),
    ),
    (
        "kernel.shared.spill.read",
        None,
        (
            "repro.kernel.shared.spill:SpillStore.load",
            "repro.kernel.shared.spill:SpillStore.load_bucket_sorted",
        ),
    ),
    (
        "kernel.shared.tables.probe",
        None,
        (
            "repro.kernel.shared.tables:TablePool.lookup",
            "repro.kernel.shared.tables:TablePool.filling",
        ),
    ),
    (
        "parallel.map",
        "calls",
        tuple(
            f"repro.parallel.pool:WorkerPool.{name}"
            for name in ("map", "map_observed", "imap_unordered")
        ),
    ),
    (
        "checker.witness",
        None,
        (
            "repro.checker.convergence:find_cycle_within",
            "repro.checker.convergence:states_on_cycles",
            "repro.checker.convergence:find_fair_trap",
            "repro.kernel.successors:PackedKernel.materialize",
            "repro.kernel.vector.kernel:VectorKernel.materialize",
            "repro.kernel.shared.kernel:SharedKernel.materialize",
        ),
    ),
)

#: Checker phases, read from the checker's own Recorder spans.
PHASES = (
    ("legitimate", "check.legitimate"),
    ("core", "check.core"),
    ("deadlock_search", "check.deadlock_search"),
    ("cycle_search", "check.cycle_search"),
    ("invisible_cycles", "check.invisible_cycles"),
    ("worst_case", "check.worst_case"),
    ("refine", "refine.total"),
)


class Tracer:
    """Spans of one process, kept in memory.

    Each span is ``[name, start, end, parent, check]``: ``parent`` is
    the index of the enclosing span (``-1`` for a root) and ``check``
    the number of the timed check it belongs to.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, int] = collections.Counter()
        self.check = -1
        self._open: List[int] = []

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, self.check])
        self._open.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = collections.defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, covered):
            totals[name] += (end - start) - children
        return dict(totals)

    def write(self, path: str) -> None:
        """One JSON array per span, in enter order."""
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span) + "\n")


def _resumptions(tracer: Tracer, name: str, inner: Iterator) -> Iterator:
    """Re-yield ``inner``, timing each resumption as a ``name`` span."""
    try:
        while True:
            index = tracer.enter(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.exit(index)
            yield item
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()


def traced(
    tracer: Tracer, name: str, count: Optional[str], function: Callable
) -> Callable:
    """``function`` under a ``name`` span (and counter, if any)."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if count == "calls":
            tracer.counts[f"{name}.calls"] += 1
        elif count == "codes":
            tracer.counts[f"{name}.codes"] += len(args[1])
        index = tracer.enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit(index)
        if isinstance(result, collections.abc.Iterator):
            return _resumptions(tracer, name, result)
        return result

    return wrapper


def _wrap(tracer: Tracer, target: str, name: str, count: Optional[str]) -> bool:
    """Replace one target with its traced form; False if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return False
    raw = vars(owner).get(attribute)
    if raw is None:
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        replacement = type(raw)(traced(tracer, name, count, raw.__func__))
    else:
        replacement = traced(tracer, name, count, raw)
    setattr(owner, attribute, replacement)
    return True


def install(tracer: Tracer) -> List[str]:
    """Wrap every layer target; returns the targets that no longer exist."""
    return [
        target
        for name, count, targets in LAYERS
        for target in targets
        if not _wrap(tracer, target, name, count)
    ]


def layer_metrics(
    tracer: Tracer, counters: Dict[str, int], phases: Dict[str, float],
    checks: int,
) -> Dict[str, float]:
    """Per-check layer metrics of one traced child.

    ``counters`` are the checker's Recorder counters and ``phases`` its
    span totals by name; every time and count is divided by ``checks``
    so children that ran different numbers of checks compare.
    """
    selfs = tracer.self_times()
    metrics: Dict[str, float] = {}
    for name, count, _ in LAYERS:
        metrics[f"{name}.s"] = selfs.get(name, 0.0) / checks
        if count is not None:
            metrics[f"{name}.{count}"] = tracer.counts.get(f"{name}.{count}", 0) / checks
    for short, span in PHASES:
        metrics[f"checker.phase.{short}.s"] = phases.get(span, 0.0) / checks
    metrics["kernel.shared.spill.bytes"] = counters.get("shm.spill.bytes", 0) / checks
    metrics["kernel.shared.visited.mmap_bytes"] = (
        counters.get("shm.visited.mmap_bytes", 0) / checks
    )
    hits = counters.get("kernel.tables.hits", 0)
    lookups = hits + counters.get("kernel.tables.misses", 0)
    metrics["kernel.shared.tables.lookups"] = lookups / checks
    metrics["kernel.shared.tables.hit_ratio"] = hits / lookups if lookups else 0.0
    wall = sum(
        end - start for name, start, end, parent, _ in tracer.spans
        if name == CHECK and parent < 0
    )
    metrics["trace.coverage"] = (1.0 - selfs.get(CHECK, 0.0) / wall) if wall else 0.0
    return metrics


def metric_names() -> Sequence[str]:
    """Every per-layer metric a traced run reports, in report order."""
    return list(layer_metrics(Tracer(), {}, {}, 1)) + [
        "parallel.worker_peak_rss_mib",
        "trace.overhead_ratio",
    ]
