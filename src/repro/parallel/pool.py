"""The fork-based worker pool behind every parallel phase.

The pool exploits copy-on-write ``fork`` semantics instead of pickling
work context: the driver stashes the per-phase context (a streamed
kernel and its round parameters, parsed specs, campaign cells) in a
module-level slot, and every task attempt forks a child that inherits
it for free.  Only the small per-task payloads (partition indices,
spec paths, cell ids) cross into the dispatch call, and only results
cross back as pickles.  This is what lets lowered closures and
abstraction functions — unpicklable by design — ride along into the
workers untouched.

Three callers open a pool: the shared engine's rounds
(:mod:`repro.kernel.shared`), ``verify-tree`` (one task per spec) and
the campaign executor (one task per cell).  The tuple, packed and
vector engines decide in one process at every worker count.

Since the supervised-execution rework, dispatch runs on
:mod:`repro.resilience.supervisor` rather than a raw
``multiprocessing.Pool``: each task attempt is its own forked,
pipe-connected child under the process's active
:class:`~repro.resilience.policy.SupervisionPolicy`.  A worker killed
mid-task (OOM, SIGKILL) or stuck past the task timeout is detected
and retried with deterministic backoff instead of hanging ``map``;
a task that keeps failing abnormally is quarantined to an inline
run in the driver — the guaranteed sequential fallback, with the
byte-identical result.  Recoveries surface as ``resilience.*``
counters/events.

Consequences callers must respect:

* a :class:`WorkerPool`'s context is frozen at ``__enter__``; a phase
  whose shared data changes between rounds (the shared engine's
  eviction rounds) opens a fresh pool per round — forks happen per
  task either way, which on Linux is a handful of milliseconds;
* on platforms without ``fork`` (or inside a daemonic worker process,
  where nested pools are forbidden) :func:`resolve_workers` degrades
  to ``1`` and every caller falls back to the sequential path — the
  verdict is identical either way, only the wall-clock changes;
* an :meth:`WorkerPool.imap_unordered` iterator is only consumable
  inside the pool's ``with`` block; consuming it later raises
  ``RuntimeError`` instead of forking against torn-down context.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..resilience.supervisor import supervised_map, supervised_unordered

from ..obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    NullInstrumentation,
    Recorder,
    RunRecord,
)

__all__ = [
    "WorkerPool",
    "parallel_available",
    "resolve_workers",
    "worker_context",
    "worker_instrumentation",
    "using_worker_instrumentation",
]

T = TypeVar("T")
R = TypeVar("R")


class _PoolIterator(Iterator[R]):
    """An :meth:`WorkerPool.imap_unordered` result stream.

    Bound to its pool's ``with`` block: advancing it after ``__exit__``
    raises ``RuntimeError`` (the staged context is gone, so forking
    another attempt would compute against torn-down state) — even
    though :meth:`close` has already reaped the in-flight children.
    """

    def __init__(
        self, pool: "WorkerPool", inner: Iterator[Tuple[int, R]]
    ) -> None:
        self._pool = pool
        self._inner = inner

    def __iter__(self) -> "Iterator[R]":
        return self

    def __next__(self) -> R:
        if not self._pool._active:
            raise RuntimeError(
                "WorkerPool.imap_unordered iterator consumed after the "
                "pool's context exited"
            )
        _, result = next(self._inner)
        return result

    def close(self) -> None:
        """Tear down the supervised stream, reaping in-flight children."""
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()

#: The per-phase context inherited by forked workers.  Written by
#: :meth:`WorkerPool.__enter__` in the parent immediately before the
#: fork; read by the pool task functions running in the children.
_WORKER_CONTEXT: Dict[str, object] = {}

#: The instrumentation worker-side task code reports through.  In the
#: parent (and in sequential fallbacks) it is whatever the driver
#: installed with :func:`using_worker_instrumentation`; inside an
#: observed pool task it is the per-batch :class:`Recorder` staged by
#: :func:`_observed_task`.  Defaults to the null object, so task code
#: can always call :func:`worker_instrumentation` unconditionally.
_WORKER_INSTRUMENTATION: List[Instrumentation] = [NULL_INSTRUMENTATION]


def worker_context() -> Dict[str, object]:
    """The live context mapping (parent: staging; child: inherited)."""
    return _WORKER_CONTEXT


def worker_instrumentation() -> Instrumentation:
    """The instrumentation task code in this process reports through."""
    return _WORKER_INSTRUMENTATION[0]


@contextmanager
def using_worker_instrumentation(
    instrumentation: Instrumentation,
) -> Iterator[Instrumentation]:
    """Install ``instrumentation`` as this process's worker sink.

    Sequential drivers (and the campaign's in-process executor) use
    this so the same task code reports to the run's recorder whether
    it runs forked or inline; the previous sink is restored on exit.
    """
    previous = _WORKER_INSTRUMENTATION[0]
    _WORKER_INSTRUMENTATION[0] = instrumentation
    try:
        yield instrumentation
    finally:
        _WORKER_INSTRUMENTATION[0] = previous


def _observed_task(
    payload: "Tuple[Callable[[T], R], T]",
) -> "Tuple[R, RunRecord]":
    """Run one task batch under a fresh worker-side recorder.

    Executes in the child: the per-batch :class:`Recorder` (with its
    own absolute ``wall_base``) is installed as the worker sink for the
    duration of the task, then snapshotted and shipped back over the
    result channel next to the task's own result.  The record counts
    the batch itself as ``parallel.worker.batches``.
    """
    task, batch = payload
    recorder = Recorder(kind="worker")
    with using_worker_instrumentation(recorder):
        result = task(batch)
    recorder.count("parallel.worker.batches")
    return result, recorder.record()


def parallel_available() -> bool:
    """Whether fork-based worker pools can run on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: int) -> int:
    """Clamp a requested worker count to what this process can use.

    Args:
        workers: requested degree of parallelism (``1`` = sequential).

    Returns:
        ``workers`` when fork-based pools are usable here, else ``1``
        (no ``fork`` start method, or we are already inside a daemonic
        pool worker, which may not spawn children).

    Raises:
        ValueError: when ``workers`` is not positive.
    """
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    if workers == 1:
        return 1
    if not parallel_available():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return workers


class WorkerPool:
    """A context-managed, supervised fork pool with copy-on-write work
    context.

    Args:
        workers: maximum concurrent worker processes (must be >= 2;
            callers resolve ``1`` to the sequential path before
            getting here).
        context: the phase context the workers inherit (kernels,
            parsed specs, abstraction closures).

    Example::

        with WorkerPool(4, verify_jobs=jobs) as pool:
            results = pool.map(_verify_spec_task, paths)

    Dispatch is supervised (see :mod:`repro.resilience.supervisor`):
    worker death and task timeouts retry under the process's active
    :class:`~repro.resilience.policy.SupervisionPolicy`, and tasks
    that exhaust their retries run inline in the driver.  Results,
    result order, and exception propagation match the raw pool's
    exactly.
    """

    def __init__(self, workers: int, **context: object):
        if workers < 2:
            raise ValueError(
                f"WorkerPool needs at least 2 workers, got {workers}"
            )
        self.workers = workers
        self._context = context
        self._active = False
        self._saved: Optional[Dict[str, object]] = None
        self._iterators: List[Iterator[object]] = []

    def __enter__(self) -> "WorkerPool":
        self._saved = dict(_WORKER_CONTEXT)
        _WORKER_CONTEXT.clear()
        _WORKER_CONTEXT.update(self._context)
        self._active = True
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._active = False
        # Closing a live imap generator runs its ``finally`` and reaps
        # any children still in flight (e.g. after KeyboardInterrupt
        # escaped the consuming loop).
        for iterator in self._iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()
        self._iterators.clear()
        _WORKER_CONTEXT.clear()
        if self._saved is not None:
            _WORKER_CONTEXT.update(self._saved)
            self._saved = None
        return False

    def _require_active(self) -> None:
        if not self._active:
            raise RuntimeError("WorkerPool used outside its context")

    def map(
        self, task: Callable[[T], R], batches: Sequence[T]
    ) -> List[R]:
        """Run ``task`` over ``batches`` across the workers, in order."""
        self._require_active()
        return supervised_map(
            task,
            batches,
            self.workers,
            instrumentation=worker_instrumentation(),
        )

    def map_observed(
        self,
        task: Callable[[T], R],
        batches: Sequence[T],
        instrumentation: Instrumentation,
    ) -> List[R]:
        """Like :meth:`map`, but collect worker telemetry.

        Each batch runs under a fresh worker-side :class:`Recorder`
        (see :func:`_observed_task`); the per-batch records travel
        back with the results and are folded into ``instrumentation``
        via ``absorb`` — deterministically, in batch order.  With the
        null instrumentation this is exactly :meth:`map`: no wrapper,
        no recorder, no extra pickling.  Supervision recoveries
        (retries, quarantines) report to ``instrumentation`` directly
        — they are driver-side events, not worker records.  The driver
        counts the dispatched batches as ``parallel.batches``; each
        absorbed record adds one ``parallel.worker.batches``, so the
        two agree once every batch has come back.

        ``task`` must be a module-level function (it crosses into the
        child by fork, like every pool task).
        """
        if type(instrumentation) in (Instrumentation, NullInstrumentation):
            return self.map(task, batches)
        self._require_active()
        instrumentation.count("parallel.batches", len(batches))
        pairs = supervised_map(
            _observed_task,
            [(task, batch) for batch in batches],
            self.workers,
            instrumentation=instrumentation,
            label=getattr(task, "__name__", "task"),
        )
        results: List[R] = []
        for result, record in pairs:
            instrumentation.absorb(record)
            results.append(result)
        return results

    def imap_unordered(
        self, task: Callable[[T], R], items: Sequence[T]
    ) -> Iterable[R]:
        """Yield ``task`` results as they complete, in any order.

        The campaign executor consumes this so finished cells can be
        checkpointed the moment they land, regardless of grid order.
        The iterator is bound to the pool's ``with`` block: advancing
        it after ``__exit__`` raises ``RuntimeError`` — the staged
        context is gone, so forking another attempt would compute
        against torn-down state.
        """
        self._require_active()
        iterator = _PoolIterator(
            self,
            supervised_unordered(
                task,
                items,
                self.workers,
                instrumentation=worker_instrumentation(),
            ),
        )
        self._iterators.append(iterator)
        return iterator

