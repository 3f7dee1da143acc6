"""The supervised fork-per-task executor.

``multiprocessing.Pool.map`` has a failure mode the campaign and the
spec-tree pool cannot afford: a worker killed by the kernel (OOM,
SIGKILL) takes its task's result with it and ``map`` waits forever.
This module replaces the pool with direct supervision — every task
attempt runs in its own forked child with a dedicated result pipe, and
the driver multiplexes ``multiprocessing.connection.wait`` over the
pipes with per-task deadlines:

* a child that **dies without reporting** (EOF on its pipe) is
  detected immediately: the task is retried, not hung;
* a child that **outlives the task timeout** is SIGKILLed and retried;
* retries are **bounded** (``SupervisionPolicy.max_task_retries``)
  with deterministic seeded backoff (:func:`~repro.resilience.policy.
  backoff_delay`), so a poison task cannot spin the driver;
* a task that exhausts its retries is **quarantined**: it runs inline
  in the driver — the guaranteed degradation to the sequential path,
  which produces the identical result by the package's byte-identity
  invariant;
* a task that **raises an ordinary exception** is not a supervision
  failure: the exception travels back over the pipe and re-raises in
  the driver, exactly like ``Pool.map``.

Fork-per-task keeps the copy-on-write property the old pool relied
on: each attempt forks *at dispatch*, inheriting the staged worker
context (and the active chaos plan) for free; only results cross the
pipe as pickles.

Every recovery emits a ``resilience.*`` counter and event on the
instrumentation passed in, so the chaos harness can assert not just
that a faulted run succeeded but that the intended path recovered it.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any,
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..obs import NULL_INSTRUMENTATION, Instrumentation
from . import chaos
from .policy import SupervisionPolicy, backoff_delay, current_policy

__all__ = [
    "WorkerTaskError",
    "supervised_map",
    "supervised_unordered",
]

T = TypeVar("T")
R = TypeVar("R")


class WorkerTaskError(RuntimeError):
    """Stand-in for a task exception that could not be pickled back."""


def _child_entry(
    conn: Any,
    task: Callable[[Any], Any],
    item: Any,
    label: str,
    index: int,
    attempt: int,
) -> None:
    """Body of one forked task attempt.

    Reports ``(True, result)`` or ``(False, exception)`` over the
    pipe; anything unpicklable degrades to a :class:`WorkerTaskError`
    carrying the repr.  The chaos hook runs first — only here, in the
    child, so an injected SIGKILL can never hit the driver.
    """
    try:
        chaos.on_worker_task(label, index, attempt)
        result = task(item)
    except BaseException as exc:
        try:
            conn.send((False, exc))
        except Exception:
            conn.send(
                (False, WorkerTaskError(f"{type(exc).__name__}: {exc}"))
            )
    else:
        try:
            conn.send((True, result))
        except Exception as exc:
            conn.send(
                (
                    False,
                    WorkerTaskError(
                        f"task result could not be pickled: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                )
            )
    finally:
        conn.close()


@dataclass
class _Running:
    """One in-flight task attempt under supervision."""

    index: int
    attempt: int
    process: Any
    conn: Any
    deadline: Optional[float]


def _reap(run: _Running) -> None:
    """Forcefully end one attempt (timeout or generator teardown)."""
    try:
        if run.process.is_alive():
            os.kill(run.process.pid, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    run.process.join()
    try:
        run.conn.close()
    except OSError:
        pass


def supervised_unordered(
    task: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    policy: Optional[SupervisionPolicy] = None,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    label: Optional[str] = None,
) -> Iterator[Tuple[int, R]]:
    """Yield ``(index, result)`` pairs as task attempts complete.

    Args:
        task: a module-level function (it crosses into the child by
            fork, not pickle, so closures staged in the worker context
            work too).
        items: the work items; ``index`` in the yields refers to this
            sequence.
        workers: maximum concurrent children.
        policy: supervision tunables; defaults to the process's active
            policy (:func:`~repro.resilience.policy.current_policy`).
        instrumentation: sink for the ``resilience.*`` recovery
            counters and events.
        label: phase label for events and chaos matching; defaults to
            the task function's name.

    Raises:
        BaseException: whatever a task attempt itself raised — task
            exceptions are transported, not retried (a deterministic
            task would fail identically on every attempt, and the
            sequential path would have raised too).
    """
    ctx = multiprocessing.get_context("fork")
    active_policy = policy if policy is not None else current_policy()
    phase = label if label is not None else getattr(task, "__name__", "task")
    work = list(items)
    #: Abnormal failures (death/timeout) accumulated per task.
    failures = [0] * len(work)
    #: (index, attempt) pairs ready to fork now.
    ready: List[Tuple[int, int]] = [(index, 0) for index in range(len(work))]
    ready.reverse()  # pop() from the front, preserving dispatch order
    #: (not_before, index, attempt) retries waiting out their backoff.
    delayed: List[Tuple[float, int, int]] = []
    running: dict = {}

    def quarantine(index: int) -> R:
        instrumentation.count("resilience.task.quarantined")
        instrumentation.count("resilience.sequential_fallback")
        instrumentation.event(
            "resilience.task.quarantined",
            phase=phase,
            task=index,
            failures=failures[index],
        )
        return task(work[index])

    def schedule_retry(run: _Running, reason: str) -> Optional[int]:
        """Book one abnormal failure; returns the index to quarantine
        inline when the retry budget is spent, else ``None``."""
        index = run.index
        failures[index] += 1
        if failures[index] > active_policy.max_task_retries:
            return index
        delay = backoff_delay(active_policy, index, failures[index])
        instrumentation.count("resilience.task.retries")
        instrumentation.event(
            "resilience.task.retry",
            phase=phase,
            task=index,
            attempt=failures[index],
            delay=round(delay, 6),
            reason=reason,
        )
        heapq.heappush(
            delayed, (time.monotonic() + delay, index, failures[index])
        )
        return None

    try:
        while ready or delayed or running:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                ready.append((index, attempt))
            while ready and len(running) < workers:
                index, attempt = ready.pop()
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_child_entry,
                    args=(child_conn, task, work[index], phase, index, attempt),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                deadline = (
                    time.monotonic() + active_policy.task_timeout
                    if active_policy.task_timeout is not None
                    else None
                )
                running[parent_conn] = _Running(
                    index, attempt, process, parent_conn, deadline
                )
            if not running:
                if delayed:
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            timeout: Optional[float] = None
            deadlines = [
                run.deadline
                for run in running.values()
                if run.deadline is not None
            ]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            if delayed:
                wake = max(0.0, delayed[0][0] - time.monotonic())
                timeout = wake if timeout is None else min(timeout, wake)
            completed = connection_wait(list(running), timeout=timeout)
            if not completed:
                # A deadline (or a backoff) expired with nothing
                # readable: reap every attempt past its deadline.
                now = time.monotonic()
                for conn, run in list(running.items()):
                    if run.deadline is not None and run.deadline <= now:
                        del running[conn]
                        _reap(run)
                        instrumentation.count("resilience.task.timeout")
                        instrumentation.event(
                            "resilience.task.timeout",
                            phase=phase,
                            task=run.index,
                            attempt=run.attempt,
                            timeout=active_policy.task_timeout,
                        )
                        poisoned = schedule_retry(
                            run,
                            f"timeout after {active_policy.task_timeout}s",
                        )
                        if poisoned is not None:
                            yield poisoned, quarantine(poisoned)
                continue
            for conn in completed:
                run = running.pop(conn)
                try:
                    ok, payload = conn.recv()
                except Exception:
                    # EOF (or a half-written pickle): the child died
                    # without reporting — SIGKILL, OOM kill, hard
                    # crash.  This is the hang the raw pool turns into;
                    # here it is one bounded retry.
                    run.process.join()
                    exitcode = run.process.exitcode
                    try:
                        conn.close()
                    except OSError:
                        pass
                    instrumentation.count("resilience.worker.death")
                    instrumentation.event(
                        "resilience.worker.death",
                        phase=phase,
                        task=run.index,
                        attempt=run.attempt,
                        exitcode=exitcode,
                    )
                    poisoned = schedule_retry(
                        run, f"worker died (exit {exitcode})"
                    )
                    if poisoned is not None:
                        yield poisoned, quarantine(poisoned)
                    continue
                conn.close()
                run.process.join()
                if ok:
                    yield run.index, payload
                else:
                    raise payload
    finally:
        for run in running.values():
            _reap(run)
        running.clear()


def supervised_map(
    task: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    policy: Optional[SupervisionPolicy] = None,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    label: Optional[str] = None,
) -> List[R]:
    """Run ``task`` over ``items`` under supervision, results in order.

    The ordered counterpart of :func:`supervised_unordered` — the
    drop-in replacement for ``Pool.map`` with the same result order
    and exception semantics, plus recovery from worker death and
    timeouts.
    """
    results: List[Optional[R]] = [None] * len(items)
    for index, value in supervised_unordered(
        task,
        items,
        workers,
        policy=policy,
        instrumentation=instrumentation,
        label=label,
    ):
        results[index] = value
    return results  # type: ignore[return-value]
