"""Deterministic chaos harness: seeded fault plans for the runtime.

The verification stack claims to survive worker death, stalled
workers, and storage corruption.  This module makes those claims
testable: a :class:`FaultPlan` is a small, JSON-serializable list of
:class:`FaultAction` entries that the runtime consults at well-defined
hook points and that *deterministically* injects the fault — the same
plan always kills the same task attempt, corrupts the same cache
entry.  CI and tests then assert the recovery, not the failure.

Fault kinds and the hook that honours each:

==================  ====================================================
``kill-worker``     :func:`on_worker_task` — the supervised child
                    SIGKILLs itself before running the matched task
                    attempt (models an OOM kill mid-task).
``delay-task``      :func:`on_worker_task` — the child sleeps
                    ``seconds`` first (models a stalled worker; with a
                    task timeout, the supervisor reaps it).
``corrupt-cache``   :func:`cache_stored` — flips one byte of the
                    ``index``-th entry written by this process (the
                    digest check reads it back as a miss).
``truncate-checkpoint``  :func:`checkpoint_appended` — cuts the
                    ``index``-th appended line in half, newline
                    included (models a crash mid-append; resume drops
                    the partial line).
==================  ====================================================

Matching is stateless and cross-process-safe: a fault names a task
index, attempt, and phase label, and every hook call carries those
coordinates — no shared mutation beyond this process's own
store/append counters.  Activation is a process-global slot
(:func:`using_chaos`), inherited copy-on-write by forked workers, and
loadable from the ``REPRO_CHAOS`` environment variable or the
``--chaos`` CLI flag (inline JSON or a file path).
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

from ..core.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "ChaosPlanError",
    "FaultAction",
    "FaultPlan",
    "load_plan",
    "using_chaos",
    "active_plan",
    "on_worker_task",
    "cache_stored",
    "checkpoint_appended",
]

FAULT_KINDS = (
    "kill-worker",
    "delay-task",
    "corrupt-cache",
    "truncate-checkpoint",
)

#: Wildcard accepted by the task/attempt/phase selectors.
WILDCARD = "*"


class ChaosPlanError(ReproError):
    """A fault plan could not be parsed or validated."""


@dataclass(frozen=True)
class FaultAction:
    """One injectable fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        task: task index selector for worker faults (``"*"`` = any).
        attempt: attempt selector for worker faults; ``0`` (the
            default) hits only the first attempt, so the retry
            recovers — ``"*"`` hits every attempt and exercises
            quarantine.
        phase: task-label selector for worker faults (the pool task
            function's name, e.g. ``"_verify_spec_task"``).
        seconds: sleep duration for ``delay-task``.
        index: which store/append (0-based, per process) a
            ``corrupt-cache`` / ``truncate-checkpoint`` fault hits.
    """

    kind: str
    task: Union[int, str] = WILDCARD
    attempt: Union[int, str] = 0
    phase: str = WILDCARD
    seconds: float = 0.05
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        for name in ("task", "attempt"):
            value = getattr(self, name)
            if value != WILDCARD and not isinstance(value, int):
                raise ChaosPlanError(
                    f"fault {name} selector must be an int or '*', got {value!r}"
                )
        if self.seconds < 0:
            raise ChaosPlanError(f"delay must be >= 0, got {self.seconds}")
        if self.index < 0:
            raise ChaosPlanError(f"index must be >= 0, got {self.index}")

    def matches_task(self, phase: str, task: int, attempt: int) -> bool:
        """Whether this fault selects the given worker task attempt."""
        if self.phase not in (WILDCARD, phase):
            return False
        if self.task != WILDCARD and self.task != task:
            return False
        if self.attempt != WILDCARD and self.attempt != attempt:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape (defaults elided for readability)."""
        payload: Dict[str, object] = {"kind": self.kind}
        defaults = FaultAction(kind=self.kind)
        for name in ("task", "attempt", "phase", "seconds", "index"):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultAction":
        """Parse one fault entry, rejecting unknown keys loudly."""
        known = {"kind", "task", "attempt", "phase", "seconds", "index"}
        unknown = set(payload) - known
        if unknown:
            raise ChaosPlanError(
                f"unknown fault field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        if "kind" not in payload:
            raise ChaosPlanError("fault entry is missing its 'kind'")
        return cls(**{str(key): value for key, value in payload.items()})  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered list of faults to inject.

    The seed names the deterministic stream the run retries under
    (the CLI folds it into the supervision policy's backoff seed), so
    "plan P" fully describes both the injected faults and the recovery
    schedule.
    """

    seed: int = 0
    faults: Tuple[FaultAction, ...] = field(default_factory=tuple)

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults],
            },
            sort_keys=True,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultPlan":
        unknown = set(payload) - {"seed", "faults"}
        if unknown:
            raise ChaosPlanError(
                f"unknown plan field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        raw_faults = payload.get("faults", [])
        if not isinstance(raw_faults, list):
            raise ChaosPlanError("plan 'faults' must be a list")
        seed = payload.get("seed", 0)
        if not isinstance(seed, int):
            raise ChaosPlanError(f"plan seed must be an int, got {seed!r}")
        return cls(
            seed=seed,
            faults=tuple(FaultAction.from_dict(entry) for entry in raw_faults),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ChaosPlanError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ChaosPlanError("fault plan must be a JSON object")
        return cls.from_dict(payload)


def load_plan(spec: str) -> FaultPlan:
    """A plan from a CLI/env spec: inline JSON or a file path.

    A spec whose first non-space character is ``{`` parses as inline
    JSON; anything else is read as a file.
    """
    text = spec.strip()
    if text.startswith("{"):
        return FaultPlan.from_json(text)
    path = Path(spec)
    try:
        return FaultPlan.from_json(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ChaosPlanError(f"cannot read fault plan {spec!r}: {exc}")


#: The active plan slot (index 0) — a list so forked children share
#: the parent's binding copy-on-write, exactly like the worker
#: context.  ``None`` keeps every hook a single attribute test.
_ACTIVE: List[Optional[FaultPlan]] = [None]

#: Per-process hit counters for the store/append-indexed faults.
_COUNTS: Dict[str, int] = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan this process currently injects, or ``None``."""
    return _ACTIVE[0]


@contextmanager
def using_chaos(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Activate ``plan`` for the duration (``None`` is a no-op pass).

    Resets the per-process store/append counters on entry so a plan's
    ``index`` selectors count from the context boundary.
    """
    previous = _ACTIVE[0]
    saved_counts = dict(_COUNTS)
    _ACTIVE[0] = plan
    _COUNTS.clear()
    try:
        yield plan
    finally:
        _ACTIVE[0] = previous
        _COUNTS.clear()
        _COUNTS.update(saved_counts)


def on_worker_task(phase: str, task: int, attempt: int) -> None:
    """Worker-side hook: apply kill/delay faults to this task attempt.

    Called by the supervised child *only* (never by the driver or a
    quarantined inline run), immediately before the task body — so a
    ``kill-worker`` fault models SIGKILL/OOM on a worker, and the
    driver's recovery path is what gets exercised.
    """
    plan = _ACTIVE[0]
    if plan is None:
        return
    for fault in plan.faults:
        if fault.kind == "delay-task" and fault.matches_task(
            phase, task, attempt
        ):
            time.sleep(fault.seconds)
        elif fault.kind == "kill-worker" and fault.matches_task(
            phase, task, attempt
        ):
            os.kill(os.getpid(), signal.SIGKILL)


def cache_stored(path: Union[str, Path]) -> None:
    """Cache hook: corrupt the just-written entry when selected.

    Counts this process's ``put`` calls; when a ``corrupt-cache``
    fault's ``index`` matches, one byte in the middle of the entry
    file is flipped — enough to trip either the JSON parse or the
    payload digest on the next read.
    """
    plan = _ACTIVE[0]
    if plan is None:
        return
    count = _COUNTS.get("cache.store", 0)
    _COUNTS["cache.store"] = count + 1
    for fault in plan.faults:
        if fault.kind == "corrupt-cache" and fault.index == count:
            target = Path(path)
            data = bytearray(target.read_bytes())
            if data:
                data[len(data) // 2] ^= 0x01
                target.write_bytes(bytes(data))


def checkpoint_appended(path: Union[str, Path]) -> None:
    """Checkpoint hook: truncate the just-appended line when selected.

    Counts this process's appends; when a ``truncate-checkpoint``
    fault's ``index`` matches, the final line of the file is cut to
    half its bytes with no trailing newline — byte-for-byte what a
    crash mid-append leaves behind.
    """
    plan = _ACTIVE[0]
    if plan is None:
        return
    count = _COUNTS.get("checkpoint.append", 0)
    _COUNTS["checkpoint.append"] = count + 1
    for fault in plan.faults:
        if fault.kind == "truncate-checkpoint" and fault.index == count:
            target = Path(path)
            data = target.read_bytes()
            head, _, last = data.rstrip(b"\n").rpartition(b"\n")
            prefix = head + b"\n" if head else b""
            target.write_bytes(prefix + last[: max(1, len(last) // 2)])
