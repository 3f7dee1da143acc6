"""Shared-memory segment lifecycle with leak-proof accounting.

The shared engine's table pool (:mod:`.tables`) keeps its entries in
``multiprocessing.shared_memory`` segments.  Segments are named
objects in ``/dev/shm`` (on Linux) that outlive the process that made
them, so a check cut short by a fault or an interrupt could leave RAM
behind until reboot.

:class:`SegmentRegistry` makes cleanup unconditional rather than
cooperative:

* every segment name carries the registry's run-scoped prefix
  (``rs-<pid>-<seq>``), and the registry records every name it
  creates;
* :meth:`sweep` unlinks every recorded name still present;
* a module-level ``atexit`` hook sweeps any registry that was not
  closed, as the last line of defense.

Counters (see OBSERVABILITY.md): ``shm.segments`` / ``shm.bytes``
(created, with sizes), ``shm.segments.swept`` (names the final sweep
actually had to reclaim — nonzero only when a run was cut short
before releasing them).
"""

from __future__ import annotations

import atexit
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional

from ...obs import NULL_INSTRUMENTATION, Instrumentation

__all__ = [
    "Segment",
    "SegmentRegistry",
    "shared_memory_unavailable_reason",
    "shm_dir",
]

#: Where POSIX shared memory appears as files (Linux).
_SHM_DIR = "/dev/shm"


def shm_dir() -> Optional[str]:
    """The listable shared-memory directory, or ``None`` off-Linux."""
    return _SHM_DIR if os.path.isdir(_SHM_DIR) else None


_PROBE_RESULT: List[Optional[str]] = []


def shared_memory_unavailable_reason() -> Optional[str]:
    """Why ``multiprocessing.shared_memory`` cannot be used (``None`` = OK).

    Probes once per process by creating and unlinking a tiny segment;
    the result is cached.  Platforms without POSIX shared memory (or
    with an unwritable ``/dev/shm``) fall back to the in-process
    engines with this reason.
    """
    if not _PROBE_RESULT:
        try:
            probe = shared_memory.SharedMemory(create=True, size=8)
            probe.close()
            probe.unlink()
        except (OSError, ValueError, ImportError) as exc:
            _PROBE_RESULT.append(f"shared memory unavailable: {exc}")
        else:
            _PROBE_RESULT.append(None)
    return _PROBE_RESULT[0]


@dataclass
class Segment:
    """A live handle on one shared-memory segment."""

    name: str
    shm: shared_memory.SharedMemory

    @property
    def buf(self) -> memoryview:
        return self.shm.buf

    def close(self) -> None:
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover - platform noise
            pass


def _unlink_name(name: str) -> bool:
    """Unlink segment ``name`` if it still exists; True when it did.

    Goes through ``SharedMemory.unlink`` rather than a raw filesystem
    unlink so the name is also unregistered from the interpreter's
    resource tracker — otherwise the tracker warns about (and retries)
    the "leaked" name at shutdown.
    """
    try:
        stale = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - permission oddities
        directory = shm_dir()
        if directory is not None:
            try:
                os.unlink(os.path.join(directory, name))
                return True
            except OSError:
                return False
        return False
    stale.close()
    try:
        stale.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race
        return False
    return True


#: Registries not yet closed, for the atexit backstop.
_LIVE_REGISTRIES: "weakref.WeakSet[SegmentRegistry]" = weakref.WeakSet()


def _atexit_sweep() -> None:  # pragma: no cover - exercised via subprocess
    for registry in list(_LIVE_REGISTRIES):
        registry.sweep()


atexit.register(_atexit_sweep)


class SegmentRegistry:
    """Create and unconditionally reclaim shm segments.

    One registry per engine run; its prefix scopes every name the run
    creates, and :meth:`sweep` reclaims them all.  Usable as a context
    manager.
    """

    _SEQ: List[int] = [0]

    def __init__(self, instrumentation: Instrumentation = NULL_INSTRUMENTATION):
        SegmentRegistry._SEQ[0] += 1
        self.prefix = f"rs-{os.getpid():x}-{SegmentRegistry._SEQ[0]:x}"
        self._obs = instrumentation
        self._open: Dict[str, Segment] = {}
        self._names: List[str] = []
        self._swept = False
        _LIVE_REGISTRIES.add(self)

    def create(self, nbytes: int, tag: str) -> Segment:
        """Create a segment named ``<prefix>-<tag>``."""
        name = f"{self.prefix}-{tag}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, nbytes)
        )
        segment = Segment(name=name, shm=shm)
        self._open[name] = segment
        self._names.append(name)
        self._obs.count("shm.segments")
        self._obs.count("shm.bytes", max(1, nbytes))
        return segment

    def release(self, segment: Segment) -> None:
        """Close and unlink one segment immediately after consuming it."""
        segment.close()
        self._open.pop(segment.name, None)
        _unlink_name(segment.name)

    # -- cleanup -------------------------------------------------------

    def sweep(self) -> int:
        """Reclaim every segment this run created.

        Closes open handles and unlinks all recorded names.
        Idempotent; returns how many objects still existed and were
        reclaimed.
        """
        for segment in list(self._open.values()):
            segment.close()
        self._open.clear()
        reclaimed = 0
        for name in self._names:
            if _unlink_name(name):
                reclaimed += 1
        self._names.clear()
        if reclaimed and not self._swept:
            self._obs.count("shm.segments.swept", reclaimed)
        self._swept = True
        _LIVE_REGISTRIES.discard(self)
        return reclaimed

    def __enter__(self) -> "SegmentRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.sweep()
