"""The visited-set backing ladder: private RAM, shm segment, or mmap.

The streamed fixpoints keep two big mutable flag fields — the BFS
visited set and the Jacobi membership flags.  PR 9 gave them two
backings: a private array (``workers == 1``) or a shared-memory
segment workers attach by name.  Both are *resident*: one bit per code
must fit in RAM, which caps the engine at ``8 × budget`` states no
matter how well everything else streams.

:func:`open_visited` adds the third rung: when a field's byte size
exceeds its slice of the budget (``budget // 16`` — flag fields share
the quarter-of-budget pool with the peel arrays), the bits page onto a
run-scoped **memory-mapped file** under the spill directory.  The OS
page cache keeps the hot pages resident and evicts cold ones under
pressure, so the field's RSS cost is bounded by memory pressure, not
by ``size``.  The mapping is ``MAP_SHARED``, so forked workers attach
the same file read-only and observe the driver's current bits exactly
as they do through a shm segment — worker SIGKILL mid-page is
recovered by the same supervisor retry, and the file itself dies with
the spill directory on every exit path (the runtime's ``finally``),
including ``KeyboardInterrupt``.

A failure to create or map the file (unwritable spill dir, disk full)
raises :class:`~repro.resilience.degrade.EngineFault`, which the
checker's degradation chain turns into a vector/packed/tuple retry
instead of a crash.

Counters/events: ``shm.visited.mmap_bytes`` (bytes paged to mmap
files) and a ``shm.visited`` event per field with its chosen backing.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation
from ...resilience.degrade import EngineFault
from .frontier import BitField
from .segments import Segment, attach_segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SharedRuntime

__all__ = [
    "AttachedVisited",
    "MmapBitField",
    "VisitedHandle",
    "attach_visited",
    "mmap_threshold",
    "open_visited",
]

#: A worker-side reference to a backed field: ``("shm", (name, size))``
#: or ``("mmap", (path, size))``.
VisitedRef = Tuple[str, Tuple[str, int]]


def mmap_threshold(budget_bytes: int) -> int:
    """Resident ceiling for one flag field before it pages to mmap."""
    return max(1, budget_bytes // 16)


class MmapBitField(BitField):
    """A :class:`BitField` whose byte array is a shared file mapping."""

    __slots__ = ("path",)

    def __init__(
        self, size: int, path: str, create: bool = True, readonly: bool = False
    ):
        self.size = size
        self.nbytes = (size + 7) // 8
        self.path = path
        try:
            if create:
                with open(path, "wb") as sink:
                    sink.truncate(self.nbytes)
            self._bytes = np.memmap(
                path,
                dtype=np.uint8,
                mode="r" if readonly else "r+",
                shape=(self.nbytes,),
            )
        except (OSError, ValueError) as exc:
            raise EngineFault(
                f"mmap visited backing failed at {path!r}: {exc}"
            ) from exc

    def flush(self) -> None:
        """Push dirty pages to the file (before workers reattach)."""
        self._bytes.flush()

    def release_buffer(self) -> None:
        """Unmap the file; the field becomes unusable afterwards."""
        buffer = self._bytes
        self._bytes = np.empty(0, dtype=np.uint8)
        mapping = getattr(buffer, "_mmap", None)
        del buffer
        if mapping is not None:
            try:
                mapping.close()
            except (BufferError, OSError):  # pragma: no cover - views live
                pass


class VisitedHandle:
    """One driver-side flag field plus how workers reattach to it."""

    def __init__(
        self,
        field: BitField,
        ref: Optional[VisitedRef],
        segment: Optional[Segment] = None,
        runtime: Optional["SharedRuntime"] = None,
    ):
        self.field = field
        self.ref = ref
        self._segment = segment
        self._runtime = runtime
        self._closed = False

    @property
    def sharable(self) -> bool:
        """Whether forked workers can attach this field by reference."""
        return self.ref is not None

    def flush(self) -> None:
        """Make driver writes visible before fanning out workers."""
        if isinstance(self.field, MmapBitField):
            self.field.flush()

    def detach_private(self) -> BitField:
        """Copy the bits into a private field and release the backing.

        The caller owns a plain in-RAM :class:`BitField` either way —
        the contract the fixpoints have had since PR 9.
        """
        if self.ref is None:
            return self.field
        private = BitField(self.field.size)
        self.field.copy_into(private)
        self.close()
        return private

    def close(self) -> None:
        """Release the backing (segment or mapped file).  Idempotent."""
        if self._closed or self.ref is None:
            return
        self._closed = True
        kind = self.ref[0]
        path = getattr(self.field, "path", None)
        self.field.release_buffer()
        if kind == "shm" and self._segment is not None:
            assert self._runtime is not None
            self._runtime.registry.release(self._segment)
        elif kind == "mmap" and path is not None:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - spill rmtree races
                pass


def open_visited(
    runtime: "SharedRuntime",
    size: int,
    tag: str,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> VisitedHandle:
    """Open one flag field on the cheapest backing that fits.

    The ladder: an mmap file when the field itself outgrows its budget
    slice (and the context allows it), a shm segment when workers need
    to attach, else a private array.
    """
    nbytes = (size + 7) // 8
    context = runtime.context
    if context.mmap_visited and nbytes > mmap_threshold(context.budget_bytes):
        path = runtime.spill.reserve_path(f"visited-{tag}.bits")
        field = MmapBitField(size, path, create=True)
        instrumentation.count("shm.visited.mmap_bytes", nbytes)
        instrumentation.event(
            "shm.visited", tag=tag, backing="mmap", nbytes=nbytes
        )
        handle = VisitedHandle(field, ("mmap", (path, size)), runtime=runtime)
        runtime.visited.append(handle)
        return handle
    if runtime.workers > 1:
        segment = runtime.registry.create(nbytes, tag)
        field = BitField(size, segment.buf)
        field.zero()
        instrumentation.event(
            "shm.visited", tag=tag, backing="shm", nbytes=nbytes
        )
        handle = VisitedHandle(
            field, ("shm", (segment.name, size)), segment=segment,
            runtime=runtime,
        )
        runtime.visited.append(handle)
        return handle
    instrumentation.event(
        "shm.visited", tag=tag, backing="private", nbytes=nbytes
    )
    return VisitedHandle(BitField(size), None)


class AttachedVisited:
    """A worker's read view of a driver field (close in ``finally``)."""

    def __init__(self, ref: VisitedRef):
        kind, (locator, size) = ref
        self._segment: Optional[Segment] = None
        if kind == "shm":
            self._segment = attach_segment(locator)
            self.field: BitField = BitField(size, self._segment.buf)
        else:
            self.field = MmapBitField(
                size, locator, create=False, readonly=True
            )

    def close(self) -> None:
        self.field.release_buffer()
        if self._segment is not None:
            self._segment.close()


def attach_visited(ref: VisitedRef) -> AttachedVisited:
    """Attach a worker-side view of a shared or mmap-backed field."""
    return AttachedVisited(ref)
