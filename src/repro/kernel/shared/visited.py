"""Flag-field backings: private RAM, or a shm segment workers attach.

The streamed fixpoints keep two big mutable flag fields — the BFS
visited set and the Jacobi membership flags.  Each has one of two
backings: a private array (``workers == 1``) or a shared-memory
segment that forked workers attach by name.  Either way one bit per
code is resident.

A paged backing would not lower peak RSS: a 1-bit field outgrows a
``budget // 16`` slice only once the space exceeds ``budget / 2``
states, where the peel's private int32 in-degree array
(:mod:`.fixpoint`) already costs more than twice the budget, and the
fixpoints copy every field back into private RAM when they return.

Events: one ``shm.visited`` per field with its chosen backing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from ...obs import NULL_INSTRUMENTATION, Instrumentation
from .frontier import BitField
from .segments import Segment, attach_segment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runtime import SharedRuntime

__all__ = ["AttachedVisited", "VisitedHandle", "open_visited"]

#: A worker-side reference to a shared field: ``(segment name, size)``.
VisitedRef = Tuple[str, int]


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

    def detach_private(self) -> BitField:
        """Copy the bits into a private field and release the segment.

        The caller owns a plain in-RAM :class:`BitField` either way —
        the contract the fixpoints rely on.
        """
        if self.ref is None:
            return self.field
        private = BitField(self.field.size)
        self.field.copy_into(private)
        self.close()
        return private

    def close(self) -> None:
        """Release the shm segment, if any.  Idempotent."""
        if self._closed or self._segment is None:
            return
        self._closed = True
        self.field.release_buffer()
        assert self._runtime is not None
        self._runtime.registry.release(self._segment)


def open_visited(
    runtime: "SharedRuntime",
    size: int,
    tag: str,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> VisitedHandle:
    """Open one flag field: a shm segment when workers need to attach
    it, else a private array."""
    nbytes = (size + 7) // 8
    if runtime.workers > 1:
        segment = runtime.registry.create(nbytes, tag)
        field = BitField(size, segment.buf)
        field.zero()
        instrumentation.event(
            "shm.visited", tag=tag, backing="shm", nbytes=nbytes
        )
        handle = VisitedHandle(
            field, (segment.name, size), segment=segment, runtime=runtime
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
        name, size = ref
        self._segment = attach_segment(name)
        self.field = BitField(size, self._segment.buf)

    def close(self) -> None:
        self.field.release_buffer()
        self._segment.close()
