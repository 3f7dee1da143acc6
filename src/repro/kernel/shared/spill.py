"""Out-of-core spill: delta-encoded code runs and edge bucket files.

When a frontier (or any code collection) outgrows its slice of the
memory budget, the shared engine moves it to disk under a run-scoped
spill directory and streams it back one run at a time.  Two on-disk
forms:

* **Sorted runs** (:meth:`SpillStore.save_sorted`): a sorted-unique
  code array stored as *sorted diffs* — the first code verbatim, then
  successive differences.  Frontier codes are dense and locally
  clustered, so the diffs are tiny; they are packed with a variable
  width (1/2/4/8 bytes per diff, chosen per run), which compresses a
  typical frontier run 4–8x against raw codes while keeping decode a
  single ``cumsum``.
* **Edge buckets** (:meth:`SpillStore.bucket_writer`): raw
  ``(target, source)`` pair files partitioned by target code range.
  No engine path uses them: the peel (:mod:`.fixpoint`) re-expands
  each level instead of storing edges.  They stay only because the
  benchmark's tracer (``benchmarks/perf/spans.py``) wraps
  ``_BucketWriter.append`` and :meth:`load_bucket_sorted` by name; a
  change to the benchmark's definition deletes them with those two
  targets.

The directory is created lazily, scoped to the run
(``repro-spill-<pid>-*``), and removed whole by :meth:`close` — the
runtime guarantees that via ``finally`` even when a check faults, and
the chaos lifecycle tests assert nothing survives a worker kill.

An unusable spill directory (not a directory, unwritable, disk full)
raises :class:`~repro.resilience.degrade.EngineFault` when the store
creates it or writes a run, so the checker's degradation chain retries
the check on the next engine instead of crashing.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation
from ...resilience.degrade import EngineFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from numpy.typing import DTypeLike

__all__ = ["SpillHandle", "SpillStore"]

_DIFF_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.int64}


def _write_file(path: str, payload: np.ndarray) -> None:
    """Write ``payload`` raw to a fresh file; ``OSError`` -> ``EngineFault``."""
    try:
        with open(path, "wb") as sink:
            payload.tofile(sink)
    except OSError as exc:
        raise EngineFault(f"spill write failed at {path!r}: {exc}") from exc


@dataclass(frozen=True)
class SpillHandle:
    """One spilled sorted run: enough metadata to stream it back."""

    path: str
    count: int
    first: int
    diff_width: int


class SpillStore:
    """The run-scoped spill directory and its encoders.

    Args:
        root: parent directory (``--spill-dir``); ``None`` = system
            temp dir.  The store creates its own subdirectory and only
            ever deletes that.
        code_dtype: storage dtype for codes in runs and bucket pairs
            (:func:`~.width.code_dtype`); loads return this dtype and
            callers widen at the arithmetic boundary.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        instrumentation: Instrumentation = NULL_INSTRUMENTATION,
        code_dtype: "DTypeLike" = np.int64,
    ):
        self._root = root
        self._obs = instrumentation
        self._dir: Optional[str] = None
        self._seq = 0
        self._code_dtype = np.dtype(code_dtype)
        self._buckets: Dict[str, IO[bytes]] = {}
        self._sorted_buckets: Dict[str, Tuple[str, int]] = {}
        self._bucket_maps: Dict[str, np.ndarray] = {}

    @property
    def code_dtype(self) -> np.dtype:
        """The storage dtype codes round-trip through."""
        return self._code_dtype

    @property
    def directory(self) -> Optional[str]:
        """The spill directory, if anything spilled yet."""
        return self._dir

    def _ensure_dir(self) -> str:
        if self._dir is None:
            try:
                if self._root is not None:
                    os.makedirs(self._root, exist_ok=True)
                self._dir = tempfile.mkdtemp(
                    prefix=f"repro-spill-{os.getpid()}-", dir=self._root
                )
            except OSError as exc:
                raise EngineFault(
                    f"spill directory unusable under {self._root!r}: {exc}"
                ) from exc
        return self._dir

    def _next_path(self, tag: str) -> str:
        self._seq += 1
        return os.path.join(self._ensure_dir(), f"{tag}-{self._seq:06d}.bin")

    # -- sorted runs ---------------------------------------------------

    def save_sorted(self, codes: np.ndarray) -> SpillHandle:
        """Spill a sorted-unique code array as packed diffs."""
        count = int(codes.shape[0])
        path = self._next_path("run")
        if count == 0:
            _write_file(path, np.empty(0, dtype=np.uint8))
            self._obs.count("shm.spill.files")
            return SpillHandle(path=path, count=0, first=0, diff_width=8)
        first = int(codes[0])
        diffs = np.diff(codes)
        peak = int(diffs.max()) if diffs.shape[0] else 0
        if peak < (1 << 8):
            width = 1
        elif peak < (1 << 16):
            width = 2
        elif peak < (1 << 32):
            width = 4
        else:
            width = 8
        packed = diffs.astype(_DIFF_DTYPES[width])
        _write_file(path, packed)
        self._obs.count("shm.spill.files")
        self._obs.count("shm.spill.bytes", packed.nbytes)
        return SpillHandle(path=path, count=count, first=first, diff_width=width)

    def load(self, handle: SpillHandle) -> np.ndarray:
        """Stream a sorted run back into RAM (exact inverse of save).

        Decodes through int64 (cumsum headroom), then narrows to the
        store's code dtype — lossless, the codes fit it by
        construction.
        """
        if handle.count == 0:
            return np.empty(0, dtype=self._code_dtype)
        diffs = np.fromfile(handle.path, dtype=_DIFF_DTYPES[handle.diff_width])
        codes = np.empty(handle.count, dtype=np.int64)
        codes[0] = handle.first
        np.cumsum(diffs, out=codes[1:], dtype=np.int64)
        codes[1:] += handle.first
        return codes.astype(self._code_dtype, copy=False)

    def drop(self, handle: SpillHandle) -> None:
        """Delete one consumed run file."""
        try:
            os.unlink(handle.path)
        except OSError:
            pass

    # -- edge buckets --------------------------------------------------

    def bucket_writer(self, tag: str) -> "_BucketWriter":
        """An appender for raw ``(target, source)`` pairs in bucket ``tag``."""
        if tag not in self._buckets:
            path = os.path.join(self._ensure_dir(), f"bucket-{tag}.bin")
            self._buckets[tag] = open(path, "ab")
            self._obs.count("shm.spill.files")
        return _BucketWriter(self, self._buckets[tag])

    def _empty_pair(self) -> Tuple[np.ndarray, np.ndarray]:
        empty = np.empty(0, dtype=self._code_dtype)
        return empty, empty

    def _bucket_views(self, tag: str) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only memmap views of a sorted bucket (cached mapping)."""
        path, pairs = self._sorted_buckets[tag]
        if pairs == 0:
            return self._empty_pair()
        flat = self._bucket_maps.get(tag)
        if flat is None:
            flat = np.memmap(path, dtype=self._code_dtype, mode="r")
            self._bucket_maps[tag] = flat
        return flat[:pairs], flat[pairs:]

    def load_bucket_sorted(self, tag: str) -> Tuple[np.ndarray, np.ndarray]:
        """The bucket's ``(targets, sources)`` columns, sorted by target.

        The first load sorts and caches the sorted form back to disk;
        later loads return read-only views of one shared memory map of
        the sorted file — revisiting a bucket touches the page cache,
        not the filesystem.  Views are only valid until the next
        :meth:`drop_buckets`/:meth:`close`.  Missing bucket = empty.
        """
        writer = self._buckets.pop(tag, None)
        if writer is not None:
            writer.close()
        if tag in self._sorted_buckets:
            return self._bucket_views(tag)
        if self._dir is None:
            return self._empty_pair()
        path = os.path.join(self._dir, f"bucket-{tag}.bin")
        if not os.path.exists(path):
            return self._empty_pair()
        flat = np.fromfile(path, dtype=self._code_dtype)
        targets = flat[0::2].copy()
        sources = flat[1::2].copy()
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        sources = sources[order]
        sorted_path = os.path.join(self._dir, f"bucket-{tag}.sorted.bin")
        with open(sorted_path, "wb") as sink:
            targets.tofile(sink)
            sources.tofile(sink)
        os.unlink(path)
        self._sorted_buckets[tag] = (sorted_path, int(targets.shape[0]))
        return self._bucket_views(tag)

    def _release_bucket_maps(self) -> None:
        for flat in self._bucket_maps.values():
            mapping = getattr(flat, "_mmap", None)
            if mapping is not None:
                try:
                    mapping.close()
                except (BufferError, OSError):  # pragma: no cover - live views
                    pass
        self._bucket_maps.clear()

    def drop_buckets(self) -> None:
        """Delete all bucket files (between peels over the same store)."""
        for writer in self._buckets.values():
            writer.close()
        self._buckets.clear()
        self._release_bucket_maps()
        for path, _ in self._sorted_buckets.values():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._sorted_buckets.clear()
        if self._dir is not None:
            for entry in os.listdir(self._dir):
                if entry.startswith("bucket-"):
                    try:
                        os.unlink(os.path.join(self._dir, entry))
                    except OSError:
                        pass

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Remove the whole spill directory.  Idempotent."""
        for writer in self._buckets.values():
            try:
                writer.close()
            except OSError:  # pragma: no cover - platform noise
                pass
        self._buckets.clear()
        self._release_bucket_maps()
        self._sorted_buckets.clear()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _BucketWriter:
    """Thin append handle returned by :meth:`SpillStore.bucket_writer`."""

    def __init__(self, store: SpillStore, sink: IO[bytes]):
        self._store = store
        self._sink = sink

    def append(self, targets: np.ndarray, sources: np.ndarray) -> None:
        if targets.shape[0] == 0:
            return
        pairs = np.empty(
            (targets.shape[0], 2), dtype=self._store._code_dtype
        )
        pairs[:, 0] = targets
        pairs[:, 1] = sources
        pairs.tofile(self._sink)
        self._store._obs.count("shm.spill.bytes", pairs.nbytes)
