"""The per-check runtime of the shared engine: budget, segments, spill.

One :class:`SharedRuntime` spans one engine run (one decide).  It owns
the :class:`~.segments.SegmentRegistry` and :class:`~.spill.SpillStore`
whose cleanup must be unconditional — :func:`open_runtime` is the only
sanctioned way in, and its ``finally`` sweeps segments, releases the
table pool, and removes the spill directory (mmap visited files
included) no matter how the check ends: success, engine fault feeding
the degradation chain, chaos-injected worker kill, or a
``KeyboardInterrupt`` mid-fixpoint.

The runtime also fixes the run's two cross-cutting perf decisions:

* **code width** — :attr:`SharedRuntime.code_dtype`, chosen once from
  the interner's radix product (:mod:`.width`) when the context allows
  packing; every at-rest code structure (frontier runs, spill files,
  edge buckets, staging segments) uses it, and the choice is emitted
  as the ``shm.code_width`` event;
* **table pool** — a bounded :class:`~.tables.TablePool` attached to
  the kernel for the run's extent when the context allows reuse, so
  fixpoints that re-walk the same chunks skip re-lowering them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation
from .budget import MemoryContext, active_memory_context, chunk_codes
from .kernel import SharedKernel
from .segments import SegmentRegistry
from .spill import SpillStore
from .tables import TablePool
from .width import code_dtype

if TYPE_CHECKING:
    from .visited import VisitedHandle

__all__ = ["SharedRuntime", "open_runtime"]


@dataclass
class SharedRuntime:
    """Everything a streamed fixpoint needs besides its kernel."""

    context: MemoryContext
    chunk: int
    workers: int
    registry: SegmentRegistry
    spill: SpillStore
    instrumentation: Instrumentation
    code_dtype: np.dtype = field(default_factory=lambda: np.dtype(np.int64))
    tables: Optional[TablePool] = None
    #: Segment- and file-backed flag fields opened for this run
    #: (:func:`~.visited.open_visited`), closed before the sweep.
    visited: List["VisitedHandle"] = field(default_factory=list)

    @property
    def run_cap_bytes(self) -> int:
        """In-RAM cap for one code collection (frontier, evictions).

        A quarter of the budget: flag bitfields, peel arrays, and the
        evaluation chunks share the rest.
        """
        return max(1 << 16, self.context.budget_bytes // 4)

    def parallel(self, items: int) -> bool:
        """Whether a batch of ``items`` is worth sharding to workers."""
        return self.workers > 1 and items >= self.context.parallel_min


@contextmanager
def open_runtime(
    kernel: SharedKernel,
    workers: int = 1,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    context: Optional[MemoryContext] = None,
) -> Iterator[SharedRuntime]:
    """Open the segment registry and spill store for one engine run.

    Args:
        kernel: the streamed kernel (its action/variable counts size
            the evaluation chunks).
        workers: resolved worker count (``1`` = fully in-process);
            above 1 it is counted as ``parallel.workers``.
        context: explicit memory context; defaults to the active one
            (``open_runtime`` outside any context uses the defaults —
            the library API allows it even though engine selection
            requires an active context).
    """
    chosen = context or active_memory_context() or MemoryContext()
    chunk = chunk_codes(
        chosen.budget_bytes,
        len(kernel.actions),
        len(kernel.schema.names),
    )
    dtype = (
        code_dtype(kernel.size) if chosen.pack_codes else np.dtype(np.int64)
    )
    registry = SegmentRegistry(instrumentation)
    spill = SpillStore(chosen.spill_dir, instrumentation, code_dtype=dtype)
    tables: Optional[TablePool] = None
    if chosen.reuse_tables:
        tables = TablePool(
            registry,
            cap_bytes=chosen.budget_bytes // 4,
            dtype=dtype,
            instrumentation=instrumentation,
        )
    runtime = SharedRuntime(
        context=chosen,
        chunk=chunk,
        workers=workers,
        registry=registry,
        spill=spill,
        instrumentation=instrumentation,
        code_dtype=dtype,
        tables=tables,
    )
    if workers > 1:
        instrumentation.count("parallel.workers", workers)
    instrumentation.event(
        "shm.code_width",
        width=int(dtype.itemsize),
        dtype=dtype.name,
        states=kernel.size,
        packed=bool(chosen.pack_codes),
    )
    kernel.attach_tables(tables)
    try:
        with instrumentation.span(
            "shm.runtime", budget=chosen.budget_bytes, workers=workers
        ):
            yield runtime
    finally:
        kernel.attach_tables(None)
        if tables is not None:
            tables.close()
        # A fixpoint cut short by a fault never detached its fields;
        # dropping their views first lets the sweep close the segments.
        for handle in runtime.visited:
            handle.close()
        registry.sweep()
        spill.close()
