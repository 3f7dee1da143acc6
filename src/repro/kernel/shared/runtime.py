"""The per-check runtime of the shared engine: budget, table pool, spill.

One :class:`SharedRuntime` spans one engine run (one decide).  It owns
the :class:`~.spill.SpillStore` whose cleanup must be unconditional —
:func:`open_runtime` is the only sanctioned way in, and its ``finally``
releases the table pool and removes the spill directory no matter how
the check ends: success, engine fault feeding the degradation chain,
or a ``KeyboardInterrupt`` mid-fixpoint.

The runtime also fixes the run's two cross-cutting perf decisions:

* **code width** — :attr:`SharedRuntime.code_dtype`, chosen once from
  the interner's radix product (:mod:`.width`); every at-rest code
  structure (frontier runs, spill files, table-pool entries) uses it,
  and the choice is emitted as the ``shm.code_width`` event;
* **table pool** — a bounded :class:`~.tables.TablePool` attached to
  the kernel for the run's extent, so fixpoints that re-walk the same
  chunks skip re-lowering them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ...obs import NULL_INSTRUMENTATION, Instrumentation
from .budget import MemoryContext, active_memory_context, chunk_codes
from .kernel import SharedKernel
from .spill import SpillStore
from .tables import TablePool
from .width import code_dtype

__all__ = ["SharedRuntime", "open_runtime"]


@dataclass
class SharedRuntime:
    """Everything a streamed fixpoint needs besides its kernel."""

    context: MemoryContext
    chunk: int
    spill: SpillStore
    instrumentation: Instrumentation
    code_dtype: np.dtype = field(default_factory=lambda: np.dtype(np.int64))
    tables: Optional[TablePool] = None

    @property
    def run_cap_bytes(self) -> int:
        """In-RAM cap for one code collection (frontier, evictions).

        A quarter of the budget: flag bitfields, peel arrays, and the
        evaluation chunks share the rest.
        """
        return max(1 << 16, self.context.budget_bytes // 4)


@contextmanager
def open_runtime(
    kernel: SharedKernel,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    context: Optional[MemoryContext] = None,
) -> Iterator[SharedRuntime]:
    """Open the table pool and spill store for one engine run.

    Args:
        kernel: the streamed kernel (its action/variable counts size
            the evaluation chunks).
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
    dtype = code_dtype(kernel.size)
    spill = SpillStore(chosen.spill_dir, instrumentation, code_dtype=dtype)
    tables = TablePool(
        cap_bytes=chosen.budget_bytes // 4,
        dtype=dtype,
        instrumentation=instrumentation,
    )
    runtime = SharedRuntime(
        context=chosen,
        chunk=chunk,
        spill=spill,
        instrumentation=instrumentation,
        code_dtype=dtype,
        tables=tables,
    )
    instrumentation.event(
        "shm.code_width",
        width=int(dtype.itemsize),
        dtype=dtype.name,
        states=kernel.size,
    )
    kernel.attach_tables(tables)
    try:
        with instrumentation.span("shm.runtime", budget=chosen.budget_bytes):
            yield runtime
    finally:
        kernel.attach_tables(None)
        tables.close()
        spill.close()
