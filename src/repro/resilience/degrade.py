"""The faults that move a check to the next engine at runtime.

Which engines may decide a check, in which order, is decided once per
check by :func:`repro.checker.engines.engine_chain` (shared → vector →
packed → tuple for stabilization, vector → tuple for refinement, each
filtered by its preflight).  This module names the *runtime* half: the
faults an engine can raise mid-fixpoint that
:func:`repro.checker.engines.run_chain` answers by restarting the
check on the next engine of that list.

Restarting is sound because every engine computes the identical
verdict (CI pins the byte-identity differentials): rerunning a check
lower down cannot change the answer, only the wall-clock.  The last
engine's faults propagate — ``tuple`` has no cheaper fallback, and
masking its failure would turn a crash into a silent wrong answer.
"""

from __future__ import annotations

from typing import Tuple, Type

__all__ = [
    "EngineFault",
    "RECOVERABLE_ENGINE_FAULTS",
]


class EngineFault(RuntimeError):
    """A kernel-level failure an engine wants handled by degradation.

    Raised by engine internals for faults that are neither memory
    exhaustion nor a missing import but still mean "this engine cannot
    finish — a simpler one can" (e.g. an interner overflow discovered
    mid-run).
    """


#: Exception classes that trigger a runtime fallback instead of
#: aborting the check.  ``MemoryError``: the vector/packed arrays
#: outgrew RAM mid-fixpoint.  ``ImportError``: a lazily imported
#: accelerator disappeared between preflight and use (broken NumPy
#: installs raise on first array op, not on ``import numpy``).
RECOVERABLE_ENGINE_FAULTS: Tuple[Type[BaseException], ...] = (
    MemoryError,
    ImportError,
    EngineFault,
)
