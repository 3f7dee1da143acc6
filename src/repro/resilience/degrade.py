"""The fault that moves a check to the next engine at runtime.

Which engines may decide a check, in which order, is decided once per
check by :func:`repro.checker.engines.engine_chain` (shared → vector →
packed → tuple for stabilization, vector → tuple for refinement, each
filtered by its preflight).  This module names the *runtime* half: the
one fault an engine can raise mid-check that
:func:`repro.checker.engines.run_chain` answers by restarting the
check on the next engine of that list.

Restarting is sound because every engine computes the identical
verdict (CI pins the byte-identity differentials): rerunning a check
lower down cannot change the answer, only the wall-clock.  A
``MemoryError`` is not such a fault: every lower engine holds more per
state, so it ends the check where it was raised.
"""

from __future__ import annotations

__all__ = ["EngineFault"]


class EngineFault(RuntimeError):
    """A failure that means "this engine cannot finish — the next can".

    The shared engine raises it when its spill directory cannot be
    created or written (:mod:`repro.kernel.shared.spill`); the next
    engine keeps its arrays in RAM and needs no disk.
    """
