"""Memory budgets and the process-wide shared-engine context.

The shared engine is opt-in: a check routes through it only
while a :class:`MemoryContext` is active (the CLI's ``--mem-budget``
/ ``--spill-dir`` flags, or :func:`using_memory_budget` directly).
The context carries two settable values; the streamed fixpoints plan
around both:

* **budget_bytes** — the in-RAM ceiling for engine working sets.  The
  kernel sizes its evaluation chunks from it, and frontier/member
  collections that outgrow their slice of it spill to disk
  (:mod:`.spill`) instead of growing resident.
* **spill_dir** — where the run-scoped spill directory is created
  (defaults to the system temp dir).

The active context lives in a module-level slot, exactly like the
resilience package's chaos plan: a ``verify-tree`` or campaign worker
forked inside the context inherits it, and ``finally`` restores the
previous value, so nested activations behave like a stack.  Engine
selection reads the slot on every check (:func:`active_memory_context`).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional

__all__ = [
    "DEFAULT_MEM_BUDGET",
    "MemoryContext",
    "active_memory_context",
    "chunk_codes",
    "parse_mem_budget",
    "using_memory_budget",
]

#: Budget used when a context is activated without one ("spill, but
#: plan for half a GiB resident").
DEFAULT_MEM_BUDGET: int = 512 * 1024 * 1024

#: Keep chunks inside this window regardless of the budget: below the
#: floor the per-chunk Python overhead dominates, above the ceiling a
#: single chunk's transient arrays stop fitting CPU caches anyway.
_MIN_CHUNK = 1 << 12
_MAX_CHUNK = 1 << 21

_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "kib": 1024,
    "m": 1024**2,
    "mb": 1024**2,
    "mib": 1024**2,
    "g": 1024**3,
    "gb": 1024**3,
    "gib": 1024**3,
    "t": 1024**4,
    "tb": 1024**4,
    "tib": 1024**4,
}


def parse_mem_budget(text: str) -> int:
    """Parse a human-readable byte budget (``"512M"``, ``"1.5G"``).

    Accepts a decimal number — fractional forms like ``"1.5G"``,
    ``"0.5T"``, and ``".25G"`` included — with an optional binary
    suffix (``K``/``M``/``G``/``T``, optionally followed by ``B`` or
    ``iB``, any case).  A bare number is bytes.

    Raises:
        ValueError: on unparsable text or a non-positive budget.
    """
    match = re.fullmatch(
        r"\s*([0-9]+(?:\.[0-9]*)?|\.[0-9]+)\s*([a-zA-Z]*)\s*", text or ""
    )
    if not match:
        raise ValueError(f"unparsable memory budget {text!r}")
    scale = _SUFFIXES.get(match.group(2).lower())
    if scale is None:
        raise ValueError(
            f"unknown memory-budget suffix {match.group(2)!r} in {text!r}"
        )
    value = int(float(match.group(1)) * scale)
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return value


@dataclass(frozen=True)
class MemoryContext:
    """One activation of the shared engine.

    Attributes:
        budget_bytes: in-RAM working-set ceiling for engine data.
        spill_dir: parent directory for the run-scoped spill directory
            (``None`` = system temp dir).
    """

    budget_bytes: int = DEFAULT_MEM_BUDGET
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.budget_bytes < 1:
            raise ValueError("memory budget must be positive")


#: The active context stack slot.
_ACTIVE: List[Optional[MemoryContext]] = [None]


def active_memory_context() -> Optional[MemoryContext]:
    """The currently active shared-engine context, or ``None``."""
    return _ACTIVE[0]


@contextmanager
def using_memory_budget(
    budget: Optional[object] = None,
    spill_dir: Optional[str] = None,
) -> Iterator[MemoryContext]:
    """Activate the shared engine for the dynamic extent.

    Args:
        budget: bytes (int), human text (``"512M"``), or ``None`` for
            :data:`DEFAULT_MEM_BUDGET`.
        spill_dir: parent directory for spill files.
    """
    if budget is None:
        budget_bytes = DEFAULT_MEM_BUDGET
    elif isinstance(budget, int):
        if budget <= 0:
            raise ValueError("memory budget must be positive")
        budget_bytes = budget
    else:
        budget_bytes = parse_mem_budget(str(budget))
    context = MemoryContext(budget_bytes=budget_bytes, spill_dir=spill_dir)
    previous = _ACTIVE[0]
    _ACTIVE[0] = context
    try:
        yield context
    finally:
        _ACTIVE[0] = previous


def chunk_codes(
    budget_bytes: int, actions: int, variables: int
) -> int:
    """Codes per streamed-evaluation chunk under ``budget_bytes``.

    A chunk's transient footprint is roughly one int64 column per
    variable (its digits), a few working arrays per action (mask,
    successors, table rows, dedup keys), and slack for NumPy
    temporaries (the digit decode's two rolling quotients among them);
    the chunk is sized so that footprint stays within a quarter of the
    budget, leaving the rest for flag bitfields, frontier runs, and
    the interpreter itself.  The chunk also caps an action's support
    table at ``chunk`` rows, so the tables never outgrow one chunk's
    arrays.

    Raises:
        ValueError: on a non-positive budget — planning chunks from a
            degenerate budget would silently clamp to the floor and
            mask the caller's configuration error.
    """
    if budget_bytes <= 0:
        raise ValueError(
            f"memory budget must be positive, got {budget_bytes}"
        )
    per_code = 8 * (variables + 4 * max(1, actions) + 8)
    chunk = (budget_bytes // 4) // per_code
    return max(_MIN_CHUNK, min(_MAX_CHUNK, chunk))
