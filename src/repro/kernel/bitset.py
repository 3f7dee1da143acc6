"""Flag arrays over packed state codes.

A **flag array** (``bytearray``, one byte per state) is the packed
engine's set of states: O(1) mutable membership, indexed by the dense
codes of a :class:`~repro.kernel.interner.StateInterner`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

__all__ = [
    "make_flags",
    "codes_of_flags",
]


def make_flags(size: int, codes: Optional[Iterable[int]] = None) -> bytearray:
    """A zeroed flag array of ``size`` states, optionally pre-setting ``codes``."""
    flags = bytearray(size)
    if codes is not None:
        for code in codes:
            flags[code] = 1
    return flags


def codes_of_flags(flags: bytearray) -> Iterator[int]:
    """The set codes of a flag array, in ascending order."""
    return (code for code, flag in enumerate(flags) if flag)
