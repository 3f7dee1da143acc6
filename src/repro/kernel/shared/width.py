"""Adaptive code widths: store packed codes as narrow as |Sigma| allows.

Every structure the shared engine keeps per *code* — frontier runs,
spill files, edge buckets, table-pool entries — historically held
int64.  But a packed code is bounded by the interner's radix product,
known exactly at kernel construction, so a 10**8-state space fits
int32 and anything under 32768 states fits int16.  Choosing the width
once per run halves (or quarters) bytes-per-state across every one of
those structures, which directly doubles the state count a given
``--mem-budget`` covers.

The split is storage-versus-arithmetic: evaluation stays int64
(digit extraction, delta accumulation, and the ``origin * size +
target`` dedup keys all need the headroom), and arrays are widened on
load / narrowed on store.  :func:`code_dtype` is the single source of
truth for the storage width; the runtime emits it once per run as the
``shm.code_width`` event.

The promotion edges are closed on the narrow side: a space of exactly
``2**15`` codes has max code ``2**15 - 1 = int16's max``, so int16
still holds it; likewise ``2**31`` for int32.  Signed dtypes keep the
arrays directly usable as NumPy indices and interoperable with the
int64 evaluation path without unsigned-overflow traps.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "INT16_MAX_CODES",
    "INT32_MAX_CODES",
    "code_dtype",
    "code_width",
]

#: Largest state-space size whose codes (``0 .. size-1``) fit int16.
INT16_MAX_CODES = 1 << 15

#: Largest state-space size whose codes fit int32.
INT32_MAX_CODES = 1 << 31


def code_width(size: int) -> int:
    """Bytes per stored code for a space of ``size`` states (2, 4, or 8)."""
    if size <= INT16_MAX_CODES:
        return 2
    if size <= INT32_MAX_CODES:
        return 4
    return 8


def code_dtype(size: int) -> np.dtype:
    """The storage dtype for packed codes of a ``size``-state space."""
    return np.dtype({2: np.int16, 4: np.int32, 8: np.int64}[code_width(size)])
