"""Run the packed kernel, which serves only as the vector engine's fallback.

``engine="packed"`` is an alias of ``"vector"``, so a test that must
reach the packed kernel itself has the vector engine refuse the
sources: inside :func:`packed_rung`, ``vector_fallback_reason`` returns
:data:`PACKED_RUNG_REASON`, and a vector (or packed) request falls to
the packed rung exactly as it does without NumPy or for a program the
vector engine cannot lower.  Use the context manager, or the
``packed_rung`` fixture of ``tests/conftest.py``::

    from tests.packed_rung import packed_rung
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

import repro.kernel.vector as vector

PACKED_RUNG_REASON = "the vector engine is refused to run its packed fallback rung"


@contextmanager
def packed_rung() -> Iterator[None]:
    """Vector and packed requests run on the packed kernel inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            vector, "vector_fallback_reason", lambda *sources: PACKED_RUNG_REASON
        )
        yield
