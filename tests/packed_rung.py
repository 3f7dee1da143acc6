"""Run the packed kernel, which serves only as the vector engine's fallback.

``engine="packed"`` is an alias of ``"vector"``, so a test that must
reach the packed kernel itself has the vector engine refuse the
sources.  Two ways:

* inside :func:`packed_rung`, ``vector_fallback_reason`` returns
  :data:`PACKED_RUNG_REASON`, so a vector (or packed) request falls to
  the packed rung for any program.  Use the context manager, or the
  ``packed_rung`` fixture of ``tests/conftest.py``::

      from tests.packed_rung import packed_rung

* :func:`unlowerable` rewrites a program so that the vector engine's
  own static analysis refuses it, and engine selection reaches the
  packed rung unpatched.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

import repro.kernel.vector as vector
from repro.gcl.action import GuardedAction
from repro.gcl.expr import Add, And, Const, Eq, Mod
from repro.gcl.program import Program

PACKED_RUNG_REASON = "the vector engine is refused to run its packed fallback rung"

#: ``0 % (0 + 1) == 0``: true in every state, but its divisor is not a
#: constant, so no array lowering exists for a guard that reads it.
ALWAYS_UNLOWERABLE = Eq(Mod(Const(0), Add(Const(0), Const(1))), Const(0))

#: The vector engine's refusal of a program :func:`unlowerable` made.
UNLOWERABLE_REASON = "does not lower to a boolean array expression"


def unlowerable(program: Program) -> Program:
    """``program`` with its first guard conjoined with
    :data:`ALWAYS_UNLOWERABLE`: the same transitions, verdicts and
    witnesses, but the vector and shared engines refuse it."""
    first, *rest = program.actions
    guarded = GuardedAction(
        first.name, And(ALWAYS_UNLOWERABLE, first.guard), first.assignments
    )
    return program.with_actions([guarded, *rest])


@contextmanager
def packed_rung() -> Iterator[None]:
    """Vector and packed requests run on the packed kernel inside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            vector, "vector_fallback_reason", lambda *sources: PACKED_RUNG_REASON
        )
        yield
