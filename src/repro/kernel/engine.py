"""Engine plumbing: kernels from checker inputs, image tables, fallback.

The checkers accept either a compiled :class:`~repro.core.system.
System` or a still-uncompiled :class:`~repro.gcl.program.Program`.
The helpers here normalize both into the representation each engine
needs — a :class:`PackedKernel` for the packed engine (a ``Program``
lowers *directly*, skipping the transition table entirely) — read a
source's schema without compiling it (:func:`source_schema`), and
decide when packing must be refused (:func:`packed_fallback_reason`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from ..core.abstraction import AbstractionFunction
from ..core.errors import StateSpaceError
from ..core.state import State, StateSchema
from ..core.system import System
from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from .interner import StateInterner, unpackable_reason
from .successors import PackedKernel

__all__ = [
    "CheckSource",
    "as_kernel",
    "source_schema",
    "packed_fallback_reason",
    "image_codes",
    "drop_self_loops",
]

#: What the checker entry points accept for either side of a check.
CheckSource = Union[System, Program]


def as_kernel(
    source: CheckSource,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> PackedKernel:
    """The packed-engine view of a check source.

    Programs lower straight to a successor kernel — no transition
    table; compiled systems are wrapped with encode/decode at the
    edges.  The lowering is timed as an ``engine.lower`` span whose
    attributes name the source flavour and the resulting packed
    state-space size.
    """
    lowering = "system" if isinstance(source, System) else "program"
    with instrumentation.span("engine.lower", source=lowering):
        if isinstance(source, System):
            kernel = PackedKernel.from_system(source)
        else:
            kernel = PackedKernel.from_program(source)
    instrumentation.gauge("engine.packed.size", kernel.size)
    return kernel


def source_schema(source: CheckSource) -> StateSchema:
    """The state schema of a check source, without compiling it."""
    return source.schema if isinstance(source, System) else source.schema()


def packed_fallback_reason(*sources: CheckSource) -> Optional[str]:
    """Why the packed engine cannot run on these sources (``None`` = it can)."""
    for source in sources:
        reason = unpackable_reason(source_schema(source))
        if reason is not None:
            return reason
    return None


def image_codes(
    concrete: StateInterner,
    abstract: StateInterner,
    alpha: Optional[AbstractionFunction],
) -> List[int]:
    """The abstraction as a dense table: concrete code -> abstract code.

    Entry ``-1`` marks a concrete state whose image is not a valid
    abstract state (it can never be a core candidate) — mirroring the
    tuple engine, where such an image simply fails the legitimacy
    membership test.
    """
    if alpha is None and concrete.schema.compatible_with(abstract.schema):
        return list(range(concrete.size))
    mapping: Callable[[State], State] = (
        alpha if alpha is not None else (lambda state: state)
    )
    table: List[int] = []
    for state in concrete.schema.states():
        try:
            table.append(abstract.encode(mapping(state)))
        except StateSpaceError:
            table.append(-1)
    return table


def drop_self_loops(
    succ_of: Callable[[int], Tuple[int, ...]],
) -> Callable[[int], Tuple[int, ...]]:
    """The analysis view of a successor function under weak/strong
    fairness: same relation minus self-loops (the packed analogue of
    ``System.without_self_loops``)."""

    def filtered(code: int) -> Tuple[int, ...]:
        return tuple(successor for successor in succ_of(code) if successor != code)

    return filtered
