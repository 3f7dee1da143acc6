"""The shared-memory mega-state engine (``engine="shared"``).

A streamed, optionally out-of-core sibling of the vector engine for
state spaces past ``MAX_VECTOR_CELLS``.  Where the vector kernel
materializes full-space action tables, :class:`~.kernel.SharedKernel`
keeps only lowered closures and evaluates chunks on demand;
membership sets live in bit-packed arrays
(:class:`~.frontier.BitField`), and every fixpoint runs in the calling
process.  Code collections past the in-RAM budget
spill delta-encoded to a run-scoped directory
(:class:`~.spill.SpillStore`) and stream back per round — a
``10**8``-cell ring completes in bounded RSS instead of raising the
vector ceiling.

Verdicts, witnesses, and the shared size-based counters match the
in-process engines byte for byte; the engine is only *selected* while
a :func:`~.budget.using_memory_budget` context is active, and
:func:`shared_fallback_reason` gates every other precondition (NumPy,
a working ``/dev/shm``, program sources, batch-lowerable abstraction).
Cleanup of segments and spill files is unconditional — see
:func:`~.runtime.open_runtime` and the registry's ``atexit`` backstop.

NumPy-free modules (:mod:`.budget`, :mod:`.segments`) always import;
the array modules load only when NumPy is present, mirroring
:mod:`repro.kernel.vector`.
"""

from __future__ import annotations

from typing import Optional

from ...core.abstraction import AbstractionFunction
from ...gcl.program import Program
from ..engine import CheckSource
from ..interner import MAX_PACKED_STATES
from ..vector import NUMPY_MISSING_REASON, numpy_available, unlowerable_reason
from ..vector.analyze import structural_unlowerable_reason
from .budget import (
    DEFAULT_MEM_BUDGET,
    MemoryContext,
    active_memory_context,
    chunk_codes,
    parse_mem_budget,
    using_memory_budget,
)
from .segments import (
    SegmentRegistry,
    shared_memory_unavailable_reason,
    shm_dir,
)

__all__ = [
    "DEFAULT_MEM_BUDGET",
    "MemoryContext",
    "SHARED_MIN_STATES",
    "SegmentRegistry",
    "active_memory_context",
    "chunk_codes",
    "parse_mem_budget",
    "shared_fallback_reason",
    "shared_memory_unavailable_reason",
    "shm_dir",
    "using_memory_budget",
]

#: Below this many packed states the shared engine refuses to run:
#: segment setup and chunk bookkeeping cost more than the whole check,
#: and the in-process engines are exact on spaces this small.
SHARED_MIN_STATES = 16


def shared_fallback_reason(
    concrete: CheckSource,
    abstract: CheckSource,
    alpha: Optional[AbstractionFunction] = None,
) -> Optional[str]:
    """Why the shared engine cannot run these sources (``None`` = it can).

    Checked in order, cheapest first, all without touching NumPy until
    availability is established and without materializing any
    full-space array:

    1. NumPy present (the chunk evaluator is array code);
    2. ``multiprocessing.shared_memory`` works (probed once);
    3. both sources are guarded-command programs (compiled systems
       already hold their explicit state lists in RAM — streaming them
       would save nothing);
    4. the concrete program lowers structurally (the size ceiling is
       deliberately *not* applied — streaming is the point);
    5. the state space is not trivially small (:data:`SHARED_MIN_STATES`);
    6. the abstract program lowers *within* the vector ceiling — its
       tables, cores, and flag arrays stay fully resident;
    7. the abstraction has a streamable image form
       (:func:`~.image.shared_image_unsupported_reason`).
    """
    if not numpy_available():
        return NUMPY_MISSING_REASON
    reason = shared_memory_unavailable_reason()
    if reason is not None:
        return reason
    if not isinstance(concrete, Program):
        return (
            "concrete source is a compiled system; the shared engine "
            "streams successors from guarded-command programs"
        )
    if not isinstance(abstract, Program):
        return (
            "abstract source is a compiled system; the shared engine "
            "pairs a streamed concrete kernel with a program-lowered "
            "abstract kernel"
        )
    reason = structural_unlowerable_reason(concrete)
    if reason is not None:
        return reason
    concrete_schema = concrete.schema()
    size = concrete_schema.size()
    if size < SHARED_MIN_STATES:
        return (
            f"state space has only {size} states; shared-memory staging "
            f"costs more than it saves"
        )
    reason = unlowerable_reason(abstract)
    if reason is not None:
        return f"abstract program: {reason}"
    abstract_size = abstract.schema().size()
    if abstract_size > MAX_PACKED_STATES:
        return (
            f"abstract space has {abstract_size} states, above the packed "
            f"interner ceiling; the shared engine keeps abstract tables "
            f"fully resident"
        )
    from ..interner import StateInterner
    from .image import shared_image_unsupported_reason

    from ..vector.analyze import effective_max_vector_cells

    return shared_image_unsupported_reason(
        StateInterner(concrete_schema, enforce_ceiling=False),
        StateInterner(abstract.schema()),
        alpha,
        effective_max_vector_cells(),
    )


if numpy_available():
    from .fixpoint import (
        RegionDegrees,
        shared_core,
        shared_has_cycle,
        shared_longest_path,
        shared_terminals,
    )
    from .frontier import BitField, CodeRuns
    from .image import SharedImage, shared_image_unsupported_reason
    from .kernel import SharedKernel, SharedLoweringError
    from .runtime import SharedRuntime, open_runtime
    from .spill import SpillStore
    from .tables import TablePool
    from .width import code_dtype, code_width

    __all__ += [
        "BitField",
        "CodeRuns",
        "RegionDegrees",
        "SharedImage",
        "SharedKernel",
        "SharedLoweringError",
        "SharedRuntime",
        "SpillStore",
        "TablePool",
        "code_dtype",
        "code_width",
        "open_runtime",
        "shared_core",
        "shared_has_cycle",
        "shared_image_unsupported_reason",
        "shared_longest_path",
        "shared_terminals",
    ]
