"""The packed-state kernel engine.

Dense integer state codes (mixed-radix interning), on-the-fly
successor generation compiled straight from guarded-command programs,
and bitset fixpoints for the checker's hot set computations.  The
checkers run it as the vector engine's fallback rung — for a program
the vector engine cannot lower or one above its cell ceiling;
``engine="packed"``
is an alias of ``"vector"``.  Verdicts, witnesses, and
observability counters match the tuple engine byte for byte (see
``docs/PERFORMANCE.md`` for the architecture and the one documented
fixpoint-iteration caveat).
"""

from .bitset import codes_of_flags, make_flags
from .engine import (
    CheckSource,
    as_kernel,
    drop_self_loops,
    image_codes,
    packed_fallback_reason,
    source_schema,
)
from .fixpoint import (
    SuccessorFn,
    packed_core,
    packed_has_cycle,
    packed_longest_path,
    packed_reachable,
    packed_terminals,
)
from .interner import MAX_PACKED_STATES, StateInterner, can_pack, unpackable_reason
from .successors import PackedKernel

__all__ = [
    "MAX_PACKED_STATES",
    "StateInterner",
    "can_pack",
    "unpackable_reason",
    "PackedKernel",
    "CheckSource",
    "as_kernel",
    "source_schema",
    "packed_fallback_reason",
    "image_codes",
    "drop_self_loops",
    "SuccessorFn",
    "packed_reachable",
    "packed_core",
    "packed_has_cycle",
    "packed_terminals",
    "packed_longest_path",
    "make_flags",
    "codes_of_flags",
]
