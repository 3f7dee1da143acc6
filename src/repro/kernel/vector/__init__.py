"""The vectorized frontier engine (``engine="vector"``).

Batch NumPy successor kernels and frontier-array fixpoints over packed
codes: guards lower to boolean masks over int64 code arrays, parallel
assignments to vectorized digit-deltas, and the checker's hot set
computations to whole-frontier array operations.  Selected with
``engine="vector"``; verdicts, witnesses, and observability counters
match the tuple and packed engines byte for byte.

Engine selection (:func:`repro.checker.engines.engine_chain`)
consults :func:`vector_fallback_reason`; a program this engine cannot
lower falls back to the packed engine (stabilization) or the tuple
reference (refinement).
"""

from __future__ import annotations

from typing import Optional

from ...core.system import System
from ..engine import CheckSource
from .analyze import (
    BOOL,
    INT,
    MAX_VECTOR_CELLS,
    MAX_VECTOR_CELLS_ENV,
    domain_type,
    effective_max_vector_cells,
    expr_type,
    structural_unlowerable_reason,
    unlowerable_reason,
)
from .fixpoint import (
    region_edges,
    vector_core,
    vector_has_cycle,
    vector_longest_path,
    vector_reachable,
    vector_terminals,
)
from .kernel import VectorKernel, VectorLoweringError, as_vector_kernel
from .lower import ArrayEnv, ArrayFn, lower_expr

__all__ = [
    "ArrayEnv",
    "ArrayFn",
    "BOOL",
    "INT",
    "MAX_VECTOR_CELLS",
    "MAX_VECTOR_CELLS_ENV",
    "VectorKernel",
    "VectorLoweringError",
    "as_vector_kernel",
    "domain_type",
    "effective_max_vector_cells",
    "expr_type",
    "lower_expr",
    "region_edges",
    "structural_unlowerable_reason",
    "unlowerable_reason",
    "vector_core",
    "vector_fallback_reason",
    "vector_has_cycle",
    "vector_longest_path",
    "vector_reachable",
    "vector_terminals",
]


def vector_fallback_reason(*sources: CheckSource) -> Optional[str]:
    """Why the vector engine cannot run on these sources (``None`` = it can).

    Compiled systems always lower (the CSR edge form never evaluates
    expressions); programs must pass the static analysis of
    :func:`.analyze.unlowerable_reason`.
    """
    for source in sources:
        if isinstance(source, System):
            continue
        reason = unlowerable_reason(source)
        if reason is not None:
            return reason
    return None

