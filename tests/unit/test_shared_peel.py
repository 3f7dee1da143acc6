"""Bucket sizing of the shared engine's out-of-core peel.

The peel writes a region's in-edges to spill buckets partitioned by
target code range.  The bucket count follows the region's member
count, not the state space: a converged core of a few hundred codes
inside a two-million-state ring fits one bucket, while the whole
space under the same budget needs hundreds.
"""

from __future__ import annotations

import pytest

from repro.kernel.vector import numpy_available
from repro.rings import kstate_program

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="the shared engine needs NumPy"
)


def _graph_buckets(region_codes) -> int:
    import numpy as np

    from repro.kernel.shared import (
        BitField,
        MemoryContext,
        SharedKernel,
        open_runtime,
        parse_mem_budget,
    )
    from repro.kernel.shared.fixpoint import _PeelGraph

    kernel = SharedKernel(kstate_program(7, 8))
    region = BitField(kernel.size)
    region.set_codes(np.asarray(region_codes(kernel.size), dtype=np.int64))
    context = MemoryContext(budget_bytes=parse_mem_budget("2M"))
    with open_runtime(kernel, context=context) as runtime:
        return _PeelGraph(kernel, region, runtime, False, None, False).buckets


def test_small_region_gets_one_bucket():
    def spread(size):
        return range(0, size, size // 300)

    assert _graph_buckets(spread) == 1


def test_bucket_count_grows_with_the_region():
    # Half the space under the same budget: the estimate is
    # members x actions x pair bytes over a quarter of the budget.
    def half(size):
        return range(0, size, 2)

    assert _graph_buckets(half) > 100
