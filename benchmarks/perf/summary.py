"""Order statistics the benchmark reports and compares by.

Timings are reported as a median and the highest percentile that has
at least ten samples beyond it; a result set is summarized by its
median and quartiles (``statistics.quantiles(values, n=4)``), and two
sets are compared by the pairs rule in :func:`verdict`.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: A gain needs the change to win this share of all pairs.
WIN_SHARE = 0.9


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest tail percentile the sample
    count supports, by nearest rank.

    Below 100 samples not even the 90th has ten samples beyond it; no
    tail is measurable then, and the median (50) stands in — a maximum
    of a handful of runs would report the machine's noise.
    """
    ordered = sorted(values)
    for percent in TAIL_PERCENTILES:
        # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002.
        rank = math.ceil(round(percent * len(ordered) / 100.0, 9))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            return percent, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = quartiles(values)
    return (third - first) / median if median else math.inf


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    pairs: Optional[List[Tuple[float, float]]] = None,
) -> str:
    """``better``, ``worse``, ``same`` or ``unresolved`` for one metric.

    * ``better``: the change wins at least nine tenths of the pairs
      (ties count for neither side) and the medians differ by more than
      the base's own quartile distance.
    * ``unresolved``: either side's spread is wider than ``bound``, and
      not every run of the change reads better than every run of the
      base.
    * ``worse``: the change's median is worse than the base's by more
      than ``bound``, as a share of the base's median.

    ``pairs`` defaults to the two sequences zipped in order.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change)) if pairs is None else pairs
    first, base_median, third = quartiles(base)
    change_median = quartiles(change)[1]
    gain = sign * (change_median - base_median)
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > third - first:
        return "better"
    all_better = (
        min(change) > max(base) if sign > 0 else max(change) < min(base)
    )
    if max(spread(base), spread(change)) > bound:
        return "same" if all_better else "unresolved"
    if -gain > bound * abs(base_median):
        return "worse"
    return "same"


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and spread of one metric over a result set."""
    first, median, third = quartiles(values)
    return {
        "median": median,
        "q1": first,
        "q3": third,
        "spread": spread(values),
        "runs": len(values),
    }
