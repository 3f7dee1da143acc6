"""Compare two result sets of the benchmark, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/perf/compare.py BASE_DIR CHANGE_DIR
    python3 benchmarks/perf/compare.py RESULT_DIR      # one set: spreads only

A result set is a directory of the ``<workload>.seed<N>.trace0.json``
files ``run.py --out DIR`` writes, one per run.  For every (workload,
end-to-end metric) it prints each side's median and quartiles, and with
two sets a verdict — ``better``, ``worse``, ``same`` or ``unresolved`` —
by the bounds in ``BENCHMARK.json`` and the nine-in-ten pairs rule
(:func:`summary.verdict`); runs pair up by seed.  With one set it prints
each spread against a third of the metric's bound, the steadiness a
result set should show.  Exits 1 if any metric is ``worse`` or
``unresolved``, or, with one set, wider than a third of its bound
(``setup_s`` excepted).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import summary

ROOT = Path(__file__).resolve().parents[2]

#: Runs keyed by workload, then seed: the end-to-end metric values.
ResultSet = Dict[str, Dict[int, Dict[str, float]]]


def load(directory: Path) -> ResultSet:
    """Every untraced run result in ``directory``."""
    runs: ResultSet = {}
    for path in sorted(directory.glob("*.trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result["metrics"]
    return runs


def compare(base: ResultSet, change: Optional[ResultSet],
            metrics: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per (workload, metric) present on every side."""
    rows = []
    for workload in sorted(base):
        if change is not None and workload not in change:
            continue
        for metric in metrics:
            name = metric["name"]
            old_runs = base[workload]
            row: Dict[str, object] = {
                "workload": workload,
                "metric": name,
                "base": summary.summarize([run[name] for run in old_runs.values()]),
            }
            if change is not None:
                new_runs = change[workload]
                seeds = sorted(set(old_runs) & set(new_runs))
                pairs = (
                    [(old_runs[seed][name], new_runs[seed][name]) for seed in seeds]
                    if seeds
                    else list(zip(
                        (old_runs[seed][name] for seed in sorted(old_runs)),
                        (new_runs[seed][name] for seed in sorted(new_runs)),
                    ))
                )
                new_values = [run[name] for run in new_runs.values()]
                row["change"] = summary.summarize(new_values)
                row["verdict"] = summary.verdict(
                    [run[name] for run in old_runs.values()], new_values,
                    metric["better"], metric["bound"], pairs,
                )
            else:
                steady = row["base"]["spread"] <= metric["bound"] / 3
                row["verdict"] = "steady" if steady or name == "setup_s" else "wide"
            rows.append(row)
    return rows


def _side(stats: Dict[str, float]) -> str:
    return (
        f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] "
        f"spread {stats['spread']:.3f} n={stats['runs']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = load(args.base)
    change = load(args.change) if args.change else None
    rows = compare(base, change, metrics)
    for row in rows:
        line = f"{row['workload']:13s} {row['metric']:13s} {_side(row['base'])}"
        if "change" in row:
            line += f"  ->  {_side(row['change'])}"
        print(f"{line}  {row['verdict']}")
    failing = {"worse", "unresolved", "wide"}
    return 1 if any(row["verdict"] in failing for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
