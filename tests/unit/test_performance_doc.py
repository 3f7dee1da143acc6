"""The headline mega-scale numbers in docs/PERFORMANCE.md are the ones
the committed ``BENCH_kernel.json`` records."""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: ``K-state(n, k) ... <seconds> s (<thousands> K states/s)``.
QUOTE = re.compile(
    r"K-state\((\d+), (\d+)\)[^()]*?([\d.]+) s \((\d+) K states/s\)"
)


def _headline_paragraph() -> str:
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    paragraph = next(
        block for block in text.split("\n\n")
        if "What the architecture buys" in block
    )
    return " ".join(paragraph.split())


def test_headline_throughput_matches_bench_kernel():
    bench = json.loads((ROOT / "BENCH_kernel.json").read_text(encoding="utf-8"))
    rows = {(row["n"], row["k"]): row for row in bench["rows"]}
    paragraph = _headline_paragraph()
    quotes = QUOTE.findall(paragraph)
    assert len(quotes) == paragraph.count("states/s")
    assert {(int(n), int(k)) for n, k, _, _ in quotes} == set(rows)
    for n, k, seconds, thousands in quotes:
        row = rows[int(n), int(k)]
        assert int(thousands) == round(row["states_per_s"] / 1000), (n, k)
        assert float(seconds) == round(row["states"] / row["states_per_s"], 1), (
            n, k,
        )
