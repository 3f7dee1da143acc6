"""The campaign summary table behind ``repro campaign``.

One row per (system, ring size), one column per outcome of the
taxonomy, plus a totals row — the at-a-glance answer to "did the soak
survive, and where did it hurt?".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .engine import CampaignResult
from .outcomes import CellResult, CellStatus

__all__ = ["summarize_campaign"]

_COLUMNS: Tuple[CellStatus, ...] = (
    CellStatus.CONVERGED,
    CellStatus.DIVERGED,
    CellStatus.TIMEOUT,
    CellStatus.ERROR,
    CellStatus.EARLYSTOP,
)


def _row_key(result: CellResult) -> str:
    """Group label ``system n=N`` parsed from the cell id."""
    parts = result.cell_id.split(":")
    if len(parts) >= 3 and parts[2].startswith("n"):
        return f"{parts[1]} n={parts[2][1:]}"
    return result.cell_id


def summarize_campaign(campaign: CampaignResult) -> str:
    """A plain-text summary table of a campaign run.

    Rows are (system, ring size) groups in first-seen order; columns
    are the outcome taxonomy plus a total.  Cells that demand attention —
    suspected divergences with archived traces, and errors — are listed
    beneath the table with their detail lines.
    """
    rows: Dict[str, Dict[CellStatus, int]] = {}
    for result in campaign.results:
        key = _row_key(result)
        tally = rows.setdefault(key, {status: 0 for status in _COLUMNS})
        tally[result.status] += 1

    header = ["cell", *[status.value for status in _COLUMNS], "total"]
    table: List[List[str]] = [header]
    for key, tally in rows.items():
        table.append(
            [
                key,
                *[str(tally[status]) for status in _COLUMNS],
                str(sum(tally.values())),
            ]
        )
    totals = campaign.counts()
    table.append(
        [
            "total",
            *[str(totals.get(status, 0)) for status in _COLUMNS],
            str(len(campaign.results)),
        ]
    )
    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = ["campaign summary"]
    for index, row in enumerate(table):
        lines.append(
            "  "
            + "  ".join(
                cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col])
                for col, cell in enumerate(row)
            )
        )
        if index == 0 or index == len(table) - 2:
            lines.append("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)))
    lines.append(
        f"  executed {campaign.executed}, resumed {campaign.skipped}"
        + (f", pending {campaign.pending}" if campaign.pending else "")
        + (" (interrupted)" if campaign.interrupted else "")
    )

    attention = [
        result
        for result in campaign.results
        if result.status
        in (CellStatus.DIVERGED, CellStatus.ERROR)
    ]
    if attention:
        lines.append("")
        lines.append("needs attention:")
        for result in attention:
            lines.append(
                f"  [{result.status.value}] {result.cell_id}: {result.detail}"
            )
            if result.trace_path is not None:
                lines.append(f"      trace archived at {result.trace_path}")
    return "\n".join(lines)
