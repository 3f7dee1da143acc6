"""The campaign outcome taxonomy and per-cell result records.

Every campaign cell ends in exactly one of five first-class outcomes —
there is no sixth "the engine blew up" state, because resilience means
classifying everything:

* ``converged`` — the run reached the legitimate set within its step
  budget (or the checker proved stabilization);
* ``diverged``  — *suspected divergence*: the step budget ran out with
  the legitimacy predicate never holding after the last fault, the run
  deadlocked outside the legitimate set, or the checker produced a
  counterexample.  For simulation cells this is statistical evidence,
  not proof — hence "suspected" — and the offending trace is archived
  for replay when a trace directory is configured;
* ``timeout``   — the per-run wall-clock deadline elapsed first;
* ``error``     — the cell crashed even after its bounded retries; the
  exception is summarized in ``detail``;
* ``earlystop`` — the cell was skipped because its cell class had
  already settled under ``--early-stop``
  (see :mod:`repro.campaign.earlystop`); ``detail`` names the settled
  status.

Results serialize as tagged ``{"t": "campaign-cell"}`` JSONL lines —
the same convention as :mod:`repro.obs.record`, so checkpoint files
are readable by ``repro report`` and by any consumer that skips
unknown tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

__all__ = ["CellStatus", "CellResult"]


class CellStatus(Enum):
    """How one campaign cell ended (see the module docstring)."""

    CONVERGED = "converged"
    DIVERGED = "diverged"
    TIMEOUT = "timeout"
    ERROR = "error"
    EARLYSTOP = "earlystop"


@dataclass(frozen=True)
class CellResult:
    """The durable record of one executed campaign cell.

    Attributes:
        cell_id: the cell's stable identity (checkpoint key).
        status: the outcome.
        attempts: how many attempts were made (1 = first try).
        seconds: wall time across all attempts.
        steps: actions fired by the (final attempt's) run, when the
            cell was a simulation.
        seed: the derived sub-seed of the final attempt.
        detail: free-form context — convergence step, witness kind,
            exception summary.
        trace_path: where the trace was archived (suspected-divergence
            cells with a trace directory configured).
    """

    cell_id: str
    status: CellStatus
    attempts: int
    seconds: float
    steps: Optional[int] = None
    seed: Optional[int] = None
    detail: str = ""
    trace_path: Optional[str] = None

    def to_payload(self) -> Dict[str, object]:
        """The tagged-JSONL checkpoint line for this result."""
        payload: Dict[str, object] = {
            "t": "campaign-cell",
            "id": self.cell_id,
            "status": self.status.value,
            "attempts": self.attempts,
            "seconds": round(self.seconds, 6),
        }
        if self.steps is not None:
            payload["steps"] = self.steps
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.detail:
            payload["detail"] = self.detail
        if self.trace_path is not None:
            payload["trace"] = self.trace_path
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "CellResult":
        """Rebuild a result from its checkpoint line."""
        return cls(
            cell_id=str(payload["id"]),
            status=CellStatus(str(payload["status"])),
            attempts=int(payload.get("attempts", 1)),
            seconds=float(payload.get("seconds", 0.0)),
            steps=int(payload["steps"]) if "steps" in payload else None,
            seed=int(payload["seed"]) if "seed" in payload else None,
            detail=str(payload.get("detail", "")),
            trace_path=str(payload["trace"]) if "trace" in payload else None,
        )
