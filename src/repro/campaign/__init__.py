"""Resilient fault-injection campaigns.

A *campaign* sweeps a (system × scheduler × fault-injector × seed)
grid over the derived token rings, executing each cell — one bounded,
fault-injected simulation run or one exact verification — with a
per-run wall-clock timeout on simulations, bounded retries on
crashes, and incremental JSONL checkpointing, so that a single
pathological cell cannot take down hours of soak testing and an
interrupted campaign resumes exactly where it stopped.

* :mod:`repro.campaign.grid` — the axes (system/scheduler/injector
  registries), :class:`CellSpec`, and deterministic seed derivation;
* :mod:`repro.campaign.engine` — the resilient executor with
  checkpoint/resume;
* :mod:`repro.campaign.earlystop` — the cross-cell convergence
  detector behind ``--early-stop``: a cell class whose last N
  outcomes are identical stops executing, and its remaining seeds
  become first-class ``earlystop`` results;
* :mod:`repro.campaign.outcomes` — the outcome taxonomy
  (``converged`` / ``diverged`` / ``timeout`` / ``error`` /
  ``earlystop``) and the per-cell result record;
* :mod:`repro.campaign.report` — the summary table behind
  ``repro campaign``.
"""

from .earlystop import ConvergenceDetector, class_key
from .engine import CampaignConfig, CampaignResult, execute_cell, run_campaign
from .grid import (
    INJECTORS,
    SCHEDULERS,
    SYSTEMS,
    CellSpec,
    build_grid,
    derive_seed,
    grid_signature,
)
from .outcomes import CellResult, CellStatus
from .report import summarize_campaign

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CellResult",
    "CellSpec",
    "CellStatus",
    "ConvergenceDetector",
    "INJECTORS",
    "SCHEDULERS",
    "SYSTEMS",
    "build_grid",
    "class_key",
    "derive_seed",
    "execute_cell",
    "grid_signature",
    "run_campaign",
    "summarize_campaign",
]
