"""Tiered verification and fingerprint-incremental re-verification.

The checks of :mod:`repro.checker` are compositional: a verdict for a
spec does not change unless the program, the abstraction, or the check
semantics change.  This package exploits that twice over:

* :mod:`repro.tiering.select` — the **tier selector**: THOROUGH (the
  exhaustive check, exact on whichever engine decides it) unless a
  forced ``--tier light`` asks for the seeded Monte-Carlo estimate
  (:mod:`repro.tiering.montecarlo`) — every decision explained by a
  ``tier.select`` event naming the deciding engine;
* :mod:`repro.tiering.manifest` + :mod:`repro.tiering.runner` — the
  **incremental layer**: ``repro verify-tree <dir>`` diffs canonical
  program fingerprints against the previous run's manifest and
  re-verifies only what changed, replaying unchanged verdicts byte
  for byte with zero engine fixpoints.

See ``docs/PERFORMANCE.md`` ("Tiered and incremental verification")
for the manifest format and the invalidation rules.
"""

from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    ManifestDiff,
    ManifestEntry,
)
from .montecarlo import LightVerdict, light_convergence_estimate
from .runner import SpecOutcome, TreeReport, verify_tree
from .select import Tier, TierDecision, select_tier, tier_for

__all__ = [
    "Tier",
    "TierDecision",
    "select_tier",
    "tier_for",
    "Manifest",
    "ManifestDiff",
    "ManifestEntry",
    "MANIFEST_SCHEMA_VERSION",
    "LightVerdict",
    "light_convergence_estimate",
    "SpecOutcome",
    "TreeReport",
    "verify_tree",
]
