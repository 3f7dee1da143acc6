"""Verification-tier selection.

Two tiers remain.  THOROUGH is the exhaustive check — exact on
whichever engine decides it (:func:`~repro.checker.engines.
engine_chain`), with the worst-case convergence metric.  LIGHT is a
seeded Monte-Carlo convergence estimate
(:mod:`repro.tiering.montecarlo`) that samples trajectories instead of
enumerating states — the stand-in that *Weak vs. Self vs.
Probabilistic Stabilization* (PAPERS.md) motivates only beyond
exhaustive reach, so it runs only when forced.

:func:`select_tier` returns the forced tier, or THOROUGH.  A forced
LIGHT on a schema the sampler cannot intern runs THOROUGH instead.
Every decision is explained: a reasoned ``tier.select`` event (and a
``tier.select.<tier>`` counter) goes to the instrumentation sink, and
a THOROUGH reason names the engine that will decide the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation

__all__ = ["Tier", "TierDecision", "select_tier", "tier_for"]


class Tier(Enum):
    """The two verification depths: simulated, and exact."""

    LIGHT = "light"
    THOROUGH = "thorough"


@dataclass(frozen=True)
class TierDecision:
    """One reasoned tier choice.

    Attributes:
        tier: the tier the spec will be verified at.
        reason: one human-readable sentence explaining the choice.
        engine: the engine that decides a THOROUGH check (``None`` for
            LIGHT, which the sampler runs).
        states: the spec's state-space size.
    """

    tier: Tier
    reason: str
    engine: Optional[str]
    states: int


def _unpackable_reason(program: Program) -> Optional[str]:
    """Why the LIGHT sampler cannot run on this spec (``None`` = it can)."""
    from ..kernel import unpackable_reason

    return unpackable_reason(program.schema())


def tier_for(program: Program, forced: Optional[Tier] = None) -> Tier:
    """The tier ``program`` runs at: ``forced``, or THOROUGH.

    A forced LIGHT on a schema the sampler cannot intern is THOROUGH.
    """
    if forced is Tier.LIGHT and _unpackable_reason(program) is None:
        return Tier.LIGHT
    return Tier.THOROUGH


def select_tier(
    program: Program,
    *,
    label: str = "",
    forced: Optional[Tier] = None,
    engine: str = "vector",
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> TierDecision:
    """Pick the verification tier for one spec (see the module docstring).

    Args:
        program: the parsed spec.
        label: how the spec is named in the ``tier.select`` event
            (typically its path).
        forced: an explicit tier (the ``--tier`` flag); a forced LIGHT
            on an unpackable schema runs THOROUGH instead.
        engine: the engine a THOROUGH check requests; the reason names
            the engine :func:`~repro.checker.engines.engine_chain`
            will let decide.
        instrumentation: observability sink for the reasoned
            ``tier.select`` event and ``tier.select.<tier>`` counter.

    Returns:
        A :class:`TierDecision`.
    """
    tier = tier_for(program, forced)
    decided_by: Optional[str] = None
    if tier is Tier.LIGHT:
        reason = "forced by --tier light; the LIGHT sampler estimates it"
    else:
        from ..checker.engines import ENGINES, engine_chain

        decided_by = engine_chain(
            engine, program, program, None, ENGINES, NULL_INSTRUMENTATION
        )[0]
        reason = f"the {decided_by} engine decides it exactly"
        if forced is Tier.LIGHT:
            reason = (
                f"LIGHT sampler unavailable ({_unpackable_reason(program)}); "
                + reason
            )
        elif forced is not None:
            reason = f"forced by --tier {forced.value}; " + reason
    states = program.schema().size()
    instrumentation.count(f"tier.select.{tier.value}")
    instrumentation.event(
        "tier.select",
        spec=label or program.name,
        tier=tier.value,
        engine=decided_by,
        reason=reason,
        states=states,
        forced=forced.value if forced is not None else None,
    )
    return TierDecision(tier=tier, reason=reason, engine=decided_by, states=states)
