"""The LIGHT tier: a seeded Monte-Carlo convergence estimate.

Beyond exhaustive reach, the principled stand-in (per *Weak vs. Self
vs. Probabilistic Stabilization*, PAPERS.md) is statistical: sample
random states, run the random daemon, and measure how many
trajectories re-enter legitimate behaviour within a step horizon.  It
runs only when ``--tier light`` forces it.

States are the packed kernel's dense int codes, so sampling a random
state is one ``randrange`` over the interner range (never an
enumeration of the space), and a scalar step is one successor-closure
call.  The procedure:

1. **Empirical legitimate set.**  From a bounded sample of the spec's
   initial codes, run the seeded random daemon ``warmup`` steps (the
   burn-in), then keep walking ``collect`` further steps recording
   every state visited.  For a stabilizing system this tail is inside
   the legitimate behaviour almost surely once the burn-in exceeds the
   convergence time.
2. **Trajectory sampling.**  Draw ``samples`` uniform random codes and
   walk each under the same daemon for up to ``horizon`` steps; a
   trajectory *converges* when it enters the empirical legitimate set
   (a deadlock outside it, or horizon exhaustion, is a non-converged
   trajectory).

The verdict is an **estimate**, never a proof — its formatted text
says so loudly — and it is fully deterministic for a given seed: every
random draw comes from one ``random.Random`` stream.

Trajectory sampling is round-synchronous: each round draws one uniform
float per live trajectory (in trajectory order), then steps every
trajectory to the ``floor(u * k)``-th of its ``k`` distinct ascending
successors.  The round itself has two interchangeable executors — a
batch NumPy one that evaluates all live trajectories in a single
:meth:`~repro.kernel.shared.SharedKernel.action_matrix` call, and a
pure-Python one stepping each code through the packed kernel.  Both
consume the identical draw sequence and implement the identical
selection rule, so the verdict is the same object either way.  Neither
steps through a move that leaves a variable's domain: both raise the
:class:`~repro.core.errors.GCLError` ``compile_program`` raises, for the
first live trajectory that makes one.  The scalar executor is the
fallback when the program has no array lowering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Set, Tuple

from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation

__all__ = [
    "LightVerdict",
    "batch_sampler_unavailable_reason",
    "light_convergence_estimate",
]


@dataclass(frozen=True)
class LightVerdict:
    """Outcome of a LIGHT-tier Monte-Carlo convergence estimate.

    Attributes:
        name: the checked program's name.
        samples: trajectories sampled.
        converged: how many entered the empirical legitimate set.
        horizon: per-trajectory step budget.
        seed: the RNG seed (the estimate is a pure function of it).
        legitimate_size: size of the empirical legitimate set.
        states: the full state-space size the samples were drawn from.
    """

    name: str
    samples: int
    converged: int
    horizon: int
    seed: int
    legitimate_size: int
    states: int

    @property
    def holds(self) -> bool:
        """Every sampled trajectory converged (statistical evidence only)."""
        return self.samples > 0 and self.converged == self.samples

    def format(self) -> str:
        """Render the estimate, clearly marked as simulated."""
        verdict = "LIKELY HOLDS" if self.holds else "NOT CONFIRMED"
        return (
            f"{self.name} self-stabilization estimate (LIGHT tier, "
            f"simulated): {verdict}\n"
            f"  {self.converged}/{self.samples} sampled trajectories "
            f"converged within {self.horizon} steps "
            f"(seed {self.seed}, empirical legitimate set "
            f"{self.legitimate_size} of {self.states} states)"
        )


#: One sampling round: live codes (all outside the legitimate set) and
#: their per-trajectory uniform draws in, the codes still live after
#: the step and the number that converged this round out.
_RoundFn = Callable[[List[int], List[float]], Tuple[List[int], int]]


def batch_sampler_unavailable_reason(program: Program) -> Optional[str]:
    """Why trajectory rounds cannot run batched (``None`` = they can).

    The batch executor needs an array lowering of the program's guards
    and assignments; without one the estimate silently uses the scalar
    executor (same verdict, more Python-loop time per round).
    """
    if not isinstance(program, Program):
        return "batch stepping lowers guards directly from a Program"
    from ..kernel.vector.analyze import structural_unlowerable_reason

    return structural_unlowerable_reason(program)


def _scalar_round(kernel, legitimate: Set[int]) -> _RoundFn:
    """The pure-Python round executor: one packed successor-closure
    call per live trajectory (successors arrive sorted-unique)."""

    def step(codes: List[int], draws: List[float]) -> Tuple[List[int], int]:
        converged = 0
        live: List[int] = []
        for code, draw in zip(codes, draws):
            successors = kernel.successors(code)
            if not successors:
                continue
            target = successors[
                min(int(draw * len(successors)), len(successors) - 1)
            ]
            if target in legitimate:
                converged += 1
            else:
                live.append(target)
        return live, converged

    return step


def _batch_round(program: Program, legitimate: Set[int]) -> _RoundFn:
    """The NumPy round executor: all live trajectories in one
    ``action_matrix`` call, per-column distinct-ascending selection.

    Implements the identical rule as :func:`_scalar_round` — the
    packed kernel's ``sorted(set(...))`` successor view — by sorting
    each column's enabled successors with a ``size`` sentinel on the
    disabled slots and ranking the distinct values.
    """
    import numpy as np

    from ..kernel.shared.kernel import SharedKernel

    # validate=False skips the kernel's out-of-domain validation, which
    # reports the first offending state anywhere in the space (from the
    # support tables, or by a sweep for an action too wide to table):
    # the sampler must raise only on the states it visits.  The kernel
    # checks every batch it evaluates instead, so a round raises for
    # its first trajectory whose move leaves the domain, as the scalar
    # executor does.
    kernel = SharedKernel(program, validate=False)
    size = np.int64(kernel.size)
    legit_sorted = np.asarray(sorted(legitimate), dtype=np.int64)

    def step(codes: List[int], draws: List[float]) -> Tuple[List[int], int]:
        columns = np.asarray(codes, dtype=np.int64)
        uniforms = np.asarray(draws, dtype=np.float64)
        enabled, successors = kernel.action_matrix(columns)
        ordered = np.sort(np.where(enabled, successors, size), axis=0)
        distinct = np.ones(ordered.shape, dtype=bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        distinct &= ordered < size
        counts = distinct.sum(axis=0)
        choice = np.minimum(
            (uniforms * counts).astype(np.int64),
            np.maximum(counts - 1, 0),
        )
        rank = np.cumsum(distinct, axis=0) - 1
        row = (distinct & (rank == choice[None, :])).argmax(axis=0)
        targets = ordered[row, np.arange(columns.shape[0])]
        alive = counts > 0
        if legit_sorted.size:
            slots = np.minimum(
                np.searchsorted(legit_sorted, targets),
                legit_sorted.size - 1,
            )
            entered = legit_sorted[slots] == targets
        else:
            entered = np.zeros(columns.shape, dtype=bool)
        converged = int(np.count_nonzero(alive & entered))
        return [int(code) for code in targets[alive & ~entered]], converged

    return step


def light_convergence_estimate(
    program: Program,
    *,
    samples: int = 64,
    horizon: int = 1024,
    warmup: int = 256,
    collect: int = 128,
    warmup_starts: int = 8,
    seed: int = 0,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> LightVerdict:
    """Estimate self-stabilization of ``program`` by seeded simulation.

    Args:
        program: the spec (must have a packable schema — tier
            selection runs an unpackable spec THOROUGH instead).
        samples: trajectories to sample.
        horizon: step budget per sampled trajectory.
        warmup: burn-in steps before the legitimate tail is recorded.
        collect: steps of tail recorded per warm-up walk.
        warmup_starts: how many initial codes seed the warm-up walks.
        seed: the single RNG seed behind every draw.
        instrumentation: observability sink (``tier.light.*``
            counters and the summary event).

    Returns:
        A deterministic :class:`LightVerdict`.

    Raises:
        ValueError: on non-positive sampling parameters.
    """
    if samples < 1 or horizon < 1 or warmup < 0 or collect < 1:
        raise ValueError("sampling parameters must be positive")
    from ..kernel import as_kernel

    kernel = as_kernel(program, instrumentation=instrumentation)
    rng = random.Random(seed)

    with instrumentation.span("tier.light.legitimate"):
        legitimate: Set[int] = set()
        starts = kernel.initial_codes[: max(1, warmup_starts)]
        for code in starts:
            for _ in range(warmup):
                successors = kernel.successors(code)
                if not successors:
                    break
                code = successors[rng.randrange(len(successors))]
            legitimate.add(code)
            for _ in range(collect):
                successors = kernel.successors(code)
                if not successors:
                    break
                code = successors[rng.randrange(len(successors))]
                legitimate.add(code)

    batch_reason = batch_sampler_unavailable_reason(program)
    mode = "scalar" if batch_reason is not None else "batch"
    with instrumentation.span("tier.light.sample", mode=mode):
        if batch_reason is None:
            step_round = _batch_round(program, legitimate)
        else:
            step_round = _scalar_round(kernel, legitimate)
            instrumentation.event(
                "tier.light.scalar_fallback", reason=batch_reason
            )
        starts = [rng.randrange(kernel.size) for _ in range(samples)]
        live = [code for code in starts if code not in legitimate]
        converged = samples - len(live)
        rounds = 0
        for _ in range(horizon):
            if not live:
                break
            draws = [rng.random() for _ in live]
            live, entered = step_round(live, draws)
            converged += entered
            rounds += 1

    instrumentation.count("tier.light.samples", samples)
    instrumentation.count("tier.light.converged", converged)
    instrumentation.count(f"tier.light.rounds.{mode}", rounds)
    instrumentation.event(
        "tier.light.estimate",
        program=program.name,
        samples=samples,
        converged=converged,
        horizon=horizon,
        seed=seed,
        legitimate=len(legitimate),
        mode=mode,
        rounds=rounds,
    )
    return LightVerdict(
        name=program.name,
        samples=samples,
        converged=converged,
        horizon=horizon,
        seed=seed,
        legitimate_size=len(legitimate),
        states=kernel.size,
    )
