"""Campaign grids: the swept axes and deterministic seed derivation.

A grid is the cartesian product of four axes — stabilizing system,
daemon (scheduler), fault injector, and seed index — plus, optionally,
one exact verification cell per (system, size).  Each point is
a :class:`CellSpec` whose :meth:`~CellSpec.cell_id` is a stable string:
it keys the checkpoint file, names archived traces, and feeds the
sub-seed derivation, so the same grid always resumes and replays
identically.

The registries below name the interesting points of each axis:

* :data:`SYSTEMS` — the derived rings of the paper (plus the abstract
  ``BTR`` itself as a known-non-stabilizing control);
* :data:`SCHEDULERS` — the daemon spectrum from uniformly random to
  the greedy token-maximizing adversary;
* :data:`INJECTORS` — single-variable, three-variable, and
  whole-state transient corruption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..gcl.program import Program
from ..rings import (
    btr3_abstraction,
    btr4_abstraction,
    btr_program,
    c3_composed,
    dijkstra_four_state,
    dijkstra_three_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)
from ..rings.topology import Ring
from ..simulation.faults import (
    CorruptEverything,
    CorruptVariables,
    FaultInjector,
)
from ..simulation.metrics import (
    btr_tokens,
    four_state_tokens,
    kstate_tokens,
    three_state_tokens,
)
from ..simulation.scheduler import (
    BiasedScheduler,
    GreedyScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)

__all__ = [
    "SystemEntry",
    "SYSTEMS",
    "SCHEDULERS",
    "INJECTORS",
    "CellSpec",
    "build_grid",
    "build_scheduler",
    "build_injector",
    "derive_seed",
    "grid_signature",
]


@dataclass(frozen=True)
class SystemEntry:
    """One swept system: how to build, simulate, and verify it.

    Attributes:
        builder: ring size -> guarded-command program.
        legit_kind: key for
            :func:`repro.simulation.metrics.legitimacy_predicate` and
            the token decoders.
        spec_builder: ring size -> specification program (for check
            cells).
        alpha_builder: ring size -> abstraction function onto the spec
            (``None`` = identity).
        fairness: weakest known-sufficient daemon fairness for the
            stabilization check.
        stutter_insensitive: compare behaviours modulo stuttering.
        stabilizing: whether the check is *expected* to hold (``BTR``
            itself is the deliberate non-stabilizing control).
    """

    builder: Callable[[int], Program]
    legit_kind: str
    spec_builder: Callable[[int], Program]
    alpha_builder: Optional[Callable[[int], object]]
    fairness: str = "none"
    stutter_insensitive: bool = False
    stabilizing: bool = True


SYSTEMS: Dict[str, SystemEntry] = {
    "dijkstra4": SystemEntry(
        dijkstra_four_state, "four", btr_program, btr4_abstraction
    ),
    "dijkstra3": SystemEntry(
        dijkstra_three_state, "three", btr_program, btr3_abstraction
    ),
    "c3-composed": SystemEntry(
        c3_composed, "three", btr_program, btr3_abstraction,
        fairness="strong", stutter_insensitive=True,
    ),
    "kstate": SystemEntry(
        lambda n: kstate_program(n, n), "kstate", utr_program,
        lambda n: utr_abstraction(n, n),
    ),
    "btr": SystemEntry(
        btr_program, "btr", btr_program, None, stabilizing=False
    ),
}

#: The default sweep: every derived stabilizing ring (``btr`` is the
#: opt-in non-stabilizing control).
DEFAULT_SYSTEMS: Tuple[str, ...] = (
    "dijkstra4", "dijkstra3", "c3-composed", "kstate"
)

_TOKEN_DECODERS = {
    "btr": btr_tokens,
    "four": four_state_tokens,
    "three": three_state_tokens,
    "kstate": kstate_tokens,
}


def _greedy_token_scheduler(legit_kind: str, n: int) -> Scheduler:
    """The adversary that steers toward many-token states."""
    ring = Ring(n)
    decoder = _TOKEN_DECODERS[legit_kind]
    return GreedyScheduler(score=lambda env: len(decoder(ring, env)))


def _biased_starver(legit_kind: str, n: int) -> Scheduler:
    """Starve wrapper/cancellation actions with probability 0.95.

    On systems without wrapper actions every action is preferred, so
    the daemon degrades gracefully to the uniform one.
    """
    return BiasedScheduler(
        prefers=lambda name: not name.startswith("w"), bias=0.95
    )


SCHEDULERS: Dict[str, Callable[[str, int], Scheduler]] = {
    "random": lambda kind, n: RandomScheduler(),
    "round-robin": lambda kind, n: RoundRobinScheduler(),
    "starve-wrappers": _biased_starver,
    "greedy-tokens": _greedy_token_scheduler,
}

INJECTORS: Dict[str, Callable[[], FaultInjector]] = {
    "corrupt-1": lambda: CorruptVariables(1),
    "corrupt-3": lambda: CorruptVariables(3, clamp=True),
    "corrupt-all": CorruptEverything,
}


@dataclass(frozen=True)
class CellSpec:
    """One point of a campaign grid.

    Attributes:
        kind: ``"simulate"`` (fault-injected run) or ``"check"``
            (exact stabilization verification).
        system: key into :data:`SYSTEMS`.
        n: ring size.
        scheduler: key into :data:`SCHEDULERS` (``"-"`` on check cells).
        injector: key into :data:`INJECTORS` (``"-"`` on check cells).
        seed_index: which of the cell's seeds this is (0-based).
    """

    kind: str
    system: str
    n: int
    scheduler: str = "-"
    injector: str = "-"
    seed_index: int = 0

    def cell_id(self) -> str:
        """The stable identity keying checkpoints, traces, and seeds."""
        return (
            f"{self.kind}:{self.system}:n{self.n}"
            f":{self.scheduler}:{self.injector}:s{self.seed_index}"
        )


def build_grid(
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    sizes: Sequence[int] = (3, 4),
    schedulers: Sequence[str] = ("random",),
    injectors: Sequence[str] = ("corrupt-all",),
    seeds: int = 3,
    with_check: bool = False,
) -> List[CellSpec]:
    """The cells of a campaign, in deterministic execution order.

    Args:
        systems: :data:`SYSTEMS` keys to sweep.
        sizes: ring sizes to sweep.
        schedulers: :data:`SCHEDULERS` keys to sweep.
        injectors: :data:`INJECTORS` keys to sweep.
        seeds: how many seed indices per combination.
        with_check: additionally emit one exact verification
            cell per (system, size).

    Raises:
        SimulationError: on an unknown registry key or a non-positive
            axis, so a mistyped grid dies before the first cell runs.
    """
    for system in systems:
        if system not in SYSTEMS:
            raise SimulationError(
                f"unknown system {system!r}; known: {sorted(SYSTEMS)}"
            )
    for scheduler in schedulers:
        if scheduler not in SCHEDULERS:
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; known: {sorted(SCHEDULERS)}"
            )
    for injector in injectors:
        if injector not in INJECTORS:
            raise SimulationError(
                f"unknown injector {injector!r}; known: {sorted(INJECTORS)}"
            )
    if seeds < 1:
        raise SimulationError(f"seeds per cell must be positive, got {seeds}")
    if any(n < 3 for n in sizes):
        raise SimulationError(f"ring sizes must be at least 3, got {list(sizes)}")
    cells: List[CellSpec] = []
    for system in systems:
        for n in sizes:
            if with_check:
                cells.append(CellSpec("check", system, n))
            for scheduler in schedulers:
                for injector in injectors:
                    for index in range(seeds):
                        cells.append(
                            CellSpec(
                                "simulate", system, n,
                                scheduler, injector, index,
                            )
                        )
    return cells


def build_scheduler(key: str, legit_kind: str, n: int) -> Scheduler:
    """A fresh scheduler instance for one cell (never shared across runs)."""
    return SCHEDULERS[key](legit_kind, n)


def build_injector(key: str) -> FaultInjector:
    """A fresh injector instance for one cell."""
    return INJECTORS[key]()


def derive_seed(campaign_seed: int, cell_id: str, attempt: int = 0) -> int:
    """The deterministic sub-seed of one cell attempt.

    Hashes ``campaign_seed : cell_id : attempt`` with SHA-256 and takes
    the first 8 bytes, so every cell — and every retry — gets an
    independent, reproducible random stream regardless of execution
    order, interleaving, or resumption.
    """
    digest = hashlib.sha256(
        f"{campaign_seed}:{cell_id}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def grid_signature(cells: Sequence[CellSpec]) -> str:
    """A short fingerprint of a grid (order-sensitive).

    Stored in the checkpoint header and verified on ``--resume``: a
    checkpoint written for one grid must not silently skip cells of a
    different one.
    """
    digest = hashlib.sha256(
        "\n".join(cell.cell_id() for cell in cells).encode("utf-8")
    ).hexdigest()
    return digest[:16]
