"""Replay a divergent-cycle witness against the program's own semantics.

Above the size the tuple engine can check, no second engine confirms a
failing verdict; its witness can still be checked on its own.  The
replay uses nothing of the engine that found the witness: each step is
looked up among the moves :func:`repro.gcl.semantics.program_moves`
generates from the step's source state — the generator every compiled
system is built from.

Import it from tests, or from a script run at the repository root::

    from tests.witness_replay import assert_cycle_replays
"""

from __future__ import annotations

from typing import Optional

from repro.checker import StabilizationResult
from repro.checker.witnesses import WitnessKind
from repro.gcl import CentralDaemon, Daemon, Program, program_moves


def assert_cycle_replays(
    program: Program,
    result: StabilizationResult,
    fairness: str = "none",
    daemon: Optional[Daemon] = None,
) -> None:
    """Assert that ``result`` fails with a genuine divergent cycle.

    The witness must be a closed walk of at least one step, every step
    a move of ``program`` under ``daemon`` (the central daemon by
    default) — a state-changing one under weak fairness, which ignores
    stuttering — and every state must lie outside the result's core.
    """
    witness = result.result.witness
    assert witness is not None and witness.kind is WitnessKind.DIVERGENT_CYCLE
    states = witness.states
    assert len(states) >= 2, states
    assert states[0] == states[-1], states
    chosen = daemon or CentralDaemon()
    for source, target in zip(states, states[1:]):
        moves = {successor for successor, _ in program_moves(program, chosen, source)}
        assert target in moves, (source, target)
        if fairness == "weak":
            assert target != source, source
    inside = [state for state in states if state in result.core]
    assert not inside, inside
