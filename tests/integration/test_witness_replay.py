"""Known-answer negatives: failing verdicts whose witnesses replay.

K-state stabilizes exactly when K >= n - 1, so every K-state(n, n - 2)
ring must fail with a divergent cycle.  Each witness is replayed
against the program's own move generator (:mod:`tests.witness_replay`),
independent of the engine that found it — the check that still works
where no tuple-engine differential can run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.checker import check_stabilization
from repro.checker.witnesses import Witness, WitnessKind
from repro.gcl import CentralDaemon, parse_program, program_moves
from repro.rings import kstate_program, utr_abstraction, utr_program
from tests.integration.test_witness_differential import TWINSPIN
from tests.witness_replay import assert_cycle_replays

#: (engine, n): K-state(7, 5) has 78,125 states, past what the tuple
#: engine checks in tier-1 time.
GRID = [
    ("shared", 5),
    ("shared", 6),
    ("shared", 7),
    ("packed", 5),
    ("packed", 6),
    ("vector", 5),
    ("vector", 6),
]


def _kstate_check(engine: str, n: int):
    return check_stabilization(
        kstate_program(n, n - 2),
        utr_program(n),
        utr_abstraction(n, n - 2),
        engine=engine,
        compute_steps=False,
    )


class TestKnownAnswerNegatives:
    @pytest.mark.parametrize(
        "engine,n", GRID, ids=[f"{engine}-n{n}" for engine, n in GRID]
    )
    def test_below_threshold_fails_with_a_replayable_cycle(self, engine, n):
        result = _kstate_check(engine, n)
        assert not result.holds
        assert_cycle_replays(kstate_program(n, n - 2), result)

    @pytest.mark.parametrize("engine", ["tuple", "packed", "vector", "shared"])
    def test_weak_fairness_cycle_replays_without_stutter(self, engine):
        program = parse_program(TWINSPIN)
        result = check_stabilization(
            program, program, fairness="weak", engine=engine
        )
        assert_cycle_replays(program, result, fairness="weak")


class TestReplayRejectsForgeries:
    """The replay is only evidence if it can fail."""

    def _forged(self, result, states):
        witness = dataclasses.replace(result.result.witness, states=states)
        return dataclasses.replace(
            result, result=dataclasses.replace(result.result, witness=witness)
        )

    def test_rejects_a_non_move(self):
        result = _kstate_check("packed", 5)
        cycle = result.result.witness.states
        forged = self._forged(result, cycle[:1] + cycle[2:])
        with pytest.raises(AssertionError):
            assert_cycle_replays(kstate_program(5, 3), forged)

    def test_rejects_an_open_walk(self):
        result = _kstate_check("packed", 5)
        forged = self._forged(result, result.result.witness.states[:-1])
        with pytest.raises(AssertionError):
            assert_cycle_replays(kstate_program(5, 3), forged)

    def test_rejects_a_cycle_inside_the_core(self):
        program = kstate_program(5, 3)
        result = _kstate_check("packed", 5)
        # The core is closed, so a walk from a core state stays inside
        # it until it closes a cycle of genuine moves.
        walk = [min(result.core, key=repr)]
        while walk[-1] not in walk[:-1]:
            moves = program_moves(program, CentralDaemon(), walk[-1])
            walk.append(min((successor for successor, _ in moves), key=repr))
        cycle = tuple(walk[walk.index(walk[-1]):])
        with pytest.raises(AssertionError, match=repr(cycle[0])[1:-1]):
            assert_cycle_replays(program, self._forged(result, cycle))

    def test_rejects_stutter_under_weak_fairness(self):
        program = parse_program(TWINSPIN)
        result = check_stabilization(program, program, fairness="weak")
        start = result.result.witness.states[0]
        forged = self._forged(result, (start, start))
        assert_cycle_replays(program, forged)  # a move under no fairness
        with pytest.raises(AssertionError):
            assert_cycle_replays(program, forged, fairness="weak")

    def test_rejects_other_witness_kinds(self):
        result = _kstate_check("packed", 5)
        forged = dataclasses.replace(
            result,
            result=dataclasses.replace(
                result.result,
                witness=Witness(
                    WitnessKind.ILLEGITIMATE_DEADLOCK,
                    "stuck",
                    (result.result.witness.states[0],),
                ),
            ),
        )
        with pytest.raises(AssertionError):
            assert_cycle_replays(kstate_program(5, 3), forged)
