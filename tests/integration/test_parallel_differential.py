"""Differential tests: checks asked for several workers against one.

The invariant is verdict identity: for every system, spec,
abstraction, fairness mode, and budget, the check run with
``workers > 1`` must produce a *byte-identical* formatted verdict —
same holds/fails, same witness states, same counts, PARTIAL progress
included.  The tuple, packed and vector engines decide in one process
at every worker count, so their counters must be identical too.  These
tests enforce it on every ring system of the reproduction, on both
decision procedures, and through the CLI; the shared engine's forking
rounds have their own differential in ``test_shared_differential.py``.
"""

from __future__ import annotations

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_stabilization,
)
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.rings import (
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
from tests.integration.test_packed_differential import RING_CASES

#: The engines that decide one check in one process.
ONE_PROCESS_ENGINES = ("tuple", "packed", "vector")


def _recorded(check, **kwargs):
    """``check(**kwargs)``'s rendering and counters at 1 and 4 workers."""
    runs = []
    for workers in (1, 4):
        recorder = Recorder()
        result = check(workers=workers, instrumentation=recorder, **kwargs)
        runs.append((result.format(), recorder.record().counters))
    return runs

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)


class TestStabilizationDifferential:
    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    @pytest.mark.parametrize("workers", [2, 4])
    def test_verdicts_byte_identical(
        self, name, concrete, spec, alpha, fairness, stutter, workers
    ):
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness
        )
        sequential = check_stabilization(concrete(), spec(), **kwargs)
        parallel = check_stabilization(
            concrete(), spec(), workers=workers, **kwargs
        )
        assert sequential.format() == parallel.format()
        assert sequential.holds == parallel.holds
        assert sequential.legitimate_abstract == parallel.legitimate_abstract
        assert sequential.core == parallel.core

    def test_partial_verdicts_agree_on_the_cut(self):
        """Under a tiny budget both runs stop PARTIAL at the same cut:
        same phase, same explored and frontier tallies."""
        concrete = dijkstra_three_state(4).compile()
        spec = btr_program(4).compile()
        alpha = btr3_abstraction(4)
        sequential = check_stabilization(
            concrete, spec, alpha, state_budget=10
        )
        parallel = check_stabilization(
            concrete, spec, alpha, state_budget=10, workers=2
        )
        assert sequential.is_partial and parallel.is_partial
        assert (
            sequential.result.partial.phase == parallel.result.partial.phase
        )
        assert sequential.format() == parallel.format()

    def test_generous_budget_still_identical(self):
        """A budget that never trips must not perturb the verdict."""
        concrete = dijkstra_four_state(3).compile()
        spec = btr_program(3).compile()
        alpha = btr4_abstraction(3)
        sequential = check_stabilization(
            concrete, spec, alpha, state_budget=10_000_000
        )
        parallel = check_stabilization(
            concrete, spec, alpha, state_budget=10_000_000, workers=3
        )
        assert sequential.format() == parallel.format()


class TestOneProcessEngines:
    @pytest.mark.parametrize("engine", ONE_PROCESS_ENGINES)
    @pytest.mark.parametrize("budget", [40, 100, 200, None])
    def test_kstate_verdict_and_counters_identical(self, engine, budget):
        """K-state(4,4) to UTR: the budgeted checks stop PARTIAL, and
        every cut — explored and frontier tallies included — and every
        counter is the same at one and at four workers."""
        (one, one_counters), (four, four_counters) = _recorded(
            check_stabilization,
            concrete=kstate_program(4, 4),
            abstract=utr_program(4),
            alpha=utr_abstraction(4, 4),
            state_budget=budget,
            engine=engine,
        )
        assert ("PARTIAL" in one) == (budget is not None)
        assert one == four
        assert one_counters == four_counters

    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    @pytest.mark.parametrize("engine", ONE_PROCESS_ENGINES)
    def test_ring_counters_identical(
        self, name, concrete, spec, alpha, fairness, stutter, engine
    ):
        (one, one_counters), (four, four_counters) = _recorded(
            check_stabilization,
            concrete=concrete(),
            abstract=spec(),
            alpha=alpha(),
            fairness=fairness,
            stutter_insensitive=stutter,
            engine=engine,
        )
        assert one == four
        assert one_counters == four_counters
        assert "check.fixpoint.iterations" in one_counters


class TestRefinementDifferential:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_holding_refinement_identical(self, workers):
        concrete = dijkstra_four_state(3).compile()
        spec = btr_program(3).compile()
        alpha = btr4_abstraction(3)
        sequential = check_convergence_refinement(concrete, spec, alpha)
        parallel = check_convergence_refinement(
            concrete, spec, alpha, workers=workers
        )
        assert sequential.format() == parallel.format()

    def test_failing_refinement_witness_identical(self):
        """The first violating transition in sequential order is the
        witness at every worker count."""
        concrete = dijkstra_three_state(4).compile()
        spec = btr_program(4).compile()
        alpha = btr3_abstraction(4)
        sequential = check_convergence_refinement(concrete, spec, alpha)
        parallel = check_convergence_refinement(
            concrete, spec, alpha, workers=2
        )
        assert not sequential.holds
        assert sequential.format() == parallel.format()
        assert sequential.witness.states == parallel.witness.states

    def test_stutter_insensitive_identical(self):
        concrete = c3_composed(3).compile()
        spec = btr_program(3).compile()
        alpha = btr3_abstraction(3)
        sequential = check_convergence_refinement(
            concrete, spec, alpha, stutter_insensitive=True
        )
        parallel = check_convergence_refinement(
            concrete, spec, alpha, stutter_insensitive=True, workers=2
        )
        assert sequential.format() == parallel.format()


class TestCliDifferential:
    def test_check_output_identical_with_workers(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        code_seq = main(["check", str(spec)])
        out_seq = capsys.readouterr().out
        code_par = main(["check", str(spec), "--workers", "2"])
        out_par = capsys.readouterr().out
        assert code_seq == code_par
        assert out_seq == out_par

    def test_check_cache_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        cache_dir = tmp_path / "cache"
        code_first = main(["check", str(spec), "--cache-dir", str(cache_dir)])
        first = capsys.readouterr()
        assert "verification cache: stored" in first.err
        code_second = main(["check", str(spec), "--cache-dir", str(cache_dir)])
        second = capsys.readouterr()
        assert "verification cache: hit" in second.err
        assert first.out == second.out
        assert code_first == code_second

    def test_cache_survives_reformatting(self, tmp_path, capsys):
        from repro.cli import main

        original = tmp_path / "a.gcl"
        original.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        reformatted = tmp_path / "b.gcl"
        reformatted.write_text(
            "# reformatted copy\n"
            "program toy\n\n"
            "var x :   mod 3\n"
            "action heal ::  x != 0  -->  x := 0\n"
            "init x == 0\n"
        )
        cache_dir = tmp_path / "cache"
        main(["check", str(original), "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        main(["check", str(reformatted), "--cache-dir", str(cache_dir)])
        assert "verification cache: hit" in capsys.readouterr().err
