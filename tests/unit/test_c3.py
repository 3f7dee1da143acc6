"""Unit tests for the new 3-state system C3 (paper, Section 6)."""

from contextlib import nullcontext

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_init_refinement,
    check_stabilization,
    compression_transitions,
)
from repro.core.composition import box_many
from repro.gcl.process import check_model_compliance
from repro.kernel.shared import using_memory_budget
from repro.kernel.vector import MAX_VECTOR_CELLS_ENV
from repro.rings.btr import btr_program
from repro.rings.btr3 import (
    dijkstra_three_state,
    w1_global_program,
    w2_refined_program,
)
from repro.rings.c3 import c3_aggressive_composed, c3_composed, c3_program
from repro.rings.mappings import btr3_abstraction


class TestStructure:
    def test_concrete_model_compliant(self):
        assert check_model_compliance(c3_program(4).processes) == []

    def test_differs_from_c2_as_an_automaton(self):
        from repro.rings.btr3 import c2_program

        assert c3_program(4).compile() != c2_program(4).compile()

    def test_init_refines_btr(self):
        n = 4
        result = check_init_refinement(
            c3_program(n).compile(), btr_program(n).compile(), btr3_abstraction(n)
        )
        assert result.holds, result.format()


class TestStuttering:
    def test_c3_stutters_in_illegitimate_states(self, c3_system):
        """The paper's Section 6 tau-step figure: some enabled moves do
        not change the state."""
        self_loops = [
            (s, t) for s, t in c3_system.transitions() if s == t
        ]
        assert self_loops

    def test_paper_stutter_scenario(self):
        """The figure's concrete instance: c = (3,2,1) mod-3 i.e.
        (0,2,1); process 1's up-move leaves the state unchanged."""
        program = c3_program(3)
        schema = program.schema()
        state = schema.pack({"c.0": 0, "c.1": 2, "c.2": 1})
        env = program.env_of(state)
        up1 = {a.name: a for a in program.actions}["up.1"]
        assert up1.enabled(env)
        assert up1.execute(env) == env

    def test_no_stutters_in_legitimate_states(self, c3_system):
        reachable = c3_system.reachable()
        assert all(
            s != t for s, t in c3_system.transitions() if s in reachable
        )


class TestLemma12:
    def test_literal_convergence_refinement_fails(self):
        """The reproduction's finding: [C3 <= BTR] does not hold
        literally — in multi-token states a single C3 step can realize
        *two* abstract token moves at once (opposite tokens crossing),
        and such compressions recur on bouncing cycles (EXPERIMENTS.md
        E10)."""
        n = 4
        result = check_convergence_refinement(
            c3_program(n).compile(),
            btr_program(n).compile(),
            btr3_abstraction(n),
            stutter_insensitive=True,
        )
        assert not result.holds
        assert result.witness.kind.value == "compression-on-cycle"

    def test_every_c3_step_is_realizable_as_a_btr_path(self):
        """The weaker (and true) transition-local claim behind the
        lemma: every C3 move maps to *some* BTR path — only the
        finite-omission bound fails."""
        n = 4
        alpha = btr3_abstraction(n)
        btr = btr_program(n).compile()
        c3 = c3_program(n).compile()
        from repro.checker.graph import shortest_path

        for source, target in c3.transitions():
            image_s, image_t = alpha(source), alpha(target)
            if image_s == image_t:
                continue
            assert (
                btr.has_transition(image_s, image_t)
                or shortest_path(btr, image_s, image_t, min_length=2) is not None
            )


class TestTheorem13:
    @pytest.mark.parametrize("n", [3, 4])
    def test_composite_stabilizes_under_strong_fairness(self, n):
        result = check_stabilization(
            c3_composed(n).compile(),
            btr_program(n).compile(),
            btr3_abstraction(n),
            stutter_insensitive=True,
            fairness="strong",
            compute_steps=False,
        )
        assert result.holds, result.format()

    def test_composite_not_stabilizing_unfair(self):
        """Unlike Dijkstra's merged system, the graybox composite keeps
        the crossing schedules and needs fairness."""
        n = 4
        result = check_stabilization(
            c3_composed(n).compile(),
            btr_program(n).compile(),
            btr3_abstraction(n),
            stutter_insensitive=True,
            fairness="weak",
            compute_steps=False,
        )
        assert not result.holds

    @staticmethod
    def _strong_n5(engine):
        return check_stabilization(
            c3_composed(5),
            btr_program(5),
            btr3_abstraction(5),
            stutter_insensitive=True,
            fairness="strong",
            compute_steps=False,
            engine=engine,
        )

    @pytest.mark.parametrize("engine", ["tuple", "vector", "shared", "packed"])
    def test_composite_fails_under_strong_fairness_at_n5(self, engine, monkeypatch):
        """Pinned finding (EXPERIMENTS.md, E10): from n = 5 a strongly
        fair computation can stay outside the core forever, with the
        same trap and witness on every engine.  Shared runs under a
        1 MiB budget; the packed kernel is reached as the vector
        engine's fallback rung, under a cell ceiling of 1.  The trap is
        the wrapper ``W1''``'s: it fires in multi-token states and
        re-creates the tokens ``W2'`` cancels, and with the global
        ``W1'`` in its place the composite holds (next test).  Whether
        this ``C3`` or ``W1''`` differs from the paper's listing, or
        Theorem 13 has a real gap, is still open."""
        from repro.checker.witnesses import WitnessKind

        requested, budget = engine, nullcontext()
        if engine == "shared":
            budget = using_memory_budget("1M")
        if engine == "packed":
            monkeypatch.setenv(MAX_VECTOR_CELLS_ENV, "1")
            requested = "vector"
        with budget:
            result = self._strong_n5(requested)
        assert not result.holds
        assert result.engine == engine
        assert result.result.witness.kind is WitnessKind.DIVERGENT_CYCLE
        assert "(fair trap)" in result.format()
        assert result.format() == self._strong_n5("tuple").format()

    @pytest.mark.parametrize("engine", ["tuple", "vector"])
    def test_global_w1_composite_holds_under_strong_fairness_at_n5(
        self, engine
    ):
        """Pinned finding (EXPERIMENTS.md, E10): ``C3 [] W1' [] W2'``,
        the global ``W1'`` in place of ``W1''``, stabilizes to BTR at
        n = 5 under strong fairness."""
        composite = (
            c3_program(5)
            .merged_with(w1_global_program(5))
            .merged_with(w2_refined_program(5), name="C3 [] W1' [] W2'")
        )
        result = check_stabilization(
            composite,
            btr_program(5),
            btr3_abstraction(5),
            stutter_insensitive=True,
            fairness="strong",
            compute_steps=False,
            engine=engine,
        )
        assert result.holds, result.format()
        assert result.engine == engine
        assert len(result.core) == 24


class TestAggressiveComposite:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_equals_dijkstra_three_state(self, n):
        """The paper's closing claim of Section 6, verified as automaton
        equality: the if-then-else composite with the aggressive W2'
        *is* Dijkstra's 3-state system."""
        assert c3_aggressive_composed(n).compile() == dijkstra_three_state(n).compile()
