"""E10: the new 3-state system C3 (paper, Section 6).

Regenerates the stuttering figure, the (refuted) literal Lemma 12, the
graybox Theorem 13, and the paper's closing action-level equality of
the aggressive composite with Dijkstra's 3-state system.
"""

import time

import pytest

from repro.analysis import format_table
from repro.checker import check_convergence_refinement, check_stabilization
from repro.rings import (
    btr3_abstraction,
    btr_program,
    c3_aggressive_composed,
    c3_composed,
    c3_program,
    dijkstra_three_state,
)


def test_e10_stuttering_figure(benchmark, record_table):
    """The Section 6 tau-step figure: the exact configuration
    (c.0, c.1, c.2) = (0, 2, 1) where process 1's move is a no-op."""

    def experiment():
        program = c3_program(3)
        schema = program.schema()
        state = schema.pack({"c.0": 0, "c.1": 2, "c.2": 1})
        env = program.env_of(state)
        up1 = {a.name: a for a in program.actions}["up.1"]
        return {"enabled": up1.enabled(env), "post == pre": up1.execute(env) == env}

    outcome = benchmark(experiment)
    assert outcome == {"enabled": True, "post == pre": True}
    rows = [{"property": k, "holds": v} for k, v in outcome.items()]
    record_table(
        "e10_stuttering", format_table(rows, title="E10 C3 tau step (paper figure)")
    )


def test_e10_lemma12_literal_fails(benchmark, record_table):
    """[C3 <= BTR] read literally is refuted: opposite tokens crossing
    in one C3 step are compressions that recur on bouncing cycles."""

    def experiment():
        n = 4
        return check_convergence_refinement(
            c3_program(n).compile(),
            btr_program(n).compile(),
            btr3_abstraction(n),
            stutter_insensitive=True,
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert not result.holds
    assert result.witness.kind.value == "compression-on-cycle"
    record_table("e10_lemma12_literal", result.format())


@pytest.mark.parametrize("n", [3, 4])
def test_e10_theorem13(benchmark, n):
    def experiment():
        return check_stabilization(
            c3_composed(n).compile(),
            btr_program(n).compile(),
            btr3_abstraction(n),
            stutter_insensitive=True,
            fairness="strong",
            compute_steps=False,
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert result.holds, result.format()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_e10_aggressive_composite_equals_dijkstra3(benchmark, n):
    """Section 6's closing claim as exact automaton equality."""

    def experiment():
        return (
            c3_aggressive_composed(n).compile(),
            dijkstra_three_state(n).compile(),
        )

    aggressive, dijkstra = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert aggressive == dijkstra


def test_e10_table(benchmark, record_table):
    """The E10 rows, n = 3..10 on the vector engine, each timed.

    Theorem 13's conclusion holds at n = 3 and 4 and fails from n = 5:
    a strongly fair computation stays in a trap outside the core
    (EXPERIMENTS.md, E10).
    """

    def experiment():
        rows = []
        for n in range(3, 11):
            start = time.perf_counter()
            btr = btr_program(n)
            alpha = btr3_abstraction(n)
            rows.append(
                {
                    "n": n,
                    "states": 3**n,
                    "lemma 12 literal": check_convergence_refinement(
                        c3_program(n), btr, alpha,
                        stutter_insensitive=True, engine="vector",
                    ).holds,
                    "theorem 13 (strong)": check_stabilization(
                        c3_composed(n), btr, alpha,
                        stutter_insensitive=True, fairness="strong",
                        compute_steps=False, engine="vector",
                    ).holds,
                    "aggressive == Dijkstra3": (
                        c3_aggressive_composed(n).compile()
                        == dijkstra_three_state(n).compile()
                    ),
                    "seconds": round(time.perf_counter() - start, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for row in rows:
        assert not row["lemma 12 literal"]
        assert row["theorem 13 (strong)"] == (row["n"] <= 4)
        assert row["aggressive == Dijkstra3"]
    record_table(
        "e10_new_three_state",
        format_table(rows, title="E10 the new 3-state system C3"),
        rows=rows,
        engine="vector",
    )
