"""E11: Dijkstra's K-state protocol from the unidirectional ring.

The companion-report derivation, reconstructed: the refinement
relation [K-state <= UTR], the negative result that the boolean UTR
abstraction alone cannot explain convergence (it is not
self-stabilizing), and the threshold sweep rediscovering K >= n - 1.
"""

import pytest

from repro.analysis import format_table
from repro.checker import (
    check_convergence_refinement,
    check_self_stabilization,
    check_stabilization,
)
from repro.rings import kstate_program, utr_program
from repro.rings.mappings import utr_abstraction


def test_e11_utr_not_self_stabilizing(benchmark, record_table):
    def experiment():
        return check_self_stabilization(
            utr_program(4).compile(), compute_steps=False
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert not result.holds
    record_table("e11_utr_negative", result.format())


def test_e11_wrapped_utr_fails_even_strongly_fair(benchmark, record_table):
    """The unidirectional contrast to Theorem 6: no wrapper of added
    transitions in token space can stabilize the boolean ring — two
    lockstep tokens satisfy every strong-fairness obligation while
    never merging."""

    def experiment():
        from repro.core.composition import box
        from repro.rings import utr_token_creation_wrapper

        n = 4
        utr = utr_program(n).compile()
        composite = box(utr, utr_token_creation_wrapper(n).compile())
        return check_stabilization(
            composite, utr, fairness="strong", compute_steps=False
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert not result.holds
    record_table("e11_wrapped_utr_negative", result.result.format())


@pytest.mark.parametrize(
    "n,k,engine",
    [(3, 3, "tuple"), (4, 4, "tuple"), (6, 6, "vector"), (7, 7, "vector")],
)
def test_e11_refinement(benchmark, n, k, engine):
    """``[K-state <= UTR]``; past the tuple engine's reach on vector,
    whose clause 3 is one SCC labelling of the concrete edges."""

    def experiment():
        concrete, abstract = kstate_program(n, k), utr_program(n)
        if engine == "tuple":
            concrete, abstract = concrete.compile(), abstract.compile()
        return check_convergence_refinement(
            concrete, abstract, utr_abstraction(n, k), engine=engine
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert result.holds, result.format()


@pytest.mark.parametrize("n,k", [(3, 3), (4, 4), (5, 5), (4, 3)])
def test_e11_stabilization(benchmark, n, k):
    def experiment():
        return check_stabilization(
            kstate_program(n, k).compile(),
            utr_program(n).compile(),
            utr_abstraction(n, k),
            fairness="none",
        )

    result = benchmark.pedantic(experiment, rounds=1, iterations=1)
    assert result.holds, result.format()


def test_e11_threshold_sweep(benchmark, record_table):
    """K >= n - 1 stabilizes; K = n - 2 does not (classical result,
    rediscovered mechanically)."""

    def experiment():
        rows = []
        for n in (3, 4, 5):
            utr = utr_program(n).compile()
            row = {"n": n}
            for k in range(2, n + 2):
                result = check_stabilization(
                    kstate_program(n, k).compile(),
                    utr,
                    utr_abstraction(n, k),
                    compute_steps=False,
                )
                row[f"K={k}"] = result.holds
            rows.append(row)
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for row in rows:
        n = row["n"]
        for k in range(2, n + 2):
            expected = k >= n - 1
            assert row[f"K={k}"] is expected, (n, k)
    record_table(
        "e11_kstate_threshold",
        format_table(rows, title="E11 K-state stabilization threshold (K >= n-1)"),
    )


def test_e11_convergence_steps_growth(benchmark, record_table):
    def experiment():
        rows = []
        for n in (3, 4, 5):
            result = check_stabilization(
                kstate_program(n, n).compile(),
                utr_program(n).compile(),
                utr_abstraction(n, n),
            )
            rows.append(
                {
                    "n": n,
                    "K": n,
                    "stabilizing": result.holds,
                    "worst-case steps": result.worst_case_steps,
                    "core size": len(result.core),
                }
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    steps = [row["worst-case steps"] for row in rows]
    assert steps == sorted(steps)
    record_table(
        "e11_kstate_steps",
        format_table(rows, title="E11 K-state worst-case convergence vs n"),
    )
