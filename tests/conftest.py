"""Shared fixtures: small hand-built systems and cached ring instances.

Ring compilations at n=3..4 are session-scoped — dozens of tests use
them and they are deterministic, so building them once keeps the suite
fast without hiding anything.
"""

from __future__ import annotations

import pytest

from repro.core.state import StateSchema
from repro.core.system import System
from repro.rings import (
    btr3_abstraction,
    btr4_abstraction,
    btr_program,
    c1_program,
    c2_program,
    c3_program,
    dijkstra_four_state,
    dijkstra_three_state,
    w1_local_program,
    w2_refined_program,
)
from tests.packed_rung import packed_rung as _packed_rung


@pytest.fixture
def packed_rung():
    """Serve vector and packed requests on the packed kernel (the vector
    engine's fallback rung) for the whole test."""
    with _packed_rung():
        yield


@pytest.fixture
def chain_schema():
    """A 5-state one-variable schema used by the toy systems."""
    return StateSchema({"at": ("a", "b", "c", "d", "e")})


@pytest.fixture
def chain_system(chain_schema):
    """a -> b -> c -> d (terminal), initial a."""
    transitions = [
        (("a",), ("b",)),
        (("b",), ("c",)),
        (("c",), ("d",)),
    ]
    return System(chain_schema, transitions, initial=[("a",)], name="chain")


@pytest.fixture
def loop_system(chain_schema):
    """a -> b -> c -> a (a cycle), e -> a (recovery), d -> e."""
    transitions = [
        (("a",), ("b",)),
        (("b",), ("c",)),
        (("c",), ("a",)),
        (("d",), ("e",)),
        (("e",), ("a",)),
    ]
    return System(chain_schema, transitions, initial=[("a",)], name="loop")


@pytest.fixture(scope="session")
def btr4_bundle():
    """(btr_system, c1_system, dijkstra4_system, alpha4) at n=4."""
    n = 4
    return (
        btr_program(n).compile(),
        c1_program(n).compile(),
        dijkstra_four_state(n).compile(),
        btr4_abstraction(n),
    )


@pytest.fixture(scope="session")
def btr3_bundle():
    """(btr_system, c2_system, dijkstra3_system, alpha3) at n=4."""
    n = 4
    return (
        btr_program(n).compile(),
        c2_program(n).compile(),
        dijkstra_three_state(n).compile(),
        btr3_abstraction(n),
    )


@pytest.fixture(scope="session")
def wrappers3():
    """(W1'' system, W2' system) at n=4."""
    n = 4
    return (w1_local_program(n).compile(), w2_refined_program(n).compile())


@pytest.fixture(scope="session")
def c3_system():
    """C3 compiled at n=4."""
    return c3_program(4).compile()
