"""Differential tests: failing verdicts and their cycle witnesses.

A failing stabilization check is only as trustworthy as its witness,
and the int-code engines build theirs from the states on a cycle
instead of the whole tuple system.  For every control below — rings
below the K-state threshold (K = n - 2), a weak-fairness divergence, a
cycle that is only a self-loop, two disjoint cycle regions whose
min-by-``repr`` start is not in the first one found in code order, two
strong-fairness controls with two fair traps each, and an invisible
cycle inside the core — the packed, vector and shared
engines must render the *byte-identical* formatted verdict as the
tuple engine at every worker count.  Breadth-first witness search
follows each state's successor-set iteration order, so these controls
carry several equally short cycles per start state: a region built
from the wrong insertion sequence picks a different one.  The two
``escapes`` controls are the ones that catch a region whose state set
leaves out the escapes from its cycles.

Under strong fairness every engine reports the fair trap that holds
the ``repr``-least state of the first refinement level that has one,
whatever order the engine's region iterates in.

The other classes pin the cost contract: under no fairness mode does
an engine compile the full tuple system to build a witness or search
for a fair trap, under weak and strong fairness no engine copies a
compiled region to drop its self-loops, and the shared engine expands
only its peel's remainder to find the cycle.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.checker import check_stabilization
from repro.core.abstraction import AbstractionFunction
from repro.core.system import System
from repro.gcl import parse_program
from repro.kernel import PackedKernel
from repro.parallel import parallel_available
from repro.rings import kstate_program, utr_abstraction, utr_program
from tests.integration.test_packed_differential import RING_CASES
from tests.packed_rung import packed_rung

#: Outside ``x == 0`` two independent counters spin, so every
#: off-core state starts two shortest cycles of length four; ``idle``
#: stutters everywhere, and weak fairness drops those self-loops.
TWINSPIN = """program twinspin
var x : mod 4
var y : mod 4
var z : mod 4
action idle :: true --> x := x
action fix :: x == 3 --> x := 0
action ys :: x == 1 || x == 2 --> y := ((y + 1) % 4)
action zs :: x == 1 || x == 2 --> z := ((z + 1) % 4)
init x == 0
"""

#: The only outside cycles are the self-loops of ``stay`` at ``x == 1``.
SELFLOOP = """program selfloop
var x : mod 4
var y : mod 4
action down :: x > 1 --> x := (x - 1)
action stay :: x == 1 --> y := y
init x == 0
"""

#: Two cycle regions, ``x`` in {2, 3} and ``x`` in {10, 11}: the low one
#: comes first in code order, but ``repr`` puts ``(10, 0)`` first.
TWOCYCLES = """program twocycles
var x : mod 12
var y : mod 2
action down :: x > 0 && x != 2 && x != 3 && x != 10 && x != 11 --> x := (x - 1)
action lo :: x == 2 --> x := 3
action lo_back :: x == 3 --> x := 2
action hi :: x == 10 --> x := 11
action hi_back :: x == 11 --> x := 10
action flip :: x == 3 || x == 11 --> y := ((y + 1) % 2)
init x == 0
"""

#: ``HIDDEN`` with an eight-valued hidden counter: the invisible cycle
#: inside the core is eight steps long.
HIDDEN8 = """program hidden
var x : mod 4
var h : mod 8
action spin :: x == 0 --> h := ((h + 1) % 8)
action fix :: x != 0 --> x := 0
init x == 0 && h == 0
"""

#: The region trap: every off-core state on the cycles has three tied
#: shortest cycles *and* two escapes to off-core states on no cycle.
#: Its five successors outgrow the smallest set table, so a witness
#: region whose state set omitted the escapes would rebuild the
#: three-element successor sets in a different order — and this
#: control's witness would change.
ESCAPES = """program escapes
var x : mod 4
var a : mod 3
var b : mod 3
var c : mod 3
action fix :: x != 1 && x != 0 --> x := 0
action sa :: x == 1 --> a := ((a + 1) % 3)
action sb :: x == 1 --> b := ((b + 1) % 3)
action sc :: x == 1 --> c := ((c + 1) % 3)
action e2 :: x == 1 --> x := 2
action e3 :: x == 1 --> x := 3
init x == 0
"""

#: The same trap inside the core: three hidden counters cycle
#: invisibly, and two invisible ``quit`` steps leave for core states on
#: no invisible cycle.
HIDDEN_ESCAPES = """program hidden_escapes
var x : mod 4
var g : mod 3
var h1 : mod 3
var h2 : mod 3
var h3 : mod 3
action spin1 :: x == 0 && g == 0 --> h1 := ((h1 + 1) % 3)
action spin2 :: x == 0 && g == 0 --> h2 := ((h2 + 1) % 3)
action spin3 :: x == 0 && g == 0 --> h3 := ((h3 + 1) % 3)
action quit1 :: x == 0 && g == 0 --> g := 1
action quit2 :: x == 0 && g == 0 --> g := 2
action fix :: x != 0 --> x := 0
init x == 0 && g == 0 && h1 == 0 && h2 == 0 && h3 == 0
"""

#: Two fair traps, ``x`` in {2, 3} and {4, 5}: no action leaves either,
#: and ``flip`` keeps each strongly connected.  The reported trap is
#: the one holding the ``repr``-least state, ``(2, 0)``, though a
#: search in hash order of the states finds the other first.
TWOTRAPS = """program twotraps
var x : mod 8
var y : mod 2
action down :: x > 0 && x != 2 && x != 3 && x != 4 && x != 5 --> x := (x - 1)
action lo :: x == 2 --> x := 3
action lo_back :: x == 3 --> x := 2
action hi :: x == 4 --> x := 5
action hi_back :: x == 5 --> x := 4
action flip :: x == 3 || x == 5 --> y := ((y + 1) % 2)
init x == 0
"""

#: Two fair traps next to an escape, found only after the discard
#: step.  At ``x == 1`` and at ``x == 2`` the counters ``a`` and ``b``
#: spin; ``out`` leaves from ``a == b == 0`` for ``x == 3``, an
#: off-core state on no cycle.  Strong fairness discards that state,
#: and the other eight at each ``x`` form a trap.  The reported one is
#: at ``x == 1``, though a search in hash order finds ``x == 2`` first.
TRAPESCAPES = """program trapescapes
var x : mod 4
var a : mod 3
var b : mod 3
action fix :: x == 3 --> x := 0
action sa :: x == 1 || x == 2 --> a := ((a + 1) % 3)
action sb :: x == 1 || x == 2 --> b := ((b + 1) % 3)
action out :: (x == 1 || x == 2) && a == 0 && b == 0 --> x := 3
init x == 0
"""

VISIBLE = """program visible
var x : mod 4
action fix :: x != 0 --> x := 0
init x == 0
"""


def x_projection(text: str) -> AbstractionFunction:
    """The projection onto ``x``, from ``text``'s space onto ``VISIBLE``'s."""
    concrete = parse_program(text).schema()
    abstract = parse_program(VISIBLE).schema()
    return AbstractionFunction(
        concrete,
        abstract,
        lambda state: abstract.pack({"x": concrete.unpack(state)["x"]}),
        name="x",
        array_mapping=lambda columns: {"x": columns["x"]},
    )


def _kstate(n: int, k: int):
    return (
        f"kstate-n{n}-k{k}",
        lambda: kstate_program(n, k),
        lambda: utr_program(n),
        lambda: utr_abstraction(n, k),
        "none", False,
    )


def _self(name: str, text: str, fairness: str):
    return (
        name,
        lambda: parse_program(text),
        lambda: parse_program(text),
        lambda: None,
        fairness, False,
    )


def _hidden(name: str, text: str):
    return (
        name,
        lambda: parse_program(text),
        lambda: parse_program(VISIBLE),
        lambda: x_projection(text),
        "none", True,
    )


#: (name, concrete, spec, alpha, fairness, stutter_insensitive); every
#: control fails with a divergent-cycle witness.
WITNESS_CASES = [
    _kstate(4, 2),
    _kstate(5, 3),
    _kstate(6, 4),
    _kstate(5, 2),
    _self("twinspin-weak", TWINSPIN, "weak"),
    _self("twinspin-none", TWINSPIN, "none"),
    _self("selfloop-none", SELFLOOP, "none"),
    _self("twocycles-none", TWOCYCLES, "none"),
    _self("escapes-none", ESCAPES, "none"),
    _self("escapes-weak", ESCAPES, "weak"),
    _self("twotraps-strong", TWOTRAPS, "strong"),
    _self("trapescapes-strong", TRAPESCAPES, "strong"),
    _hidden("hidden8-invisible-cycle", HIDDEN8),
    _hidden("hidden-escapes-invisible-cycle", HIDDEN_ESCAPES),
]

ENGINES = ("packed", "vector", "shared")

_WORKER_COUNTS = [1, 2] if parallel_available() else [1]


def _check(case, engine: str, workers: int = 1):
    _, concrete, spec, alpha, fairness, stutter = case
    return check_stabilization(
        concrete(), spec(), alpha=alpha(), stutter_insensitive=stutter,
        fairness=fairness, engine=engine, workers=workers,
    )


class TestWitnessDifferential:
    @pytest.mark.parametrize(
        "case", WITNESS_CASES, ids=[case[0] for case in WITNESS_CASES]
    )
    @pytest.mark.parametrize("workers", _WORKER_COUNTS)
    def test_failing_verdicts_byte_identical(self, case, workers):
        reference = _check(case, "tuple", workers)
        assert not reference.holds
        assert reference.result.witness.kind.name == "DIVERGENT_CYCLE"
        for engine in ENGINES:
            verdict = _check(case, engine, workers)
            assert verdict.format() == reference.format(), engine
            assert verdict.core == reference.core, engine

    def test_twocycles_start_is_not_the_code_order_minimum(self):
        """The control does what its comment says: the witness starts in
        the high region, though the low one holds smaller codes."""
        case = next(c for c in WITNESS_CASES if c[0] == "twocycles-none")
        witness = _check(case, "tuple").result.witness
        assert witness.states[0] == (10, 0)

    @pytest.mark.parametrize(
        "name,start",
        [("twotraps-strong", (2, 0)), ("trapescapes-strong", (1, 0, 1))],
    )
    @pytest.mark.parametrize("engine", ("tuple",) + ENGINES)
    def test_strong_fairness_reports_the_canonical_trap(
        self, name, start, engine
    ):
        """The witness cycle starts at its trap's ``repr``-least state,
        so that state names the trap: the canonical one, on every
        engine."""
        case = next(c for c in WITNESS_CASES if c[0] == name)
        witness = _check(case, engine).result.witness
        assert "(fair trap)" in witness.message
        assert witness.states[0] == start


def _materialize_guard(monkeypatch) -> list:
    """Make every kernel's ``materialize`` record its caller and raise."""
    entered: list = []
    from repro.kernel.shared import SharedKernel
    from repro.kernel.vector import VectorKernel

    classes = [PackedKernel, VectorKernel, SharedKernel]
    for cls in classes:
        def refuse(self, _name=cls.__name__):
            entered.append(_name)
            raise AssertionError(f"{_name}.materialize entered")

        monkeypatch.setattr(cls, "materialize", refuse)
    return entered


class TestNoMaterialization:
    @pytest.mark.parametrize(
        "case", WITNESS_CASES, ids=[case[0] for case in WITNESS_CASES]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_witness_never_materializes(self, case, engine, monkeypatch):
        reference = _check(case, "tuple")
        entered = _materialize_guard(monkeypatch)
        assert _check(case, engine).format() == reference.format()
        assert entered == []

    @pytest.mark.parametrize(
        "case", RING_CASES, ids=[case[0] for case in RING_CASES]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_ring_cases_never_materialize(self, case, engine, monkeypatch):
        entered = _materialize_guard(monkeypatch)
        _check(case, engine)
        assert entered == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_strong_fairness_never_materializes(self, engine, monkeypatch):
        """The fair-trap search runs on the cycle witness's region, not
        on the whole tuple system, and finds the tuple engine's trap."""
        case = next(c for c in RING_CASES if c[0] == "spin-fair-trap")
        reference = _check(case, "tuple")
        entered = _materialize_guard(monkeypatch)
        assert _check(case, engine).format() == reference.format()
        assert entered == []


def _engine_context(engine: str):
    """``(context, requested engine)`` for vector, shared under a
    1 MiB budget, and the packed rung."""
    from repro.kernel.shared import using_memory_budget

    if engine == "shared@1M":
        return using_memory_budget("1M"), "shared"
    if engine == "packed-rung":
        return packed_rung(), "vector"
    return nullcontext(), engine


class TestNoSelfLoopCopy:
    """Under weak and strong fairness the kernels compile the witness
    regions without their self-loops (``compile(codes, drop_self)``)
    instead of compiling them whole and copying them without."""

    @pytest.mark.parametrize(
        "case", RING_CASES, ids=[case[0] for case in RING_CASES]
    )
    @pytest.mark.parametrize("fairness", ["weak", "strong"])
    @pytest.mark.parametrize("engine", ["vector", "shared@1M", "packed-rung"])
    def test_no_without_self_loops_call(self, case, fairness, engine, monkeypatch):
        name, concrete, spec, alpha, _, stutter = case
        case = (name, concrete, spec, alpha, fairness, stutter)
        reference = _check(case, "tuple")
        calls: list = []
        without_self_loops = System.without_self_loops

        def spy(self, *args, **kwargs):
            calls.append(self.name)
            return without_self_loops(self, *args, **kwargs)

        monkeypatch.setattr(System, "without_self_loops", spy)
        context, requested = _engine_context(engine)
        with context:
            assert _check(case, requested).format() == reference.format()
        assert calls == []


class TestWitnessFromThePeelRemainder:
    """A failing shared check lists its cycle witness's edges within the
    peel's remainder, the members the peel left un-peeled, not within
    the whole region outside the core: the witness region's walk
    expands exactly the remainder and then the cycle codes."""

    @pytest.mark.parametrize("fairness", ["none", "weak", "strong"])
    @pytest.mark.parametrize("compute_steps", [True, False])
    def test_witness_walk_expands_only_the_remainder(
        self, fairness, compute_steps, monkeypatch
    ):
        from repro.checker import convergence
        from repro.kernel import cycles
        from repro.kernel.shared import SharedKernel, using_memory_budget
        from repro.obs import Recorder

        seen: list = []
        on_cycle: list = []
        walking = []
        succ_pairs = SharedKernel.succ_pairs
        cycle_codes = cycles.cycle_codes
        cycle_region = convergence._SharedBackend.cycle_region

        def spy_pairs(self, codes):
            if walking:
                seen.append(len(codes))
            return succ_pairs(self, codes)

        def spy_codes(sources, targets):
            codes = cycle_codes(sources, targets)
            on_cycle.append(len(codes))
            return codes

        def spy_region(self):
            walking.append(True)
            try:
                return cycle_region(self)
            finally:
                walking.clear()

        monkeypatch.setattr(SharedKernel, "succ_pairs", spy_pairs)
        monkeypatch.setattr(cycles, "cycle_codes", spy_codes)
        monkeypatch.setattr(
            convergence._SharedBackend, "cycle_region", spy_region
        )
        recorder = Recorder()
        with using_memory_budget("1M"):
            shared = check_stabilization(
                kstate_program(6, 4), utr_program(6), utr_abstraction(6, 4),
                fairness=fairness, compute_steps=compute_steps,
                engine="shared", instrumentation=recorder,
            )
        assert shared.engine == "shared" and not shared.holds
        counters = recorder.record().counters
        remainder = counters["shm.peel.remainder"]
        assert len(on_cycle) == 1 and 0 < on_cycle[0] <= remainder
        # The peel leaves 824 of the 4,032 codes outside the core.
        assert counters["check.outside.size"] == 4 ** 6 - 64
        assert remainder == 824
        assert sum(seen) == remainder + on_cycle[0]
        reference = check_stabilization(
            kstate_program(6, 4), utr_program(6), utr_abstraction(6, 4),
            fairness=fairness, compute_steps=compute_steps, engine="tuple",
        )
        assert shared.format() == reference.format()
