"""Differential tests: the packed kernel engine against the tuple engine.

The core invariant of :mod:`repro.kernel` is verdict identity: for
every ring system, spec, abstraction, fairness mode, and worker count,
the packed kernel must produce a *byte-identical* formatted verdict —
same holds/fails, same witness states, same counts — as the reference
tuple engine, and the shared size-based observability counters must
agree.  These tests enforce it on every ring system of the
reproduction (including the failing controls), on both decision
procedures, and through the CLI.

``engine="packed"`` is an alias of ``"vector"``; the packed kernel runs
as the vector engine's fallback rung for stabilization, so these tests
reach it through the ``packed_rung`` fixture.  Refinement has no
packed rung: there the fixture sends the check to the tuple reference.
"""

from __future__ import annotations

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_eventually_refinement,
    check_stabilization,
)
from repro.checker.engines import PACKED_ALIAS_REASON
from repro.core.abstraction import AbstractionFunction
from repro.gcl import parse_program
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
from tests.packed_rung import PACKED_RUNG_REASON

# Failing controls for the decision branches no ring reaches.  Each has
# 16 states, enough for the shared engine to run for real.

#: ``y`` drifts forever while the spec only settles ``x``: the one
#: legitimate state is left at once, so the behavioural core is empty.
DRIFT = """program drift
var x : mod 4
var y : mod 4
action drift :: true --> y := ((y + 1) % 4)
init x == 0 && y == 0
"""
SETTLE = """program settle
var x : mod 4
var y : mod 4
action settle :: x != 0 --> x := 0
init x == 0 && y == 0
"""

#: Off ``x == 0`` only ``spin`` is enabled and it never leaves its
#: ``x``-row: a fair trap even under strong fairness.
SPIN = """program spin
var x : mod 4
var y : mod 4
action spin :: x != 0 --> y := ((y + 1) % 4)
init x == 0
"""

#: Inside the core ``spin`` cycles the hidden ``h`` forever, and every
#: one of its steps is invisible under the projection onto ``x``.
HIDDEN = """program hidden
var x : mod 4
var h : mod 4
action spin :: x == 0 --> h := ((h + 1) % 4)
action fix :: x != 0 --> x := 0
init x == 0 && h == 0
"""
VISIBLE = """program visible
var x : mod 4
action fix :: x != 0 --> x := 0
init x == 0
"""


def x_projection() -> AbstractionFunction:
    """``(x, h) -> (x)``, from ``HIDDEN``'s space onto ``VISIBLE``'s."""
    concrete = parse_program(HIDDEN).schema()
    abstract = parse_program(VISIBLE).schema()
    return AbstractionFunction(
        concrete,
        abstract,
        lambda state: abstract.pack({"x": concrete.unpack(state)["x"]}),
        name="x",
        array_mapping=lambda columns: {"x": columns["x"]},
    )


# Every ring verification of the reproduction, plus one failing control
# per witness kind of the decision:
# (name, concrete, spec, alpha, fairness, stutter_insensitive)
RING_CASES = [
    (
        "dijkstra4-n3",
        lambda: dijkstra_four_state(3),
        lambda: btr_program(3),
        lambda: btr4_abstraction(3),
        "none", False,
    ),
    (
        "dijkstra3-n4",
        lambda: dijkstra_three_state(4),
        lambda: btr_program(4),
        lambda: btr3_abstraction(4),
        "none", False,
    ),
    (
        "c3-composed-n3",
        lambda: c3_composed(3),
        lambda: btr_program(3),
        lambda: btr3_abstraction(3),
        "strong", True,
    ),
    (
        "kstate-n4",
        lambda: kstate_program(4, 4),
        lambda: utr_program(4),
        lambda: utr_abstraction(4, 4),
        "none", False,
    ),
    (
        "btr-n4-control",  # non-stabilizing control: illegitimate deadlock
        lambda: btr_program(4),
        lambda: btr_program(4),
        lambda: None,
        "none", False,
    ),
    (
        "kstate-n4-k2-refuted",  # K = n - 2: divergent cycle
        lambda: kstate_program(4, 2),
        lambda: utr_program(4),
        lambda: utr_abstraction(4, 2),
        "none", False,
    ),
    (
        "drift-empty-core",  # closure violation
        lambda: parse_program(DRIFT),
        lambda: parse_program(SETTLE),
        lambda: None,
        "none", False,
    ),
    (
        "spin-fair-trap",  # strongly fair divergence
        lambda: parse_program(SPIN),
        lambda: parse_program(SPIN),
        lambda: None,
        "strong", False,
    ),
    (
        "hidden-invisible-cycle",  # invisible steps cycling in the core
        lambda: parse_program(HIDDEN),
        lambda: parse_program(VISIBLE),
        x_projection,
        "none", True,
    ),
]

# Size-based counters both engines must emit identically.  (Not in the
# list: check.fixpoint.iterations — the documented sweep-order caveat —
# and parallel.* batch shapes.)
SHARED_COUNTERS = (
    "check.states.enumerated",
    "check.candidates.initial",
    "check.legitimate.size",
    "check.core.size",
    "check.outside.size",
    "check.states.evicted",
)

_WORKER_COUNTS = [1, 4] if parallel_available() else [1]


@pytest.mark.usefixtures("packed_rung")
class TestStabilizationDifferential:
    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    @pytest.mark.parametrize("workers", _WORKER_COUNTS)
    def test_verdicts_byte_identical(
        self, name, concrete, spec, alpha, fairness, stutter, workers
    ):
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness,
            workers=workers,
        )
        tuple_rec, packed_rec = Recorder(), Recorder()
        tuple_verdict = check_stabilization(
            concrete(), spec(), engine="tuple",
            instrumentation=tuple_rec, **kwargs
        )
        packed_verdict = check_stabilization(
            concrete(), spec(), engine="packed",
            instrumentation=packed_rec, **kwargs
        )
        assert tuple_verdict.format() == packed_verdict.format()
        assert tuple_verdict.holds == packed_verdict.holds
        assert (
            tuple_verdict.legitimate_abstract
            == packed_verdict.legitimate_abstract
        )
        assert tuple_verdict.core == packed_verdict.core
        assert packed_rec.record().counters["engine.packed"] == 1
        tuple_counters = tuple_rec.record().counters
        packed_counters = packed_rec.record().counters
        for counter in SHARED_COUNTERS:
            assert tuple_counters.get(counter) == packed_counters.get(
                counter
            ), counter

    @pytest.mark.parametrize(
        "name,message",
        [
            ("btr-n4-control",
             "a computation can end outside the legitimate core"),
            ("kstate-n4-k2-refuted",
             "a computation can cycle forever outside the legitimate core"),
            ("drift-empty-core",
             "no concrete state forever tracks the specification "
             "(behavioural core is empty)"),
            ("spin-fair-trap",
             "a strongly fair computation can stay forever outside the "
             "legitimate core (fair trap)"),
            ("hidden-invisible-cycle",
             "cycle of abstract-invisible steps inside the core"),
        ],
    )
    def test_failing_controls_fail_as_labelled(self, name, message):
        """Each failing control reaches the branch its label names, so
        the differentials above cover every way the decision fails."""
        _, concrete, spec, alpha, fairness, stutter = next(
            case for case in RING_CASES if case[0] == name
        )
        verdict = check_stabilization(
            concrete(), spec(), alpha=alpha(), stutter_insensitive=stutter,
            fairness=fairness, engine="tuple",
        )
        assert not verdict.holds
        assert verdict.result.witness.message == message

    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    def test_program_and_system_sources_agree(
        self, name, concrete, spec, alpha, fairness, stutter
    ):
        """The packed engine lowers programs directly; handing it the
        compiled system instead must not change a byte."""
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness,
            engine="packed",
        )
        from_programs = check_stabilization(concrete(), spec(), **kwargs)
        from_systems = check_stabilization(
            concrete().compile(), spec().compile(), **kwargs
        )
        assert from_programs.format() == from_systems.format()


def _replayed_on_tuple(record) -> bool:
    """Did vector's refusal send the refinement to the tuple reference,
    with the rung's reason and without the packed kernel?"""
    reasons = [
        event.fields["reason"]
        for event in record.events
        if event.name == "engine.fallback"
    ]
    return (
        PACKED_RUNG_REASON in reasons
        and record.counters.get("engine.fallback.tuple", 0) >= 1
        and "engine.packed" not in record.counters
    )


@pytest.mark.usefixtures("packed_rung")
class TestRefinementDifferential:
    """Refinement has no packed rung: where vector refuses the sources,
    a packed request replays on the tuple reference with vector's
    reason, byte for byte."""

    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    def test_convergence_refinement_byte_identical(
        self, name, concrete, spec, alpha, fairness, stutter
    ):
        kwargs = dict(alpha=alpha(), stutter_insensitive=stutter)
        tuple_verdict = check_convergence_refinement(
            concrete(), spec(), engine="tuple", **kwargs
        )
        recorder = Recorder()
        packed_verdict = check_convergence_refinement(
            concrete(), spec(), engine="packed", instrumentation=recorder,
            **kwargs
        )
        assert tuple_verdict.format() == packed_verdict.format()
        assert _replayed_on_tuple(recorder.record())
        if not tuple_verdict.holds:
            assert (
                tuple_verdict.witness.states == packed_verdict.witness.states
            )

    def test_holding_refinement_counters_agree(self):
        tuple_rec, packed_rec = Recorder(), Recorder()
        tuple_verdict = check_convergence_refinement(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="tuple", instrumentation=tuple_rec,
        )
        packed_verdict = check_convergence_refinement(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="packed", instrumentation=packed_rec,
        )
        assert tuple_verdict.holds and packed_verdict.holds
        assert tuple_verdict.format() == packed_verdict.format()
        assert _replayed_on_tuple(packed_rec.record())
        tuple_counters = tuple_rec.record().counters
        packed_counters = packed_rec.record().counters
        for counter in (
            "refine.reachable.size",
            "refine.init.transitions.checked",
            "refine.transitions.exact",
            "refine.transitions.compressing",
            "refine.transitions.stuttering",
        ):
            assert tuple_counters[counter] == packed_counters[counter], counter

    def test_everywhere_eventually_byte_identical(self):
        """The init clause replays on tuple; the stabilization clause
        still runs on the packed rung."""
        tuple_verdict = check_everywhere_eventually_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="tuple",
        )
        recorder = Recorder()
        packed_verdict = check_everywhere_eventually_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="packed", instrumentation=recorder,
        )
        assert tuple_verdict.format() == packed_verdict.format()
        record = recorder.record()
        assert record.counters["engine.fallback.tuple"] == 1
        assert record.counters["engine.packed"] == 1

    @pytest.mark.skipif(
        not parallel_available(), reason="no fork start method"
    )
    def test_workers_and_engines_commute(self):
        baseline = check_convergence_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="tuple",
        )
        for workers in (1, 4):
            for engine in ("tuple", "packed"):
                recorder = Recorder()
                verdict = check_convergence_refinement(
                    dijkstra_four_state(3), btr_program(3),
                    btr4_abstraction(3), workers=workers, engine=engine,
                    instrumentation=recorder,
                )
                assert verdict.format() == baseline.format(), (workers, engine)
                if engine == "packed":
                    assert _replayed_on_tuple(recorder.record())


class TestCliDifferential:
    @pytest.mark.usefixtures("packed_rung")
    def test_check_output_identical_across_engines(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        code_packed = main(["check", str(spec), "--engine", "packed"])
        out_packed = capsys.readouterr().out
        code_tuple = main(["check", str(spec), "--engine", "tuple"])
        out_tuple = capsys.readouterr().out
        assert code_packed == code_tuple
        assert out_packed == out_tuple

    def test_engine_defaults_to_vector(self, tmp_path, capsys):
        """The CLI's default engine is vector, so a routine run emits no
        packed-alias fallback; without NumPy it runs the packed rung."""
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        record = tmp_path / "run.jsonl"
        main(["check", str(spec), "--obs-out", str(record)])
        capsys.readouterr()
        text = record.read_text(encoding="utf-8")
        assert PACKED_ALIAS_REASON not in text
        assert '"engine.vector"' in text
        assert "engine.fallback" not in text

    def test_bad_engine_flag_rejected_at_parse_time(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as caught:
            main(["check", "whatever.gcl", "--engine", "bogus"])
        assert caught.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.usefixtures("packed_rung")
    def test_engines_share_cache_entries(self, tmp_path, capsys):
        """The engine is excluded from the cache key: a verdict stored
        by one engine is served to the other."""
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        cache_dir = tmp_path / "cache"
        main(["check", str(spec), "--engine", "tuple",
              "--cache-dir", str(cache_dir)])
        assert "verification cache: stored" in capsys.readouterr().err
        main(["check", str(spec), "--engine", "packed",
              "--cache-dir", str(cache_dir)])
        assert "verification cache: hit" in capsys.readouterr().err
