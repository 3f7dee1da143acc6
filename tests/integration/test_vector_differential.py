"""Differential tests: the vector engine against packed and tuple.

The vector engine inherits the packed engine's core invariant and
extends it to a three-way agreement: for every ring system, spec,
abstraction, fairness mode, and worker count, ``engine="vector"``
must render the *byte-identical* formatted verdict — same holds/fails,
same witness states, same counts — as both reference engines, and the
shared size-based counters must agree.
"""

from __future__ import annotations

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_eventually_refinement,
    check_stabilization,
)
from repro.obs import Recorder
from repro.parallel import parallel_available
from repro.rings import (
    btr4_abstraction,
    btr_program,
    dijkstra_four_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)
from tests.integration.test_packed_differential import (
    RING_CASES,
    SHARED_COUNTERS,
)

_WORKER_COUNTS = [1, 4] if parallel_available() else [1]


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
        tuple_verdict = check_stabilization(
            concrete(), spec(), engine="tuple", **kwargs
        )
        vector_rec = Recorder()
        vector_verdict = check_stabilization(
            concrete(), spec(), engine="vector",
            instrumentation=vector_rec, **kwargs
        )
        assert tuple_verdict.format() == vector_verdict.format()
        assert tuple_verdict.holds == vector_verdict.holds
        assert (
            tuple_verdict.legitimate_abstract
            == vector_verdict.legitimate_abstract
        )
        assert tuple_verdict.core == vector_verdict.core
        assert (
            vector_rec.record().counters["engine.vector"] == 1
        )

    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    def test_shared_counters_agree_with_packed(
        self, name, concrete, spec, alpha, fairness, stutter
    ):
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness
        )
        packed_rec, vector_rec = Recorder(), Recorder()
        check_stabilization(
            concrete(), spec(), engine="packed",
            instrumentation=packed_rec, **kwargs
        )
        check_stabilization(
            concrete(), spec(), engine="vector",
            instrumentation=vector_rec, **kwargs
        )
        packed_counters = packed_rec.record().counters
        vector_counters = vector_rec.record().counters
        for counter in SHARED_COUNTERS:
            assert packed_counters.get(counter) == vector_counters.get(
                counter
            ), counter

    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    def test_program_and_system_sources_agree(
        self, name, concrete, spec, alpha, fairness, stutter
    ):
        """Program lowering and CSR system wrapping must not differ."""
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness,
            engine="vector",
        )
        from_programs = check_stabilization(concrete(), spec(), **kwargs)
        from_systems = check_stabilization(
            concrete().compile(), spec().compile(), **kwargs
        )
        assert from_programs.format() == from_systems.format()


class TestRefinementDifferential:
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
        vector_verdict = check_convergence_refinement(
            concrete(), spec(), engine="vector", **kwargs
        )
        assert tuple_verdict.format() == vector_verdict.format()
        if not tuple_verdict.holds:
            assert (
                tuple_verdict.witness.states == vector_verdict.witness.states
            )

    def test_holding_refinement_counters_agree(self):
        tuple_rec, vector_rec = Recorder(), Recorder()
        tuple_verdict = check_convergence_refinement(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="tuple", instrumentation=tuple_rec,
        )
        vector_verdict = check_convergence_refinement(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="vector", instrumentation=vector_rec,
        )
        assert tuple_verdict.holds and vector_verdict.holds
        assert tuple_verdict.format() == vector_verdict.format()
        tuple_counters = tuple_rec.record().counters
        vector_counters = vector_rec.record().counters
        for counter in (
            "refine.reachable.size",
            "refine.init.transitions.checked",
            "refine.transitions.exact",
            "refine.transitions.compressing",
            "refine.transitions.stuttering",
        ):
            assert tuple_counters[counter] == vector_counters[counter], counter

    def test_everywhere_eventually_byte_identical(self):
        tuple_verdict = check_everywhere_eventually_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="tuple",
        )
        vector_verdict = check_everywhere_eventually_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="vector",
        )
        assert tuple_verdict.format() == vector_verdict.format()

    def test_everywhere_eventually_keeps_programs_uncompiled(self, monkeypatch):
        """The all-initial abstract stays a program on vector, so
        neither side is compiled to a tuple System."""
        from repro.gcl.program import Program

        args = (dijkstra_four_state(3), btr_program(3), btr4_abstraction(3))
        reference = check_everywhere_eventually_refinement(*args, engine="tuple")

        def refuse(*_, **__):
            raise AssertionError("Program.compile called")

        monkeypatch.setattr(Program, "compile", refuse)
        verdict = check_everywhere_eventually_refinement(*args, engine="vector")
        assert verdict.format() == reference.format()

    @pytest.mark.skipif(
        not parallel_available(), reason="no fork start method"
    )
    def test_workers_and_engines_commute(self):
        baseline = check_convergence_refinement(
            dijkstra_four_state(3), btr_program(3), btr4_abstraction(3),
            engine="tuple",
        )
        for workers in (1, 4):
            for engine in ("tuple", "packed", "vector"):
                verdict = check_convergence_refinement(
                    dijkstra_four_state(3), btr_program(3),
                    btr4_abstraction(3), workers=workers, engine=engine,
                )
                assert verdict.format() == baseline.format(), (workers, engine)


class TestCliDifferential:
    def _write_spec(self, tmp_path):
        spec = tmp_path / "toy.gcl"
        spec.write_text(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        return spec

    @pytest.mark.parametrize("workers", _WORKER_COUNTS)
    def test_check_output_identical_across_engines(
        self, tmp_path, capsys, workers
    ):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        outputs = {}
        codes = {}
        for engine in ("tuple", "packed", "vector"):
            codes[engine] = main(
                ["check", str(spec), "--engine", engine,
                 "--workers", str(workers)]
            )
            outputs[engine] = capsys.readouterr().out
        assert codes["vector"] == codes["tuple"] == codes["packed"]
        assert outputs["vector"] == outputs["tuple"] == outputs["packed"]

    def test_vector_engine_flag_recorded(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        record = tmp_path / "run.jsonl"
        main(["check", str(spec), "--engine", "vector",
              "--obs-out", str(record)])
        capsys.readouterr()
        text = record.read_text(encoding="utf-8")
        assert '"engine.vector"' in text

    def test_engines_share_cache_entries(self, tmp_path, capsys):
        """The engine stays out of the cache key: a verdict stored by
        the vector engine is served back to the tuple engine."""
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        cache_dir = tmp_path / "cache"
        main(["check", str(spec), "--engine", "vector",
              "--cache-dir", str(cache_dir)])
        assert "verification cache: stored" in capsys.readouterr().err
        main(["check", str(spec), "--engine", "tuple",
              "--cache-dir", str(cache_dir)])
        assert "verification cache: hit" in capsys.readouterr().err
