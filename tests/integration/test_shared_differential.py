"""Differential tests: the shared engine against the references.

The shared engine streams its fixpoints through bounded chunks, spill
files and a table pool — none of which may show in the verdict: for
every ring system, fairness mode, worker count, and budget,
``engine="shared"`` must render the *byte-identical* formatted verdict
as the tuple reference, emit the same size-based counters, and leave
behind **zero** ``/dev/shm`` segments or spill files.  The module also
pins the engine-selection contract: a ``--mem-budget`` context
transparently upgrades ``engine="vector"`` requests, and tiny schemas
fall back with a reasoned event.  A worker request changes nothing but
one ``parallel.sequential`` event: a check never starts a pool.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.checker import check_stabilization
from repro.checker.convergence import SEQUENTIAL_REASON
from repro.kernel.shared import (
    SHARED_MIN_STATES,
    shared_fallback_reason,
    using_memory_budget,
)
from repro.obs import Recorder
from repro.rings import kstate_program, utr_abstraction, utr_program
from tests.integration.test_packed_differential import (
    RING_CASES,
    SHARED_COUNTERS,
)

_WORKER_COUNTS = [1, 4]



def _shm_leaks() -> list:
    """Orphaned ``/dev/shm/rs-<pid>-*`` segments (must always be []).

    A segment counts as a leak when its embedded driver pid is this
    process or any dead process (covers CLI subprocess runs, whose
    driver has exited by assertion time).  Segments whose driver is
    still alive belong to a concurrent run (xdist, a benchmark) and
    are not this test's leak to report.
    """
    leaks = []
    for name in map(os.path.basename, glob.glob("/dev/shm/rs-*")):
        try:
            owner = int(name.split("-")[1], 16)
        except (IndexError, ValueError):
            leaks.append(name)
            continue
        if owner == os.getpid():
            leaks.append(name)
            continue
        try:
            os.kill(owner, 0)
        except ProcessLookupError:
            leaks.append(name)
        except PermissionError:
            pass
    return sorted(leaks)


def _spill_leaks(parent) -> list:
    """Entries left in a run's spill parent directory (must be [])."""
    return sorted(entry.name for entry in parent.iterdir())


class TestStabilizationDifferential:
    @pytest.mark.parametrize(
        "name,concrete,spec,alpha,fairness,stutter",
        RING_CASES,
        ids=[case[0] for case in RING_CASES],
    )
    @pytest.mark.parametrize("workers", _WORKER_COUNTS)
    def test_verdicts_byte_identical(
        self, name, concrete, spec, alpha, fairness, stutter, workers,
        tmp_path,
    ):
        kwargs = dict(
            alpha=alpha(), stutter_insensitive=stutter, fairness=fairness,
            workers=workers,
        )
        tuple_verdict = check_stabilization(
            concrete(), spec(), engine="tuple", **kwargs
        )
        shared_rec = Recorder()
        # A deliberately tiny budget with a scoped spill directory: the
        # streamed paths must engage without changing a byte, and the
        # run must clean up after itself.
        with using_memory_budget("1M", spill_dir=str(tmp_path)):
            shared_verdict = check_stabilization(
                concrete(), spec(), engine="shared",
                instrumentation=shared_rec, **kwargs
            )
        assert tuple_verdict.format() == shared_verdict.format()
        assert tuple_verdict.holds == shared_verdict.holds
        assert (
            tuple_verdict.legitimate_abstract
            == shared_verdict.legitimate_abstract
        )
        assert tuple_verdict.core == shared_verdict.core
        record = shared_rec.record()
        assert record.counters["engine.shared"] == 1
        assert "parallel.workers" not in record.counters
        notes = [
            event.fields for event in record.events
            if event.name == "parallel.sequential"
        ]
        expected = {
            "engine": shared_verdict.engine,
            "workers": workers,
            "reason": SEQUENTIAL_REASON,
        }
        assert notes == ([] if workers == 1 else [expected])
        assert _shm_leaks() == []
        assert _spill_leaks(tmp_path) == []

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
        packed_rec, shared_rec = Recorder(), Recorder()
        check_stabilization(
            concrete(), spec(), engine="packed",
            instrumentation=packed_rec, **kwargs
        )
        check_stabilization(
            concrete(), spec(), engine="shared",
            instrumentation=shared_rec, **kwargs
        )
        packed_counters = packed_rec.record().counters
        shared_counters = shared_rec.record().counters
        for counter in SHARED_COUNTERS:
            assert packed_counters.get(counter) == shared_counters.get(
                counter
            ), counter

    @pytest.mark.parametrize("workers", _WORKER_COUNTS)
    def test_all_three_axes_active_stay_byte_identical(
        self, workers, tmp_path
    ):
        """The tentpole differential: int32 packing, the table pool, and
        spill all engaged at once — 59049 states (past the int16 edge)
        under a 64K budget — and all four engines still render the
        same bytes."""
        concrete = lambda: kstate_program(5, 9)  # noqa: E731
        spec = lambda: utr_program(5)  # noqa: E731
        kwargs = dict(alpha=utr_abstraction(5, 9), workers=workers)
        verdicts = {}
        for engine in ("tuple", "packed", "vector"):
            verdicts[engine] = check_stabilization(
                concrete(), spec(), engine=engine, **kwargs
            )
        recorder = Recorder()
        with using_memory_budget("64K", spill_dir=str(tmp_path)):
            verdicts["shared"] = check_stabilization(
                concrete(), spec(), engine="shared",
                instrumentation=recorder, **kwargs
            )
        reference = verdicts["tuple"].format()
        for engine, verdict in verdicts.items():
            assert verdict.format() == reference, engine
        record = recorder.record()
        widths = [
            event.fields
            for event in record.events
            if event.name == "shm.code_width"
        ]
        assert widths and widths[0]["width"] == 4
        # One peel per check re-walks no chunk, so the pool serves
        # no hit here; it is still consulted on every walk.
        assert record.counters.get("kernel.tables.misses", 0) > 0
        assert _shm_leaks() == []
        assert _spill_leaks(tmp_path) == []


def _comparable(record):
    """A run record without its timings: counters, then events and the
    span tree in order.  Progress heartbeats are paced by the clock, so
    they are left out."""
    events = [
        (event.name, event.fields)
        for event in record.events
        if not event.name.startswith("progress.")
    ]
    tree = [(node.name, node.parent, node.attrs) for node in record.tree]
    return record.counters, events, tree


class TestOneProcessContract:
    def test_worker_request_never_reaches_the_supervisor(
        self, monkeypatch, tmp_path
    ):
        """A shared check at ``workers=4`` must not start a pool: with
        the supervisor broken it renders and records exactly what it
        does at ``workers=1``, apart from one ``parallel.sequential``
        event naming shared."""
        import repro.parallel.pool as pool
        import repro.resilience.supervisor as supervisor

        def broken(*args, **kwargs):
            raise AssertionError("a check started a worker pool")

        monkeypatch.setattr(supervisor, "supervised_map", broken)
        monkeypatch.setattr(pool, "supervised_map", broken)
        runs = {}
        for workers in (1, 4):
            recorder = Recorder()
            with using_memory_budget("1M", spill_dir=str(tmp_path)):
                # 297 core candidates: enough that a round sharded
                # across workers would have started a pool.
                verdict = check_stabilization(
                    kstate_program(5, 9), utr_program(5),
                    utr_abstraction(5, 9), engine="shared", workers=workers,
                    instrumentation=recorder,
                )
            assert verdict.engine == "shared"
            runs[workers] = (verdict.format(), _comparable(recorder.record()))
        (one_text, one_record), (four_text, four_record) = (
            runs[1], runs[4]
        )
        assert four_text == one_text
        counters, events, tree = four_record
        notes = [
            fields for name, fields in events if name == "parallel.sequential"
        ]
        assert notes == [
            {"engine": "shared", "workers": 4, "reason": SEQUENTIAL_REASON}
        ]
        events = [
            event for event in events if event[0] != "parallel.sequential"
        ]
        assert (counters, events, tree) == one_record
        assert _shm_leaks() == []
        assert _spill_leaks(tmp_path) == []


class TestEngineSelection:
    def test_memory_context_upgrades_vector_requests(self):
        """``--mem-budget`` makes plain vector requests stream: same
        verdict, shared engine selected."""
        baseline = check_stabilization(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="vector",
        )
        recorder = Recorder()
        with using_memory_budget("32M"):
            upgraded = check_stabilization(
                kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
                engine="vector", instrumentation=recorder,
            )
        assert upgraded.format() == baseline.format()
        assert upgraded.engine == "shared"
        assert recorder.record().counters["engine.shared"] == 1

    def test_no_context_vector_requests_stay_vector(self):
        recorder = Recorder()
        result = check_stabilization(
            kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4),
            engine="vector", instrumentation=recorder,
        )
        assert result.engine == "vector"
        assert "engine.shared" not in recorder.record().counters

    def test_tiny_schema_falls_back_with_a_reasoned_event(self):
        """Below ``SHARED_MIN_STATES`` streaming costs more than
        the whole check: the request must fall back, loudly."""
        from repro.gcl.parser import parse_program

        toy = parse_program(
            "program toy\n"
            "var x : mod 3\n"
            "action heal :: x != 0 --> x := 0\n"
            "init x == 0\n"
        )
        assert toy.schema().size() < SHARED_MIN_STATES
        reason = shared_fallback_reason(toy, toy)
        assert reason is not None and "costs more than it saves" in reason
        recorder = Recorder()
        result = check_stabilization(
            toy, toy, engine="shared", instrumentation=recorder,
        )
        assert result.engine != "shared"
        record = recorder.record()
        assert record.counters["engine.fallback.vector"] == 1
        events = [
            event for event in record.events
            if event.name == "engine.fallback"
        ]
        assert events and events[0].fields["requested"] == "shared"


TOY_SPEC = (
    "program grid\n"
    "var x : mod 8\n"
    "var y : mod 8\n"
    "action fix_x :: x != 0 --> x := 0\n"
    "action fix_y :: y != 0 --> y := 0\n"
    "init x == 0 && y == 0\n"
)


class TestCliDifferential:
    def _write_spec(self, tmp_path):
        spec = tmp_path / "grid.gcl"
        spec.write_text(TOY_SPEC, encoding="utf-8")
        return spec

    def test_check_output_identical_across_engines(self, tmp_path, capsys):
        """64 states: large enough to route shared for real, and the
        CLI flags must not change a byte of the verdict."""
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        spill = tmp_path / "spill"
        spill.mkdir()
        outputs = {}
        codes = {}
        for engine in ("tuple", "packed", "vector", "shared"):
            argv = ["check", str(spec), "--engine", engine]
            if engine == "shared":
                argv += ["--mem-budget", "8M", "--spill-dir", str(spill)]
            codes[engine] = main(argv)
            outputs[engine] = capsys.readouterr().out
        assert (
            codes["shared"] == codes["vector"]
            == codes["tuple"] == codes["packed"]
        )
        assert (
            outputs["shared"] == outputs["vector"]
            == outputs["tuple"] == outputs["packed"]
        )
        assert _shm_leaks() == []
        assert _spill_leaks(spill) == []

    def test_shared_engine_flag_recorded(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        record = tmp_path / "run.jsonl"
        main(["check", str(spec), "--engine", "shared",
              "--obs-out", str(record)])
        capsys.readouterr()
        text = record.read_text(encoding="utf-8")
        assert '"engine.shared"' in text

    def test_bad_mem_budget_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", str(spec), "--mem-budget", "lots"])
        assert excinfo.value.code == 2
        assert "memory budget" in capsys.readouterr().err
