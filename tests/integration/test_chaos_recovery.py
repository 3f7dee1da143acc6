"""Chaos-driven integration tests: injected faults, recovered verdicts.

The recovery invariants under test, end to end: a worker SIGKILLed
mid-task changes nothing about the verdict (including a LIGHT
estimate's — never an ``error``); an engine that
exhausts memory mid-fixpoint degrades down the vector → packed → tuple
chain with a reasoned ``engine.fallback`` event; a corrupted cache
entry reads as a miss and the verdict is recomputed; and the CLI under
a composite fault plan prints byte-identical output to the fault-free
sequential run.

The worker kills land on ``verify-tree``'s pool, which fans whole
checks of the shipped example specs out to forked workers; the
shared engine's own rounds have their chaos tests in
``test_shared_chaos.py``.
"""

from __future__ import annotations

import io
import pathlib

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_refinement,
    check_init_refinement,
    check_stabilization,
)
from repro.obs import NULL_INSTRUMENTATION, Recorder, load_tagged_lines
from repro.parallel import parallel_available
from repro.resilience import (
    FaultAction,
    FaultPlan,
    SupervisionPolicy,
    using_chaos,
    using_policy,
)
from repro.rings import (
    btr4_abstraction,
    btr_program,
    dijkstra_four_state,
    kstate_program,
    utr_abstraction,
    utr_program,
)
from repro.tiering import Tier, verify_tree

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)

#: Fast retry schedule so injected faults do not slow the suite.
FAST = SupervisionPolicy(backoff_base=0.001, backoff_cap=0.005)

#: Kill the first attempt of the first task of every supervised phase.
KILL_FIRST = FaultPlan(
    seed=0, faults=(FaultAction(kind="kill-worker", task=0, attempt=0),)
)

SPECS_DIR = pathlib.Path(__file__).parents[2] / "examples" / "specs"


def _verify_examples(
    state_dir, workers=1, instrumentation=NULL_INSTRUMENTATION, **kwargs
):
    """``verify-tree`` over the example specs from a fresh manifest;
    returns the report and the verdict stream."""
    out = io.StringIO()
    report = verify_tree(
        str(SPECS_DIR),
        manifest_path=str(state_dir / "manifest.json"),
        workers=workers,
        instrumentation=instrumentation,
        out=out,
        err=io.StringIO(),
        **kwargs,
    )
    return report, out.getvalue()


def _dijkstra4():
    return (
        dijkstra_four_state(3).compile(),
        btr_program(3).compile(),
        btr4_abstraction(3),
    )


class TestWorkerDeathMidShard:
    """Kills inside ``verify-tree``'s pool: one task per spec check."""

    def test_verdict_identical_after_injected_kills(self, tmp_path):
        _, baseline = _verify_examples(
            tmp_path / "seq", forced_tier=Tier.THOROUGH
        )
        recorder = Recorder(kind="test")
        with using_policy(FAST), using_chaos(KILL_FIRST):
            _, chaotic = _verify_examples(
                tmp_path / "chaos", workers=4, instrumentation=recorder,
                forced_tier=Tier.THOROUGH,
            )
        assert chaotic == baseline
        counters = recorder.record().counters
        assert counters["resilience.worker.death"] >= 1
        assert counters["resilience.task.retries"] >= 1

    def test_light_estimates_identical_after_injected_kills(self, tmp_path):
        """A worker dying mid-task of a LIGHT run must not turn the
        seeded estimate into an exception: sampling and the fault
        recovery compose."""
        baseline_report, baseline = _verify_examples(
            tmp_path / "seq", forced_tier=Tier.LIGHT
        )
        assert all(o.tier == "light" for o in baseline_report.outcomes)
        recorder = Recorder(kind="test")
        with using_policy(FAST), using_chaos(KILL_FIRST):
            chaotic_report, chaotic = _verify_examples(
                tmp_path / "chaos", workers=4, instrumentation=recorder,
                forced_tier=Tier.LIGHT,
            )
        assert all(o.tier == "light" for o in chaotic_report.outcomes)
        assert chaotic == baseline
        assert recorder.record().counters["resilience.worker.death"] >= 1

    def test_poison_every_attempt_still_converges_via_quarantine(
        self, tmp_path
    ):
        """Killing *every* attempt of a task forces quarantine: the
        inline sequential run must still deliver the identical
        verdict (chaos worker faults are inert in the driver)."""
        _, baseline = _verify_examples(
            tmp_path / "seq", forced_tier=Tier.THOROUGH
        )
        plan = FaultPlan(
            faults=(FaultAction(kind="kill-worker", task=0, attempt="*"),)
        )
        policy = SupervisionPolicy(
            max_task_retries=1, backoff_base=0.001, backoff_cap=0.005
        )
        recorder = Recorder(kind="test")
        with using_policy(policy), using_chaos(plan):
            _, chaotic = _verify_examples(
                tmp_path / "chaos", workers=2, instrumentation=recorder,
                forced_tier=Tier.THOROUGH,
            )
        assert chaotic == baseline
        counters = recorder.record().counters
        assert counters["resilience.task.quarantined"] >= 1
        assert counters["resilience.sequential_fallback"] >= 1


class TestEngineDegradation:
    @pytest.mark.usefixtures("packed_rung")
    def test_packed_memory_fault_degrades_to_tuple(self):
        concrete, spec, alpha = _dijkstra4()
        baseline = check_stabilization(
            concrete, spec, alpha, engine="tuple"
        )
        plan = FaultPlan(
            faults=(
                FaultAction(kind="raise-memory", engine="packed", at_states=1),
            )
        )
        recorder = Recorder(kind="test")
        with using_chaos(plan):
            degraded = check_stabilization(
                concrete, spec, alpha, engine="packed",
                instrumentation=recorder,
            )
        assert degraded.format() == baseline.format()
        record = recorder.record()
        assert record.counters["resilience.engine.fallback"] == 1
        assert record.counters["engine.fallback.tuple"] == 1
        # The preflight events (the packed alias, the rung's refusal of
        # vector) precede the one runtime degradation.
        events = [
            event for event in record.events
            if event.name == "engine.fallback" and "during" in event.fields
        ]
        assert len(events) == 1
        assert events[0].fields["requested"] == "packed"
        assert events[0].fields["during"] == "runtime"
        assert "MemoryError" in events[0].fields["reason"]

    def test_vector_memory_fault_walks_the_full_chain(self):
        pytest.importorskip("numpy")
        concrete, spec, alpha = _dijkstra4()
        baseline = check_stabilization(
            concrete, spec, alpha, engine="tuple"
        )
        # Every engine with state hooks faults: vector falls to packed,
        # packed falls to tuple, and tuple (hook-less) finishes.
        plan = FaultPlan(
            faults=(
                FaultAction(kind="raise-memory", engine="*", at_states=1),
            )
        )
        recorder = Recorder(kind="test")
        with using_chaos(plan):
            degraded = check_stabilization(
                concrete, spec, alpha, engine="vector",
                instrumentation=recorder,
            )
        assert degraded.format() == baseline.format()
        assert recorder.record().counters["resilience.engine.fallback"] == 2

    @pytest.mark.parametrize(
        "check",
        [
            check_init_refinement,
            check_everywhere_refinement,
            check_convergence_refinement,
        ],
        ids=["init", "everywhere", "convergence"],
    )
    def test_vector_refinement_memory_fault_replays_on_tuple(self, check):
        """Refinement walks the same chain as stabilization: a fault
        on vector restarts the check on the tuple reference, with one
        runtime event and the reference's verdict."""
        pytest.importorskip("numpy")
        args = kstate_program(4, 4), utr_program(4), utr_abstraction(4, 4)
        baseline = check(*args, engine="tuple")
        plan = FaultPlan(
            faults=(
                FaultAction(kind="raise-memory", engine="vector", at_states=1),
            )
        )
        recorder = Recorder(kind="test")
        with using_chaos(plan):
            degraded = check(*args, engine="vector", instrumentation=recorder)
        assert degraded.format() == baseline.format()
        record = recorder.record()
        assert record.counters["engine.vector"] == 1
        assert record.counters["engine.fallback.tuple"] == 1
        assert record.counters["resilience.engine.fallback"] == 1
        fallbacks = [
            event.fields for event in record.events
            if event.name == "engine.fallback"
        ]
        assert len(fallbacks) == 1
        assert fallbacks[0]["requested"] == "vector"
        assert fallbacks[0]["during"] == "runtime"
        assert "MemoryError" in fallbacks[0]["reason"]


class TestCacheCorruptionRecovery:
    def test_corrupted_entry_recomputes_the_verdict(self, tmp_path):
        from repro.parallel import (
            VerificationCache,
            cache_key,
            program_fingerprint,
        )

        program = dijkstra_four_state(3)
        key = cache_key("check", [program_fingerprint(program)], {})
        plan = FaultPlan(
            faults=(FaultAction(kind="corrupt-cache", index=0),)
        )
        recorder = Recorder(kind="test")
        cache = VerificationCache(tmp_path / "cache", recorder)
        with using_chaos(plan):
            cache.put(key, {"holds": True, "text": "verdict"})
        # The chaos fault flipped a byte of the stored file: the next
        # read must refuse it rather than serve a damaged verdict.
        assert cache.get(key) is None
        counters = recorder.record().counters
        assert counters["cache.corrupt"] == 1
        # Recompute-and-overwrite restores service.
        cache.put(key, {"holds": True, "text": "verdict"})
        assert cache.get(key) == {"holds": True, "text": "verdict"}


TOY_SPEC = (
    "program toy\n"
    "var x : mod 4\n"
    "var y : mod 2\n"
    "action fix_x :: x != 0 --> x := 0\n"
    "action fix_y :: y != 0 --> y := 0\n"
    "init x == 0 && y == 0\n"
)

#: The acceptance-criteria composite: one worker kill per phase, a
#: vector-engine memory fault, and one corrupted cache entry.
COMPOSITE_PLAN = (
    '{"seed": 0, "faults": ['
    '{"kind": "kill-worker", "task": 0, "attempt": 0}, '
    '{"kind": "raise-memory", "engine": "vector", "at_states": 1}, '
    '{"kind": "corrupt-cache", "index": 0}]}'
)


def _counters(path) -> dict:
    return {
        row["name"]: row["value"] for row in load_tagged_lines(path, "counter")
    }


class TestCliChaosDifferential:
    def test_chaotic_run_prints_byte_identical_verdict(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        tree = tmp_path / "specs"
        tree.mkdir()
        spec = tree / "toy.gcl"
        spec.write_text(TOY_SPEC, encoding="utf-8")
        code_baseline = main(["check", str(spec)])
        out_baseline = capsys.readouterr().out
        code_chaos = main(
            [
                "check", str(spec),
                "--workers", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--chaos", COMPOSITE_PLAN,
            ]
        )
        out_chaos = capsys.readouterr().out
        assert code_chaos == code_baseline
        assert out_chaos == out_baseline
        # ``check`` decides in one process, so the plan's worker kill
        # lands on verify-tree's pool; a THOROUGH block is the
        # ``check`` output byte for byte.
        monkeypatch.setenv("REPRO_CHAOS", COMPOSITE_PLAN)
        record = tmp_path / "tree.jsonl"
        code_tree = main(
            [
                "verify-tree", str(tree),
                "--tier", "thorough", "--workers", "4",
                "--engine", "vector",
                "--manifest", str(tmp_path / "state" / "manifest.json"),
                "--obs-out", str(record),
            ]
        )
        assert code_tree == code_baseline
        assert capsys.readouterr().out == out_baseline
        counters = _counters(record)
        assert counters["resilience.worker.death"] >= 1
        assert counters["resilience.task.retries"] >= 1

    def test_corrupted_cache_never_serves_a_wrong_verdict(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(TOY_SPEC, encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        # First run stores the verdict; the chaos plan corrupts it.
        main(
            ["check", str(spec), "--cache-dir", cache_dir,
             "--chaos", '{"faults": [{"kind": "corrupt-cache", "index": 0}]}']
        )
        first = capsys.readouterr()
        assert "verification cache: stored" in first.err
        # Second run must miss (digest check), recompute, and re-store.
        code = main(["check", str(spec), "--cache-dir", cache_dir])
        second = capsys.readouterr()
        assert code == 0
        assert "verification cache: stored" in second.err
        assert second.out == first.out
        # Third run finally hits the repaired entry.
        main(["check", str(spec), "--cache-dir", cache_dir])
        third = capsys.readouterr()
        assert "verification cache: hit" in third.err
        assert third.out == first.out

    def test_bad_chaos_plan_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "toy.gcl"
        spec.write_text(TOY_SPEC, encoding="utf-8")
        code = main(
            ["check", str(spec), "--chaos", '{"faults": [{"kind": "nope"}]}']
        )
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_chaos_env_var_is_the_flagless_spelling(
        self, tmp_path, capsys, monkeypatch
    ):
        """``verify-tree`` has no ``--chaos`` flag: the environment
        variable alone must reach its pool."""
        from repro.cli import main

        tree = tmp_path / "specs"
        tree.mkdir()
        (tree / "toy.gcl").write_text(TOY_SPEC, encoding="utf-8")
        baseline_code = main(["check", str(tree / "toy.gcl")])
        baseline = capsys.readouterr().out
        monkeypatch.setenv(
            "REPRO_CHAOS",
            '{"faults": [{"kind": "kill-worker", "task": 0, "attempt": 0}]}',
        )
        record = tmp_path / "tree.jsonl"
        code = main(
            [
                "verify-tree", str(tree), "--tier", "thorough",
                "--workers", "2",
                "--manifest", str(tmp_path / "state" / "manifest.json"),
                "--obs-out", str(record),
            ]
        )
        assert code == baseline_code
        assert capsys.readouterr().out == baseline
        assert _counters(record)["resilience.worker.death"] >= 1
