"""Unit tests for the resilient campaign engine.

The resilience contract under test: timeouts are recorded and the
sweep continues; crashes are retried with derived sub-seeds and then
recorded as ``error``; an interrupted campaign resumes from its
checkpoint without re-executing completed cells, and re-runs a cell
whose recorded status has been retired.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignConfig,
    CellResult,
    CellSpec,
    CellStatus,
    build_grid,
    derive_seed,
    execute_cell,
    grid_signature,
    run_campaign,
    summarize_campaign,
)
from repro.core.errors import SimulationError
from repro.obs import load_tagged_lines


def quick_config(**overrides):
    defaults = dict(steps=2000, deadline=30.0, retries=1, seed=7)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def stub_result(cell, status=CellStatus.CONVERGED):
    return CellResult(cell.cell_id(), status, 1, 0.001)


def stub_executor(cell, config):
    return stub_result(cell)


class TestGrid:
    def test_grid_is_deterministic_and_ordered(self):
        first = build_grid(seeds=2)
        second = build_grid(seeds=2)
        assert [c.cell_id() for c in first] == [c.cell_id() for c in second]
        assert grid_signature(first) == grid_signature(second)

    def test_check_cells_precede_their_simulations(self):
        cells = build_grid(
            systems=("dijkstra4",), sizes=(3,), seeds=1, with_check=True
        )
        assert cells[0].kind == "check"
        assert all(cell.kind == "simulate" for cell in cells[1:])

    def test_signature_is_order_sensitive(self):
        cells = build_grid(seeds=2)
        assert grid_signature(cells) != grid_signature(cells[::-1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"systems": ("nope",)},
            {"schedulers": ("nope",)},
            {"injectors": ("nope",)},
            {"seeds": 0},
            {"sizes": (2,)},
        ],
    )
    def test_bad_axes_rejected_before_any_cell_runs(self, kwargs):
        with pytest.raises(SimulationError):
            build_grid(**kwargs)

    def test_derive_seed_is_deterministic_and_distinct(self):
        cell = "simulate:dijkstra4:n3:random:corrupt-all:s0"
        assert derive_seed(7, cell, 0) == derive_seed(7, cell, 0)
        # Different campaign seed, cell, or attempt: different stream.
        assert derive_seed(8, cell, 0) != derive_seed(7, cell, 0)
        assert derive_seed(7, cell + "x", 0) != derive_seed(7, cell, 0)
        assert derive_seed(7, cell, 1) != derive_seed(7, cell, 0)


class TestCellResultPayload:
    def test_round_trip(self):
        result = CellResult(
            "simulate:kstate:n4:random:corrupt-1:s2",
            CellStatus.DIVERGED, 2, 1.25, steps=500, seed=123,
            detail="suspected divergence", trace_path="/tmp/x.jsonl",
        )
        assert CellResult.from_payload(result.to_payload()) == result

    def test_minimal_round_trip(self):
        result = CellResult("check:btr:n3:-:-:s0", CellStatus.ERROR, 1, 0.5)
        assert CellResult.from_payload(result.to_payload()) == result

    def test_payload_is_tagged(self):
        payload = stub_result(CellSpec("simulate", "btr", 3)).to_payload()
        assert payload["t"] == "campaign-cell"


class TestExecuteCell:
    def test_simulation_cell_converges(self):
        cell = CellSpec("simulate", "dijkstra3", 3, "random", "corrupt-all", 0)
        result = execute_cell(cell, quick_config())
        assert result.status is CellStatus.CONVERGED
        assert result.attempts == 1
        assert result.seed == derive_seed(7, cell.cell_id(), 0)

    def test_timeout_is_a_recorded_outcome(self):
        cell = CellSpec("simulate", "dijkstra4", 3, "random", "corrupt-all", 0)
        config = quick_config(steps=10**7, deadline=1e-9)
        result = execute_cell(cell, config)
        assert result.status is CellStatus.TIMEOUT
        assert "deadline" in result.detail

    def test_check_cell_verifies(self):
        result = execute_cell(CellSpec("check", "dijkstra3", 3), quick_config())
        assert result.status is CellStatus.CONVERGED
        assert "verified" in result.detail

    def test_check_cell_reports_counterexample_as_diverged(self):
        # BTR is the deliberate non-stabilizing control.
        result = execute_cell(CellSpec("check", "btr", 3), quick_config())
        assert result.status is CellStatus.DIVERGED

    def test_crash_retries_then_errors(self, monkeypatch):
        attempts = []

        def boom(key):
            attempts.append(key)
            raise RuntimeError("injector exploded")

        monkeypatch.setattr("repro.campaign.engine.build_injector", boom)
        cell = CellSpec("simulate", "dijkstra4", 3, "random", "corrupt-all", 0)
        result = execute_cell(cell, quick_config(retries=2))
        assert result.status is CellStatus.ERROR
        assert result.attempts == 3 and len(attempts) == 3
        assert "injector exploded" in result.detail

    def test_crash_then_success_uses_fresh_subseed(self, monkeypatch):
        from repro.campaign import engine

        real = engine.build_injector
        calls = []

        def flaky(key):
            calls.append(key)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return real(key)

        monkeypatch.setattr(engine, "build_injector", flaky)
        cell = CellSpec("simulate", "dijkstra3", 3, "random", "corrupt-all", 0)
        result = execute_cell(cell, quick_config(retries=1))
        assert result.status is CellStatus.CONVERGED
        assert result.attempts == 2
        # The successful attempt ran on the attempt-1 derived sub-seed.
        assert result.seed == derive_seed(7, cell.cell_id(), 1)


class TestRunCampaign:
    def test_timeout_cell_does_not_stop_the_sweep(self):
        cells = [
            CellSpec("simulate", "dijkstra4", 3, "random", "corrupt-all", i)
            for i in range(2)
        ]
        config = quick_config(steps=10**7, deadline=1e-9)
        campaign = run_campaign(cells, config)
        assert [r.status for r in campaign.results] == [CellStatus.TIMEOUT] * 2
        assert campaign.executed == 2 and not campaign.interrupted

    def test_error_cell_is_isolated(self):
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=3)

        def executor(cell, config):
            if cell.seed_index == 1:
                return stub_result(cell, CellStatus.ERROR)
            return stub_result(cell)

        campaign = run_campaign(cells, quick_config(), executor=executor)
        assert campaign.executed == 3
        assert campaign.counts()[CellStatus.ERROR] == 1
        assert not campaign.ok

    def test_checkpoint_lines_are_written_incrementally(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=2)
        config = quick_config(checkpoint=checkpoint)
        run_campaign(cells, config, executor=stub_executor)
        meta = load_tagged_lines(checkpoint, "campaign-meta")
        rows = load_tagged_lines(checkpoint, "campaign-cell")
        assert meta[0]["grid"] == grid_signature(cells)
        assert [row["id"] for row in rows] == [c.cell_id() for c in cells]

    def test_interrupt_then_resume_skips_completed_cells(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4", "dijkstra3"), sizes=(3,),
                           seeds=2)
        config = quick_config(checkpoint=checkpoint)
        ran_first = []

        def interrupting(cell, config):
            if len(ran_first) == 2:
                raise KeyboardInterrupt
            ran_first.append(cell.cell_id())
            return stub_result(cell)

        first = run_campaign(cells, config, executor=interrupting)
        assert first.interrupted and first.executed == 2
        assert first.pending == len(cells) - 2

        ran_second = []

        def counting(cell, config):
            ran_second.append(cell.cell_id())
            return stub_result(cell)

        second = run_campaign(cells, config, resume=True, executor=counting)
        # Completed cells were NOT re-executed; the rest ran exactly once.
        assert set(ran_second).isdisjoint(ran_first)
        assert ran_second == [c.cell_id() for c in cells[2:]]
        assert second.skipped == 2 and second.executed == len(cells) - 2
        assert not second.interrupted and second.pending == 0
        assert len(second.results) == len(cells)

    def test_existing_checkpoint_requires_resume(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=1)
        config = quick_config(checkpoint=checkpoint)
        run_campaign(cells, config, executor=stub_executor)
        with pytest.raises(SimulationError, match="resume"):
            run_campaign(cells, config, executor=stub_executor)

    def test_resume_refuses_a_different_grid(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        config = quick_config(checkpoint=checkpoint)
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=1)
        run_campaign(cells, config, executor=stub_executor)
        other = build_grid(systems=("dijkstra3",), sizes=(3,), seeds=1)
        with pytest.raises(SimulationError, match="different grid"):
            run_campaign(other, config, resume=True, executor=stub_executor)

    def test_resume_reruns_a_partial_check_cell(self, tmp_path):
        """A checkpoint row with the retired ``partial`` status (a check
        cut at the old state budget) is not an outcome: resume runs that
        cell again instead of failing to parse it."""
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(
            systems=("dijkstra4",), sizes=(3,), seeds=1, with_check=True
        )
        config = quick_config(checkpoint=checkpoint)
        run_campaign(cells, config, executor=stub_executor)
        lines = checkpoint.read_text().splitlines()
        check_row = json.loads(lines[1])
        assert check_row["id"] == cells[0].cell_id()
        check_row.update(status="partial", detail="budget of 5 states exhausted")
        lines[1] = json.dumps(check_row)
        checkpoint.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ran = []

        def counting(cell, config):
            ran.append(cell.cell_id())
            return stub_result(cell)

        resumed = run_campaign(cells, config, resume=True, executor=counting)
        assert ran == [cells[0].cell_id()]
        assert resumed.skipped == len(cells) - 1
        assert resumed.results[0].status is CellStatus.CONVERGED

    def test_resume_without_existing_checkpoint_starts_fresh(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=1)
        config = quick_config(checkpoint=checkpoint)
        campaign = run_campaign(cells, config, resume=True,
                                executor=stub_executor)
        assert campaign.executed == len(cells) and campaign.skipped == 0

    def test_diverged_run_archives_trace(self, tmp_path):
        # A 0.0-probability-of-convergence setup is not available
        # deterministically, so force divergence via a tiny step budget
        # on the non-stabilizing control with a fixed master seed.
        cells = [CellSpec("simulate", "btr", 3, "round-robin", "corrupt-1", 0)]
        config = quick_config(steps=1, trace_dir=tmp_path / "traces")
        campaign = run_campaign(cells, config)
        result = campaign.results[0]
        if result.status is CellStatus.DIVERGED:
            assert result.trace_path is not None
            archived = load_tagged_lines(result.trace_path, "trace")
            assert archived, "archived trace must be tagged JSONL"
        else:  # the single corrupted step happened to restore legitimacy
            assert result.status is CellStatus.CONVERGED


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 0},
            {"deadline": 0.0},
            {"retries": -1},
            {"fault_count": 0},
            {"early_stop": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            CampaignConfig(**kwargs)


class TestSummary:
    def test_table_groups_by_system_and_size(self):
        cells = build_grid(systems=("dijkstra4", "kstate"), sizes=(3,),
                           seeds=2)
        statuses = iter(
            [CellStatus.CONVERGED, CellStatus.TIMEOUT,
             CellStatus.DIVERGED, CellStatus.CONVERGED]
        )
        campaign = run_campaign(
            cells, quick_config(),
            executor=lambda cell, config: stub_result(cell, next(statuses)),
        )
        text = summarize_campaign(campaign)
        assert "dijkstra4 n=3" in text and "kstate n=3" in text
        assert "needs attention:" in text
        assert "diverged" in text

    def test_all_clean_summary_has_no_attention_section(self):
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=1)
        campaign = run_campaign(cells, quick_config(), executor=stub_executor)
        text = summarize_campaign(campaign)
        assert "needs attention:" not in text
        assert "executed 1" in text


class TestCheckpointCrashRecovery:
    """A crash mid-append leaves a torn final line; resume drops it."""

    def _run_then_tear(self, tmp_path, keep_bytes=None):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=2)
        config = quick_config(checkpoint=checkpoint)
        run_campaign(cells, config, executor=stub_executor)
        data = checkpoint.read_bytes()
        head, _, last = data.rstrip(b"\n").rpartition(b"\n")
        cut = len(last) // 2 if keep_bytes is None else keep_bytes
        checkpoint.write_bytes(head + b"\n" + last[:cut])
        return checkpoint, cells, config

    def test_truncated_final_line_is_dropped_and_rerun(self, tmp_path):
        from repro.obs import Recorder

        checkpoint, cells, config = self._run_then_tear(tmp_path)
        ran = []

        def counting(cell, config):
            ran.append(cell.cell_id())
            return stub_result(cell)

        recorder = Recorder(kind="test")
        campaign = run_campaign(
            cells, config, resume=True, executor=counting,
            instrumentation=recorder,
        )
        # Exactly the torn cell re-ran; everything before it resumed.
        assert ran == [cells[-1].cell_id()]
        assert campaign.skipped == len(cells) - 1
        assert campaign.executed == 1
        record = recorder.record()
        assert record.counters["resilience.checkpoint.truncated"] == 1
        truncated = [
            event for event in record.events
            if event.name == "campaign.checkpoint.truncated"
        ]
        assert len(truncated) == 1

    def test_interior_corruption_stays_fatal(self, tmp_path):
        checkpoint = tmp_path / "campaign.jsonl"
        cells = build_grid(systems=("dijkstra4",), sizes=(3,), seeds=2)
        config = quick_config(checkpoint=checkpoint)
        run_campaign(cells, config, executor=stub_executor)
        lines = checkpoint.read_text(encoding="utf-8").splitlines()
        # Damage a line that is NOT the last one: not a crash signature.
        lines[1] = lines[1][: len(lines[1]) // 2]
        checkpoint.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SimulationError, match="corrupt"):
            run_campaign(cells, config, resume=True, executor=stub_executor)

    def test_resumed_checkpoint_replays_identically_after_repair(
        self, tmp_path
    ):
        checkpoint, cells, config = self._run_then_tear(tmp_path)
        campaign = run_campaign(
            cells, config, resume=True, executor=stub_executor
        )
        assert len(campaign.results) == len(cells)
        assert campaign.pending == 0 and campaign.ok
