"""Unit tests for the parallel campaign executor and its cache.

The contract: a campaign produces the same per-cell outcomes at every
worker count (sub-seeds derive from cell ids, never execution order);
checkpoint rows are keyed by cell id so a sweep written under one
``--workers`` value resumes correctly under any other; and cached
verification cells are served from disk with a visible marker.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignConfig,
    CellResult,
    CellStatus,
    build_grid,
    run_campaign,
)
from repro.core.errors import SimulationError
from repro.obs import load_tagged_lines
from repro.parallel import parallel_available

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="no fork start method"
)


def small_grid(with_check=False):
    return build_grid(
        systems=("dijkstra3",), sizes=(3,), schedulers=("random",),
        injectors=("corrupt-all",), seeds=2, with_check=with_check,
    )


def quick_config(**overrides):
    defaults = dict(steps=2000, deadline=30.0, retries=1, seed=7)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestConfigValidation:
    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SimulationError):
            CampaignConfig(workers=0)


class TestParallelExecution:
    def test_outcomes_identical_at_every_worker_count(self):
        cells = small_grid()
        sequential = run_campaign(cells, quick_config(workers=1))
        parallel = run_campaign(cells, quick_config(workers=2))

        def stable(result):  # everything but the wall clock
            payload = result.to_payload()
            payload.pop("seconds")
            return payload

        assert [stable(r) for r in sequential.results] == [
            stable(r) for r in parallel.results
        ]

    def test_results_are_assembled_in_grid_order(self):
        cells = small_grid(with_check=True)
        campaign = run_campaign(cells, quick_config(workers=2))
        assert campaign.ok
        assert [r.cell_id for r in campaign.results] == [
            c.cell_id() for c in cells
        ]

    def test_closure_executors_survive_the_fork(self):
        """Custom executors may be closures; the pool must carry them
        into workers by fork inheritance, not pickling."""
        marker = {"detail": "closure-made"}

        def executor(cell, config):
            return CellResult(
                cell.cell_id(), CellStatus.CONVERGED, 1, 0.0,
                detail=marker["detail"],
            )

        cells = small_grid()
        campaign = run_campaign(cells, quick_config(workers=2),
                                executor=executor)
        assert all(r.detail == "closure-made" for r in campaign.results)


class TestResumeAcrossWorkerCounts:
    def test_checkpoint_from_parallel_run_resumes_sequentially(self, tmp_path):
        """Regression: rows are keyed by cell id, not worker ordering —
        a checkpoint written at one worker count must resume cleanly at
        any other, re-executing nothing."""
        checkpoint = tmp_path / "campaign.jsonl"
        cells = small_grid(with_check=True)
        first = run_campaign(
            cells, quick_config(workers=2, checkpoint=checkpoint)
        )
        assert first.executed == len(cells)
        resumed = run_campaign(
            cells, quick_config(workers=1, checkpoint=checkpoint), resume=True
        )
        assert resumed.executed == 0
        assert resumed.skipped == len(cells)
        assert [r.to_payload() for r in resumed.results] == [
            r.to_payload() for r in first.results
        ]

    def test_partial_parallel_checkpoint_resumes_under_more_workers(
        self, tmp_path
    ):
        """A checkpoint holding only some cells (an interrupted sweep)
        fills in exactly the missing ones, at any worker count."""
        checkpoint = tmp_path / "campaign.jsonl"
        cells = small_grid(with_check=True)
        run_campaign(cells, quick_config(workers=2, checkpoint=checkpoint))
        # Drop the final row, as if the sweep died mid-flight.
        lines = checkpoint.read_text().strip().splitlines()
        checkpoint.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        resumed = run_campaign(
            cells, quick_config(workers=3, checkpoint=checkpoint), resume=True
        )
        assert resumed.executed == 1
        assert resumed.skipped == len(cells) - 1
        assert [r.cell_id for r in resumed.results] == [
            c.cell_id() for c in cells
        ]

    def test_interrupted_style_checkpoint_resumes_missing_cells(
        self, tmp_path
    ):
        """Checkpoint rows landing in completion (not grid) order must
        not confuse resume: executed cells are skipped wherever their
        rows sit in the file."""
        checkpoint = tmp_path / "campaign.jsonl"
        cells = small_grid(with_check=True)
        full = run_campaign(
            cells, quick_config(workers=2, checkpoint=checkpoint)
        )
        # Rewrite the checkpoint with the cell rows reversed — a
        # completion order no sequential sweep would produce.
        lines = checkpoint.read_text().strip().splitlines()
        header, rows = lines[0], lines[1:]
        checkpoint.write_text(
            "\n".join([header] + rows[::-1]) + "\n", encoding="utf-8"
        )
        resumed = run_campaign(
            cells, quick_config(workers=1, checkpoint=checkpoint), resume=True
        )
        assert resumed.executed == 0
        assert [r.cell_id for r in resumed.results] == [
            c.cell_id() for c in cells
        ]
        assert [r.to_payload() for r in resumed.results] == [
            r.to_payload() for r in full.results
        ]


class TestCheckCellCache:
    def test_second_campaign_hits_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cells = [c for c in small_grid(with_check=True) if c.kind == "check"]
        config = quick_config(cache_dir=cache_dir)
        first = run_campaign(cells, config)
        assert "[cached]" not in first.results[0].detail
        second = run_campaign(cells, config)
        assert second.results[0].detail.endswith("[cached]")
        assert second.results[0].status is first.results[0].status

    def test_cache_rows_survive_checkpointing(self, tmp_path):
        """A cached verdict lands in the checkpoint like any other row
        and restores on resume."""
        cache_dir = tmp_path / "cache"
        checkpoint = tmp_path / "cp.jsonl"
        cells = [c for c in small_grid(with_check=True) if c.kind == "check"]
        run_campaign(cells, quick_config(cache_dir=cache_dir))
        run_campaign(
            cells,
            quick_config(cache_dir=cache_dir, checkpoint=checkpoint),
        )
        rows = load_tagged_lines(checkpoint, "campaign-cell")
        assert rows and rows[0]["detail"].endswith("[cached]")

    def test_simulation_cells_are_never_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cells = small_grid()  # simulations only
        run_campaign(cells, quick_config(cache_dir=cache_dir))
        assert not cache_dir.exists() or not list(cache_dir.glob("*/*.json"))
