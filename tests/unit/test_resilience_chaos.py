"""Unit tests for the deterministic chaos harness.

The invariants under test: fault plans round-trip through JSON and
reject unknown fields loudly (a typoed selector must not silently
disable a fault); matching is exact over (phase, task, attempt) with
wildcards; the file-level corruption hooks hit exactly the selected
store/append; and activation is scoped by ``using_chaos``.
"""

from __future__ import annotations

import json

import pytest

from repro.resilience import (
    ChaosPlanError,
    FaultAction,
    FaultPlan,
    active_plan,
    load_plan,
    using_chaos,
)
from repro.resilience import chaos


class TestPlanParsing:
    def test_round_trip(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                FaultAction(kind="kill-worker", task=0),
                FaultAction(kind="delay-task", attempt="*", seconds=0.5),
                FaultAction(kind="corrupt-cache", index=2),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_fault_field_is_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown fault field"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "kill-worker", "tsak": 0}]}
            )

    def test_unknown_plan_field_is_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown plan field"):
            FaultPlan.from_dict({"seed": 0, "fault": []})

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ChaosPlanError, match="unknown fault kind"):
            FaultAction(kind="set-on-fire")

    def test_raise_memory_is_an_unknown_kind(self):
        """A memory error ends a check, so no plan injects one: the
        retired kind and its selectors are rejected like any typo."""
        with pytest.raises(ChaosPlanError, match="unknown fault kind"):
            FaultPlan.from_dict({"faults": [{"kind": "raise-memory"}]})
        for key in ("engine", "at_states"):
            with pytest.raises(ChaosPlanError, match="unknown fault field"):
                FaultPlan.from_dict(
                    {"faults": [{"kind": "kill-worker", key: 1}]}
                )

    def test_missing_kind_is_rejected(self):
        with pytest.raises(ChaosPlanError, match="missing its 'kind'"):
            FaultAction.from_dict({"task": 0})

    def test_invalid_json_is_rejected(self):
        with pytest.raises(ChaosPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ChaosPlanError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_selector_validation(self):
        with pytest.raises(ChaosPlanError):
            FaultAction(kind="kill-worker", task=1.5)
        with pytest.raises(ChaosPlanError):
            FaultAction(kind="delay-task", seconds=-1.0)
        with pytest.raises(ChaosPlanError):
            FaultAction(kind="corrupt-cache", index=-1)


class TestLoadPlan:
    def test_inline_json(self):
        plan = load_plan('{"seed": 3, "faults": []}')
        assert plan == FaultPlan(seed=3)

    def test_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {"seed": 1, "faults": [{"kind": "kill-worker", "task": 2}]}
            ),
            encoding="utf-8",
        )
        plan = load_plan(str(path))
        assert plan.seed == 1
        assert plan.faults[0].task == 2

    def test_missing_file_is_a_plan_error(self, tmp_path):
        with pytest.raises(ChaosPlanError, match="cannot read fault plan"):
            load_plan(str(tmp_path / "absent.json"))


class TestMatching:
    def test_exact_and_wildcard_selectors(self):
        fault = FaultAction(kind="kill-worker", task=3, attempt=0, phase="f")
        assert fault.matches_task("f", 3, 0)
        assert not fault.matches_task("f", 3, 1)
        assert not fault.matches_task("f", 2, 0)
        assert not fault.matches_task("g", 3, 0)
        anywhere = FaultAction(kind="kill-worker", task="*", attempt="*")
        assert anywhere.matches_task("anything", 99, 7)


class TestActivation:
    def test_using_chaos_scopes_the_plan(self):
        plan = FaultPlan(seed=1)
        assert active_plan() is None
        with using_chaos(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_none_plan_is_a_passthrough(self):
        with using_chaos(None):
            assert active_plan() is None
            # Every hook must be inert without a plan.
            chaos.on_worker_task("f", 0, 0)
            chaos.cache_stored("/nonexistent")
            chaos.checkpoint_appended("/nonexistent")


class TestFileCorruption:
    def test_corrupt_cache_flips_one_byte_of_the_selected_store(
        self, tmp_path
    ):
        target = tmp_path / "entry.json"
        original = b'{"payload": {"holds": true}}'
        plan = FaultPlan(
            faults=(FaultAction(kind="corrupt-cache", index=1),)
        )
        with using_chaos(plan):
            target.write_bytes(original)
            chaos.cache_stored(target)  # store 0: not selected
            assert target.read_bytes() == original
            chaos.cache_stored(target)  # store 1: one byte flipped
            flipped = target.read_bytes()
        assert len(flipped) == len(original)
        assert flipped != original
        diffs = [i for i, (a, b) in enumerate(zip(original, flipped)) if a != b]
        assert len(diffs) == 1

    def test_truncate_checkpoint_halves_the_final_line(self, tmp_path):
        target = tmp_path / "ckpt.jsonl"
        lines = b'{"t": "meta"}\n{"t": "cell", "id": "abcdefgh"}\n'
        target.write_bytes(lines)
        plan = FaultPlan(
            faults=(FaultAction(kind="truncate-checkpoint", index=0),)
        )
        with using_chaos(plan):
            chaos.checkpoint_appended(target)
        data = target.read_bytes()
        assert data.startswith(b'{"t": "meta"}\n')
        assert not data.endswith(b"\n")
        tail = data.split(b"\n", 1)[1]
        with pytest.raises(json.JSONDecodeError):
            json.loads(tail)

    def test_counters_reset_at_context_boundary(self, tmp_path):
        target = tmp_path / "entry.json"
        target.write_bytes(b"0123456789")
        plan = FaultPlan(
            faults=(FaultAction(kind="corrupt-cache", index=0),)
        )
        with using_chaos(plan):
            chaos.cache_stored(target)
        corrupted_once = target.read_bytes()
        assert corrupted_once != b"0123456789"
        with using_chaos(plan):
            # A fresh context counts stores from zero again.
            chaos.cache_stored(target)
        assert target.read_bytes() == b"0123456789"
