"""Integration tests for ``repro verify-tree`` incremental verification.

The acceptance contract under test: a THOROUGH-tier tree run produces
exactly the verdict blocks that direct ``repro check`` invocations
produce, in sorted path order; a warm re-run replays every verdict
from the manifest byte for byte while running **zero** engine
fixpoints; editing one spec re-verifies only that spec; removing a
spec drops its manifest entry; and worker counts never change stdout.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.gcl.pretty import render_program
from repro.obs import load_tagged_lines
from repro.parallel import parallel_available
from repro.rings import kstate_program

SPECS_DIR = pathlib.Path(__file__).parents[2] / "examples" / "specs"

STABLE = """
program toy{n}
var x : mod 3
action heal :: x != 0 --> x := 0
init x == 0
"""

BROKEN = """
program broken
var x : mod 3
action spin :: x == 1 --> x := 2
action back :: x == 2 --> x := 1
action stay :: x == 0 --> x := 0
init x == 0
"""


@pytest.fixture
def tree(tmp_path):
    """A small spec tree with a nested directory and a failing spec."""
    root = tmp_path / "specs"
    (root / "nested").mkdir(parents=True)
    (root / "a.gcl").write_text(STABLE.format(n="_a"))
    (root / "nested" / "b.gcl").write_text(STABLE.format(n="_b"))
    (root / "broken.gcl").write_text(BROKEN)
    return root


def run_tree(root, tmp_path, capsys, *extra):
    code = main(
        [
            "verify-tree", str(root),
            "--manifest", str(tmp_path / "state" / "manifest.json"),
            *extra,
        ]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDifferential:
    def test_thorough_tree_matches_direct_check_blocks(
        self, tmp_path, capsys
    ):
        """Ring-wide differential: every THOROUGH verify-tree verdict
        block over the shipped example specs is byte-identical to the
        direct ``repro check`` output, concatenated in sorted order."""
        expected = []
        for path in sorted(SPECS_DIR.rglob("*.gcl")):
            main(["check", str(path)])  # exit code irrelevant here
            expected.append(capsys.readouterr().out)
        code, out, err = run_tree(
            SPECS_DIR, tmp_path, capsys, "--tier", "thorough"
        )
        assert out == "".join(expected)
        # btr/c2/c3 genuinely fail self-stabilization under the
        # unfair daemon, so the tree exits 1 — never 2.
        assert code == 1
        assert err.count("[verified]") == 6

    def test_unforced_kstate_6_6_block_matches_direct_check(
        self, tmp_path, capsys
    ):
        """Without ``--tier`` a K-state(6,6) spec (46,656 states) is
        decided exactly: its block is ``repro check`` byte for byte,
        worst-case convergence included."""
        root = tmp_path / "specs"
        root.mkdir()
        spec = root / "kstate_n6_k6.gcl"
        spec.write_text(render_program(kstate_program(6, 6)))
        check_code = main(["check", str(spec)])
        expected = capsys.readouterr().out
        code, out, err = run_tree(root, tmp_path, capsys)
        assert out == expected
        assert code == check_code == 0
        assert "worst-case convergence=39 steps" in out
        assert "tier=thorough" in err

    def test_worker_count_does_not_change_stdout(self, tree, tmp_path, capsys):
        if not parallel_available():
            pytest.skip("no fork start method")
        code_one, out_one, _ = run_tree(
            tree, tmp_path, capsys, "--tier", "thorough"
        )
        # A fresh manifest path forces a second cold run.
        code_two, out_two, _ = run_tree(
            tree, tmp_path / "again", capsys,
            "--tier", "thorough", "--workers", "2",
        )
        assert out_one == out_two
        assert code_one == code_two == 1


class TestIncremental:
    def test_warm_run_replays_byte_identical_with_zero_fixpoints(
        self, tree, tmp_path, capsys
    ):
        cold_code, cold_out, cold_err = run_tree(
            tree, tmp_path, capsys, "--tier", "thorough",
            "--obs-out", str(tmp_path / "cold.jsonl"),
        )
        warm_code, warm_out, warm_err = run_tree(
            tree, tmp_path, capsys, "--tier", "thorough",
            "--obs-out", str(tmp_path / "warm.jsonl"),
        )
        assert warm_out == cold_out
        assert warm_code == cold_code == 1
        assert warm_err.count("[cached]") == 3
        assert "[verified]" not in warm_err
        assert "verified=0 replayed=3" in warm_err

        def counters(path):
            return {
                row["name"]: row["value"]
                for row in load_tagged_lines(path, "counter")
            }

        cold_counters = counters(tmp_path / "cold.jsonl")
        warm_counters = counters(tmp_path / "warm.jsonl")
        assert cold_counters.get("check.fixpoint.iterations", 0) > 0
        # The acceptance criterion: a warm run performs no engine work.
        assert not any(
            name.startswith(("check.", "kernel.")) for name in warm_counters
        )
        assert warm_counters["verify.replayed"] == 3
        assert warm_counters["verify.verified"] == 0

    def test_editing_one_spec_reverifies_only_that_spec(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        # A semantic edit: toy_a now heals to 1 — and stops stabilizing.
        (tree / "a.gcl").write_text(
            STABLE.format(n="_a").replace("x := 0", "x := 1")
        )
        code, out, err = run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        assert err.count("[verified]") == 1
        assert "[verified] a.gcl" in err
        assert err.count("[cached]") == 2

    def test_reformatting_a_spec_stays_cached(self, tree, tmp_path, capsys):
        run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        source = (tree / "a.gcl").read_text()
        (tree / "a.gcl").write_text(
            "# a comment the parser discards\n" + source.replace(":=", " := ")
        )
        _, _, err = run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        assert "[verified]" not in err
        assert err.count("[cached]") == 3

    def test_removed_spec_drops_its_manifest_entry(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        (tree / "broken.gcl").unlink()
        code, out, err = run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        assert "[removed] broken.gcl" in err
        assert code == 0  # only the stabilizing specs remain
        manifest = json.loads(
            (tmp_path / "state" / "manifest.json").read_text()
        )
        assert "broken.gcl" not in manifest["specs"]
        assert set(manifest["specs"]) == {"a.gcl", "nested/b.gcl"}

    def test_fairness_flip_invalidates_the_whole_manifest(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        _, _, err = run_tree(
            tree, tmp_path, capsys, "--tier", "thorough",
            "--fairness", "weak",
        )
        assert err.count("[verified]") == 3
        assert "[cached]" not in err

    def test_forced_tier_change_reverifies_cached_entries(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys, "--tier", "thorough")
        # The stored verdicts answer the THOROUGH question, not the
        # LIGHT one: a different forced tier must re-verify.
        _, _, err = run_tree(tree, tmp_path, capsys, "--tier", "light")
        assert err.count("[verified]") == 3

    def test_unforced_run_reverifies_stored_light_estimates(
        self, tree, tmp_path, capsys
    ):
        """A LIGHT estimate does not answer a run that selects
        THOROUGH: without ``--tier`` it is re-verified exactly, not
        replayed forever."""
        run_tree(tree, tmp_path, capsys, "--tier", "light")
        _, out, err = run_tree(tree, tmp_path, capsys)
        assert err.count("[verified]") == 3
        assert err.count("tier=thorough") == 3
        assert "simulated" not in out

    def test_unforced_run_replays_its_own_thorough_entries(
        self, tree, tmp_path, capsys
    ):
        _, cold, _ = run_tree(tree, tmp_path, capsys)
        _, warm, err = run_tree(tree, tmp_path, capsys)
        assert warm == cold
        assert err.count("[cached]") == 3

    def test_parent_schema_manifest_is_discarded(
        self, tree, tmp_path, capsys
    ):
        """Entries of a version-1 manifest (``standard`` or size-chosen
        ``light`` tiers) are never replayed, even at a matching
        fingerprint."""
        run_tree(tree, tmp_path, capsys)
        path = tmp_path / "state" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["v"] = 1
        for entry in manifest["specs"].values():
            entry.update(tier="standard", text="stale: PARTIAL")
        path.write_text(json.dumps(manifest))
        _, out, err = run_tree(tree, tmp_path, capsys)
        assert err.count("[verified]") == 3
        assert "stale" not in out


class TestCliSurface:
    def test_missing_tree_is_a_usage_error(self, tmp_path, capsys):
        assert main(["verify-tree", str(tmp_path / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_all_passing_tree_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "specs"
        root.mkdir()
        (root / "a.gcl").write_text(STABLE.format(n="_a"))
        assert main(["verify-tree", str(root)]) == 0

    def test_light_tier_marks_verdicts_as_simulated(
        self, tree, tmp_path, capsys
    ):
        code, out, err = run_tree(tree, tmp_path, capsys, "--tier", "light")
        assert "LIGHT tier, simulated" in out
        assert "tier=light" in err

    def test_obs_out_records_tier_selection_events(
        self, tree, tmp_path, capsys
    ):
        run_tree(
            tree, tmp_path, capsys, "--tier", "thorough",
            "--obs-out", str(tmp_path / "obs.jsonl"),
        )
        selections = [
            event
            for event in load_tagged_lines(tmp_path / "obs.jsonl", "event")
            if event["name"] == "tier.select"
        ]
        assert len(selections) == 3
        assert all(
            event["fields"]["tier"] == "thorough" for event in selections
        )
        assert all(
            "forced by --tier" in event["fields"]["reason"]
            for event in selections
        )
        engines = {event["fields"]["engine"] for event in selections}
        assert len(engines) == 1
        assert engines.pop() in selections[0]["fields"]["reason"]
