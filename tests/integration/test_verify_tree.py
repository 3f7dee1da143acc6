"""Integration tests for ``repro verify-tree`` incremental verification.

The acceptance contract under test: a tree run produces exactly the
verdict blocks that direct ``repro check`` invocations produce, in
sorted path order; a warm re-run replays every verdict from the
verification cache byte for byte while running **zero** engine
fixpoints; editing one spec re-verifies only that spec; a spec that
leaves the tree is reported removed; a damaged entry is recomputed,
never served; ``repro check --cache-dir`` and ``verify-tree`` share
entries; and worker counts never change stdout.
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
from repro.verify_tree import index_key

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
        ["verify-tree", str(root), "--cache-dir", str(cache_dir(tmp_path)), *extra]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cache_dir(tmp_path):
    return tmp_path / "state"


def entry_files(tmp_path):
    return sorted(cache_dir(tmp_path).glob("*/*.json"))


def counters(path):
    return {
        row["name"]: row["value"] for row in load_tagged_lines(path, "counter")
    }


class TestDifferential:
    def test_thorough_tree_matches_direct_check_blocks(
        self, tmp_path, capsys
    ):
        """Ring-wide differential: every verify-tree verdict block over
        the shipped example specs is byte-identical to the direct
        ``repro check`` output, concatenated in sorted order."""
        expected = []
        for path in sorted(SPECS_DIR.rglob("*.gcl")):
            main(["check", str(path)])  # exit code irrelevant here
            expected.append(capsys.readouterr().out)
        code, out, err = run_tree(SPECS_DIR, tmp_path, capsys)
        assert out == "".join(expected)
        # btr/c2/c3 genuinely fail self-stabilization under the
        # unfair daemon, so the tree exits 1 — never 2.
        assert code == 1
        assert err.count("[verified]") == 6

    def test_kstate_6_6_block_matches_direct_check(self, tmp_path, capsys):
        """A K-state(6,6) spec (46,656 states) is decided exactly: its
        block is ``repro check`` byte for byte, worst-case convergence
        included."""
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
        assert "[verified] kstate_n6_k6.gcl\n" in err

    def test_worker_count_does_not_change_stdout(self, tree, tmp_path, capsys):
        if not parallel_available():
            pytest.skip("no fork start method")
        code_one, out_one, _ = run_tree(tree, tmp_path, capsys)
        # A fresh cache directory forces a second cold run.
        code_two, out_two, err_two = run_tree(
            tree, tmp_path / "again", capsys, "--workers", "2"
        )
        assert err_two.count("[verified]") == 3
        assert out_one == out_two
        assert code_one == code_two == 1


class TestIncremental:
    def test_warm_run_replays_byte_identical_with_zero_fixpoints(
        self, tree, tmp_path, capsys
    ):
        cold_code, cold_out, cold_err = run_tree(
            tree, tmp_path, capsys, "--obs-out", str(tmp_path / "cold.jsonl")
        )
        warm_code, warm_out, warm_err = run_tree(
            tree, tmp_path, capsys, "--obs-out", str(tmp_path / "warm.jsonl")
        )
        assert warm_out == cold_out
        assert warm_code == cold_code == 1
        assert warm_err.count("[cached]") == 3
        assert "[verified]" not in warm_err
        assert "verified=0 replayed=3" in warm_err

        cold_counters = counters(tmp_path / "cold.jsonl")
        warm_counters = counters(tmp_path / "warm.jsonl")
        assert cold_counters.get("check.fixpoint.iterations", 0) > 0
        # The acceptance criterion: a warm run performs no engine work.
        assert not any(
            name.startswith(("check.", "kernel.")) for name in warm_counters
        )
        assert warm_counters["verify.replayed"] == 3
        assert warm_counters["verify.verified"] == 0
        # Three verdicts and the path index, all read back.
        assert warm_counters["cache.hit"] == 4
        assert "cache.store" not in warm_counters

    def test_editing_one_spec_reverifies_only_that_spec(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys)
        # A semantic edit: toy_a now heals to 1 — and stops stabilizing.
        (tree / "a.gcl").write_text(
            STABLE.format(n="_a").replace("x := 0", "x := 1")
        )
        code, out, err = run_tree(tree, tmp_path, capsys)
        assert err.count("[verified]") == 1
        assert "[verified] a.gcl" in err
        assert err.count("[cached]") == 2

    def test_engine_change_replays_the_stored_verdicts(
        self, tree, tmp_path, capsys
    ):
        """The engine is not part of the key: a run on another engine
        replays what the first run stored, byte for byte."""
        _, cold, _ = run_tree(tree, tmp_path, capsys)
        _, warm, err = run_tree(tree, tmp_path, capsys, "--engine", "tuple")
        assert warm == cold
        assert err.count("[cached]") == 3
        assert "[verified]" not in err

    def test_reformatting_a_spec_stays_cached(self, tree, tmp_path, capsys):
        run_tree(tree, tmp_path, capsys)
        source = (tree / "a.gcl").read_text()
        (tree / "a.gcl").write_text(
            "# a comment the parser discards\n" + source.replace(":=", " := ")
        )
        _, _, err = run_tree(tree, tmp_path, capsys)
        assert "[verified]" not in err
        assert err.count("[cached]") == 3

    def test_removed_spec_is_marked_once_from_the_path_index(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys)
        (tree / "broken.gcl").unlink()
        code, out, err = run_tree(tree, tmp_path, capsys)
        assert "[removed] broken.gcl" in err
        assert "removed=1" in err
        assert code == 0  # only the stabilizing specs remain
        _, _, err = run_tree(tree, tmp_path, capsys)
        assert "[removed]" not in err

    def test_fairness_flip_rekeys_and_flip_back_replays(
        self, tree, tmp_path, capsys
    ):
        _, cold, _ = run_tree(tree, tmp_path, capsys)
        _, _, err = run_tree(tree, tmp_path, capsys, "--fairness", "weak")
        assert err.count("[verified]") == 3
        assert "[cached]" not in err
        _, back, err = run_tree(tree, tmp_path, capsys)
        assert err.count("[cached]") == 3
        assert "[verified]" not in err
        assert back == cold

    def test_stale_schema_entries_are_reverified(self, tree, tmp_path, capsys):
        """A verdict stored under an older cache schema is never
        replayed, even at a matching key."""
        _, cold, _ = run_tree(tree, tmp_path, capsys)
        for path in entry_files(tmp_path):
            entry = json.loads(path.read_text())
            entry["v"] = 2
            if "text" in entry["payload"]:
                entry["payload"]["text"] = "stale: PARTIAL"
            path.write_text(json.dumps(entry))
        _, out, err = run_tree(tree, tmp_path, capsys)
        assert err.count("[verified]") == 3
        assert out == cold


class TestCacheStore:
    def test_flipped_payload_counts_corrupt_and_is_recomputed(
        self, tree, tmp_path, capsys
    ):
        """A flipped byte in a stored verdict fails its digest: the
        entry counts ``cache.corrupt``, is re-verified, and is
        rewritten to the same bytes."""
        run_tree(tree, tmp_path, capsys)
        target = next(
            path for path in entry_files(tmp_path)
            if "holds" in json.loads(path.read_text())["payload"]
        )
        original = target.read_bytes()
        entry = json.loads(original)
        entry["payload"]["holds"] = not entry["payload"]["holds"]
        target.write_text(json.dumps(entry, sort_keys=True))
        code, _, err = run_tree(
            tree, tmp_path, capsys, "--obs-out", str(tmp_path / "obs.jsonl")
        )
        assert err.count("[verified]") == 1
        assert counters(tmp_path / "obs.jsonl")["cache.corrupt"] == 1
        assert target.read_bytes() == original
        assert code == 1

    def test_damaged_index_costs_only_the_removed_markers(
        self, tree, tmp_path, capsys
    ):
        _, cold, _ = run_tree(tree, tmp_path, capsys)
        key = index_key(tree)
        index = cache_dir(tmp_path) / key[:2] / f"{key}.json"
        index.write_text("not json at all")
        (tree / "broken.gcl").unlink()
        code, out, err = run_tree(
            tree, tmp_path, capsys, "--obs-out", str(tmp_path / "obs.jsonl")
        )
        assert "[removed]" not in err
        assert err.count("[cached]") == 2
        assert code == 0
        assert counters(tmp_path / "obs.jsonl")["cache.corrupt"] == 1
        # The run rewrote the index, so the next run reads it cleanly.
        (tree / "a.gcl").unlink()
        _, _, err = run_tree(tree, tmp_path, capsys)
        assert "[removed] a.gcl" in err

    def test_check_hits_the_store_verify_tree_filled(
        self, tree, tmp_path, capsys
    ):
        for fairness in ("none", "strong"):
            run_tree(tree, tmp_path, capsys, "--fairness", fairness)
            code = main(
                [
                    "check", str(tree / "broken.gcl"),
                    "--fairness", fairness,
                    "--cache-dir", str(cache_dir(tmp_path)),
                ]
            )
            captured = capsys.readouterr()
            assert "verification cache: hit" in captured.err
            assert code == 1

    def test_verify_tree_replays_what_check_stored(
        self, tree, tmp_path, capsys
    ):
        main(
            [
                "check", str(tree / "a.gcl"),
                "--cache-dir", str(cache_dir(tmp_path)),
            ]
        )
        expected = capsys.readouterr().out
        _, out, err = run_tree(tree, tmp_path, capsys)
        assert "[cached] a.gcl" in err
        assert out.startswith(expected)

    def test_default_cache_lives_under_the_tree(self, tree, capsys):
        main(["verify-tree", str(tree)])
        capsys.readouterr()
        assert any((tree / ".repro-verify").glob("*/*.json"))
        main(["verify-tree", str(tree)])
        assert capsys.readouterr().err.count("[cached]") == 3


class TestCliSurface:
    def test_missing_tree_is_a_usage_error(self, tmp_path, capsys):
        assert main(["verify-tree", str(tmp_path / "nowhere")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_all_passing_tree_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "specs"
        root.mkdir()
        (root / "a.gcl").write_text(STABLE.format(n="_a"))
        assert main(["verify-tree", str(root)]) == 0

    @pytest.mark.parametrize("flag", ["--tier", "--manifest", "--seed"])
    def test_retired_flags_are_usage_errors(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify-tree", str(tmp_path), flag, "x"])
        assert exit_info.value.code == 2

    def test_obs_out_records_the_summary_without_tier_fields(
        self, tree, tmp_path, capsys
    ):
        run_tree(tree, tmp_path, capsys, "--obs-out", str(tmp_path / "obs.jsonl"))
        events = load_tagged_lines(tmp_path / "obs.jsonl", "event")
        assert not any(event["name"].startswith("tier.") for event in events)
        summary = [event for event in events if event["name"] == "verify.summary"]
        assert len(summary) == 1
        assert "params_changed" not in summary[0]["fields"]
        assert summary[0]["fields"]["verified"] == 3
