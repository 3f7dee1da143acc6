"""Unit tests for the verdict store behind :func:`repro.verify_tree.verify_tree`.

verify-tree keeps no store of its own: each spec's verdict is one
:class:`~repro.parallel.VerificationCache` entry under
:func:`~repro.parallel.cache.check_cache_key`, and the tree's path
index is one more entry of the same cache under :func:`index_key`.
These tests pin how that store answers a run: a stored verdict round
trips, one edit or a fairness flip re-keys exactly the specs it
touches, added and removed paths come from the index, and an entry
written under another cache schema is never replayed.
"""

from __future__ import annotations

import io
import json

from repro.gcl.parser import parse_program
from repro.obs import Recorder
from repro.parallel import VerificationCache, check_cache_key
from repro.parallel.cache import CACHE_SCHEMA_VERSION
from repro.verify_tree import index_key, verify_tree

SPEC = """
program toy_{name}
var x : mod 3
action heal :: x != 0 --> x := {target}
init x == 0
"""


def write_spec(root, name, target=0):
    path = root / f"{name}.gcl"
    path.write_text(SPEC.format(name=name, target=target))
    return path


def key_of(path, fairness="none"):
    return check_cache_key(
        parse_program(path.read_text()),
        None,
        fairness=fairness,
        stutter_insensitive=False,
    )


def run(root, cache_dir, **kwargs):
    """One tree run; returns the report and its counters."""
    recorder = Recorder(kind="test")
    report = verify_tree(
        str(root),
        cache_dir=str(cache_dir),
        instrumentation=recorder,
        out=io.StringIO(),
        err=io.StringIO(),
        **kwargs,
    )
    return report, recorder.record().counters


def replayed(report):
    return {outcome.path: outcome.replayed for outcome in report.outcomes}


def rewrite_entry(cache_dir, key, **changes):
    path = cache_dir / key[:2] / f"{key}.json"
    entry = json.loads(path.read_text())
    entry.update(changes)
    path.write_text(json.dumps(entry))


class TestTreeStore:
    def test_stored_verdict_round_trips_through_a_new_cache(self, tmp_path):
        root = tmp_path / "specs"
        root.mkdir()
        spec = write_spec(root, "a")
        report, _ = run(root, tmp_path / "cache")
        (outcome,) = report.outcomes
        assert not outcome.replayed
        stored = VerificationCache(tmp_path / "cache").get(key_of(spec))
        assert stored == {"holds": outcome.holds, "text": outcome.text}

        again, counters = run(root, tmp_path / "cache")
        assert again.outcomes == [
            type(outcome)(outcome.path, True, outcome.holds, outcome.text)
        ]
        assert again.removed == []
        assert "cache.store" not in counters

    def test_fingerprint_move_rekeys_one_spec(self, tmp_path):
        root = tmp_path / "specs"
        root.mkdir()
        a = write_spec(root, "a")
        b = write_spec(root, "b")
        run(root, tmp_path / "cache")
        a_key, b_key = key_of(a), key_of(b)
        write_spec(root, "b", target=1)
        assert key_of(a) == a_key
        assert key_of(b) != b_key
        report, _ = run(root, tmp_path / "cache")
        assert replayed(report) == {"a.gcl": True, "b.gcl": False}

    def test_fairness_change_rekeys_every_spec(self, tmp_path):
        root = tmp_path / "specs"
        root.mkdir()
        specs = [write_spec(root, "a"), write_spec(root, "b", target=1)]
        run(root, tmp_path / "cache")
        for spec in specs:
            assert key_of(spec, "weak") != key_of(spec, "none")
        report, counters = run(root, tmp_path / "cache", fairness="weak")
        assert replayed(report) == {"a.gcl": False, "b.gcl": False}
        assert counters["verify.verified"] == 2
        assert counters.get("verify.replayed", 0) == 0

    def test_index_reports_added_and_removed_paths(self, tmp_path):
        root = tmp_path / "specs"
        root.mkdir()
        gone = write_spec(root, "gone")
        run(root, tmp_path / "cache")
        gone.unlink()
        write_spec(root, "new")
        report, counters = run(root, tmp_path / "cache")
        assert report.removed == ["gone.gcl"]
        assert replayed(report) == {"new.gcl": False}
        assert counters["verify.removed"] == 1
        index = VerificationCache(tmp_path / "cache").get(index_key(root))
        assert index == {"paths": ["new.gcl"]}

    def test_parent_schema_verdicts_are_not_replayed(self, tmp_path):
        """A verdict written under cache schema 2 is drift, not a hit:
        it counts ``cache.stale_schema`` and is verified again, even
        at a matching key."""
        assert CACHE_SCHEMA_VERSION == 3
        root = tmp_path / "specs"
        root.mkdir()
        specs = [write_spec(root, "a"), write_spec(root, "b", target=1)]
        cold, _ = run(root, tmp_path / "cache")
        for spec in specs:
            key = key_of(spec)
            rewrite_entry(
                tmp_path / "cache",
                key,
                v=2,
                payload={"holds": True, "text": "stale: PARTIAL"},
            )
        report, counters = run(root, tmp_path / "cache")
        assert replayed(report) == {"a.gcl": False, "b.gcl": False}
        assert counters["cache.stale_schema"] == 2
        assert [o.text for o in report.outcomes] == [
            o.text for o in cold.outcomes
        ]

    def test_future_schema_index_is_discarded(self, tmp_path):
        """An index under an unknown schema is damage: the run counts
        ``cache.corrupt``, reports no removed paths, keeps its
        verdicts, and rewrites the index."""
        root = tmp_path / "specs"
        root.mkdir()
        gone = write_spec(root, "gone")
        write_spec(root, "kept")
        run(root, tmp_path / "cache")
        rewrite_entry(
            tmp_path / "cache", index_key(root), v=CACHE_SCHEMA_VERSION + 1
        )
        gone.unlink()
        report, counters = run(root, tmp_path / "cache")
        assert report.removed == []
        assert replayed(report) == {"kept.gcl": True}
        assert counters["cache.corrupt"] == 1
        index = VerificationCache(tmp_path / "cache").get(index_key(root))
        assert index == {"paths": ["kept.gcl"]}
