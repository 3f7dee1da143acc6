"""Unit tests for the content-addressed verification cache.

The contract: reformatting a program (whitespace, comments) must not
change its fingerprint; any semantic edit must; cache keys separate
checks by kind and parameters but never by execution-only knobs; and
the store survives corrupt entries by treating them as misses.
"""

from __future__ import annotations

from repro.obs import Recorder
from repro.parallel import (
    VerificationCache,
    cache_key,
    canonical_program_text,
    check_cache_key,
    program_fingerprint,
)
from repro.gcl.parser import parse_program

TOY = """
program toy
var x : mod 3
action heal :: x != 0 --> x := 0
init x == 0
"""

# The same program, reformatted: comments, blank lines, extra spaces.
TOY_REFORMATTED = """
# a comment the parser discards
program toy

var x    : mod 3

# another comment
action heal ::   x != 0   -->   x := 0
init   x == 0
"""

# One semantic edit: the action heals to 1, not 0.
TOY_EDITED = """
program toy
var x : mod 3
action heal :: x != 0 --> x := 1
init x == 0
"""


class TestFingerprint:
    def test_reformatting_does_not_change_the_fingerprint(self):
        assert program_fingerprint(TOY) == program_fingerprint(TOY_REFORMATTED)

    def test_semantic_edit_changes_the_fingerprint(self):
        assert program_fingerprint(TOY) != program_fingerprint(TOY_EDITED)

    def test_canonical_text_is_a_fixed_point(self):
        canonical = canonical_program_text(TOY)
        assert canonical_program_text(canonical) == canonical

    def test_parsed_program_and_source_agree(self):
        from repro.gcl.parser import parse_program

        assert program_fingerprint(parse_program(TOY)) == program_fingerprint(
            TOY
        )

    def test_keep_stutter_flip_changes_the_fingerprint(self):
        """Regression: the same source compiled under different
        semantics (keep_stutter, fairness) is a different transition
        system — under the old scheme both hashed identically and a
        cached verdict for one could be served for the other."""
        kept = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "none"}
        )
        dropped = program_fingerprint(
            TOY, semantics={"keep_stutter": False, "fairness": "none"}
        )
        assert kept != dropped

    def test_fairness_mode_changes_the_fingerprint(self):
        none = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "none"}
        )
        strong = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "strong"}
        )
        assert none != strong

    def test_semantics_mapping_order_is_canonical(self):
        a = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "none"}
        )
        b = program_fingerprint(
            TOY, semantics={"fairness": "none", "keep_stutter": True}
        )
        assert a == b

    def test_bare_fingerprint_differs_from_semantics_fingerprint(self):
        bare = program_fingerprint(TOY)
        tagged = program_fingerprint(TOY, semantics={"keep_stutter": True})
        assert bare != tagged
        assert program_fingerprint(TOY, semantics={}) == bare


class TestCacheKey:
    FP = program_fingerprint(TOY)

    def test_key_is_stable(self):
        params = {"fairness": "none", "stutter_insensitive": False}
        assert cache_key("check", [self.FP], params) == cache_key(
            "check", [self.FP], params
        )

    def test_key_ignores_param_order(self):
        a = cache_key("check", [self.FP], {"a": 1, "b": 2})
        b = cache_key("check", [self.FP], {"b": 2, "a": 1})
        assert a == b

    def test_key_separates_kinds_params_and_fingerprints(self):
        base = cache_key("check", [self.FP], {"fairness": "none"})
        assert cache_key("refines", [self.FP], {"fairness": "none"}) != base
        assert cache_key("check", [self.FP], {"fairness": "weak"}) != base
        other = program_fingerprint(TOY_EDITED)
        assert cache_key("check", [other], {"fairness": "none"}) != base

    def test_fingerprint_role_order_matters(self):
        other = program_fingerprint(TOY_EDITED)
        assert cache_key("refines", [self.FP, other], {}) != cache_key(
            "refines", [other, self.FP], {}
        )


class TestCheckCacheKey:
    """One key derivation for ``repro check`` and ``verify-tree``."""

    def key(self, spec=None, fairness="none", stutter_insensitive=False):
        return check_cache_key(
            parse_program(TOY),
            parse_program(spec) if spec is not None else None,
            fairness=fairness,
            stutter_insensitive=stutter_insensitive,
        )

    def test_self_check_key_is_the_check_kind_over_semantic_fingerprints(self):
        semantics = {"keep_stutter": True, "fairness": "weak"}
        expected = cache_key(
            "check",
            [program_fingerprint(TOY, semantics=semantics)],
            {"fairness": "weak", "stutter_insensitive": False, "self": True},
        )
        assert self.key(fairness="weak") == expected

    def test_spec_adds_its_fingerprint_in_role_order(self):
        semantics = {"keep_stutter": True, "fairness": "none"}
        expected = cache_key(
            "check",
            [
                program_fingerprint(TOY, semantics=semantics),
                program_fingerprint(TOY_EDITED, semantics=semantics),
            ],
            {"fairness": "none", "stutter_insensitive": True, "self": False},
        )
        assert self.key(TOY_EDITED, stutter_insensitive=True) == expected

    def test_every_verdict_parameter_moves_the_key(self):
        keys = {
            self.key(),
            self.key(fairness="weak"),
            self.key(fairness="strong"),
            self.key(stutter_insensitive=True),
            self.key(TOY),
        }
        assert len(keys) == 5

    def test_reformatting_keeps_the_key(self):
        assert self.key() == check_cache_key(
            parse_program(TOY_REFORMATTED),
            None,
            fairness="none",
            stutter_insensitive=False,
        )


class TestVerificationCache:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = VerificationCache(tmp_path / "cache")
        key = cache_key("check", [program_fingerprint(TOY)], {})
        assert cache.get(key) is None
        cache.put(key, {"holds": True, "text": "toy: HOLDS"})
        assert cache.get(key) == {"holds": True, "text": "toy: HOLDS"}
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        cache = VerificationCache(root)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        cache.put(key, {"holds": True})
        path = root / key[:2] / f"{key}.json"
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        root = tmp_path / "cache"
        cache = VerificationCache(root)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        path = root / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"v": 0, "payload": {"holds": true}}', "utf-8")
        assert cache.get(key) is None

    def test_counters_flow_to_instrumentation(self, tmp_path):
        recorder = Recorder(kind="test")
        cache = VerificationCache(tmp_path / "cache", recorder)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        cache.get(key)
        cache.put(key, {"holds": False})
        cache.get(key)
        record = recorder.record()
        assert record.counters["cache.miss"] == 1
        assert record.counters["cache.store"] == 1
        assert record.counters["cache.hit"] == 1

    def test_empty_cache_has_length_zero(self, tmp_path):
        assert len(VerificationCache(tmp_path / "nonexistent")) == 0


class TestCacheIntegrity:
    """Digest-verified entries: damage reads as a miss, never a verdict."""

    def _entry_path(self, root, key):
        return root / key[:2] / f"{key}.json"

    def test_bit_flipped_entry_is_a_corrupt_miss(self, tmp_path):
        """Regression: flip one byte inside the stored payload.  The
        JSON may still parse, so only the digest check catches it —
        the entry must read as a miss and count ``cache.corrupt``."""
        root = tmp_path / "cache"
        recorder = Recorder(kind="test")
        cache = VerificationCache(root, recorder)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        cache.put(key, {"holds": True, "text": "toy: HOLDS"})
        path = self._entry_path(root, key)
        data = bytearray(path.read_bytes())
        # Flip a bit inside the payload text, not the JSON structure.
        flip_at = data.index(b"HOLDS")
        data[flip_at] ^= 0x01
        path.write_bytes(bytes(data))
        assert cache.get(key) is None
        counters = recorder.record().counters
        assert counters["cache.corrupt"] == 1
        assert counters["cache.miss"] == 1

    def test_recompute_overwrites_the_corrupt_entry(self, tmp_path):
        root = tmp_path / "cache"
        cache = VerificationCache(root)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        cache.put(key, {"holds": True})
        path = self._entry_path(root, key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        assert cache.get(key) is None
        cache.put(key, {"holds": True})
        assert cache.get(key) == {"holds": True}

    def test_missing_file_is_a_plain_miss_not_corruption(self, tmp_path):
        recorder = Recorder(kind="test")
        cache = VerificationCache(tmp_path / "cache", recorder)
        assert cache.get("00" + "a" * 62) is None
        counters = recorder.record().counters
        assert counters["cache.miss"] == 1
        assert "cache.corrupt" not in counters

    def test_key_mismatch_is_corrupt(self, tmp_path):
        """An entry filed under the wrong address (a botched copy, a
        renamed file) must not be served for the address it sits at."""
        root = tmp_path / "cache"
        cache = VerificationCache(root)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        other = cache_key("check", [program_fingerprint(TOY_EDITED)], {})
        cache.put(key, {"holds": True})
        good = self._entry_path(root, key)
        moved = self._entry_path(root, other)
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_bytes(good.read_bytes())
        assert cache.get(other) is None

    def test_version_2_entry_reads_as_stale_schema_not_corrupt(self, tmp_path):
        """A well-formed entry from before the digest field (schema v2)
        is drift left behind by an upgrade, not damage: it misses with
        ``cache.stale_schema`` and never touches ``cache.corrupt``."""
        root = tmp_path / "cache"
        recorder = Recorder(kind="test")
        cache = VerificationCache(root, recorder)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        path = self._entry_path(root, key)
        path.parent.mkdir(parents=True)
        path.write_text(
            '{"v": 2, "key": "%s", "payload": {"holds": true}}' % key,
            encoding="utf-8",
        )
        assert cache.get(key) is None
        record = recorder.record()
        assert record.counters["cache.stale_schema"] == 1
        assert record.counters["cache.miss"] == 1
        assert "cache.corrupt" not in record.counters
        stale = [e for e in record.events if e.name == "cache.stale_schema"]
        assert [e.fields.get("found") for e in stale] == [2]
        assert [e.fields.get("expected") for e in stale] == [3]

    def test_unknown_future_schema_is_still_corrupt_drift(self, tmp_path):
        """An unknown (e.g. future) schema version is not a *known*
        older layout, so it keeps the conservative corrupt marker."""
        root = tmp_path / "cache"
        recorder = Recorder(kind="test")
        cache = VerificationCache(root, recorder)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        path = self._entry_path(root, key)
        path.parent.mkdir(parents=True)
        path.write_text(
            '{"v": 99, "key": "%s", "payload": {"holds": true}}' % key,
            encoding="utf-8",
        )
        assert cache.get(key) is None
        record = recorder.record()
        assert "cache.stale_schema" not in record.counters
        events = [
            event.fields.get("reason")
            for event in record.events
            if event.name == "cache.corrupt"
        ]
        assert events == ["schema-drift"]

    def test_stale_v1_entry_with_wrong_key_is_corrupt(self, tmp_path):
        """Old-schema leniency does not extend to a mis-filed entry."""
        root = tmp_path / "cache"
        recorder = Recorder(kind="test")
        cache = VerificationCache(root, recorder)
        key = cache_key("check", [program_fingerprint(TOY)], {})
        path = self._entry_path(root, key)
        path.parent.mkdir(parents=True)
        path.write_text(
            '{"v": 1, "key": "somewhere-else", "payload": {"holds": true}}',
            encoding="utf-8",
        )
        assert cache.get(key) is None
        record = recorder.record()
        assert "cache.stale_schema" not in record.counters
        assert record.counters["cache.corrupt"] == 1

    def test_digest_is_order_insensitive(self):
        from repro.parallel.cache import payload_digest

        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )
