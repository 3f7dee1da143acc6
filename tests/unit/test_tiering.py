"""Unit tests for tier selection and the verification manifest.

The contract under test: a spec runs THOROUGH, on the engine the
reason names, unless a forced ``--tier`` asks otherwise; a forced
LIGHT runs THOROUGH where the sampler is structurally unavailable; the
manifest survives damage by starting empty (advisory data never breaks
a run); and the LIGHT Monte-Carlo estimate is a pure function of its
seed.
"""

from __future__ import annotations

import json

import pytest

from repro.gcl.parser import parse_program
from repro.obs import Recorder
from repro.parallel import program_fingerprint
from repro.rings import kstate_program
from repro.tiering import (
    MANIFEST_SCHEMA_VERSION,
    Manifest,
    ManifestEntry,
    Tier,
    light_convergence_estimate,
    select_tier,
    tier_for,
)

TOY = """
program toy
var x : mod 3
action heal :: x != 0 --> x := 0
init x == 0
"""

# Three mod-4096 variables: 2^36 states, far above the packed-engine
# ceiling, so the LIGHT sampler cannot intern this schema.  The size
# is computed from the domains, never enumerated, so the program is
# free to construct.
UNPACKABLE = """
program big
var a : mod 4096
var b : mod 4096
var c : mod 4096
action t :: a != 0 --> a := 0
init a == 0
"""


# The 12-state out-of-domain spec: no initial state (``y`` starts at
# 1), so every sampled trajectory starts at a uniform code, and ``a1``
# drives ``x`` past 2 wherever ``x == 2``.
OVERFLOW = """
program overflow
var y : 1..4
var x : 0..2
init y == 0 && x == 0
action a0 :: x == 2 --> x := 1, y := y + 1
action a1 :: x < 5 --> x := x + 1
action a2 :: y == 0 --> x := 0
"""


def toy():
    return parse_program(TOY)


class TestSelection:
    def test_unforced_spec_is_thorough(self):
        decision = select_tier(toy())
        assert decision.tier is Tier.THOROUGH
        assert decision.states == 3
        assert decision.engine in decision.reason

    def test_kstate_7_7_is_exact_on_vector(self):
        """823,543 states: past every old size threshold, yet vector
        decides it exactly in well under a second."""
        decision = select_tier(kstate_program(7, 7))
        assert decision.tier is Tier.THOROUGH
        assert decision.engine == "vector"
        assert "vector" in decision.reason

    def test_huge_unpackable_spec_is_thorough_on_tuple(self):
        """Only the tuple engine reaches a schema past the interner
        ceiling, so that is where the exact check runs."""
        decision = select_tier(parse_program(UNPACKABLE))
        assert decision.tier is Tier.THOROUGH
        assert decision.engine == "tuple"
        assert "tuple" in decision.reason

    def test_reason_names_the_engine_of_the_request(self):
        decision = select_tier(toy(), engine="tuple")
        assert decision.engine == "tuple"
        assert "tuple" in decision.reason


class TestForcedTier:
    def test_forced_light_runs_light(self):
        decision = select_tier(toy(), forced=Tier.LIGHT)
        assert decision.tier is Tier.LIGHT
        assert decision.engine is None
        assert "forced" in decision.reason

    def test_forced_thorough_names_its_engine(self):
        decision = select_tier(toy(), forced=Tier.THOROUGH)
        assert decision.tier is Tier.THOROUGH
        assert "forced" in decision.reason
        assert decision.engine in decision.reason

    def test_forced_light_on_unpackable_schema_degrades_to_thorough(self):
        decision = select_tier(parse_program(UNPACKABLE), forced=Tier.LIGHT)
        assert decision.tier is Tier.THOROUGH
        assert "sampler unavailable" in decision.reason
        assert decision.engine == "tuple"

    def test_tier_for_agrees_with_select_tier(self):
        for program in (toy(), parse_program(UNPACKABLE)):
            for forced in (None, Tier.LIGHT, Tier.THOROUGH):
                assert (
                    tier_for(program, forced)
                    is select_tier(program, forced=forced).tier
                )


class TestSelectionTelemetry:
    def test_decision_emits_reasoned_event_and_counter(self):
        recorder = Recorder(kind="test")
        decision = select_tier(
            toy(), label="specs/toy.gcl", instrumentation=recorder
        )
        record = recorder.record()
        assert record.counters["tier.select.thorough"] == 1
        events = [e for e in record.events if e.name == "tier.select"]
        assert len(events) == 1
        fields = events[0].fields
        assert fields["spec"] == "specs/toy.gcl"
        assert fields["tier"] == "thorough"
        assert fields["engine"] == decision.engine
        assert fields["states"] == 3
        assert fields["forced"] is None
        assert fields["reason"] == decision.reason


class TestManifest:
    PARAMS = {"fairness": "none", "seed": 0}

    def entry(self, fingerprint="f1", tier="thorough"):
        return ManifestEntry(
            fingerprint=fingerprint, tier=tier, holds=True, text="toy: HOLDS"
        )

    def test_round_trip_and_diff_unchanged(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = Manifest(path)
        manifest.store("a.gcl", self.entry(), self.PARAMS)
        manifest.save()
        reloaded = Manifest(path)
        diff = reloaded.diff({"a.gcl": "f1"}, self.PARAMS)
        assert diff.unchanged == ["a.gcl"]
        assert not diff.changed and not diff.added and not diff.removed
        assert not diff.params_changed

    def test_fingerprint_move_invalidates_one_entry(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.json")
        manifest.store("a.gcl", self.entry(), self.PARAMS)
        manifest.store("b.gcl", self.entry("f2"), self.PARAMS)
        diff = manifest.diff({"a.gcl": "f1", "b.gcl": "moved"}, self.PARAMS)
        assert diff.unchanged == ["a.gcl"]
        assert diff.changed == ["b.gcl"]

    def test_params_change_invalidates_every_entry(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.json")
        manifest.store("a.gcl", self.entry(), self.PARAMS)
        diff = manifest.diff({"a.gcl": "f1"}, {"fairness": "weak", "seed": 0})
        assert diff.params_changed
        assert diff.changed == ["a.gcl"]
        assert not diff.unchanged

    def test_added_and_removed_paths(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.json")
        manifest.store("gone.gcl", self.entry(), self.PARAMS)
        diff = manifest.diff({"new.gcl": "f9"}, self.PARAMS)
        assert diff.added == ["new.gcl"]
        assert diff.removed == ["gone.gcl"]

    def test_empty_manifest_never_reports_params_changed(self, tmp_path):
        manifest = Manifest(tmp_path / "manifest.json")
        diff = manifest.diff({"a.gcl": "f1"}, self.PARAMS)
        assert not diff.params_changed
        assert diff.added == ["a.gcl"]

    def test_damaged_file_starts_empty_and_flags_stale(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("not json at all", encoding="utf-8")
        manifest = Manifest(path)
        assert len(manifest) == 0
        assert manifest.stale

    def test_parent_schema_standard_entries_are_discarded(self, tmp_path):
        """Version 1 stored ``standard`` and size-chosen ``light``
        verdicts; none of them answers a version-2 run."""
        assert MANIFEST_SCHEMA_VERSION == 2
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "v": 1,
                    "params": dict(self.PARAMS),
                    "specs": {
                        "a.gcl": self.entry(tier="standard").to_payload(),
                        "b.gcl": self.entry(tier="light").to_payload(),
                    },
                }
            ),
            encoding="utf-8",
        )
        manifest = Manifest(path)
        assert len(manifest) == 0
        assert manifest.stale

    def test_schema_bump_discards_the_whole_file(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "v": MANIFEST_SCHEMA_VERSION + 1,
                    "params": {},
                    "specs": {"a.gcl": self.entry().to_payload()},
                }
            ),
            encoding="utf-8",
        )
        manifest = Manifest(path)
        assert len(manifest) == 0
        assert manifest.stale

    def test_one_bad_entry_costs_only_itself(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            json.dumps(
                {
                    "v": MANIFEST_SCHEMA_VERSION,
                    "params": dict(self.PARAMS),
                    "specs": {
                        "good.gcl": self.entry().to_payload(),
                        "bad.gcl": {"fingerprint": "f2"},  # missing fields
                    },
                }
            ),
            encoding="utf-8",
        )
        manifest = Manifest(path)
        assert manifest.entry("good.gcl") is not None
        assert manifest.entry("bad.gcl") is None
        assert not manifest.stale


class TestLightEstimate:
    def test_estimate_is_deterministic_for_a_seed(self):
        program = toy()
        first = light_convergence_estimate(program, seed=11)
        second = light_convergence_estimate(program, seed=11)
        assert first == second

    def test_stabilizing_toy_likely_holds(self):
        verdict = light_convergence_estimate(toy(), seed=0)
        assert verdict.holds
        assert "LIKELY HOLDS" in verdict.format()
        assert "simulated" in verdict.format()

    def test_counters_flow_to_instrumentation(self):
        recorder = Recorder(kind="test")
        verdict = light_convergence_estimate(
            toy(), samples=16, seed=3, instrumentation=recorder
        )
        record = recorder.record()
        assert record.counters["tier.light.samples"] == 16
        assert record.counters["tier.light.converged"] == verdict.converged

    def test_out_of_domain_move_raises_on_both_executors(self, monkeypatch):
        """Neither executor steps through a move that leaves the domain:
        both raise the compiler's error for the first live trajectory
        that makes one, so the messages are identical."""
        from repro.core.errors import GCLError
        from repro.tiering import montecarlo

        program = parse_program(OVERFLOW)
        if montecarlo.batch_sampler_unavailable_reason(program) is not None:
            pytest.skip("the batch executor needs NumPy")
        with pytest.raises(GCLError) as batch:
            light_convergence_estimate(program, seed=0)
        monkeypatch.setattr(
            montecarlo,
            "batch_sampler_unavailable_reason",
            lambda program: "scalar executor under test",
        )
        with pytest.raises(GCLError) as scalar:
            light_convergence_estimate(program, seed=0)
        assert str(batch.value) == str(scalar.value)
        assert "drive the state out of domain" in str(scalar.value)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            light_convergence_estimate(toy(), samples=0)
        with pytest.raises(ValueError):
            light_convergence_estimate(toy(), horizon=0)

    def test_fingerprint_semantics_integration(self):
        # The manifest key combines the canonical fingerprint with the
        # check semantics; sanity-check the pieces compose.
        fp_none = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "none"}
        )
        fp_weak = program_fingerprint(
            TOY, semantics={"keep_stutter": True, "fairness": "weak"}
        )
        assert fp_none != fp_weak
