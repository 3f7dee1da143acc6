"""Unit tests for adaptive tier selection and its persistence.

The contract under test: the size rule respects its thresholds at the
exact boundaries; risky history promotes to THOROUGH and a clean
streak demotes one tier; a forced ``--tier`` wins except where the
LIGHT sampler is structurally unavailable; the ledger and manifest
survive damage by starting empty (advisory data never breaks a run);
and the LIGHT Monte-Carlo estimate is a pure function of its seed.
"""

from __future__ import annotations

import json

import pytest

from repro.gcl.parser import parse_program
from repro.obs import Recorder
from repro.parallel import program_fingerprint
from repro.tiering import (
    DEFAULT_THRESHOLDS,
    LEDGER_SCHEMA_VERSION,
    MANIFEST_SCHEMA_VERSION,
    MAX_OUTCOMES,
    Manifest,
    ManifestEntry,
    RiskLedger,
    Tier,
    TierThresholds,
    light_convergence_estimate,
    select_tier,
    spec_cells,
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


def clean(n):
    """A history of n clean passes."""
    return [{"holds": True, "partial": False, "tier": "thorough"}] * n


class TestSpecCells:
    def test_cells_are_states_times_actions_plus_vars(self):
        program = toy()
        # 3 states, 1 action + 1 variable.
        assert spec_cells(program) == 3 * 2

    def test_thresholds_validate(self):
        with pytest.raises(ValueError):
            TierThresholds(thorough_max_cells=0)
        with pytest.raises(ValueError):
            TierThresholds(thorough_max_cells=100, light_min_cells=100)
        with pytest.raises(ValueError):
            TierThresholds(standard_state_budget=0)
        with pytest.raises(ValueError):
            TierThresholds(risk_window=0)


class TestSizeRule:
    """Boundary behaviour of the purely size-based base tier."""

    def test_at_the_thorough_ceiling_is_thorough(self):
        # toy() has exactly 6 cells; a ceiling of 6 includes it.
        thresholds = TierThresholds(thorough_max_cells=6, light_min_cells=7)
        decision = select_tier(toy(), thresholds=thresholds)
        assert decision.tier is Tier.THOROUGH
        assert decision.base is Tier.THOROUGH

    def test_one_past_the_ceiling_is_standard(self):
        thresholds = TierThresholds(thorough_max_cells=5, light_min_cells=7)
        decision = select_tier(toy(), thresholds=thresholds)
        assert decision.tier is Tier.STANDARD
        assert decision.base is Tier.STANDARD

    def test_at_the_light_floor_is_light(self):
        thresholds = TierThresholds(thorough_max_cells=5, light_min_cells=6)
        decision = select_tier(toy(), thresholds=thresholds)
        assert decision.tier is Tier.LIGHT
        assert decision.base is Tier.LIGHT

    def test_default_thresholds_put_the_toy_in_thorough(self):
        decision = select_tier(toy())
        assert decision.tier is Tier.THOROUGH
        assert decision.cells == 6
        assert decision.states == 3


class TestHistoryRules:
    STANDARD = TierThresholds(thorough_max_cells=5, light_min_cells=100)

    def test_recent_failure_promotes_to_thorough(self):
        history = clean(3) + [
            {"holds": False, "partial": False, "tier": "standard"}
        ]
        decision = select_tier(
            toy(), history=history, thresholds=self.STANDARD
        )
        assert decision.tier is Tier.THOROUGH
        assert decision.base is Tier.STANDARD
        assert "failed" in decision.reason

    def test_recent_partial_promotes_to_thorough(self):
        history = [{"holds": True, "partial": True, "tier": "standard"}]
        decision = select_tier(
            toy(), history=history, thresholds=self.STANDARD
        )
        assert decision.tier is Tier.THOROUGH
        assert "PARTIAL" in decision.reason

    def test_verdict_flap_promotes_to_thorough(self):
        history = [
            {"holds": False, "partial": False, "tier": "thorough"},
            {"holds": True, "partial": False, "tier": "thorough"},
        ]
        decision = select_tier(
            toy(), history=history, thresholds=self.STANDARD
        )
        assert decision.tier is Tier.THOROUGH

    def test_old_failure_outside_the_window_is_forgiven(self):
        thresholds = TierThresholds(
            thorough_max_cells=5, light_min_cells=100,
            risk_window=2, demote_streak=50,
        )
        history = [
            {"holds": False, "partial": False, "tier": "standard"}
        ] + clean(2)
        decision = select_tier(toy(), history=history, thresholds=thresholds)
        assert decision.tier is Tier.STANDARD

    def test_clean_streak_demotes_one_tier(self):
        thresholds = TierThresholds(
            thorough_max_cells=5, light_min_cells=100, demote_streak=3
        )
        decision = select_tier(
            toy(), history=clean(3), thresholds=thresholds
        )
        assert decision.base is Tier.STANDARD
        assert decision.tier is Tier.LIGHT
        assert "demoted" in decision.reason

    def test_short_streak_does_not_demote(self):
        thresholds = TierThresholds(
            thorough_max_cells=5, light_min_cells=100, demote_streak=3
        )
        decision = select_tier(
            toy(), history=clean(2), thresholds=thresholds
        )
        assert decision.tier is Tier.STANDARD


class TestForcedTier:
    def test_forced_tier_wins_over_size_and_history(self):
        history = [{"holds": False, "partial": False, "tier": "thorough"}]
        decision = select_tier(toy(), history=history, forced=Tier.LIGHT)
        assert decision.tier is Tier.LIGHT
        assert "forced" in decision.reason

    def test_forced_light_on_unpackable_schema_degrades_to_standard(self):
        decision = select_tier(parse_program(UNPACKABLE), forced=Tier.LIGHT)
        assert decision.tier is Tier.STANDARD
        assert "sampler unavailable" in decision.reason

    def test_huge_unpackable_spec_base_light_also_degrades(self):
        decision = select_tier(parse_program(UNPACKABLE))
        assert decision.base is Tier.LIGHT
        assert decision.tier is Tier.STANDARD


class TestSelectionTelemetry:
    def test_decision_emits_reasoned_event_and_counter(self):
        recorder = Recorder(kind="test")
        select_tier(toy(), label="specs/toy.gcl", instrumentation=recorder)
        record = recorder.record()
        assert record.counters["tier.select.thorough"] == 1
        events = [e for e in record.events if e.name == "tier.select"]
        assert len(events) == 1
        fields = events[0].fields
        assert fields["spec"] == "specs/toy.gcl"
        assert fields["tier"] == "thorough"
        assert fields["base"] == "thorough"
        assert fields["cells"] == 6
        assert "ceiling" in fields["reason"]


class TestRiskLedger:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = RiskLedger(path)
        ledger.record(
            "a.gcl", holds=True, partial=False, tier="thorough",
            fingerprint="f1",
        )
        ledger.save()
        reloaded = RiskLedger(path)
        assert len(reloaded) == 1
        (outcome,) = reloaded.history("a.gcl")
        assert outcome["holds"] is True
        assert outcome["tier"] == "thorough"
        assert outcome["fingerprint"] == "f1"

    def test_history_is_bounded(self, tmp_path):
        ledger = RiskLedger(tmp_path / "ledger.json")
        for index in range(MAX_OUTCOMES + 5):
            ledger.record(
                "a.gcl", holds=True, partial=False, tier="thorough",
                fingerprint=f"f{index}",
            )
        history = ledger.history("a.gcl")
        assert len(history) == MAX_OUTCOMES
        assert history[-1]["fingerprint"] == f"f{MAX_OUTCOMES + 4}"

    def test_damaged_file_starts_empty_and_flags_stale(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("{broken", encoding="utf-8")
        ledger = RiskLedger(path)
        assert len(ledger) == 0
        assert ledger.stale

    def test_unknown_schema_starts_empty(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text(
            json.dumps({"v": LEDGER_SCHEMA_VERSION + 1, "specs": {}}),
            encoding="utf-8",
        )
        ledger = RiskLedger(path)
        assert len(ledger) == 0
        assert ledger.stale

    def test_forget_drops_a_spec(self, tmp_path):
        ledger = RiskLedger(tmp_path / "ledger.json")
        ledger.record(
            "a.gcl", holds=True, partial=False, tier="thorough",
            fingerprint="f1",
        )
        ledger.forget("a.gcl")
        assert ledger.history("a.gcl") == ()


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
        assert not verdict.is_partial
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

    def test_default_thresholds_are_exported(self):
        assert DEFAULT_THRESHOLDS.thorough_max_cells == 1 << 18
        assert DEFAULT_THRESHOLDS.light_min_cells == 1 << 22

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
