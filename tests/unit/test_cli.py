"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

TOY = """
program toy
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

# A specification with the same terminal structure as TOY (the
# stabilization check matches maximality, so a spec that self-loops
# where the program halts would be a different behaviour).
WRAPPER_SPEC = """
program spec
var x : mod 3
action heal.1 :: x == 1 --> x := 0
action heal.2 :: x == 2 --> x := 0
init x == 0
"""


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.gcl"
    path.write_text(TOY)
    return str(path)


@pytest.fixture
def broken_path(tmp_path):
    path = tmp_path / "broken.gcl"
    path.write_text(BROKEN)
    return str(path)


class TestCheck:
    def test_self_stabilizing_program_exits_zero(self, toy_path, capsys):
        assert main(["check", toy_path]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_divergent_program_exits_one(self, broken_path, capsys):
        assert main(["check", broken_path]) == 1
        out = capsys.readouterr().out
        assert "FAILS" in out

    def test_check_against_spec(self, toy_path, tmp_path, capsys):
        spec = tmp_path / "spec.gcl"
        spec.write_text(WRAPPER_SPEC)
        assert main(["check", toy_path, "--spec", str(spec)]) == 0

    def test_fairness_flag(self, broken_path):
        assert main(["check", broken_path, "--fairness", "strong"]) == 1

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/prog.gcl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.gcl"
        bad.write_text("program !!!")
        assert main(["check", str(bad)]) == 2


class TestRefines:
    def test_program_refines_itself(self, toy_path, capsys):
        assert main(["refines", toy_path, toy_path]) == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_relation_choices(self, toy_path):
        for relation in ("init", "everywhere", "convergence",
                         "everywhere-eventually"):
            assert main(["refines", toy_path, toy_path,
                         "--relation", relation]) == 0

    def test_non_refinement_exits_one(self, toy_path, broken_path):
        assert main(["refines", broken_path, toy_path]) == 1


class TestRing:
    @pytest.mark.parametrize("system", ["dijkstra3", "dijkstra4", "c1"])
    def test_unfair_verifications(self, system, capsys):
        assert main(["ring", system, "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "fairness assumption: none" in out
        assert "HOLDS" in out

    def test_c2_composite_defaults_to_strong(self, capsys):
        assert main(["ring", "c2-composed", "-n", "3"]) == 0
        assert "fairness assumption: strong" in capsys.readouterr().out

    def test_c3_composed_verifies(self):
        assert main(["ring", "c3-composed", "-n", "3"]) == 0

    def test_bare_c3_fails_honestly(self, capsys):
        assert main(["ring", "c3", "-n", "3"]) == 1
        assert "FAILS" in capsys.readouterr().out

    def test_kstate_below_threshold_fails(self):
        assert main(["ring", "kstate", "-n", "5", "-k", "3"]) == 1

    def test_kstate_default_k(self):
        assert main(["ring", "kstate", "-n", "4"]) == 0

    def test_explicit_fairness_override(self):
        # BTR composite-free abstract ring is trivially stabilizing to
        # itself from its own initial states... the bare btr target:
        assert main(["ring", "btr", "-n", "3", "--fairness", "none"]) == 1


class TestSimulateAndRender:
    def test_simulate_prints_trace(self, toy_path, capsys):
        assert main(["simulate", toy_path, "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "initial: x=0" in out
        assert "total:" in out

    def test_render_roundtrips(self, toy_path, capsys):
        assert main(["render", toy_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("program toy")
        from repro.gcl import parse_program

        assert parse_program(out).compile() == parse_program(TOY).compile()

    def test_parser_tree_builds(self):
        parser = build_parser()
        args = parser.parse_args(["check", "x.gcl", "--fairness", "weak"])
        assert args.command == "check"
        assert args.fairness == "weak"

    def test_simulate_seed_changes_nothing_deterministic(self, toy_path, capsys):
        # The toy program deadlocks immediately from its initial state,
        # so any seed yields the same (empty) run — but the flag must
        # be accepted and the run complete.
        assert main(["simulate", toy_path, "--steps", "5", "--seed", "99"]) == 0
        assert "total: 0 steps" in capsys.readouterr().out


class TestObservability:
    def test_check_obs_out_then_report(self, toy_path, tmp_path, capsys):
        out = tmp_path / "run.jsonl"
        assert main(["check", toy_path, "--obs-out", str(out)]) == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "run: check" in rendered
        assert "check.states.enumerated" in rendered
        assert "check.fixpoint.iterations" in rendered
        assert "check.core" in rendered  # phase timing
        assert "check.verdict" in rendered

    def test_check_obs_records_exact_state_count(self, toy_path, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "run.jsonl"
        main(["check", toy_path, "--obs-out", str(out)])
        (record,) = load_jsonl(out)
        # TOY has one mod-3 variable: exactly 3 states enumerated.
        assert record.counters["check.states.enumerated"] == 3
        assert record.meta["program"] == toy_path

    def test_refines_obs_out(self, toy_path, tmp_path, capsys):
        from repro.obs import load_jsonl

        out = tmp_path / "ref.jsonl"
        assert main(["refines", toy_path, toy_path, "--obs-out", str(out)]) == 0
        (record,) = load_jsonl(out)
        assert record.kind == "refines"
        assert "refine.transitions.exact" in record.counters

    @pytest.mark.parametrize("failure", ["schemas", "missing"])
    def test_input_error_still_writes_the_record(
        self, failure, toy_path, tmp_path, capsys
    ):
        """An input error (exit 2) writes the record asked for, with
        the error as an event, and leaves stdout and stderr as they
        are without ``--obs-out``."""
        from repro.obs import load_jsonl

        other = tmp_path / "other.gcl"
        other.write_text(TOY.replace("x", "y"))
        concrete = toy_path if failure == "schemas" else str(
            tmp_path / "absent.gcl"
        )
        argv = ["refines", concrete, str(other)]
        assert main(argv) == 2
        plain = capsys.readouterr()
        out = tmp_path / "err.jsonl"
        assert main(argv + ["--obs-out", str(out)]) == 2
        recorded = capsys.readouterr()
        assert (recorded.out, recorded.err) == (plain.out, plain.err)
        (record,) = load_jsonl(out)
        assert record.kind == "refines"
        (error,) = [
            event for event in record.events if event.name == "cli.error"
        ]
        assert f"error: {error.fields['error']}\n" == plain.err
        expected = (
            "SchemaMismatchError" if failure == "schemas"
            else "FileNotFoundError"
        )
        assert error.fields["exception"] == expected

    def test_ring_obs_out(self, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "ring.jsonl"
        assert main(["ring", "dijkstra3", "-n", "3", "--obs-out", str(out)]) == 0
        (record,) = load_jsonl(out)
        assert record.kind == "ring"
        assert record.meta["system"] == "dijkstra3"
        assert record.counters["check.states.enumerated"] > 0

    def test_simulate_obs_out_logs_seed(self, toy_path, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "sim.jsonl"
        assert main(
            ["simulate", toy_path, "--steps", "5", "--seed", "17",
             "--obs-out", str(out)]
        ) == 0
        (record,) = load_jsonl(out)
        assert record.kind == "simulate"
        assert record.meta["seed"] == 17

    def test_simulate_trace_out_and_report(self, tmp_path, capsys):
        from repro.simulation.trace import Trace

        spin = tmp_path / "spin.gcl"
        spin.write_text(
            "program spin\n"
            "var x : mod 2\n"
            "action flip0 :: x == 0 --> x := 1\n"
            "action flip1 :: x == 1 --> x := 0\n"
            "init x == 0\n"
        )
        trace_out = tmp_path / "trace.jsonl"
        assert main(
            ["simulate", str(spin), "--steps", "4", "--trace-out",
             str(trace_out)]
        ) == 0
        restored = Trace.from_jsonl(trace_out.read_text())
        assert restored.step_count() == 4
        capsys.readouterr()
        assert main(["report", str(trace_out)]) == 0
        rendered = capsys.readouterr().out
        assert "trace: 4 events" in rendered
        assert "steps: 4" in rendered

    def test_report_on_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 0
        assert "no run records" in capsys.readouterr().out

    def test_report_on_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken json")
        assert main(["report", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_report_missing_file_exits_two(self, capsys):
        assert main(["report", "/nonexistent/run.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_failing_check_still_writes_record(self, broken_path, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "run.jsonl"
        assert main(["check", broken_path, "--obs-out", str(out)]) == 1
        (record,) = load_jsonl(out)
        verdicts = [e for e in record.events if e.name == "check.verdict"]
        assert verdicts and verdicts[0].fields["holds"] is False


class TestNumericValidation:
    """Bad numeric arguments die at parse time with a clear message."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "x.gcl", "--steps", "0"],
            ["simulate", "x.gcl", "--steps", "-5"],
            ["simulate", "x.gcl", "--seed", "-1"],
            ["simulate", "x.gcl", "--tail", "-2"],
            ["simulate", "x.gcl", "--steps", "many"],
            ["ring", "dijkstra3", "-n", "2"],
            ["ring", "kstate", "-n", "4", "-k", "1"],
            ["campaign", "--seeds", "0"],
            ["campaign", "--seed", "-1"],
            ["campaign", "--steps", "0"],
            ["campaign", "--faults", "0"],
            ["campaign", "--deadline", "0"],
            ["campaign", "--deadline", "-1.5"],
            ["campaign", "--retries", "-1"],
            ["campaign", "--early-stop", "0"],
            ["campaign", "--sizes", "2"],
        ],
    )
    def test_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be" in err or "expected a" in err

    def test_valid_arguments_still_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--seed", "0", "--steps", "10", "--deadline", "0.5"]
        )
        assert args.seed == 0 and args.steps == 10 and args.deadline == 0.5


class TestCampaignCommand:
    def test_smoke_grid_exits_zero(self, capsys):
        assert main(["campaign", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out
        assert "dijkstra4 n=3" in out and "dijkstra3 n=3" in out

    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        checkpoint = tmp_path / "campaign.jsonl"
        argv = [
            "campaign", "--systems", "dijkstra3", "--sizes", "3",
            "--seeds", "1", "--steps", "500",
            "--checkpoint", str(checkpoint),
        ]
        assert main(argv) == 0
        assert checkpoint.exists()
        capsys.readouterr()
        # Without --resume an existing checkpoint is refused ...
        assert main(argv) == 2
        assert "resume" in capsys.readouterr().err
        # ... with it, every cell is skipped.
        assert main(argv + ["--resume"]) == 0
        assert "resumed 1" in capsys.readouterr().out

    def test_campaign_obs_out(self, tmp_path):
        from repro.obs import load_jsonl

        out = tmp_path / "campaign-obs.jsonl"
        argv = [
            "campaign", "--systems", "dijkstra3", "--sizes", "3",
            "--seeds", "1", "--steps", "500", "--obs-out", str(out),
        ]
        assert main(argv) == 0
        (record,) = load_jsonl(out)
        assert record.kind == "campaign"
        assert record.counters.get("campaign.cells.executed") == 1
