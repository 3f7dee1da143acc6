"""Command-line interface: verify and simulate guarded-command programs.

Subcommands::

    python -m repro check FILE [--spec FILE] [--fairness MODE] ...
    python -m repro verify-tree DIR [--tier T] [--manifest F] ...
    python -m repro refines CONCRETE ABSTRACT [--relation R] ...
    python -m repro ring SYSTEM -n N [--fairness MODE]
    python -m repro simulate FILE [--steps N] [--seed S] ...
    python -m repro campaign [--smoke] [--resume] [--checkpoint F] ...
    python -m repro report RUN.jsonl [--events]
    python -m repro render FILE
    python -m repro synthesize FILE [--spec FILE]

``check`` decides self-stabilization of a program (or stabilization to
a second program over the same variables); ``verify-tree`` brings a
whole directory of specs to a verified state incrementally — verdicts
replay from a fingerprint manifest unless the spec changed, and each
re-verified spec gets the exact check, or the simulated estimate under
``--tier light`` (see :mod:`repro.tiering` and
``docs/PERFORMANCE.md``); ``refines`` decides one of the paper's
refinement relations between two programs; ``ring`` runs a
named token-ring verification from the reproduction; ``simulate`` runs
the random-daemon simulator and prints the trace tail; ``report``
summarizes an observability file written with ``--obs-out`` /
``--trace-out``; ``campaign`` sweeps a resilient fault-injection grid
over the derived rings with checkpoint/resume (see
:mod:`repro.campaign` and ``docs/ROBUSTNESS.md``); ``render``
pretty-prints a parsed program (normalizing whitespace and sugar).

The ``check``, ``refines``, ``ring``, ``simulate``, and ``campaign``
subcommands accept ``--obs-out PATH``: the run is then instrumented
and its structured record (counters, gauges, histograms, the span
trace tree, events) is written to ``PATH`` as JSON Lines, readable by
``repro report`` or any JSONL consumer.  ``repro report`` can also
export the record as Chrome ``trace_event`` JSON (``--format=trace``)
or Prometheus text (``--format=prom``).  The same subcommands accept
``--progress`` (render throttled ``progress.*`` heartbeats as live
stderr ticker lines) and ``--profile-out PATH`` (wrap the whole
command in ``cProfile`` and store the pstats dump).

All commands exit with status 0 when the checked property holds (or
the run completes) and 1 otherwise, printing the witness, so the CLI
is usable from shell scripts and CI.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .checker import (
    check_convergence_refinement,
    check_everywhere_eventually_refinement,
    check_everywhere_refinement,
    check_init_refinement,
    check_self_stabilization,
    check_stabilization,
)
from .gcl.parser import parse_program
from .gcl.pretty import render_program
from .obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    ProgressTicker,
    Recorder,
    TeeInstrumentation,
    write_jsonl,
)
from .obs.report import summarize_text
from .simulation.runner import simulate

__all__ = ["main", "build_parser"]

#: The engine a command runs on unless ``--engine`` names another;
#: ``refines`` and ``ring`` have no flag and always run on it.
DEFAULT_ENGINE = "vector"

_RELATIONS: Dict[str, Callable] = {
    "init": check_init_refinement,
    "everywhere": check_everywhere_refinement,
    "convergence": check_convergence_refinement,
    "everywhere-eventually": check_everywhere_eventually_refinement,
}

_RING_SYSTEMS = (
    "btr",
    "c1",
    "dijkstra4",
    "c2-composed",
    "dijkstra3",
    "c3",
    "c3-composed",
    "kstate",
)

_CAMPAIGN_SYSTEMS = ("dijkstra4", "dijkstra3", "c3-composed", "kstate", "btr")
_CAMPAIGN_SCHEDULERS = (
    "random", "round-robin", "starve-wrappers", "greedy-tokens"
)
_CAMPAIGN_INJECTORS = ("corrupt-1", "corrupt-3", "corrupt-all")


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` that rejects integers below ``minimum``.

    Bad values die at parse time with a one-line ``error: argument
    --steps: must be at least 1, got -5`` instead of surfacing later
    as a confusing simulator or checker failure.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}"
            )
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type`` for strictly positive real arguments."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _mem_budget(text: str) -> int:
    """An argparse ``type`` for ``--mem-budget`` ('512M', '2G', bytes)."""
    from .kernel.shared import parse_mem_budget

    try:
        return parse_mem_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for --help tests and shell completion)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Convergence-refinement toolkit "
        "(reproduction of Demirbas & Arora, ICDCS 2002)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="check (self-)stabilization of a GCL program"
    )
    check.add_argument("program", help="path to the GCL program file")
    check.add_argument(
        "--spec",
        help="path to a specification program over the same variables "
        "(default: the program itself, i.e. self-stabilization)",
    )
    check.add_argument(
        "--fairness",
        choices=("none", "weak", "strong"),
        default="none",
        help="daemon fairness assumption (default: none)",
    )
    check.add_argument(
        "--stutter-insensitive",
        action="store_true",
        help="compare behaviours modulo stuttering",
    )
    _add_engine_flag(check)
    _add_parallel_flags(check)
    _add_obs_out(check)

    vtree = commands.add_parser(
        "verify-tree",
        help="incrementally verify every GCL spec under a directory: "
        "unchanged specs replay manifest verdicts byte for byte, "
        "changed ones re-verify exactly (or simulated, under --tier "
        "light)",
    )
    vtree.add_argument(
        "root", help="directory walked recursively for *.gcl spec files"
    )
    vtree.add_argument(
        "--manifest", metavar="PATH",
        help="fingerprint manifest from the previous run "
        "(default: ROOT/.repro-verify/manifest.json)",
    )
    vtree.add_argument(
        "--tier", choices=("light", "thorough"), default=None,
        help="'light' estimates every spec by seeded simulation "
        "instead of the exact check (a spec the sampler cannot "
        "intern still runs thorough); manifest entries verified at "
        "another tier are re-verified (default: thorough)",
    )
    vtree.add_argument(
        "--fairness", choices=("none", "weak", "strong"), default="none",
        help="daemon fairness for the thorough tier; part of the "
        "fingerprint, so changing it invalidates the manifest "
        "(default: none)",
    )
    vtree.add_argument(
        "--seed", type=_int_at_least(0), default=0,
        help="RNG seed for LIGHT-tier Monte-Carlo estimates; a "
        "manifest parameter (default: 0)",
    )
    vtree.add_argument(
        "--workers", type=_int_at_least(1), default=1, metavar="N",
        help="worker processes to fan re-verified specs across "
        "(default: 1; the verdict stream is identical at every count)",
    )
    _add_engine_flag(vtree)
    _add_obs_out(vtree)

    refines = commands.add_parser(
        "refines", help="check a refinement relation between two programs"
    )
    refines.add_argument("concrete", help="path to the implementation program")
    refines.add_argument("abstract", help="path to the specification program")
    refines.add_argument(
        "--relation",
        choices=sorted(_RELATIONS),
        default="convergence",
        help="which relation to decide (default: convergence)",
    )
    refines.add_argument("--stutter-insensitive", action="store_true")
    refines.add_argument(
        "--open-systems",
        action="store_true",
        help="treat both programs as open systems (wrappers): skip the "
        "maximality clauses",
    )
    _add_obs_out(refines)

    ring = commands.add_parser(
        "ring", help="verify a named token-ring system from the paper"
    )
    ring.add_argument("system", choices=_RING_SYSTEMS)
    ring.add_argument("-n", "--processes", type=_int_at_least(3), default=4)
    ring.add_argument("-k", type=_int_at_least(2), default=None,
                      help="counter modulus for kstate (default: n)")
    ring.add_argument(
        "--fairness", choices=("none", "weak", "strong"), default=None,
        help="daemon fairness (default: the weakest known-sufficient mode)",
    )
    _add_obs_out(ring)

    sim = commands.add_parser("simulate", help="simulate a GCL program")
    sim.add_argument("program", help="path to the GCL program file")
    sim.add_argument("--steps", type=_int_at_least(1), default=100)
    sim.add_argument(
        "--seed", type=_int_at_least(0), default=0,
        help="RNG seed for the random daemon (default 0; recorded in "
        "the run metadata)",
    )
    sim.add_argument(
        "--tail", type=_int_at_least(0), default=10,
        help="how many final events to print",
    )
    sim.add_argument(
        "--trace-out",
        metavar="PATH",
        help="archive the full trace as JSON Lines (replayable via "
        "'repro report' and Trace.from_jsonl)",
    )
    _add_obs_out(sim)

    camp = commands.add_parser(
        "campaign",
        help="sweep a resilient fault-injection campaign over the "
        "derived rings (checkpoint/resume, per-run timeouts, budgeted "
        "verification)",
    )
    camp.add_argument(
        "--systems", nargs="+", choices=_CAMPAIGN_SYSTEMS,
        default=None, metavar="SYSTEM",
        help="systems to sweep (default: every stabilizing ring; "
        f"known: {', '.join(_CAMPAIGN_SYSTEMS)})",
    )
    camp.add_argument(
        "--sizes", nargs="+", type=_int_at_least(3), default=[3, 4],
        metavar="N", help="ring sizes to sweep (default: 3 4)",
    )
    camp.add_argument(
        "--schedulers", nargs="+", choices=_CAMPAIGN_SCHEDULERS,
        default=["random"], metavar="SCHED",
        help="daemons to sweep (default: random; known: "
        f"{', '.join(_CAMPAIGN_SCHEDULERS)})",
    )
    camp.add_argument(
        "--injectors", nargs="+", choices=_CAMPAIGN_INJECTORS,
        default=["corrupt-all"], metavar="INJ",
        help="fault injectors to sweep (default: corrupt-all; known: "
        f"{', '.join(_CAMPAIGN_INJECTORS)})",
    )
    camp.add_argument(
        "--seeds", type=_int_at_least(1), default=3,
        help="seed indices per grid point (default: 3)",
    )
    camp.add_argument(
        "--seed", type=_int_at_least(0), default=0,
        help="campaign master seed; every cell derives its own "
        "sub-seed from it (default: 0)",
    )
    camp.add_argument(
        "--steps", type=_int_at_least(1), default=5000,
        help="step budget per simulation run (default: 5000)",
    )
    camp.add_argument(
        "--faults", type=_int_at_least(1), default=1,
        help="transient faults injected per run (default: 1)",
    )
    camp.add_argument(
        "--deadline", type=_positive_float, default=10.0,
        help="wall-clock budget per simulation run in seconds (default: 10)",
    )
    camp.add_argument(
        "--retries", type=_int_at_least(0), default=1,
        help="extra attempts after a crashed cell (default: 1)",
    )
    camp.add_argument(
        "--with-check", action="store_true",
        help="also run one exact stabilization check per (system, size)",
    )
    camp.add_argument(
        "--checkpoint", metavar="PATH",
        help="tagged-JSONL checkpoint file: one line per completed "
        "cell, flushed incrementally; required for --resume",
    )
    camp.add_argument(
        "--resume", action="store_true",
        help="continue from the checkpoint, skipping completed cells",
    )
    camp.add_argument(
        "--trace-out", metavar="DIR",
        help="archive the trace of every suspected-divergence run "
        "under DIR (replayable via 'repro report')",
    )
    camp.add_argument(
        "--early-stop", type=_int_at_least(1), default=None, metavar="N",
        help="stop sweeping a grid cell class (same system, size, "
        "scheduler, injector) once its last N outcomes are identical; "
        "skipped cells are recorded as first-class 'earlystop' "
        "results (default: sweep every seed)",
    )
    camp.add_argument(
        "--smoke", action="store_true",
        help="run the small fixed CI grid (two systems, one seed, "
        "with checks) regardless of the axis flags",
    )
    _add_engine_flag(camp)
    _add_parallel_flags(camp)
    _add_obs_out(camp)

    report = commands.add_parser(
        "report",
        help="summarize an observability JSONL file (run records "
        "written with --obs-out, traces written with --trace-out)",
    )
    report.add_argument("run", help="path to the JSONL file")
    report.add_argument(
        "--events",
        action="store_true",
        help="list every event instead of aggregating by name",
    )
    report.add_argument(
        "--format",
        choices=("text", "trace", "prom"),
        default="text",
        help="output format: 'text' human summary (default), 'trace' "
        "Chrome trace_event JSON (open in chrome://tracing or "
        "Perfetto), 'prom' Prometheus text exposition (textfile "
        "collector compatible)",
    )

    render = commands.add_parser("render", help="parse and pretty-print a program")
    render.add_argument("program", help="path to the GCL program file")

    synth = commands.add_parser(
        "synthesize",
        help="synthesize a stabilization wrapper for a program and print "
        "it as GCL",
    )
    synth.add_argument("program", help="path to the GCL program file")
    synth.add_argument(
        "--spec",
        help="specification program over the same variables "
        "(default: the program itself)",
    )
    synth.add_argument("--stutter-insensitive", action="store_true")

    return parser


def _add_engine_flag(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--engine`` flag (vector/packed kernels vs tuple)."""
    subparser.add_argument(
        "--engine", choices=("packed", "tuple", "vector", "shared"),
        default=DEFAULT_ENGINE,
        help="checker engine: 'shared' streams chunked frontiers with "
        "out-of-core spill (mega state spaces in bounded RSS; see "
        "--mem-budget); 'vector' batch-evaluates whole frontiers as NumPy "
        "arrays and falls back to the packed kernel (dense state codes, "
        "bitset fixpoints) for programs it cannot lower or above its cell "
        "ceiling; 'packed' is an alias of 'vector'; "
        "'tuple' is the reference set-based engine. Every engine falls "
        "back to tuple automatically where it cannot apply, and verdicts "
        "are identical either way (default: vector)",
    )
    subparser.add_argument(
        "--mem-budget", metavar="BYTES", type=_mem_budget, default=None,
        help="in-RAM budget for the shared engine's resident arrays, as "
        "bytes or a suffixed size ('512M', '2G'); activates a memory "
        "context, so '--engine vector' upgrades to the shared engine "
        "where it applies and collections past the budget spill to disk "
        "(default: no context; the shared engine runs with its built-in "
        "budget only when requested explicitly)",
    )
    subparser.add_argument(
        "--spill-dir", metavar="DIR", default=None,
        help="parent directory for the shared engine's run-scoped spill "
        "files (default: the system temp dir); the run's subdirectory "
        "is removed when the check ends, success or not",
    )


def _add_parallel_flags(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared execution flags.

    ``--workers`` / ``--cache-dir`` select parallelism and caching;
    ``--task-timeout`` / ``--max-task-retries`` tune the supervision
    policy worker tasks run under; ``--chaos`` injects a deterministic
    fault plan (see :mod:`repro.resilience.chaos` and
    ``docs/ROBUSTNESS.md``) so the recovery paths can be exercised on
    demand — the ``REPRO_CHAOS`` environment variable is the
    flag-less equivalent.
    """
    subparser.add_argument(
        "--workers", type=_int_at_least(1), default=1, metavar="N",
        help="worker processes: whole cells for campaign (default: 1; "
        "check decides one spec in one process on every engine; the "
        "verdict is identical at every worker count)",
    )
    subparser.add_argument(
        "--cache-dir", metavar="DIR",
        help="content-addressed verification cache: verdicts are keyed "
        "by the canonical program fingerprint plus the checker "
        "parameters, so re-checking an unchanged spec is a file read",
    )
    subparser.add_argument(
        "--task-timeout", type=_positive_float, default=None,
        metavar="SECONDS",
        help="wall-clock budget per worker task; a task past it is "
        "killed and retried under the supervision policy "
        "(default: no timeout)",
    )
    subparser.add_argument(
        "--max-task-retries", type=_int_at_least(0), default=None,
        metavar="N",
        help="abnormal failures (worker death, timeout) tolerated per "
        "task before it is quarantined to an inline sequential run "
        "(default: 2; the verdict is identical either way)",
    )
    subparser.add_argument(
        "--chaos", metavar="PLAN",
        help="deterministic fault plan to inject — inline JSON or a "
        "file path (see docs/ROBUSTNESS.md); also read from the "
        "REPRO_CHAOS environment variable when the flag is absent",
    )


def _add_obs_out(subparser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags.

    ``--obs-out`` records the run; ``--progress`` renders live
    heartbeat ticker lines; ``--profile-out`` wraps the whole command
    in ``cProfile``.  The three compose freely.
    """
    subparser.add_argument(
        "--obs-out",
        metavar="PATH",
        help="write the structured run record (counters, gauges, "
        "histograms, span trace tree, events) to PATH as JSON Lines; "
        "inspect with 'repro report' or export with --format=trace/prom",
    )
    subparser.add_argument(
        "--progress",
        action="store_true",
        help="render throttled progress.* heartbeats (round, frontier "
        "size, states/sec, RSS) as live stderr ticker lines",
    )
    subparser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="profile the whole command under cProfile and store the "
        "pstats dump at PATH (inspect with python -m pstats)",
    )


@contextmanager
def _memory_context(args) -> Iterator[None]:
    """Activate the shared-engine memory context the flags ask for.

    A no-op unless ``--mem-budget`` or ``--spill-dir`` was given (or
    the command has no such flags).  With either flag the wrapped
    command runs under :func:`repro.kernel.shared.using_memory_budget`,
    which both parameterizes the shared engine and makes a
    ``--engine vector`` request upgrade to it where it applies.
    """
    budget = getattr(args, "mem_budget", None)
    spill_dir = getattr(args, "spill_dir", None)
    if budget is None and spill_dir is None:
        yield
        return
    from .kernel.shared import using_memory_budget

    with using_memory_budget(budget=budget, spill_dir=spill_dir):
        yield


@contextmanager
def _resilience_context(args) -> Iterator[None]:
    """Activate the supervision policy and fault plan the flags ask for.

    The chaos plan comes from ``--chaos`` (inline JSON or a file path)
    or, when the flag is absent, the ``REPRO_CHAOS`` environment
    variable.  Its seed is folded into the supervision policy, so one
    plan fully determines both the injected faults and the retry
    backoff schedule.  Commands without the execution flags run under
    the defaults — the wrapper is then a no-op.
    """
    from .resilience import (
        DEFAULT_POLICY,
        SupervisionPolicy,
        load_plan,
        using_chaos,
        using_policy,
    )

    spec = getattr(args, "chaos", None) or os.environ.get("REPRO_CHAOS")
    plan = load_plan(spec) if spec else None
    retries = getattr(args, "max_task_retries", None)
    policy = SupervisionPolicy(
        task_timeout=getattr(args, "task_timeout", None),
        max_task_retries=(
            DEFAULT_POLICY.max_task_retries if retries is None else retries
        ),
        seed=plan.seed if plan is not None else DEFAULT_POLICY.seed,
    )
    with using_policy(policy), using_chaos(plan):
        yield


def _recorder_for(args, kind: str):
    """The instrumentation stack the flags of ``args`` ask for.

    Returns ``(instrumentation, recorder_or_None)``: a
    :class:`Recorder` when ``--obs-out`` was given, a
    :class:`ProgressTicker` when ``--progress`` was given, both teed
    together when both were — and the null object when neither.  The
    recorder is also kept on ``args``, so an input error that ends the
    run still writes it (:func:`_input_error`).
    """
    recorder: Optional[Recorder] = None
    sinks: List[Instrumentation] = []
    if getattr(args, "obs_out", None):
        recorder = Recorder(kind=kind)
        args.run_recorder = recorder
        sinks.append(recorder)
    if getattr(args, "progress", False):
        sinks.append(ProgressTicker())
    if not sinks:
        return NULL_INSTRUMENTATION, None
    if len(sinks) == 1:
        return sinks[0], recorder
    return TeeInstrumentation(*sinks), recorder


def _flush_recorder(args, recorder: Optional[Recorder]) -> None:
    """Persist the run record when one was collected."""
    if recorder is not None:
        write_jsonl([recorder.record()], args.obs_out)
        print(f"run record written to {args.obs_out}", file=sys.stderr)


def _input_error(args, exc: Exception) -> int:
    """Report an input error and end the run with exit status 2.

    When ``--obs-out`` was given, the run record is written with one
    ``cli.error`` event naming the error.  It is written silently, so
    stderr carries the error line alone, as without ``--obs-out``.
    """
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "obs_out", None):
        recorder = getattr(args, "run_recorder", None) or Recorder(
            kind=args.command
        )
        recorder.event(
            "cli.error", error=str(exc), exception=type(exc).__name__
        )
        try:
            write_jsonl([recorder.record()], args.obs_out)
        except OSError:
            pass  # an unwritable record path must not mask the error
    return 2


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_program(handle.read())


def _cmd_check(args) -> int:
    instrumentation, recorder = _recorder_for(args, "check")
    program = _load(args.program)
    spec_program = _load(args.spec) if args.spec else None
    cache = key = None
    if args.cache_dir:
        from .parallel import VerificationCache, cache_key, program_fingerprint

        # The semantics flags are part of the fingerprint: the same
        # source under a different daemon semantics or fairness mode is
        # a different transition system.  The engine (like the worker
        # count) is excluded — verdicts are identical across engines.
        semantics = {"keep_stutter": True, "fairness": args.fairness}
        fingerprints = [program_fingerprint(program, semantics=semantics)]
        if spec_program is not None:
            fingerprints.append(
                program_fingerprint(spec_program, semantics=semantics)
            )
        key = cache_key(
            "check",
            fingerprints,
            {
                "fairness": args.fairness,
                "stutter_insensitive": args.stutter_insensitive,
                "self": spec_program is None,
            },
        )
        cache = VerificationCache(args.cache_dir, instrumentation)
        hit = cache.get(key)
        if hit is not None:
            print(hit["text"])
            print("verification cache: hit", file=sys.stderr)
            _flush_recorder(args, recorder)
            return 0 if hit["holds"] else 1
    instrumentation.annotate(
        program=args.program, fairness=args.fairness,
        stutter_insensitive=args.stutter_insensitive, workers=args.workers,
        engine=args.engine,
    )
    # The program goes to the checker uncompiled: the packed engine
    # lowers it straight to a successor kernel (no transition table);
    # the tuple engine compiles it itself.  Verdicts are identical.
    if spec_program is not None:
        instrumentation.annotate(spec=args.spec)
        result = check_stabilization(
            program,
            spec_program,
            stutter_insensitive=args.stutter_insensitive,
            fairness=args.fairness,
            instrumentation=instrumentation,
            workers=args.workers,
            engine=args.engine,
        )
    else:
        result = check_self_stabilization(
            program, fairness=args.fairness, instrumentation=instrumentation,
            workers=args.workers, engine=args.engine,
        )
    print(result.format())
    if cache is not None and key is not None:
        cache.put(key, {"holds": result.holds, "text": result.format()})
        print("verification cache: stored", file=sys.stderr)
    _flush_recorder(args, recorder)
    return 0 if result.holds else 1


def _cmd_verify_tree(args) -> int:
    from .tiering import Tier, verify_tree

    instrumentation, recorder = _recorder_for(args, "verify-tree")
    instrumentation.annotate(
        root=args.root, fairness=args.fairness, engine=args.engine,
        workers=args.workers, tier=args.tier, seed=args.seed,
    )
    report = verify_tree(
        args.root,
        manifest_path=args.manifest,
        forced_tier=Tier(args.tier) if args.tier else None,
        fairness=args.fairness,
        engine=args.engine,
        seed=args.seed,
        workers=args.workers,
        instrumentation=instrumentation,
    )
    _flush_recorder(args, recorder)
    return 0 if report.ok else 1


def _cmd_refines(args) -> int:
    instrumentation, recorder = _recorder_for(args, "refines")
    concrete = _load(args.concrete)
    abstract = _load(args.abstract)
    instrumentation.annotate(
        concrete=args.concrete, abstract=args.abstract, relation=args.relation
    )
    checkfn = _RELATIONS[args.relation]
    kwargs = {"instrumentation": instrumentation, "engine": DEFAULT_ENGINE}
    if args.relation != "everywhere-eventually":
        kwargs["stutter_insensitive"] = args.stutter_insensitive
        kwargs["open_systems"] = args.open_systems
    result = checkfn(concrete, abstract, **kwargs)
    print(result.format())
    _flush_recorder(args, recorder)
    return 0 if result.holds else 1


def _cmd_ring(args) -> int:
    from .rings import (
        btr3_abstraction,
        btr4_abstraction,
        btr_program,
        c1_program,
        c2_program,
        c3_composed,
        c3_program,
        dijkstra_four_state,
        dijkstra_three_state,
        kstate_program,
        utr_program,
        utr_abstraction,
        w1_local_program,
        w2_refined_program,
    )

    def c2_composed(n_processes: int):
        return (
            c2_program(n_processes)
            .merged_with(w1_local_program(n_processes))
            .merged_with(
                w2_refined_program(n_processes), name="C2 [] W1'' [] W2'"
            )
        )

    n = args.processes
    # (builder, spec builder, abstraction builder, weakest fairness, stutter)
    table = {
        "btr": (btr_program, btr_program, None, "none", False),
        "c1": (c1_program, btr_program, btr4_abstraction, "none", False),
        "dijkstra4": (dijkstra_four_state, btr_program, btr4_abstraction, "none", False),
        "c2-composed": (c2_composed, btr_program, btr3_abstraction, "strong", False),
        "dijkstra3": (dijkstra_three_state, btr_program, btr3_abstraction, "none", False),
        "c3": (c3_program, btr_program, btr3_abstraction, "strong", True),
        "c3-composed": (c3_composed, btr_program, btr3_abstraction, "strong", True),
        "kstate": (None, None, None, "none", False),
    }
    if args.system == "kstate":
        k = args.k or n
        system = kstate_program(n, k)
        spec = utr_program(n)
        alpha = utr_abstraction(n, k)
        fairness = args.fairness or "none"
        stutter = False
    else:
        builder, spec_builder, alpha_builder, default_fairness, stutter = table[
            args.system
        ]
        system = builder(n)
        spec = spec_builder(n)
        alpha = alpha_builder(n) if alpha_builder else None
        fairness = args.fairness or default_fairness
    instrumentation, recorder = _recorder_for(args, "ring")
    instrumentation.annotate(system=args.system, n=n, fairness=fairness)
    result = check_stabilization(
        system, spec, alpha, stutter_insensitive=stutter, fairness=fairness,
        instrumentation=instrumentation, engine=DEFAULT_ENGINE,
    )
    print(f"fairness assumption: {fairness}")
    print(result.format())
    _flush_recorder(args, recorder)
    return 0 if result.holds else 1


def _cmd_simulate(args) -> int:
    instrumentation, recorder = _recorder_for(args, "simulate")
    program = _load(args.program)
    trace = simulate(
        program, args.steps, seed=args.seed, instrumentation=instrumentation
    )
    schema = program.schema()
    print(f"initial: {schema.format_state(program.state_of(trace.initial))}")
    events = trace.events
    skipped = max(0, len(events) - args.tail)
    if skipped:
        print(f"... {skipped} earlier events ...")
    for event in events[skipped:]:
        state = program.state_of(event.env)
        print(f"[{event.kind}] {event.label}: {schema.format_state(state)}")
    print(f"total: {trace.step_count()} steps, {trace.fault_count()} faults")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl())
        print(f"trace archived to {args.trace_out}", file=sys.stderr)
    _flush_recorder(args, recorder)
    return 0


def _cmd_campaign(args) -> int:
    from .campaign import (
        CampaignConfig,
        build_grid,
        run_campaign,
        summarize_campaign,
    )
    from .campaign.grid import DEFAULT_SYSTEMS

    if args.smoke:
        cells = build_grid(
            systems=("dijkstra4", "dijkstra3"), sizes=(3,),
            schedulers=("random",), injectors=("corrupt-all",),
            seeds=1, with_check=True,
        )
        config = CampaignConfig(
            steps=1000, deadline=30.0, retries=args.retries,
            seed=args.seed,
            checkpoint=args.checkpoint, trace_dir=args.trace_out,
            workers=args.workers, cache_dir=args.cache_dir,
            engine=args.engine, early_stop=args.early_stop,
        )
    else:
        cells = build_grid(
            systems=tuple(args.systems or DEFAULT_SYSTEMS),
            sizes=tuple(args.sizes),
            schedulers=tuple(args.schedulers),
            injectors=tuple(args.injectors),
            seeds=args.seeds,
            with_check=args.with_check,
        )
        config = CampaignConfig(
            steps=args.steps, deadline=args.deadline,
            retries=args.retries, seed=args.seed,
            fault_count=args.faults,
            checkpoint=args.checkpoint, trace_dir=args.trace_out,
            workers=args.workers, cache_dir=args.cache_dir,
            engine=args.engine, early_stop=args.early_stop,
        )
    instrumentation, recorder = _recorder_for(args, "campaign")

    def progress(cell, result) -> None:
        print(
            f"[{result.status.value}] {result.cell_id} "
            f"({result.seconds:.2f}s)",
            file=sys.stderr,
        )

    result = run_campaign(
        cells, config, resume=args.resume,
        instrumentation=instrumentation, on_cell=progress,
    )
    print(summarize_campaign(result))
    if result.interrupted:
        print(
            "interrupted; resume with --resume and the same axes",
            file=sys.stderr,
        )
    _flush_recorder(args, recorder)
    return 0 if result.ok else 1


def _cmd_report(args) -> int:
    with open(args.run, "r", encoding="utf-8") as handle:
        text = handle.read()
    if args.format != "text":
        from .obs import chrome_trace, loads_jsonl, prometheus_text

        records = loads_jsonl(text)
        if args.format == "trace":
            print(chrome_trace(records))
        else:
            sys.stdout.write(prometheus_text(records))
        return 0
    print(summarize_text(text, events=args.events))
    return 0


def _cmd_render(args) -> int:
    print(render_program(_load(args.program)))
    return 0


def _cmd_synthesize(args) -> int:
    from .synthesis import synthesize_wrapper, system_to_program

    program = _load(args.program)
    system = program.compile()
    spec = _load(args.spec).compile() if args.spec else system
    result = synthesize_wrapper(
        system, spec, stutter_insensitive=args.stutter_insensitive
    )
    print(f"# {result.summary()}", file=sys.stderr)
    wrapper_program = system_to_program(
        result.wrapper, list(program.variables),
        name=f"{program.name}_wrapper",
    )
    print(render_program(wrapper_program))
    return 0 if result.holds else 1


_DISPATCH = {
    "check": _cmd_check,
    "verify-tree": _cmd_verify_tree,
    "refines": _cmd_refines,
    "ring": _cmd_ring,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "report": _cmd_report,
    "render": _cmd_render,
    "synthesize": _cmd_synthesize,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _DISPATCH[args.command]
    try:
        with _resilience_context(args), _memory_context(args):
            profile_out = getattr(args, "profile_out", None)
            if profile_out:
                import cProfile

                profiler = cProfile.Profile()
                try:
                    return profiler.runcall(command, args)
                finally:
                    profiler.dump_stats(profile_out)
                    print(
                        f"profile written to {profile_out}", file=sys.stderr
                    )
            return command(args)
    except BrokenPipeError:
        # stdout was closed early (e.g. `repro report ... | head`);
        # suppress the interpreter's close-time flush error too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except FileNotFoundError as exc:
        return _input_error(args, exc)
    except Exception as exc:  # surfaced as a clean CLI error, not a traceback
        from .core.errors import ReproError

        if isinstance(exc, ReproError):
            return _input_error(args, exc)
        raise


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
