"""The repository benchmark: end-to-end and per-layer metrics of the
checker on four workloads, each check in a fresh child process.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload small-specs --seed 1
    python3 benchmarks/perf/run.py --seed 1 --trace 1        # every workload, traced
    python3 benchmarks/perf/run.py --seed 1 --smoke --seconds 1
    python3 benchmarks/perf/run.py --regen-golden

One load-generating process (this one) starts the children one after
another and waits for each — a closed loop with one client.  Every
verdict is checked against ``golden.json``.  The human-readable summary
goes to stdout, followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one extra traced child with
``--trace 1``.  A result file per workload goes under ``--out``.  The
exit code is 1 if any check failed, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import summary
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "golden.json"
#: Results, spans, and the children's temp and spill files.
SCRATCH = ROOT / ".bench_perf"

#: A run stops starting children past this many seconds, and gives a
#: child no more than what is left of it.
RUN_DEADLINE_S = 160.0
#: After SIGINT, a timed-out child gets this long to clean up before
#: its process group is killed.
GRACE_S = 5.0


def _spawn(workload, seed, index, window, smoke, tmp, spans_path, timeout):
    """Run one child to completion; returns its report and its failures.

    A child that overruns ``timeout`` gets SIGINT (the checker's
    KeyboardInterrupt cleanup path), then SIGKILL to its whole process
    group after :data:`GRACE_S`.  Shared-memory segments and spill
    directories it left behind count as failures and are removed.
    """
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--window", str(window), "--tmp", str(tmp),
    ]
    if smoke:
        command.append("--smoke")
    if spans_path is not None:
        command += ["--spans", str(spans_path)]
    # A fixed hash seed keeps set iteration order, and so the work a
    # check does, the same in every child.
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
        PYTHONHASHSEED="0",
        TMPDIR=str(tmp),
    )
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for every
    # process, so the child's ready time subtracts from this one.
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    errors: List[str] = []
    try:
        out, err = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        errors.append(f"timed out after {timeout:.0f} s")
        child.send_signal(signal.SIGINT)
        try:
            out, err = child.communicate(timeout=GRACE_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            out, err = child.communicate()
    # Helpers such as multiprocessing's resource tracker exit on their
    # own once the child is gone; anything still running after the
    # grace period is a leak.
    settle = time.monotonic() + GRACE_S
    while _group_members(child.pid) and time.monotonic() < settle:
        time.sleep(0.05)
    if _group_members(child.pid):
        errors.append("left processes running")
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:  # they ended after all
            pass
    errors += _sweep(child.pid, tmp)
    report = None
    if child.returncode == 0 and out.strip():
        report = json.loads(out.strip().splitlines()[-1])
        report["setup_s"] = report.pop("ready_at") - spawned_at
    elif not errors:
        errors.append(f"exited with {child.returncode}")
    if errors:
        sys.stderr.write(f"{workload} child {index}: {'; '.join(errors)}\n{err[-2000:]}")
    return report, errors


def _group_members(group: int) -> List[int]:
    """Live (not zombie) processes in a process group, from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        state, _ppid, pgrp = text[text.rindex(")") + 2 :].split()[:3]
        if int(pgrp) == group and state != "Z":
            members.append(int(stat.parent.name))
    return members


def _sweep(pid: int, tmp: Path) -> List[str]:
    """Remove (and report) what a child left in /dev/shm and its temp dir."""
    leaked = sorted(Path("/dev/shm").glob(f"rs-{pid:x}-*"))
    leaked += sorted(tmp.glob(f"repro-spill-{pid}-*"))
    for path in leaked:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink(missing_ok=True)
    return [f"leaked {path.name}" for path in leaked]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out: Path) -> Dict[str, object]:
    """Every child of one run of one workload, and what they measured.

    ``small-specs`` starts a fixed number of children, each timing its
    share of ``seconds``; the one-check workloads start children until
    ``seconds`` have passed and their minimum has run.
    """
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    config = workloads.single(name, smoke)
    if config is None:
        minimum = 1 if smoke else workloads.SMALL_CHILDREN
        window = seconds / minimum
    else:
        minimum, window = config.children, 0.0
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    def spawn(index, spans_path=None):
        return _spawn(name, seed, index, window, smoke, tmp, spans_path,
                      max(1.0, deadline - time.monotonic()))

    reports, failures = [], 0
    index = 0
    while time.monotonic() < deadline:
        if index >= minimum and (
            config is None or time.monotonic() - started >= seconds
        ):
            break
        report, errors = spawn(index)
        index += 1
        failures += len(errors)
        if report is not None:
            reports.append(report)
    traced = None
    if trace:
        traced, errors = spawn(index, out / f"{name}.seed{seed}.spans.jsonl")
        failures += len(errors)
    return {"reports": reports, "traced": traced, "child_failures": failures}


def _tally(run: Dict[str, object], golden: Dict[str, object]):
    """Attempted and failed checks: raised, wrong verdict, or lost child."""
    attempted = failed = run["child_failures"]
    for report in run["reports"] + [r for r in [run["traced"]] if r]:
        for check in report["checks"]:
            attempted += 1
            if "error" in check or not workloads.verdict_ok(golden, check):
                failed += 1
    return max(attempted, 1), failed


def _timed(reports: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """The checks of ``reports`` that finished (and so were timed)."""
    return [
        check for report in reports for check in report["checks"]
        if "seconds" in check
    ]


def end_to_end(reports: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end metrics of one run's untraced children."""
    checks = _timed(reports)
    walls = [check["seconds"] for check in checks]
    total = sum(walls)
    return {
        "setup_s": statistics.median(report["setup_s"] for report in reports),
        "check_p50_s": statistics.median(walls),
        "check_tail_s": summary.tail(walls)[1],
        "checks_per_s": len(walls) / total,
        "states_per_s": sum(check["states"] for check in checks) / total,
        "peak_rss_mib": statistics.median(
            report["peak_rss_kib"] / 1024.0 for report in reports
        ),
    }


def per_layer(traced: Dict[str, object], untraced: Dict[str, float]) -> Dict[str, float]:
    """The traced child's layer metrics plus the tracing overhead."""
    layers = dict(traced["layers"])
    walls = [check["seconds"] for check in _timed([traced])]
    layers["trace.overhead_ratio"] = statistics.median(walls) / untraced["check_p50_s"]
    return layers


def _describe(name, seed, run, metrics, units, attempted, failed) -> str:
    walls = [check["seconds"] for check in _timed(run["reports"])]
    lines = [
        f"{name}: seed {seed}, {len(run['reports'])} children, "
        f"{len(walls)} timed checks, fail_ratio {failed / attempted:.4f} "
        f"({failed}/{attempted}); check_tail_s is p{summary.tail(walls)[0]:g}"
    ]
    for metric, value in metrics.items():
        lines.append(f"  {metric:42s} {value:.6g} {units.get(metric, '')}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="repeatable; default every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics of a traced child")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to seconds")
    parser.add_argument("--out", type=Path, default=SCRATCH / "results",
                        help="directory for result and span files")
    parser.add_argument("--regen-golden", action="store_true",
                        help="recompute golden.json with the tuple engine")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no checker sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    if args.regen_golden:
        sys.path.insert(0, str(ROOT / "src"))
        GOLDEN.write_text(json.dumps(workloads.regenerate_golden(), indent=1) + "\n")
        return 0
    golden = json.loads(GOLDEN.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.out.mkdir(parents=True, exist_ok=True)

    names = args.workload or list(workloads.WORKLOADS)
    units = {
        entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]
    }
    total_attempted = total_failed = 0
    combined: Dict[str, Dict[str, object]] = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.out)
        attempted, failed = _tally(run, golden)
        if not _timed(run["reports"]) or (
            args.trace and not (run["traced"] and _timed([run["traced"]]))
        ):
            sys.stderr.write(f"{name}: no check finished; no metrics\n")
            return 1
        metrics = end_to_end(run["reports"])
        layers = per_layer(run["traced"], metrics) if args.trace else {}
        if args.trace and run["traced"]["unwrapped"]:
            sys.stderr.write(
                f"{name}: layers no longer present: {run['traced']['unwrapped']}\n"
            )
        print(_describe(name, args.seed, run, {**metrics, **layers}, units,
                        attempted, failed))
        result = {
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "per_layer": layers,
            "children": run["reports"], "traced": run["traced"],
        }
        (args.out / f"{name}.seed{args.seed}.trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n"
        )
        total_attempted += attempted
        total_failed += failed
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, value in (layers if args.trace else metrics).items():
            combined[prefix + metric] = {"value": value, "unit": units.get(metric, "")}
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": combined,
    }))
    return 1 if total_failed else 0


if __name__ == "__main__":
    sys.exit(main())
