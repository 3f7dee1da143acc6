"""The ``repro verify-tree`` driver: incremental tiered verification.

:func:`verify_tree` walks a directory of ``.gcl`` spec files and
brings the whole tree to a verified state with as little work as the
manifest allows:

1. every spec is parsed and fingerprinted
   (:func:`repro.parallel.program_fingerprint`, canonical text plus
   semantics flags);
2. the fingerprints are diffed against the
   :class:`~repro.tiering.manifest.Manifest` of the previous run —
   unchanged specs replay their stored verdict byte for byte (zero
   engine fixpoints), changed/new specs are re-verified;
3. each spec to verify gets a tier from
   :func:`~repro.tiering.select.select_tier` (size, ledger history,
   or the forced ``--tier``) and runs the corresponding check —
   THOROUGH is exactly ``repro check`` (full exhaustive plus the
   worst-case convergence metric), STANDARD is the budgeted exhaustive
   check, LIGHT is the seeded Monte-Carlo estimate;
4. verified specs fan out through the existing
   :class:`~repro.parallel.pool.WorkerPool` when ``--workers`` asks
   for it (``map`` preserves order, so stdout is identical at every
   worker count);
5. the manifest and the risk ledger are updated and saved.

Output contract: **stdout carries only the verdict texts**, one block
per spec in sorted path order — so a warm run's stdout is byte-
identical to the cold run's, and a THOROUGH-tier block is byte-
identical to ``repro check`` on that file.  Markers (``[cached]`` /
``[verified]`` with the tier) and the summary line go to stderr.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, TextIO, Tuple

from ..gcl.parser import parse_program
from ..gcl.program import Program
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..parallel import program_fingerprint, resolve_workers
from ..parallel.pool import (
    WorkerPool,
    worker_context,
    worker_instrumentation,
)
from .ledger import RiskLedger
from .manifest import Manifest, ManifestEntry
from .montecarlo import light_convergence_estimate
from .select import (
    DEFAULT_THRESHOLDS,
    Tier,
    TierThresholds,
    select_tier,
)

__all__ = ["SpecOutcome", "TreeReport", "verify_tree"]

#: Where the manifest and ledger live relative to the tree root when
#: the caller does not say otherwise.
DEFAULT_STATE_DIR = ".repro-verify"


@dataclass(frozen=True)
class SpecOutcome:
    """One spec's verdict in a tree run.

    Attributes:
        path: spec path relative to the tree root (the manifest key).
        tier: the tier the verdict came from.
        replayed: the verdict came from the manifest, not an engine.
        holds: the verdict.
        partial: the check was cut at its state budget (never stored).
        text: the formatted verdict block.
    """

    path: str
    tier: str
    replayed: bool
    holds: bool
    partial: bool
    text: str


@dataclass
class TreeReport:
    """Everything one :func:`verify_tree` run decided.

    Attributes:
        outcomes: per-spec verdicts in sorted path order.
        removed: manifest entries dropped because their spec left the
            tree.
        params_changed: the check parameters moved, so the whole
            manifest was invalidated.
    """

    outcomes: List[SpecOutcome] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)
    params_changed: bool = False

    @property
    def verified(self) -> int:
        return sum(1 for o in self.outcomes if not o.replayed)

    @property
    def replayed(self) -> int:
        return sum(1 for o in self.outcomes if o.replayed)

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if not o.holds)

    @property
    def ok(self) -> bool:
        """Every spec in the tree holds."""
        return self.failed == 0


def _check_spec(
    program: Program,
    tier: Tier,
    *,
    fairness: str,
    engine: str,
    seed: int,
    thresholds: TierThresholds,
    instrumentation: Instrumentation,
) -> Tuple[bool, bool, str]:
    """Run one spec at its tier; returns ``(holds, partial, text)``.

    The THOROUGH branch is parameter-for-parameter ``repro check``
    (full exhaustive, worst-case convergence metric included), which is
    what makes THOROUGH ``verify-tree`` blocks byte-identical to the
    direct command.
    """
    from ..checker import check_self_stabilization

    if tier is Tier.LIGHT:
        estimate = light_convergence_estimate(
            program, seed=seed, instrumentation=instrumentation
        )
        return estimate.holds, estimate.is_partial, estimate.format()
    if tier is Tier.STANDARD:
        result = check_self_stabilization(
            program,
            fairness=fairness,
            compute_steps=False,
            state_budget=thresholds.standard_state_budget,
            instrumentation=instrumentation,
            engine=engine,
        )
    else:
        result = check_self_stabilization(
            program,
            fairness=fairness,
            instrumentation=instrumentation,
            engine=engine,
        )
    return result.holds, result.is_partial, result.format()


def _verify_spec_task(relpath: str) -> Tuple[str, bool, bool, str]:
    """Pool task: verify the staged spec named ``relpath``.

    Runs in a forked worker; the parsed programs, tier decisions, and
    check parameters arrive copy-on-write through the pool context
    (:func:`repro.parallel.pool.worker_context`), only this path string
    and the small result tuple cross the pipe.
    """
    context = worker_context()
    jobs: Mapping[str, Tuple[Program, Tier]] = context["verify_jobs"]  # type: ignore[assignment]
    params: Mapping[str, object] = context["verify_params"]  # type: ignore[assignment]
    program, tier = jobs[relpath]
    holds, partial, text = _check_spec(
        program,
        tier,
        fairness=str(params["fairness"]),
        engine=str(params["engine"]),
        seed=int(params["seed"]),  # type: ignore[call-overload]
        thresholds=params["thresholds"],  # type: ignore[arg-type]
        instrumentation=worker_instrumentation(),
    )
    return relpath, holds, partial, text


def verify_tree(
    root: str,
    *,
    manifest_path: Optional[str] = None,
    ledger_path: Optional[str] = None,
    forced_tier: Optional[Tier] = None,
    fairness: str = "none",
    engine: str = "packed",
    seed: int = 0,
    workers: int = 1,
    thresholds: TierThresholds = DEFAULT_THRESHOLDS,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> TreeReport:
    """Verify every ``.gcl`` spec under ``root``, incrementally.

    Args:
        root: the spec tree; walked recursively, specs processed in
            sorted relative-path order.
        manifest_path: the fingerprint manifest (default
            ``<root>/.repro-verify/manifest.json``).
        ledger_path: the risk ledger (default next to the manifest).
        forced_tier: pin every re-verified spec to one tier; an
            unchanged manifest entry verified at a *different* tier is
            treated as changed (the stored verdict does not answer the
            question being asked).
        fairness: daemon fairness for the exhaustive tiers; part of
            the fingerprint semantics, so flipping it invalidates the
            manifest.
        engine: checker engine for the exhaustive tiers (excluded from
            fingerprints — verdicts are engine-identical).
        seed: the LIGHT sampler seed; a manifest parameter.
        workers: fan re-verified specs across this many forked workers
            (the verdict stream is order-preserved and identical at
            every count).
        thresholds: tier-selection tunables.
        instrumentation: observability sink (``tier.select`` events,
            ``verify.*`` counters, worker telemetry).
        out: verdict stream (stdout contract in the module docstring);
            the *current* ``sys.stdout`` when omitted.
        err: marker/summary stream (``sys.stderr`` when omitted).

    Returns:
        A :class:`TreeReport`; callers map ``report.ok`` to the exit
        status.

    Raises:
        FileNotFoundError: when ``root`` is not a directory.
    """
    # Resolved here, not in the defaults: binding the streams at
    # definition time would pin whatever sys.stdout was at import.
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    tree = Path(root)
    if not tree.is_dir():
        raise FileNotFoundError(f"spec tree {root!r} is not a directory")
    state_dir = tree / DEFAULT_STATE_DIR
    manifest = Manifest(manifest_path or state_dir / "manifest.json")
    ledger = RiskLedger(ledger_path or state_dir / "ledger.json")

    semantics = {"keep_stutter": True, "fairness": fairness}
    params: Dict[str, object] = {"fairness": fairness, "seed": seed}

    programs: Dict[str, Program] = {}
    fingerprints: Dict[str, str] = {}
    for path in sorted(tree.rglob("*.gcl")):
        relpath = path.relative_to(tree).as_posix()
        with open(path, "r", encoding="utf-8") as handle:
            program = parse_program(handle.read())
        programs[relpath] = program
        fingerprints[relpath] = program_fingerprint(
            program, semantics=semantics
        )

    diff = manifest.diff(fingerprints, params)
    replayable = []
    pending = sorted(diff.changed + diff.added)
    for relpath in diff.unchanged:
        entry = manifest.entry(relpath)
        if forced_tier is not None and entry is not None and (
            entry.tier != forced_tier.value
        ):
            pending.append(relpath)  # stored verdict answers another tier
        else:
            replayable.append(relpath)
    pending.sort()

    jobs: Dict[str, Tuple[Program, Tier]] = {}
    for relpath in pending:
        decision = select_tier(
            programs[relpath],
            label=relpath,
            history=ledger.history(relpath),
            forced=forced_tier,
            thresholds=thresholds,
            instrumentation=instrumentation,
        )
        jobs[relpath] = (programs[relpath], decision.tier)

    verified: Dict[str, Tuple[bool, bool, str]] = {}
    pool_workers = resolve_workers(workers) if pending else 1
    if pool_workers > 1:
        instrumentation.count("parallel.workers", pool_workers)
        pool_params = dict(params, engine=engine, thresholds=thresholds)
        with WorkerPool(
            pool_workers, verify_jobs=jobs, verify_params=pool_params
        ) as pool:
            results = pool.map_observed(
                _verify_spec_task, pending, instrumentation
            )
        for relpath, holds, partial, text in results:
            verified[relpath] = (holds, partial, text)
    else:
        for relpath in pending:
            program, tier = jobs[relpath]
            verified[relpath] = _check_spec(
                program,
                tier,
                fairness=fairness,
                engine=engine,
                seed=seed,
                thresholds=thresholds,
                instrumentation=instrumentation,
            )

    report = TreeReport(params_changed=diff.params_changed)
    for relpath in sorted(fingerprints):
        if relpath in verified:
            holds, partial, text = verified[relpath]
            tier = jobs[relpath][1].value
            report.outcomes.append(
                SpecOutcome(relpath, tier, False, holds, partial, text)
            )
            ledger.record(
                relpath,
                holds=holds,
                partial=partial,
                tier=tier,
                fingerprint=fingerprints[relpath],
            )
            if not partial:
                manifest.store(
                    relpath,
                    ManifestEntry(
                        fingerprint=fingerprints[relpath],
                        tier=tier,
                        holds=holds,
                        text=text,
                    ),
                    params,
                )
            print(f"[verified] {relpath} tier={tier}", file=err)
        else:
            entry = manifest.entry(relpath)
            assert entry is not None  # replayable came from the manifest
            report.outcomes.append(
                SpecOutcome(
                    relpath, entry.tier, True, entry.holds, False, entry.text
                )
            )
            print(f"[cached] {relpath} tier={entry.tier}", file=err)
        print(report.outcomes[-1].text, file=out)

    for relpath in diff.removed:
        manifest.remove(relpath)
        ledger.forget(relpath)
        report.removed.append(relpath)
        print(f"[removed] {relpath}", file=err)

    manifest.save()
    ledger.save()

    instrumentation.count("verify.specs", len(report.outcomes))
    instrumentation.count("verify.verified", report.verified)
    instrumentation.count("verify.replayed", report.replayed)
    instrumentation.count("verify.removed", len(report.removed))
    instrumentation.count("verify.failed", report.failed)
    instrumentation.event(
        "verify.summary",
        root=str(tree),
        specs=len(report.outcomes),
        verified=report.verified,
        replayed=report.replayed,
        removed=len(report.removed),
        failed=report.failed,
        params_changed=diff.params_changed,
    )
    print(
        f"verify-tree: specs={len(report.outcomes)} "
        f"verified={report.verified} replayed={report.replayed} "
        f"removed={len(report.removed)} failed={report.failed}",
        file=err,
    )
    return report
