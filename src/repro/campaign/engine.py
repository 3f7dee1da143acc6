"""The resilient campaign executor.

Executes a grid of :class:`~repro.campaign.grid.CellSpec` cells with
the four resilience properties the soak-testing workload needs:

* **Timeouts** — every simulation cell runs under a cooperative
  wall-clock deadline (:func:`repro.simulation.runner.execute`); a
  pathological run ends as a first-class ``timeout`` outcome and the
  campaign moves on.  The deadline covers simulation cells only.
* **Crash isolation** — a cell that raises is retried up to
  ``retries`` times with deterministically derived sub-seeds; if every
  attempt crashes the cell is recorded as ``error`` and the campaign
  continues.  Only ``KeyboardInterrupt`` stops the sweep.
* **Checkpoint/resume** — each finished cell is appended to the
  checkpoint file as one tagged JSONL line *and flushed* before the
  next cell starts, so an interrupt (SIGINT, OOM kill, power loss)
  between cells loses at most the cell in flight.  Resuming verifies
  the grid fingerprint and skips every completed cell.
* **Bounded checks** — verification cells are exact.  Under
  ``--mem-budget`` a check runs on the shared engine where it applies,
  whose resident arrays that budget bounds (past it they spill to
  disk); elsewhere a check holds its whole state space in memory.

Suspected-divergence runs archive their full trace (when a trace
directory is configured) so the non-converging schedule can be
replayed and inspected with ``repro report``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import SimulationError
from ..obs import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    Recorder,
    RunRecord,
    append_jsonl_line,
)
from ..parallel.pool import using_worker_instrumentation, worker_instrumentation
from ..resilience import chaos
from ..simulation.faults import FaultSchedule
from ..simulation.metrics import legitimacy_predicate
from ..simulation.runner import SimStatus, execute
from .earlystop import ConvergenceDetector, class_key
from .grid import (
    SYSTEMS,
    CellSpec,
    build_injector,
    build_scheduler,
    derive_seed,
    grid_signature,
)
from .outcomes import CellResult, CellStatus

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "execute_cell",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables shared by every cell of a campaign.

    Attributes:
        steps: step budget per simulation run.
        deadline: wall-clock budget per run in seconds (``None``
            disables the timeout).
        retries: extra attempts (each with a fresh derived sub-seed)
            after a crashed attempt; timeouts are recorded, not
            retried — a deadline that tripped once will almost
            certainly trip again.
        seed: the campaign master seed every sub-seed derives from.
        fault_count: transient faults injected per run, as a burst
            before steps ``0 .. fault_count-1``.
        checkpoint: the tagged-JSONL checkpoint file (``None`` =
            in-memory only, no resume).
        trace_dir: where suspected-divergence traces are archived
            (``None`` = do not archive).
        workers: worker processes executing grid cells concurrently
            (``1`` = sequential).  Cells land in the checkpoint in
            completion order, but rows are keyed by cell id and the
            assembled results stay in grid order, so a campaign can be
            resumed under any other worker count.  Sub-seeds derive
            from cell ids, never from execution order, so per-cell
            outcomes are identical at every worker count.
        cache_dir: root of the content-addressed verification cache
            (``None`` = no caching).  Verification cells whose program
            and parameters match a cached verdict are served from disk
            (their ``detail`` gains a ``[cached]`` marker); ``error``
            outcomes are never cached.
        engine: checker engine for verification cells — ``"vector"``
            (whole-frontier arrays, falling back to the packed kernel
            and then to tuple where they cannot apply), ``"packed"``
            (an alias of ``"vector"``) or ``"tuple"``.  Verdicts are
            identical either way, so the engine is — like ``workers``
            — excluded from the verification cache key.
        early_stop: stop sweeping a cell class (same system, size,
            scheduler, and injector) once its last ``early_stop``
            outcomes are identical (``None`` = sweep every seed); the
            skipped cells become first-class ``earlystop`` results.
            Deterministic: observations are fed in grid order in both
            sweep modes (see :mod:`repro.campaign.earlystop`).

    Raises:
        SimulationError: on a non-positive budget or an unknown
            engine, so a misconfigured campaign dies before the first
            cell rather than deep in a run.
    """

    steps: int = 5000
    deadline: Optional[float] = 10.0
    retries: int = 1
    seed: int = 0
    fault_count: int = 1
    checkpoint: Optional[Union[str, Path]] = None
    trace_dir: Optional[Union[str, Path]] = None
    workers: int = 1
    cache_dir: Optional[Union[str, Path]] = None
    engine: str = "vector"
    early_stop: Optional[int] = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise SimulationError(f"steps must be positive, got {self.steps}")
        if self.engine not in ("packed", "tuple", "vector"):
            raise SimulationError(
                f"unknown engine {self.engine!r}; expected one of 'packed', "
                f"'tuple', 'vector'"
            )
        if self.workers < 1:
            raise SimulationError(
                f"workers must be positive, got {self.workers}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise SimulationError(
                f"deadline must be positive seconds, got {self.deadline}"
            )
        if self.retries < 0:
            raise SimulationError(f"retries must be >= 0, got {self.retries}")
        if self.fault_count < 1:
            raise SimulationError(
                f"fault count must be positive, got {self.fault_count}"
            )
        if self.early_stop is not None and self.early_stop < 1:
            raise SimulationError(
                f"early-stop window must be positive, got {self.early_stop}"
            )


@dataclass
class CampaignResult:
    """What a (possibly partial) campaign run produced.

    Attributes:
        results: one :class:`CellResult` per *finished* cell, in grid
            order — both the cells executed now and those restored
            from the checkpoint.
        executed: cells executed in this invocation.
        skipped: cells restored from the checkpoint and not re-run.
        pending: cells still to do (non-zero after an interrupt).
        interrupted: whether the sweep stopped on ``KeyboardInterrupt``.
    """

    results: List[CellResult] = field(default_factory=list)
    executed: int = 0
    skipped: int = 0
    pending: int = 0
    interrupted: bool = False

    def counts(self) -> Dict[CellStatus, int]:
        """Finished cells per outcome."""
        tally: Dict[CellStatus, int] = {}
        for result in self.results:
            tally[result.status] = tally.get(result.status, 0) + 1
        return tally

    @property
    def ok(self) -> bool:
        """No errors and nothing left pending."""
        return not self.interrupted and self.pending == 0 and not any(
            result.status is CellStatus.ERROR for result in self.results
        )


def _trace_path(trace_dir: Union[str, Path], cell_id: str) -> Path:
    """Filesystem-safe archive path for one cell's trace."""
    return Path(trace_dir) / (cell_id.replace(":", "_") + ".trace.jsonl")


def _attempt_simulation(
    cell: CellSpec, config: CampaignConfig, seed: int
) -> CellResult:
    """One attempt at a simulation cell (may raise; caller isolates)."""
    entry = SYSTEMS[cell.system]
    program = entry.builder(cell.n)
    predicate = legitimacy_predicate(entry.legit_kind, cell.n)
    injector = build_injector(cell.injector)
    injector.validate(program)
    scheduler = build_scheduler(cell.scheduler, entry.legit_kind, cell.n)
    faults = FaultSchedule(range(config.fault_count), injector)
    outcome = execute(
        program,
        config.steps,
        scheduler=scheduler,
        faults=faults,
        stop_when=predicate,
        seed=seed,
        deadline=config.deadline,
        instrumentation=worker_instrumentation(),
    )
    cell_id = cell.cell_id()
    if outcome.status is SimStatus.CONVERGED:
        return CellResult(
            cell_id, CellStatus.CONVERGED, 1, outcome.wall_seconds,
            steps=outcome.steps, seed=seed,
            detail=f"converged in {outcome.steps} steps",
        )
    if outcome.status is SimStatus.TIMEOUT:
        return CellResult(
            cell_id, CellStatus.TIMEOUT, 1, outcome.wall_seconds,
            steps=outcome.steps, seed=seed,
            detail=f"deadline of {config.deadline}s elapsed "
            f"after {outcome.steps} steps",
        )
    if outcome.status is SimStatus.DEADLOCK and predicate(outcome.trace.final()):
        return CellResult(
            cell_id, CellStatus.CONVERGED, 1, outcome.wall_seconds,
            steps=outcome.steps, seed=seed,
            detail="halted inside the legitimate set",
        )
    # Step budget exhausted (or an illegitimate halt): suspected
    # divergence — archive the trace for replay when configured.
    trace_path: Optional[str] = None
    if config.trace_dir is not None:
        path = _trace_path(config.trace_dir, cell_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(outcome.trace.to_jsonl(), encoding="utf-8")
        trace_path = str(path)
    reason = (
        "deadlocked outside the legitimate set"
        if outcome.status is SimStatus.DEADLOCK
        else f"no convergence within {config.steps} steps"
    )
    return CellResult(
        cell_id, CellStatus.DIVERGED, 1, outcome.wall_seconds,
        steps=outcome.steps, seed=seed,
        detail=f"suspected divergence: {reason}", trace_path=trace_path,
    )


def _check_cache_key(cell: CellSpec, config: CampaignConfig) -> str:
    """The content address of one verification cell's verdict.

    Keyed on the canonical fingerprints of the concrete and spec
    programs plus the verdict-relevant parameters.  The fingerprints
    carry the semantics flags the programs are checked under
    (``keep_stutter``, the fairness mode): the same source under
    different semantics is a different transition system and must not
    share a verdict.  Execution-only knobs (workers, the checker
    engine, deadlines, checkpoint paths) are excluded: they cannot
    change the verdict, so runs under different settings share
    entries.
    """
    from ..parallel import cache_key, program_fingerprint

    entry = SYSTEMS[cell.system]
    semantics = {"keep_stutter": True, "fairness": entry.fairness}
    return cache_key(
        "campaign-check",
        [
            program_fingerprint(entry.builder(cell.n), semantics=semantics),
            program_fingerprint(entry.spec_builder(cell.n), semantics=semantics),
        ],
        {
            "system": cell.system,
            "n": cell.n,
            "fairness": entry.fairness,
            "stutter_insensitive": entry.stutter_insensitive,
        },
    )


def _attempt_check(cell: CellSpec, config: CampaignConfig) -> CellResult:
    """One attempt at a verification cell (may raise; caller isolates)."""
    from ..checker.convergence import check_stabilization

    cache = key = None
    if config.cache_dir is not None:
        from ..parallel import VerificationCache

        cache = VerificationCache(config.cache_dir)
        key = _check_cache_key(cell, config)
        hit = cache.get(key)
        if hit is not None:
            cached = CellResult.from_payload(dict(hit))
            return CellResult(
                cached.cell_id, cached.status, cached.attempts,
                cached.seconds, steps=cached.steps, seed=cached.seed,
                detail=cached.detail + " [cached]",
                trace_path=cached.trace_path,
            )
    entry = SYSTEMS[cell.system]
    start = time.perf_counter()
    # Programs go in uncompiled: the packed engine lowers them straight
    # to a successor kernel, never materializing the transition table
    # (the tuple engine compiles them itself; verdicts are identical).
    concrete = entry.builder(cell.n)
    spec = entry.spec_builder(cell.n)
    alpha = entry.alpha_builder(cell.n) if entry.alpha_builder else None
    result = check_stabilization(
        concrete,
        spec,
        alpha,
        stutter_insensitive=entry.stutter_insensitive,
        fairness=entry.fairness,
        compute_steps=False,
        engine=config.engine,
        instrumentation=worker_instrumentation(),
    )
    seconds = time.perf_counter() - start
    cell_id = cell.cell_id()
    if result.holds:
        outcome = CellResult(
            cell_id, CellStatus.CONVERGED, 1, seconds,
            detail=f"stabilization verified (core {len(result.core)} states)",
        )
    else:
        witness = result.result.witness
        kind = witness.kind.value if witness is not None else "unknown"
        outcome = CellResult(
            cell_id, CellStatus.DIVERGED, 1, seconds,
            detail=f"stabilization fails: {kind}",
        )
    if cache is not None and key is not None:
        cache.put(key, outcome.to_payload())
    return outcome


def execute_cell(cell: CellSpec, config: CampaignConfig) -> CellResult:
    """Run one cell to a guaranteed outcome — never raises (except
    ``KeyboardInterrupt``).

    Crashed attempts retry with sub-seeds derived from
    ``(campaign seed, cell id, attempt)``; a cell whose every attempt
    crashed is recorded as ``error`` carrying the last exception.
    """
    cell_id = cell.cell_id()
    start = time.perf_counter()
    last_error: Optional[BaseException] = None
    attempts = 0
    for attempt in range(config.retries + 1):
        attempts += 1
        try:
            if cell.kind == "check":
                result = _attempt_check(cell, config)
            else:
                seed = derive_seed(config.seed, cell_id, attempt)
                result = _attempt_simulation(cell, config, seed)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # crash isolation: anything else
            last_error = exc
            continue
        if attempts > 1:
            result = CellResult(
                result.cell_id, result.status, attempts,
                time.perf_counter() - start, steps=result.steps,
                seed=result.seed,
                detail=result.detail + f" (after {attempts - 1} crashed "
                f"attempt{'s' if attempts > 2 else ''})",
                trace_path=result.trace_path,
            )
        return result
    return CellResult(
        cell_id, CellStatus.ERROR, attempts,
        time.perf_counter() - start,
        detail=f"{type(last_error).__name__}: {last_error}",
    )


def _earlystop_result(cell: CellSpec, settled: str, window: int) -> CellResult:
    """The first-class record of a cell skipped by early stopping."""
    return CellResult(
        cell.cell_id(), CellStatus.EARLYSTOP, 0, 0.0,
        detail=f"class {class_key(cell)} settled at '{settled}' "
        f"({window} identical outcomes)",
    )


def _note_cell(
    instrumentation: Instrumentation, result: CellResult
) -> None:
    """Driver-side per-cell bookkeeping shared by both sweep modes.

    Counts executed cells and per-status tallies, keeps cache hits
    under their own ``cache.hit`` metric (a ``[cached]`` cell was
    served from disk, not verified again), and feeds the
    convergence-step distribution histogram — the quantity the
    convergence-time workloads in PAPERS.md are about.
    """
    instrumentation.count("campaign.cells.executed")
    instrumentation.count(f"campaign.status.{result.status.value}")
    if result.status is CellStatus.EARLYSTOP:
        instrumentation.count("campaign.earlystop")
        instrumentation.event(
            "campaign.earlystop", id=result.cell_id, detail=result.detail
        )
    if "[cached]" in result.detail:
        instrumentation.count("cache.hit")
    if result.status is CellStatus.CONVERGED and result.steps is not None:
        instrumentation.observe("campaign.converge.steps", result.steps)
    instrumentation.event(
        "campaign.cell",
        id=result.cell_id,
        status=result.status.value,
        attempts=result.attempts,
        seconds=result.seconds,
    )


def _read_checkpoint_rows(
    file: Path, instrumentation: Instrumentation
) -> List[Dict[str, object]]:
    """All tagged payloads in the checkpoint, tolerating a torn tail.

    A crash (SIGKILL, power loss) mid-append leaves exactly one
    artifact: a *final* line that is not complete JSON.  That line is
    the cell that was in flight, and the checkpoint contract already
    concedes the in-flight cell — so the torn tail is dropped with a
    ``campaign.checkpoint.truncated`` event and the resume simply
    re-runs that cell.  A malformed line anywhere else is not a crash
    signature (appends are sequential and flushed) and stays fatal.
    """
    lines = file.read_text(encoding="utf-8").splitlines()
    last_content = -1
    for index, line in enumerate(lines):
        if line.strip():
            last_content = index
    rows: List[Dict[str, object]] = []
    for index, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            if index == last_content:
                instrumentation.count("resilience.checkpoint.truncated")
                instrumentation.event(
                    "campaign.checkpoint.truncated",
                    path=str(file),
                    line=index + 1,
                    bytes=len(line),
                )
                break
            raise SimulationError(
                f"checkpoint {file} line {index + 1} is corrupt ({exc}); "
                "only a truncated final line (a crash mid-append) is "
                "recoverable — remove the file to start over"
            )
        if isinstance(payload, dict):
            rows.append(payload)
    return rows


#: Cell statuses older checkpoints may hold that no longer classify a
#: cell: ``partial`` was a check cut at the retired state budget.
_RETIRED_STATUSES = frozenset({"partial"})


def _load_checkpoint(
    path: Union[str, Path],
    cells: Sequence[CellSpec],
    resume: bool,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
) -> Dict[str, CellResult]:
    """Completed cells from an existing checkpoint, after validation."""
    file = Path(path)
    if not file.exists():
        return {}
    if not resume:
        raise SimulationError(
            f"checkpoint {file} already exists; resume the campaign "
            "(--resume) or remove the file to start over"
        )
    rows = _read_checkpoint_rows(file, instrumentation)
    headers = [row for row in rows if row.get("t") == "campaign-meta"]
    signature = grid_signature(cells)
    if headers and headers[-1].get("grid") != signature:
        raise SimulationError(
            f"checkpoint {file} was written for a different grid "
            f"({headers[-1].get('grid')} != {signature}); refusing to "
            "resume — rerun with the original axes or remove the file"
        )
    completed: Dict[str, CellResult] = {}
    for payload in rows:
        if payload.get("t") != "campaign-cell":
            continue
        if payload.get("status") in _RETIRED_STATUSES:
            continue  # not an outcome any more: the cell runs again
        result = CellResult.from_payload(payload)
        completed[result.cell_id] = result
    return completed


def run_campaign(
    cells: Sequence[CellSpec],
    config: CampaignConfig,
    resume: bool = False,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    executor: Callable[[CellSpec, CampaignConfig], CellResult] = execute_cell,
    on_cell: Optional[Callable[[CellSpec, CellResult], None]] = None,
) -> CampaignResult:
    """Sweep ``cells`` resiliently; see the module docstring.

    Args:
        cells: the grid, in execution order.
        config: shared tunables (budgets, checkpoint, master seed).
        resume: continue from ``config.checkpoint`` — required when
            the file already exists (a guard against accidentally
            mixing two campaigns), harmless when it does not.
        instrumentation: observability sink — per-cell events plus
            executed/skipped/status counters.
        executor: the per-cell runner (injectable for tests).
        on_cell: optional progress callback after each executed cell.

    Returns:
        A :class:`CampaignResult`; ``interrupted`` is set (instead of
        the ``KeyboardInterrupt`` propagating) when the sweep was cut
        short, with the checkpoint already flushed for every finished
        cell.

    Raises:
        SimulationError: when the checkpoint exists without ``resume``
            or belongs to a different grid.
    """
    completed: Dict[str, CellResult] = {}
    if config.checkpoint is not None:
        completed = _load_checkpoint(
            config.checkpoint, cells, resume, instrumentation
        )
        if not Path(config.checkpoint).exists():
            append_jsonl_line(
                config.checkpoint,
                {
                    "t": "campaign-meta",
                    "grid": grid_signature(cells),
                    "cells": len(cells),
                    "seed": config.seed,
                    "steps": config.steps,
                },
            )
    instrumentation.annotate(
        cells=len(cells), seed=config.seed, steps=config.steps
    )
    campaign = CampaignResult()
    workers = config.workers
    if workers > 1:
        from ..parallel import resolve_workers

        workers = resolve_workers(workers)
    if workers > 1:
        return _run_campaign_parallel(
            cells, config, completed, workers, instrumentation,
            executor, on_cell, campaign,
        )
    detector = (
        ConvergenceDetector(config.early_stop)
        if config.early_stop is not None
        else None
    )
    interrupted_at: Optional[int] = None
    for index, cell in enumerate(cells):
        cell_id = cell.cell_id()
        if cell_id in completed:
            campaign.skipped += 1
            campaign.results.append(completed[cell_id])
            instrumentation.count("campaign.cells.skipped")
            if detector is not None:
                detector.observe(cell, completed[cell_id].status)
            continue
        settled = detector.settled(cell) if detector is not None else None
        if settled is not None:
            assert config.early_stop is not None
            result = _earlystop_result(cell, settled, config.early_stop)
        else:
            try:
                # In-process cells report straight to the run's sink (the
                # same slot forked workers rebind to their own recorder).
                with using_worker_instrumentation(instrumentation):
                    result = executor(cell, config)
            except KeyboardInterrupt:
                interrupted_at = index
                break
            if detector is not None:
                detector.observe(cell, result.status)
        campaign.executed += 1
        campaign.results.append(result)
        _note_cell(instrumentation, result)
        if config.checkpoint is not None:
            append_jsonl_line(config.checkpoint, result.to_payload())
            chaos.checkpoint_appended(config.checkpoint)
        if on_cell is not None:
            on_cell(cell, result)
    if interrupted_at is not None:
        campaign.interrupted = True
        campaign.pending = len(cells) - interrupted_at
        instrumentation.event(
            "campaign.interrupted", at=interrupted_at, pending=campaign.pending
        )
    return campaign


def _run_cell_task(
    item: "Tuple[int, CellSpec]",
) -> "Tuple[int, CellResult, Optional[RunRecord]]":
    """Pool task: run one grid cell with the fork-inherited executor.

    The executor and config ride into the worker through the pool's
    copy-on-write context (they may be closures, which do not pickle);
    only the ``(index, cell)`` pair crosses as a pickle.  When the
    driver staged ``campaign_record`` in the context, the cell runs
    under a fresh per-cell :class:`Recorder` whose snapshot travels
    back with the result for the driver to absorb; otherwise the
    record slot comes back ``None`` and telemetry costs nothing.
    """
    from ..parallel.pool import worker_context

    index, cell = item
    ctx = worker_context()
    executor: Callable[[CellSpec, CampaignConfig], CellResult] = (
        ctx["campaign_executor"]  # type: ignore[assignment]
    )
    config: CampaignConfig = ctx["campaign_config"]  # type: ignore[assignment]
    if not ctx.get("campaign_record"):
        return index, executor(cell, config), None
    recorder = Recorder(kind="worker")
    with using_worker_instrumentation(recorder):
        result = executor(cell, config)
    return index, result, recorder.record()


def _run_class_batch_task(
    payload: "Tuple[Tuple[Tuple[int, CellSpec], ...], Tuple[str, ...]]",
) -> "List[Tuple[int, CellResult, Optional[RunRecord]]]":
    """Pool task: run one cell class sequentially, early-stopping its tail.

    Under ``--early-stop`` the unit of parallel dispatch is the *class*
    (all pending seeds of one (system, size, scheduler, injector)
    combination), not the cell: the stopping rule reads the class's
    outcomes in grid order, so the class must execute in grid order.
    Classes still sweep concurrently.  ``payload`` carries the class's
    pending ``(index, cell)`` pairs plus the statuses of its
    checkpoint-restored cells (grid order) so a resumed class resumes
    its evidence trail too.
    """
    from ..parallel.pool import worker_context

    items, priors = payload
    ctx = worker_context()
    executor: Callable[[CellSpec, CampaignConfig], CellResult] = (
        ctx["campaign_executor"]  # type: ignore[assignment]
    )
    config: CampaignConfig = ctx["campaign_config"]  # type: ignore[assignment]
    assert config.early_stop is not None
    detector = ConvergenceDetector(config.early_stop)
    for status_value in priors:
        detector.observe(items[0][1], CellStatus(status_value))
    entries: List[Tuple[int, CellResult, Optional[RunRecord]]] = []
    for index, cell in items:
        settled = detector.settled(cell)
        if settled is not None:
            entries.append(
                (index, _earlystop_result(cell, settled, config.early_stop), None)
            )
            continue
        record: Optional[RunRecord] = None
        if ctx.get("campaign_record"):
            recorder = Recorder(kind="worker")
            with using_worker_instrumentation(recorder):
                result = executor(cell, config)
            record = recorder.record()
        else:
            result = executor(cell, config)
        detector.observe(cell, result.status)
        entries.append((index, result, record))
    return entries


def _run_campaign_parallel(
    cells: Sequence[CellSpec],
    config: CampaignConfig,
    completed: Dict[str, CellResult],
    workers: int,
    instrumentation: Instrumentation,
    executor: Callable[[CellSpec, CampaignConfig], CellResult],
    on_cell: Optional[Callable[[CellSpec, CellResult], None]],
    campaign: CampaignResult,
) -> CampaignResult:
    """The ``workers > 1`` body of :func:`run_campaign`.

    Pending cells fan out over a worker pool; the driver remains the
    only checkpoint writer, appending each result the moment it lands
    (completion order).  The assembled ``results`` list is rebuilt in
    grid order at the end, so callers — and resumes under any other
    worker count — see exactly what the sequential sweep produces:
    checkpoint rows are keyed by cell id, never by worker or arrival
    position.
    """
    from ..parallel.pool import WorkerPool

    instrumentation.count("parallel.workers", workers)
    pending_items: List[Tuple[int, CellSpec]] = []
    for index, cell in enumerate(cells):
        if cell.cell_id() in completed:
            campaign.skipped += 1
            instrumentation.count("campaign.cells.skipped")
        else:
            pending_items.append((index, cell))
    finished: Dict[int, CellResult] = {}
    interrupted = False
    record_workers = instrumentation is not NULL_INSTRUMENTATION

    def land(index: int, result: CellResult, record: Optional[RunRecord]) -> None:
        finished[index] = result
        campaign.executed += 1
        if record is not None:
            instrumentation.absorb(record)
        _note_cell(instrumentation, result)
        if config.checkpoint is not None:
            append_jsonl_line(config.checkpoint, result.to_payload())
            chaos.checkpoint_appended(config.checkpoint)
        if on_cell is not None:
            on_cell(cells[index], result)

    if pending_items:
        with WorkerPool(
            workers,
            campaign_executor=executor,
            campaign_config=config,
            campaign_record=record_workers,
        ) as pool:
            try:
                if config.early_stop is not None:
                    # Dispatch whole classes: the stopping rule needs
                    # each class's outcomes in grid order (see
                    # _run_class_batch_task).
                    priors: Dict[str, List[str]] = {}
                    for cell in cells:
                        done = completed.get(cell.cell_id())
                        if done is not None:
                            priors.setdefault(class_key(cell), []).append(
                                done.status.value
                            )
                    batches: Dict[str, List[Tuple[int, CellSpec]]] = {}
                    for index, cell in pending_items:
                        batches.setdefault(class_key(cell), []).append(
                            (index, cell)
                        )
                    payloads = [
                        (tuple(items), tuple(priors.get(key, ())))
                        for key, items in batches.items()
                    ]
                    for entries in pool.imap_unordered(
                        _run_class_batch_task, payloads
                    ):
                        for index, result, record in entries:
                            land(index, result, record)
                else:
                    for index, result, record in pool.imap_unordered(
                        _run_cell_task, pending_items
                    ):
                        land(index, result, record)
            except KeyboardInterrupt:
                interrupted = True
    for index, cell in enumerate(cells):
        cell_id = cell.cell_id()
        if cell_id in completed:
            campaign.results.append(completed[cell_id])
        elif index in finished:
            campaign.results.append(finished[index])
    if interrupted:
        campaign.interrupted = True
        campaign.pending = len(cells) - len(campaign.results)
        instrumentation.event(
            "campaign.interrupted",
            at=len(campaign.results),
            pending=campaign.pending,
        )
    return campaign
