"""The ``repro verify-tree`` driver: verify a spec tree, replaying cached verdicts.

:func:`verify_tree` walks a directory of ``.gcl`` spec files and
brings the whole tree to a verified state with as little work as the
verification cache allows:

1. every spec is parsed and keyed by
   :func:`~repro.parallel.cache.check_cache_key` — the key ``repro
   check FILE --fairness F`` stores its verdict under, so the two
   commands share entries;
2. a spec whose key the :class:`~repro.parallel.VerificationCache`
   holds replays the stored verdict byte for byte, with no engine
   fixpoint;
3. every other spec runs exactly ``repro check`` (exhaustive, with
   the worst-case convergence metric), fanned out through the
   :class:`~repro.parallel.pool.WorkerPool` when ``--workers`` asks
   for it (``map`` preserves order, so stdout is identical at every
   worker count);
4. after the pool returns, the driver — the cache's only writer —
   stores the new verdicts and the tree's path index: the relative
   paths of this run, as one cache entry keyed by the resolved tree
   root.  A path of the previous index that is no longer on disk is
   reported removed.

Every cache entry is digest-checked, so a damaged verdict reads as a
miss (``cache.corrupt``) and is recomputed, and a damaged index costs
that run its ``[removed]`` lines.  Neither costs a wrong verdict.

Output contract: **stdout carries only the verdict texts**, one block
per spec in sorted path order, each byte-identical to ``repro check``
on that file — so a warm run's stdout is the cold run's.  Markers
(``[cached]`` / ``[verified]`` / ``[removed]``) and the summary line go
to stderr.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, TextIO, Tuple

from .gcl.parser import parse_program
from .gcl.program import Program
from .obs import NULL_INSTRUMENTATION, Instrumentation
from .parallel import (
    VerificationCache,
    cache_key,
    check_cache_key,
    resolve_workers,
)
from .parallel.pool import WorkerPool, worker_context, worker_instrumentation

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SpecOutcome",
    "TreeReport",
    "index_key",
    "verify_tree",
]

#: Where the cache lives relative to the tree root when the caller
#: does not say otherwise.
DEFAULT_CACHE_DIR = ".repro-verify"


@dataclass(frozen=True)
class SpecOutcome:
    """One spec's verdict in a tree run.

    Attributes:
        path: spec path relative to the tree root.
        replayed: the verdict came from the cache, not an engine.
        holds: the verdict.
        text: the formatted verdict block.
    """

    path: str
    replayed: bool
    holds: bool
    text: str


@dataclass
class TreeReport:
    """Everything one :func:`verify_tree` run decided.

    Attributes:
        outcomes: per-spec verdicts in sorted path order.
        removed: paths of the previous run's index no longer on disk.
    """

    outcomes: List[SpecOutcome] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

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


def index_key(root: Path) -> str:
    """The cache key of the path index of the tree at ``root``."""
    return cache_key("verify-tree-index", [], {"root": str(root.resolve())})


def _check_spec(
    program: Program,
    *,
    fairness: str,
    engine: str,
    instrumentation: Instrumentation,
) -> Tuple[bool, str]:
    """Run ``repro check`` on one spec; returns ``(holds, text)``."""
    from .checker import check_self_stabilization

    result = check_self_stabilization(
        program,
        fairness=fairness,
        instrumentation=instrumentation,
        engine=engine,
    )
    return result.holds, result.format()


def _verify_spec_task(relpath: str) -> Tuple[str, bool, str]:
    """Pool task: verify the staged spec named ``relpath``.

    Runs in a forked worker; the parsed programs and check parameters
    arrive copy-on-write through the pool context
    (:func:`repro.parallel.pool.worker_context`), only this path string
    and the small result tuple cross the pipe.
    """
    context = worker_context()
    programs: Mapping[str, Program] = context["verify_programs"]  # type: ignore[assignment]
    params: Mapping[str, str] = context["verify_params"]  # type: ignore[assignment]
    holds, text = _check_spec(
        programs[relpath],
        fairness=params["fairness"],
        engine=params["engine"],
        instrumentation=worker_instrumentation(),
    )
    return relpath, holds, text


def verify_tree(
    root: str,
    *,
    cache_dir: Optional[str] = None,
    fairness: str = "none",
    engine: str = "vector",
    workers: int = 1,
    instrumentation: Instrumentation = NULL_INSTRUMENTATION,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> TreeReport:
    """Verify every ``.gcl`` spec under ``root``, replaying cached verdicts.

    Args:
        root: the spec tree; walked recursively, specs processed in
            sorted relative-path order.
        cache_dir: the verification cache (default
            ``<root>/.repro-verify``); ``repro check --cache-dir`` reads
            and fills the same entries.
        fairness: daemon fairness; part of the cache key, so a flip
            re-keys every spec and flipping back replays the old
            entries.
        engine: checker engine (excluded from the key — verdicts are
            engine-identical).
        workers: fan re-verified specs across this many forked workers
            (the verdict stream is order-preserved and identical at
            every count).
        instrumentation: observability sink (``cache.*`` and
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
    cache = VerificationCache(
        cache_dir if cache_dir is not None else tree / DEFAULT_CACHE_DIR,
        instrumentation,
    )

    programs: Dict[str, Program] = {}
    keys: Dict[str, str] = {}
    for path in sorted(tree.rglob("*.gcl")):
        relpath = path.relative_to(tree).as_posix()
        with open(path, "r", encoding="utf-8") as handle:
            program = parse_program(handle.read())
        programs[relpath] = program
        keys[relpath] = check_cache_key(
            program, None, fairness=fairness, stutter_insensitive=False
        )

    stored = {relpath: cache.get(key) for relpath, key in keys.items()}
    pending = [relpath for relpath, hit in stored.items() if hit is None]

    verified: Dict[str, Tuple[bool, str]] = {}
    pool_workers = resolve_workers(workers) if pending else 1
    if pool_workers > 1:
        instrumentation.count("parallel.workers", pool_workers)
        with WorkerPool(
            pool_workers,
            verify_programs={relpath: programs[relpath] for relpath in pending},
            verify_params={"fairness": fairness, "engine": engine},
        ) as pool:
            results = pool.map_observed(
                _verify_spec_task, pending, instrumentation
            )
        for relpath, holds, text in results:
            verified[relpath] = (holds, text)
    else:
        for relpath in pending:
            verified[relpath] = _check_spec(
                programs[relpath],
                fairness=fairness,
                engine=engine,
                instrumentation=instrumentation,
            )

    report = TreeReport()
    for relpath, key in keys.items():
        if relpath in verified:
            holds, text = verified[relpath]
            cache.put(key, {"holds": holds, "text": text})
            outcome = SpecOutcome(relpath, False, holds, text)
            print(f"[verified] {relpath}", file=err)
        else:
            hit = stored[relpath]
            assert hit is not None  # not pending, so the cache held it
            outcome = SpecOutcome(
                relpath, True, bool(hit["holds"]), str(hit["text"])
            )
            print(f"[cached] {relpath}", file=err)
        report.outcomes.append(outcome)
        print(outcome.text, file=out)

    paths = list(keys)
    previous = cache.get(index_key(tree))
    previous_paths = previous.get("paths", []) if previous is not None else []
    report.removed = sorted(set(previous_paths) - set(paths))
    for relpath in report.removed:
        print(f"[removed] {relpath}", file=err)
    if previous_paths != paths:
        cache.put(index_key(tree), {"paths": paths})

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
    )
    print(
        f"verify-tree: specs={len(report.outcomes)} "
        f"verified={report.verified} replayed={report.replayed} "
        f"removed={len(report.removed)} failed={report.failed}",
        file=err,
    )
    return report
