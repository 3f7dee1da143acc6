"""The four benchmark workloads: their inputs, built from a seed, and the
known answers every verdict is checked against.

Importing this module touches nothing of ``repro``; the functions that
build inputs import it lazily, so the parent harness can plan runs
without loading the program under test.

* ``small-specs`` — a seeded shuffle of the paper's ring families and
  four small K-state rings, each checked three ways on the default
  ``packed`` engine.  This is the traffic of ``repro check``,
  ``verify-tree`` and synthesis loops: 1–20 ms per check, so the cost
  is the fixed per-check work (parsing, engine selection, lowering).
* ``mid-resident`` — K-state(7,7) against UTR on the in-RAM ``vector``
  engine with no memory context: the point where every shared-engine
  mechanism (spill, table pool, mmap visited set, worker fan-out) is
  bypassed.
* ``mega-spill`` — K-state(7,8) against UTR on the ``shared`` engine
  under a 2 MiB budget with two workers: past the vector ceiling, and
  every shared-engine mechanism engages.
* ``witness-fail`` — K-state(7,5) against UTR on the ``shared`` engine:
  the check fails, so the time goes to building the witness.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("small-specs", "mid-resident", "mega-spill", "witness-fail")

#: Children per ``small-specs`` run.  Each runs one untimed warm-up
#: pass over every check, then whole timed passes until its equal slice
#: of the run's seconds is over, and at least this many: 3 x 5 passes
#: of 75 checks keep ten samples beyond the 99th percentile.
SMALL_CHILDREN = 3
SMALL_MIN_PASSES = 5

#: Ring families of the paper: the function in ``repro.rings`` that
#: makes the program (or a composite made below), abstraction onto BTR, fairness, stutter mode.
#: The same table ``repro ring`` uses.
FAMILIES = {
    "btr": ("btr_program", None, "none", False),
    "c1": ("c1_program", "btr4_abstraction", "none", False),
    "dijkstra4": ("dijkstra_four_state", "btr4_abstraction", "none", False),
    "c2-composed": ("c2_composed", "btr3_abstraction", "strong", False),
    "dijkstra3": ("dijkstra_three_state", "btr3_abstraction", "none", False),
    "c3": ("c3_program", "btr3_abstraction", "strong", True),
    "c3-composed": ("c3_composed", "btr3_abstraction", "strong", True),
}
RING_SIZES = (3, 4, 5)
SMALL_KSTATES = ((4, 4), (5, 5), (5, 3), (6, 4))

#: ``stab`` checks stabilization to the abstract ring through the
#: abstraction, ``refine`` checks convergence refinement, ``text``
#: renders the program, parses it back and checks self-stabilization.
KINDS = ("stab", "refine", "text")

#: Above this many states the tuple engine is too slow to produce a
#: golden digest; the known-answer rule decides those verdicts.
TUPLE_GOLDEN_LIMIT = 100_000

#: Worst-case convergence of K-state on 7 processes, in steps, for every
#: K >= 6: the vector and shared engines both report it at K = 7, 9 and
#: 10, and the shared engine at K = 8.
KSTATE_N7_WORST_CASE = 55


@dataclass(frozen=True)
class Single:
    """A workload whose children each run one K-state ring check."""

    n: int
    k: int
    engine: str
    budget: Optional[str]
    workers: int
    #: Children per run at least; more start while the run's seconds
    #: last.
    children: int

    @property
    def op(self) -> str:
        return f"stab:kstate:{self.n}-{self.k}"


SINGLES = {
    "mid-resident": Single(7, 7, "vector", None, 1, 3),
    # Two children: a third would push the run past the time the whole
    # benchmark may take.
    "mega-spill": Single(7, 8, "shared", "2M", 2, 2),
    "witness-fail": Single(7, 5, "shared", "64M", 1, 3),
}

#: ``--smoke`` shrinks every workload to seconds: the same engines and
#: settings on rings small enough for the tuple engine.
SMOKE_SINGLES = {
    "mid-resident": Single(5, 5, "vector", None, 1, 1),
    "mega-spill": Single(5, 5, "shared", "1M", 2, 1),
    "witness-fail": Single(5, 3, "shared", "64M", 1, 1),
}


def single(workload: str, smoke: bool) -> Optional[Single]:
    """The one-check settings of ``workload`` (``None`` for small-specs)."""
    return (SMOKE_SINGLES if smoke else SINGLES).get(workload)


def small_ops() -> List[str]:
    """Every ``small-specs`` check, in canonical order."""
    sizes = [(family, str(n)) for family in FAMILIES for n in RING_SIZES]
    sizes += [("kstate", f"{n}-{k}") for n, k in SMALL_KSTATES]
    return [f"{kind}:{family}:{size}" for family, size in sizes for kind in KINDS]


def schedule(workload: str, seed: int, child: int, smoke: bool) -> List[str]:
    """One pass of the checks a child runs, in order."""
    config = single(workload, smoke)
    if config is not None:
        return [config.op]
    ops = small_ops()
    random.Random(f"{seed}:{child}").shuffle(ops)
    return ops


def _ring_parts(family: str, size: str):
    """Concrete program, abstract program, abstraction, fairness, stutter."""
    from repro import rings

    if family == "kstate":
        n, k = (int(part) for part in size.split("-"))
        return (
            rings.kstate_program(n, k),
            rings.utr_program(n),
            rings.utr_abstraction(n, k),
            "none",
            False,
        )
    make, abstraction, fairness, stutter = FAMILIES[family]
    n = int(size)
    if make == "c2_composed":
        concrete = (
            rings.c2_program(n)
            .merged_with(rings.w1_local_program(n))
            .merged_with(rings.w2_refined_program(n), name="C2 [] W1'' [] W2'")
        )
    else:
        concrete = getattr(rings, make)(n)
    alpha = getattr(rings, abstraction)(n) if abstraction else None
    return concrete, rings.btr_program(n), alpha, fairness, stutter


Check = Callable[[object], object]


def prepare(
    op: str,
    engine: str = "packed",
    config: Optional[Single] = None,
    spill_dir: Optional[str] = None,
) -> Tuple[Check, int]:
    """Fresh inputs for one check, and the check as a callable.

    The callable takes the instrumentation sink and returns the
    verdict.  Inputs are built here, outside the timed call, and never
    reused, so no check sees a cache an earlier one filled.  Returns
    the callable and the concrete state count.
    """
    from repro import checker, gcl

    kind, family, size = op.split(":")
    concrete, abstract, alpha, fairness, stutter = _ring_parts(family, size)
    states = concrete.schema().size()

    if config is not None:
        from repro.kernel.shared import using_memory_budget

        def run(instrumentation):
            context = (
                using_memory_budget(config.budget, spill_dir=spill_dir)
                if config.budget
                else contextlib.nullcontext()
            )
            with context:
                return checker.check_stabilization(
                    concrete, abstract, alpha, compute_steps=True,
                    engine=engine, workers=config.workers,
                    instrumentation=instrumentation,
                )

    elif kind == "stab":

        def run(instrumentation):
            return checker.check_stabilization(
                concrete, abstract, alpha, stutter_insensitive=stutter,
                fairness=fairness, engine=engine, instrumentation=instrumentation,
            )

    elif kind == "refine":

        def run(instrumentation):
            return checker.check_convergence_refinement(
                concrete, abstract, alpha, stutter_insensitive=stutter,
                engine=engine, instrumentation=instrumentation,
            )

    else:
        text = gcl.render_program(concrete)

        def run(instrumentation):
            # Resolved through the package at call time, so a traced
            # child's wrapper around parse_program sees the call.
            return checker.check_self_stabilization(
                gcl.parse_program(text), fairness=fairness, engine=engine,
                instrumentation=instrumentation,
            )

    return run, states


def digest(result) -> str:
    """The sha256 of a verdict's rendering — what golden.json stores."""
    return hashlib.sha256(result.format().encode("utf-8")).hexdigest()


def known_answer(n: int, k: int) -> Dict[str, object]:
    """K-state on ``n`` processes stabilizes iff ``k >= n - 1`` (E11)."""
    if n != 7:
        raise ValueError("the worst-case step count is known only for n = 7")
    holds = k >= n - 1
    return {"holds": holds, "worst_case_steps": KSTATE_N7_WORST_CASE if holds else None}


def regenerate_golden() -> Dict[str, object]:
    """Golden verdicts for every check any workload runs.

    The tuple engine — the reference the other engines are tested
    against — renders every check it can finish; larger K-state rings
    use the known-answer rule.
    """
    from repro.obs import NULL_INSTRUMENTATION

    golden: Dict[str, object] = {}
    for op in small_ops():
        run, _ = prepare(op, engine="tuple")
        golden[op] = digest(run(NULL_INSTRUMENTATION))
    for config in list(SINGLES.values()) + list(SMOKE_SINGLES.values()):
        if config.k ** config.n <= TUPLE_GOLDEN_LIMIT:
            run, _ = prepare(config.op, engine="tuple")
            golden[config.op] = digest(run(NULL_INSTRUMENTATION))
        else:
            golden[config.op] = known_answer(config.n, config.k)
    return dict(sorted(golden.items()))


def verdict_ok(golden: Dict[str, object], check: Dict[str, object]) -> bool:
    """Does one check's reported verdict match its golden entry?"""
    expected = golden.get(check["op"])
    if isinstance(expected, str):
        return check.get("digest") == expected
    if isinstance(expected, dict):
        return (
            check.get("holds") == expected["holds"]
            and check.get("steps") == expected["worst_case_steps"]
        )
    return False
