"""Where a small-specs pass spends its time in the tuple bridges.

Runs the benchmark's 75 ``small-specs`` checks (``benchmarks/perf``)
as whole passes in this process — one untimed warm-up, then five timed
passes — and times three phases with exclusive wall-clock timers (a
phase nested in another is charged to the outer one):

* ``init`` — the initial-state scan: ``Program.initial_states``, run
  to exhaustion, and the lowered init sweep where the tree has one;
* ``materialize`` — ``materialize()`` on the vector and shared kernels,
  outside the refinement replay (the strong-fairness fair trap);
* ``replay`` — building the two systems a tuple replay of a refinement
  check decides on.  Since refinement witnesses are found on vector
  codes, only a check vector refuses, or whose abstraction leaves the
  abstract schema, replays; small-specs has none.

Prints the median pass time and the per-pass milliseconds of each
phase.  Usage, from the repository root::

    PYTHONPATH=src python benchmarks/bridge_split.py
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "perf"))

import workloads  # noqa: E402

from repro.checker import refinement_check  # noqa: E402
from repro.gcl.program import Program  # noqa: E402
from repro.kernel.shared.kernel import SharedKernel  # noqa: E402
from repro.kernel.vector.kernel import VectorKernel  # noqa: E402
from repro.kernel.vector.lower import LoweredProgram  # noqa: E402
from repro.obs import NULL_INSTRUMENTATION  # noqa: E402

PASSES = 5

spent = {"init": 0.0, "materialize": 0.0, "replay": 0.0}
_depth = [0]


def _timed(function, phase_of, drain=False):
    """``function`` charging its wall time to ``phase_of(caller frame)``;
    with ``drain`` an iterator result is run to exhaustion inside."""

    def timed(*args, **kwargs):
        if _depth[0]:
            return function(*args, **kwargs)
        phase = phase_of(sys._getframe(1))
        _depth[0] += 1
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
            return iter(list(result)) if drain else result
        finally:
            _depth[0] -= 1
            spent[phase] += time.perf_counter() - start

    return timed


def _materialize_phase(frame) -> str:
    return "replay" if frame.f_code.co_name == "attempt" else "materialize"


def _install() -> None:
    Program.initial_states = _timed(Program.initial_states, lambda _: "init", drain=True)
    if hasattr(LoweredProgram, "_initial_sweep"):
        LoweredProgram._initial_sweep = _timed(
            LoweredProgram._initial_sweep, lambda _: "init"
        )
    VectorKernel.materialize = _timed(VectorKernel.materialize, _materialize_phase)
    SharedKernel.materialize = _timed(SharedKernel.materialize, _materialize_phase)
    refinement_check._as_system = _timed(refinement_check._as_system, lambda _: "replay")


def _one_pass() -> float:
    runs = [workloads.prepare(op)[0] for op in workloads.small_ops()]
    start = time.perf_counter()
    for run in runs:
        run(NULL_INSTRUMENTATION)
    return time.perf_counter() - start


def main() -> None:
    _install()
    _one_pass()
    for phase in spent:
        spent[phase] = 0.0
    walls = [_one_pass() for _ in range(PASSES)]
    print(f"pass: median {statistics.median(walls) * 1000:.0f} ms over {PASSES}")
    for phase, seconds in spent.items():
        print(f"{phase}: {seconds * 1000 / PASSES:.0f} ms per pass")


if __name__ == "__main__":
    main()
