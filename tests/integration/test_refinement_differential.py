"""Differential grid: every refinement clause on every engine.

The vector engine decides the refinement relations optimistically — it
can only prove success, and any violation (or an abstraction that
leaves the abstract schema) replays on the tuple engine for the
witness.  Refinement has no packed rung: where vector refuses the
sources, the check replays on the tuple reference with vector's
reason.  This grid runs each of the three refinement checks on each
request, open and closed, strict and modulo stuttering, over one small
control per way a clause can fail, and requires the formatted verdict
and every ``refine.*`` counter to match the tuple engine's, with every
failing attempt handing back through a reasoned ``engine.fallback``
event.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_refinement,
    check_init_refinement,
)
from repro.checker.refinement_check import (
    _ALPHA_REPLAY_REASON,
    _VIOLATION_REPLAY_REASON,
)
from repro.core.abstraction import AbstractionFunction
from repro.core.state import StateSchema
from repro.core.system import System
from repro.obs import Recorder
from repro.parallel import parallel_available
from tests.packed_rung import PACKED_RUNG_REASON, packed_rung

SCHEMA = StateSchema({"v": tuple(range(6))})
CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]


def _system(pairs, initial=((0,),), name="C", schema=SCHEMA):
    return System(
        schema, [((a,), (b,)) for a, b in pairs], initial=initial, name=name
    )


def _abstract():
    """0 -> 1 -> 2 -> 3 -> 0 plus the recovery edges 4 -> 2 and 5 -> 4."""
    return _system(CYCLE + [(4, 2), (5, 4)], name="A")


def _compression_on_cycle():
    # The abstract cycles 3 -> 4 -> 5 -> 3; the concrete shortcuts it
    # (3 -> 5), compressing on every lap.
    abstract = _system(
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], name="A"
    )
    concrete = _system([(0, 1), (1, 2), (2, 0), (3, 5), (5, 3)])
    return concrete, abstract, None


def _stutter_only_cycle():
    # A hidden bit flips back and forth at v == 0: every step of that
    # cycle is invisible under the projection onto v.
    hidden = StateSchema({"v": tuple(range(6)), "h": (0, 1)})
    concrete = System(
        hidden,
        [((v, 0), ((v + 1) % 4, 0)) for v in range(4)]
        + [((0, 0), (0, 1)), ((0, 1), (0, 0))],
        initial=((0, 0),),
        name="C",
    )
    alpha = AbstractionFunction(
        hidden, SCHEMA, lambda state: (state[0],), name="v"
    )
    return concrete, _abstract(), alpha


def _alpha_outside_schema():
    # Images 4 and 5 are not states of the four-state abstract, so no
    # engine but the tuple reference can hold them.
    narrow = StateSchema({"v": tuple(range(4))})
    abstract = _system(CYCLE, name="A", schema=narrow)
    concrete = _system(CYCLE + [(4, 4), (5, 5)])
    alpha = AbstractionFunction(SCHEMA, SCHEMA, lambda state: state, name="wide")
    return concrete, abstract, alpha


#: name -> () -> (concrete, abstract, alpha)
CONTROLS = {
    "subrelation": lambda: (_system(CYCLE), _abstract(), None),
    "illegal-reachable-step": lambda: (
        _system(CYCLE + [(2, 5)]), _abstract(), None
    ),
    "bad-initial-image": lambda: (
        _system([(1, 2)], initial=((1,),)), _abstract(), None
    ),
    "premature-termination": lambda: (_system([(0, 1)]), _abstract(), None),
    "init-only": lambda: (_system(CYCLE + [(4, 3)]), _abstract(), None),
    "terminal-mismatch": lambda: (_system(CYCLE + [(5, 4)]), _abstract(), None),
    "off-cycle-compression": lambda: (
        _system(CYCLE + [(4, 2), (5, 2)]), _abstract(), None
    ),
    "compression-on-cycle": _compression_on_cycle,
    # 5 -> 2 realizes the abstract path 5 -> 4 -> 2 (two steps) and
    # 5 -> 3 only 5 -> 4 -> 2 -> 3 (three steps): clause 2 must reach
    # both targets from 5's successor, 4.
    "compressions-of-two-and-three-steps": lambda: (
        _system(CYCLE + [(4, 2), (5, 2), (5, 3)]), _abstract(), None
    ),
    # No cycle at all: the trim removes every node, so the compression
    # 5 -> 2 must be judged off-cycle from an empty labelling.
    "compression-off-every-cycle": lambda: (
        _system([(5, 2), (2, 3)], initial=()), _abstract(), None
    ),
    "unrealisable-step": lambda: (
        _system([(2, 5)], initial=()), _abstract(), None
    ),
    "strict-stutter": lambda: (
        _system(CYCLE + [(4, 4), (4, 2), (5, 4)]), _abstract(), None
    ),
    "stutter-only-cycle": _stutter_only_cycle,
    "alpha-outside-schema": _alpha_outside_schema,
}

_WORKER_COUNTS = [1, 4] if parallel_available() else [1]


def _everywhere(*args, workers, **kwargs):
    # Everywhere refinement has no reachability phase to shard.
    return check_everywhere_refinement(*args, **kwargs)


CHECKS = {
    "init": check_init_refinement,
    "everywhere": _everywhere,
    "convergence": check_convergence_refinement,
}

#: (check, workers): the worker counts only shard the checks that
#: take them.
CHECK_RUNS = [
    (check, workers)
    for check in sorted(CHECKS)
    for workers in (_WORKER_COUNTS if check != "everywhere" else [1])
]

REPLAY_REASONS = (_VIOLATION_REPLAY_REASON, _ALPHA_REPLAY_REASON)


def _run(control, check, engine, open_systems, stutter, workers=1):
    concrete, abstract, alpha = CONTROLS[control]()
    recorder = Recorder()
    verdict = CHECKS[check](
        concrete, abstract, alpha, stutter_insensitive=stutter,
        open_systems=open_systems, instrumentation=recorder,
        workers=workers, engine=engine,
    )
    return verdict, recorder.record()


def _refine_counters(record):
    return {
        name: value
        for name, value in record.counters.items()
        if name.startswith("refine.")
    }


@pytest.mark.parametrize("stutter", [False, True])
@pytest.mark.parametrize("open_systems", [False, True])
@pytest.mark.parametrize("engine", ["packed", "vector"])
@pytest.mark.parametrize("check,workers", CHECK_RUNS)
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_engine_matches_tuple(
    control, check, workers, engine, open_systems, stutter
):
    reference, reference_record = _run(
        control, check, "tuple", open_systems, stutter, workers
    )
    # A packed request is served by vector; with vector refused it
    # replays on tuple, never on the packed kernel.
    with packed_rung() if engine == "packed" else nullcontext():
        verdict, record = _run(
            control, check, engine, open_systems, stutter, workers
        )
    assert verdict.format() == reference.format()
    assert _refine_counters(record) == _refine_counters(reference_record)
    reasons = [
        event.fields["reason"]
        for event in record.events
        if event.name == "engine.fallback"
    ]
    refusal = PACKED_RUNG_REASON if engine == "packed" else None
    if refusal is not None:
        # Refused by vector, the check replays on the tuple reference.
        assert refusal in reasons, reasons
        assert record.counters["engine.fallback.tuple"] == 1
        assert "engine.packed" not in record.counters
    elif verdict.holds:
        # A clause the engine wrongly reports violated would still
        # render the right verdict, through a needless tuple replay.
        assert _VIOLATION_REPLAY_REASON not in reasons, reasons
    else:
        assert any(reason in REPLAY_REASONS for reason in reasons), reasons


@pytest.mark.parametrize(
    "check,control,open_systems,stutter,message",
    [
        ("init", "bad-initial-image", False, False,
         "initial state maps to (1,), not initial in A"),
        ("init", "premature-termination", False, False,
         "reachable terminal state of the concrete maps to a non-terminal "
         "abstract state (maximality fails)"),
        ("init", "illegal-reachable-step", False, False,
         "reachable transition has no image in A: (2,) -> (5,)"),
        ("everywhere", "terminal-mismatch", False, False,
         "terminal state of the concrete maps to a non-terminal abstract "
         "state (maximality fails)"),
        ("everywhere", "init-only", False, False,
         "transition has no image in A: (4,) -> (3,)"),
        ("convergence", "strict-stutter", False, False,
         "stuttering transition but the abstract has no self-loop at (4,) "
         "(rerun with stutter_insensitive=True to compare modulo "
         "stuttering)"),
        ("convergence", "unrealisable-step", True, False,
         "no path of A realizes the image (2,) -> (5,)"),
        ("convergence", "compression-on-cycle", False, False,
         "compressing transition lies on a cycle of the concrete system: a "
         "computation around the cycle omits abstract states infinitely "
         "often"),
        ("convergence", "stutter-only-cycle", False, True,
         "cycle of abstract-invisible transitions: the concrete can diverge "
         "without the abstract moving"),
        ("convergence", "subrelation", False, False,
         "terminal state of the concrete maps to a non-terminal abstract "
         "state: the matched abstract computation would not be maximal"),
    ],
)
def test_every_witness_message_is_reached(
    check, control, open_systems, stutter, message
):
    """Each refinement witness message has a control in the grid above,
    so the differential covers every way the relations fail."""
    verdict, _ = _run(control, check, "tuple", open_systems, stutter)
    assert not verdict.holds
    assert verdict.witness.message == message


def _as_program(system):
    """``system`` as a guarded-command program: one action per
    transition, each guarded by its source state and writing its target."""
    from repro.gcl.action import GuardedAction
    from repro.gcl.domain import IntRange
    from repro.gcl.expr import And, Const, Eq, Var
    from repro.gcl.program import Program
    from repro.gcl.variable import Variable

    names = system.schema.names
    actions = []
    for index, (source, target) in enumerate(sorted(system.transitions())):
        tests = [Eq(Var(name), Const(value)) for name, value in zip(names, source)]
        guard = tests[0]
        for test in tests[1:]:
            guard = And(guard, test)
        actions.append(
            GuardedAction(
                f"t{index}",
                guard,
                {name: Const(value) for name, value in zip(names, target)},
            )
        )
    return Program(
        system.name,
        [
            Variable(name, IntRange(min(domain), max(domain)))
            for name, domain in zip(names, system.schema.domains)
        ],
        actions,
        init=[dict(zip(names, state)) for state in sorted(system.initial)],
    )


def _observed(record):
    """What a verdict leaves in its record beyond the engine's own
    selection, fallback and progress notes."""
    return (
        {
            name: value
            for name, value in record.counters.items()
            if not name.startswith("engine.")
        },
        [
            (event.name, event.fields)
            for event in record.events
            if not event.name.startswith(("engine.", "progress."))
        ],
    )


@pytest.mark.parametrize("check", sorted(CHECKS))
@pytest.mark.parametrize("control", sorted(CONTROLS))
def test_violation_replays_on_the_vector_kernels(control, check, monkeypatch):
    """On programs, a vector violation replays on tuple systems read off
    the vector attempt's kernels: no program is compiled, and verdict,
    counters and events are the tuple engine's.  An image outside the
    abstract schema builds no clauses, so that replay compiles."""
    from repro.gcl.program import Program

    concrete, abstract, alpha = CONTROLS[control]()
    concrete, abstract = _as_program(concrete), _as_program(abstract)
    compile_program = Program.compile
    compiled = []

    def watched(self, *args, **kwargs):
        if control != "alpha-outside-schema":
            raise AssertionError(f"{self.name} compiled during the replay")
        compiled.append(self.name)
        return compile_program(self, *args, **kwargs)

    for open_systems in (False, True):
        for stutter in (False, True):
            runs = {}
            for engine in ("tuple", "vector"):
                recorder = Recorder()
                with monkeypatch.context() as patch:
                    if engine == "vector":
                        patch.setattr(Program, "compile", watched)
                    verdict = CHECKS[check](
                        concrete, abstract, alpha, stutter_insensitive=stutter,
                        open_systems=open_systems, instrumentation=recorder,
                        workers=1, engine=engine,
                    )
                runs[engine] = verdict.format(), _observed(recorder.record())
            assert runs["vector"] == runs["tuple"]
    if control == "alpha-outside-schema":
        assert compiled
