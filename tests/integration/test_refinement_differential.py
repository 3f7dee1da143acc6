"""Differential grid: every refinement clause on every engine.

The vector engine decides the refinement relations on codes, witnesses
included: a violated clause hands back its violating codes or edges,
and the witness is the first of them in the order the tuple engine
iterates.  Only an abstraction that leaves the abstract schema, which
has no code image, replays on the tuple engine.  Refinement has no
packed rung: where vector refuses the sources, the check replays on
the tuple reference with vector's reason.  This grid runs each of the
three refinement checks on each request, open and closed, strict and
modulo stuttering, over one small control per way a clause can fail
and per order the tuple engine picks its witness in, and requires the
formatted verdict and every ``refine.*`` counter to match the tuple
engine's, with no ``engine.fallback`` event but for a refusal or the
abstraction's replay.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.checker import (
    check_convergence_refinement,
    check_everywhere_refinement,
    check_init_refinement,
)
from repro.checker import refinement_check
from repro.checker.refinement_check import _ALPHA_REPLAY_REASON
from repro.core.abstraction import AbstractionFunction
from repro.core.state import StateSchema
from repro.core.system import System
from repro.obs import Recorder
from repro.parallel import parallel_available
from tests.packed_rung import PACKED_RUNG_REASON, packed_rung

SCHEMA = StateSchema({"v": tuple(range(6))})
WIDE = StateSchema({"v": tuple(range(12))})
CYCLE = [(0, 1), (1, 2), (2, 3), (3, 0)]


def _system(pairs, initial=((0,),), name="C", schema=SCHEMA):
    return System(
        schema, [((a,), (b,)) for a, b in pairs], initial=initial, name=name
    )


def _abstract():
    """0 -> 1 -> 2 -> 3 -> 0 plus the recovery edges 4 -> 2 and 5 -> 4."""
    return _system(CYCLE + [(4, 2), (5, 4)], name="A")


def _casting(actions, abstract_pairs):
    """A program over ``x`` in 0..2 and ``y`` in 0..1 whose actions
    write the bool ``x == c`` into the int ``y``, which their targets
    hold as the domain's ``1``, against the abstract system
    ``abstract_pairs`` on the same schema.  Each action is ``(x before, x after, c)``, or
    ``(x before, x after)`` for one that leaves ``y`` alone."""
    from repro.gcl.action import GuardedAction
    from repro.gcl.domain import IntRange
    from repro.gcl.expr import Const, Eq, Var
    from repro.gcl.program import Program
    from repro.gcl.variable import Variable

    def at(value):
        return Eq(Var("x"), Const(value))

    def writes(action):
        assignments = {"x": Const(action[1])}
        if len(action) > 2:
            assignments["y"] = at(action[2])
        return assignments

    concrete = Program(
        "C",
        [Variable("x", IntRange(0, 2)), Variable("y", IntRange(0, 1))],
        [
            GuardedAction(f"a{index}", at(action[0]), writes(action))
            for index, action in enumerate(actions)
        ],
        init=[{"x": 0, "y": 0}],
    )
    abstract = System(concrete.schema(), abstract_pairs, initial=((0, 0),), name="A")
    return concrete, abstract, None


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
    # The controls below pin the order the tuple engine picks its
    # witness in (WITNESS_ORDER): its first violation is not the
    # lowest-code one.  Here the System lists source 4 before source
    # 2, and both of their steps to 5 are unrealizable.
    "system-source-order": lambda: (
        _system([(4, 5), (2, 5)] + CYCLE, initial=()), _abstract(), None
    ),
    # Reachable states are scanned by repr, and (10,) sorts before (9,).
    "reachable-repr-order": lambda: (
        _system([(0, 9), (0, 10), (9, 11), (10, 11)], schema=WIDE),
        _system([(0, 9), (0, 10), (9, 0), (10, 0)], name="A", schema=WIDE),
        None,
    ),
    # (6,) comes first in the successor set {(1,), (2,), (6,)}.
    "successor-set-order": lambda: (
        _system([(0, 1), (0, 2), (0, 6)], schema=WIDE),
        _system([(0, 3)], name="A", schema=WIDE),
        None,
    ),
    # (6,) comes first in the initial set {(1,), (6,)}.
    "initial-set-order": lambda: (
        _system([(1, 0), (6, 0)], initial=((1,), (6,)), schema=WIDE),
        _system([(0, 3)], name="A", schema=WIDE),
        None,
    ),
    # Mixed-type writes: every engine's states hold the domain's 1
    # where an action wrote True.  (0, 0) steps to (1, 1), which is
    # reachable; its step to (2, 1) and (0, 1)'s step to (1, 1) have no
    # abstract image.
    "cast-write": lambda: _casting([(0, 1, 0), (1, 2)], [((0, 0), (1, 1))]),
    # (2, 0) steps to (1, 1), and so does nothing else.
    "cast-image": lambda: _casting([(2, 1, 2)], []),
}

#: control -> (check, the repr of the tuple engine's witness states,
#: that of the lowest-code violation).
WITNESS_ORDER = {
    "system-source-order": ("convergence", "((4,), (5,))", "((2,), (5,))"),
    "reachable-repr-order": ("init", "((10,), (11,))", "((9,), (11,))"),
    "successor-set-order": ("everywhere", "((0,), (6,))", "((0,), (1,))"),
    "initial-set-order": ("init", "((6,),)", "((1,),)"),
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
    elif control == "alpha-outside-schema":
        assert reasons == [_ALPHA_REPLAY_REASON]
    else:
        # Held or violated, the verdict is vector's own.
        assert reasons == []
        assert "engine.fallback.tuple" not in record.counters


@pytest.mark.parametrize("control", sorted(WITNESS_ORDER))
def test_witness_order_controls_stay_meaningful(control):
    """Each witness-order control still makes the tuple engine report a
    violation other than the lowest-code one."""
    check, expected, lowest = WITNESS_ORDER[control]
    verdict, _ = _run(control, check, "tuple", False, False)
    assert repr(verdict.witness.states) == expected != lowest


@pytest.mark.parametrize("engine", ["tuple", "vector", "shared"])
def test_mixed_type_witness_holds_domain_values(engine):
    """A True written to the int ``y`` shows in the witness as the
    domain's int 1, on every engine."""
    verdict, _ = _run("cast-write", "init", engine, False, False)
    states = verdict.witness.states
    assert states == ((1, 1), (2, 1))
    assert {type(value) for state in states for value in state} == {int}


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
        # The written True is held, and shown, as the domain's 1.
        ("everywhere", "cast-image", False, False,
         "transition has no image in A: (2, 0) -> (1, 1)"),
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
    transition, each guarded by its source state and writing its target
    (a program stays as it is)."""
    from repro.gcl.action import GuardedAction
    from repro.gcl.domain import IntRange
    from repro.gcl.expr import And, Const, Eq, Var
    from repro.gcl.program import Program
    from repro.gcl.variable import Variable

    if isinstance(system, Program):
        return system
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
    """Violations are witnessed on the vector kernels: on programs,
    vector decides every verdict on its kernels, witnesses included, so
    no program is compiled, no kernel materialized and no tuple
    procedure called, and verdict, counters and events are the tuple
    engine's.  An image outside the abstract schema builds no clauses,
    so only that check replays on tuple, compiling the programs."""
    from repro.gcl.program import Program
    from repro.kernel.vector import VectorKernel

    concrete, abstract, alpha = CONTROLS[control]()
    concrete, abstract = _as_program(concrete), _as_program(abstract)
    called = []

    def watch(patch, owner, name):
        original = getattr(owner, name)

        def watched(*args, **kwargs):
            called.append(name)
            return original(*args, **kwargs)

        patch.setattr(owner, name, watched)

    for open_systems in (False, True):
        for stutter in (False, True):
            runs = {}
            for engine in ("tuple", "vector"):
                recorder = Recorder()
                with monkeypatch.context() as patch:
                    if engine == "vector":
                        watch(patch, Program, "compile")
                        watch(patch, VectorKernel, "materialize")
                        for name in (
                            "_decide_init_refinement",
                            "_decide_everywhere_refinement",
                            "_decide_convergence_refinement",
                        ):
                            watch(patch, refinement_check, name)
                    verdict = CHECKS[check](
                        concrete, abstract, alpha, stutter_insensitive=stutter,
                        open_systems=open_systems, instrumentation=recorder,
                        workers=1, engine=engine,
                    )
                runs[engine] = verdict.format(), _observed(recorder.record())
            assert runs["vector"] == runs["tuple"]
    if control == "alpha-outside-schema":
        assert "compile" in called and "materialize" not in called
    else:
        assert called == []
