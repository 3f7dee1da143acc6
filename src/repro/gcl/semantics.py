"""Compilation of guarded-command programs to transition systems.

The semantics of a program under a daemon is the automaton whose
states are all assignments of domain values to the program's variables
(the *full* space — stabilization analysis quantifies over arbitrary
transient corruptions, so unreachable states matter), and whose
transitions are the daemon's moves.

Out-of-domain writes are a compile-time error: an action that can
drive a variable outside its declared domain in some state is a bug in
the program, and silently clamping it would falsify every check
downstream.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from ..core.errors import GCLError, StateSpaceError
from ..core.state import State
from ..core.system import System, Transition, stutter_free
from .daemon import CentralDaemon, Daemon
from .program import Program

__all__ = ["compile_program", "compile_states", "program_moves"]


def compile_program(
    program: Program,
    daemon: Optional[Daemon] = None,
    name: Optional[str] = None,
) -> System:
    """Compile ``program`` into a :class:`~repro.core.system.System`.

    A move that does not change the state becomes a self-loop (the
    paper's ``C3`` genuinely stutters); the checkers drop self-loops
    themselves under weak and strong fairness.

    Args:
        program: the guarded-command program.
        daemon: scheduling semantics; defaults to the paper's central
            daemon.
        name: system display name (defaults to the program name, with
            the daemon appended when it is not the central one).

    Returns:
        The compiled automaton over the program's full state space,
        with transition labels recording the action(s) that produced
        each transition.

    Raises:
        GCLError: if any move writes a value outside a variable's
            declared domain.
    """
    return compile_states(program, program.schema().states(), daemon, name=name)


def compile_states(
    program: Program,
    states: Iterable[State],
    daemon: Optional[Daemon] = None,
    keep_stutter: bool = True,
    name: Optional[str] = None,
    initial: Optional[Iterable[State]] = None,
) -> System:
    """The transitions of :func:`compile_program` out of ``states`` only.

    ``initial`` defaults to the program's initial states.

    Each source contributes its moves in :func:`program_moves` order,
    exactly as in the full compilation, so every source's successor
    set is built from the same insertion sequence — and iterates in
    the same order — as the full system's.  The int-code engines
    compile just the states of a cycle witness this way.  With
    ``keep_stutter=False`` the self-loops are left out as
    :meth:`~repro.core.system.System.without_self_loops` leaves them
    out of the full system, successor iteration order included — the
    witness regions under weak and strong fairness.

    :func:`program_moves` validates every source (``schema.unpack``)
    and every target (``schema.pack``), so the system is assembled
    without validating them again; an explicit ``initial`` is
    validated here.
    """
    schema = program.schema()
    chosen = daemon or CentralDaemon()
    adjacency: Dict[State, Set[State]] = {}
    labels: Dict[Transition, Set[str]] = {}
    for state in states:
        for successor, action_labels in program_moves(program, chosen, state):
            adjacency.setdefault(state, set()).add(successor)
            if keep_stutter or successor != state:
                labels.setdefault((state, successor), set()).update(action_labels)
    if not keep_stutter:
        adjacency = stutter_free(adjacency)
    if initial is None:
        initial = program.initial_states()
    else:
        initial = frozenset(initial)
        for state in initial:
            schema.validate(state)
    system_name = name or (
        program.name if chosen.name == "central" else f"{program.name}@{chosen.name}"
    )
    return System.of_members(schema, adjacency, initial, system_name, labels)


def program_moves(
    program: Program, daemon: Daemon, state: State
) -> Iterator[Tuple[State, Tuple[str, ...]]]:
    """The daemon's moves from ``state``: ``(successor, action labels)``.

    Stuttering moves (``successor == state``) included, in the
    daemon's order.

    Raises:
        GCLError: if a move writes a value outside a variable's
            declared domain.
    """
    schema = program.schema()
    env = schema.unpack(state)
    for new_env, action_labels in daemon.steps(program.actions, env):
        try:
            successor = schema.pack(new_env)
        except StateSpaceError as exc:
            raise GCLError(
                f"program {program.name!r}: action(s) {action_labels} drive "
                f"the state out of domain from {schema.format_state(state)}: {exc}"
            )
        yield successor, action_labels
