"""Compiled successor kernels: packed transitions generated on the fly.

A :class:`PackedKernel` is the packed engine's replacement for an
eagerly compiled :class:`~repro.core.system.System`: a successor
*function* over dense int codes, memoized per state, with no global
transition table.  Two constructors:

* :meth:`PackedKernel.from_program` lowers a guarded-command program
  directly.  Under the plain central daemon each action's parallel
  assignment becomes a **digit-delta** update on the mixed-radix code
  (no pack/unpack of the successor tuple at all); other daemons route
  through the daemon's ``steps`` and pack once per move.  Out-of-domain
  writes raise exactly the :class:`~repro.core.errors.GCLError` that
  ``compile_program`` raises.
* :meth:`PackedKernel.from_system` wraps an existing ``System``
  (encode/decode at the edges) so every checker entry point accepts
  both representations.

``compile(states)`` produces the tuple ``System`` of the transitions
out of just ``states`` — what a cycle witness needs — and
``materialize()`` produces (and caches) the whole one, for the one
phase that still needs it (the fair-trap search under strong
fairness).  For program-built kernels both run
:func:`~repro.gcl.semantics.compile_states`, the per-state move
generator behind ``program.compile()``, so their successor sets are
byte-identical to the compiled system's.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.errors import GCLError
from ..core.state import State, StateSchema
from ..core.system import System
from ..gcl.daemon import CentralDaemon, Daemon
from ..gcl.program import Program
from ..gcl.semantics import compile_states
from .interner import StateInterner

__all__ = ["PackedKernel"]

#: ``compiler(states, initial)``: the tuple ``System`` of the
#: transitions out of ``states``; ``initial=None`` means the source's
#: own initial states.
Compiler = Callable[[Iterable[State], Optional[Iterable[State]]], System]


class PackedKernel:
    """A packed transition relation: codes in, successor codes out.

    Successor tuples are deduplicated, sorted ascending, and memoized
    per source code — the fixpoints revisit states freely.
    """

    __slots__ = (
        "interner",
        "name",
        "size",
        "initial_codes",
        "_successors_of",
        "_memo",
        "_compiler",
        "_materialized",
    )

    def __init__(
        self,
        interner: StateInterner,
        successors_of: Callable[[int], Tuple[int, ...]],
        initial_codes: Tuple[int, ...],
        name: str,
        compiler: Compiler,
    ):
        self.interner = interner
        self.name = name
        self.size = interner.size
        self.initial_codes = initial_codes
        self._successors_of = successors_of
        self._memo: List[Optional[Tuple[int, ...]]] = [None] * interner.size
        self._compiler = compiler
        self._materialized: Optional[System] = None

    @property
    def schema(self) -> StateSchema:
        """The schema of the packed state space."""
        return self.interner.schema

    def successors(self, code: int) -> Tuple[int, ...]:
        """Successor codes of ``code``, ascending, memoized."""
        cached = self._memo[code]
        if cached is None:
            cached = self._successors_of(code)
            self._memo[code] = cached
        return cached

    def clear_memo(self) -> int:
        """Drop every memoized successor tuple; returns the count dropped.

        The checkers call this between phases once a kernel's successor
        function is no longer needed (e.g. the abstraction kernel after
        the core fixpoint) so the memo table — which otherwise grows
        unboundedly across phases — is released eagerly.
        """
        evicted = sum(1 for entry in self._memo if entry is not None)
        self._memo = [None] * self.size
        return evicted

    def compile(self, states: Iterable[State]) -> System:
        """The tuple-state ``System`` of the transitions out of ``states``.

        Each source's successor set iterates exactly as in
        :meth:`materialize`'s system.  A kernel wrapping a compiled
        system returns that system whole.
        """
        return self._compiler(states, ())

    def materialize(self) -> System:
        """The equivalent tuple-state ``System`` (cached on first call)."""
        if self._materialized is None:
            self._materialized = self._compiler(self.schema.states(), None)
        return self._materialized

    @classmethod
    def from_program(
        cls,
        program: Program,
        daemon: Optional[Daemon] = None,
        keep_stutter: bool = True,
        name: Optional[str] = None,
    ) -> "PackedKernel":
        """Lower ``program`` to a packed kernel (no transition table).

        Mirrors :func:`~repro.gcl.semantics.compile_program` exactly:
        same daemon default, same stutter handling, same system name,
        and the same :class:`GCLError` on out-of-domain writes.
        """
        chosen = daemon or CentralDaemon()
        schema = program.schema()
        interner = StateInterner(schema)
        system_name = name or (
            program.name
            if chosen.name == "central"
            else f"{program.name}@{chosen.name}"
        )
        actions = tuple(program.actions)
        if type(chosen) is CentralDaemon:
            places = interner.places_by_name()
            digit_maps = interner.digit_maps_by_name()

            def central_successors(code: int) -> Tuple[int, ...]:
                env = interner.decode_env(code)
                found: List[int] = []
                for action in actions:
                    if not action.enabled(env):
                        continue
                    # Parallel assignment: all right-hand sides read the
                    # pre-state.  Evaluation errors propagate raw, as
                    # they do from ``daemon.steps`` in compile_program.
                    updates = [
                        (target, expr.eval(env))
                        for target, expr in action.assignments.items()
                    ]
                    try:
                        new_code = code
                        for target, value in updates:
                            new_code += (
                                digit_maps[target][value]
                                - digit_maps[target][env[target]]
                            ) * places[target]
                    except (KeyError, TypeError):
                        # Unknown variable or out-of-domain value: take
                        # the tuple path to raise compile_program's error.
                        new_code = _pack_move(
                            interner, program, action.execute(env),
                            (action.name,), code,
                        )
                    if not keep_stutter and new_code == code:
                        continue
                    found.append(new_code)
                return tuple(sorted(set(found)))

            successors_of = central_successors
        else:

            def daemon_successors(code: int) -> Tuple[int, ...]:
                env = interner.decode_env(code)
                found: List[int] = []
                for new_env, action_labels in chosen.steps(actions, env):
                    new_code = _pack_move(
                        interner, program, new_env, action_labels, code
                    )
                    if not keep_stutter and new_code == code:
                        continue
                    found.append(new_code)
                return tuple(sorted(set(found)))

            successors_of = daemon_successors

        initial_codes = tuple(
            sorted(interner.encode(state) for state in program.initial_states())
        )

        def compiler(states, initial) -> System:
            return compile_states(
                program, states, chosen, keep_stutter, system_name, initial
            )

        return cls(interner, successors_of, initial_codes, system_name, compiler)

    @classmethod
    def from_system(cls, system: System) -> "PackedKernel":
        """Wrap an already-compiled ``System`` as a packed kernel."""
        interner = StateInterner(system.schema)

        def successors_of(code: int) -> Tuple[int, ...]:
            state = interner.decode(code)
            return tuple(
                sorted(interner.encode(target) for target in system.successors(state))
            )

        initial_codes = tuple(
            sorted(interner.encode(state) for state in system.initial)
        )
        return cls(
            interner,
            successors_of,
            initial_codes,
            system.name,
            lambda states, initial: system,
        )


def _pack_move(
    interner: StateInterner,
    program: Program,
    new_env: Dict[str, object],
    action_labels: Tuple[str, ...],
    source_code: int,
) -> int:
    """Pack one daemon move, raising compile_program's exact error."""
    schema = interner.schema
    try:
        successor = schema.pack(new_env)
    except Exception as exc:
        state = interner.decode(source_code)
        raise GCLError(
            f"program {program.name!r}: action(s) {action_labels} drive "
            f"the state out of domain from {schema.format_state(state)}: {exc}"
        )
    return interner.encode(successor)
