"""Compiled successor kernels: packed transitions generated on the fly.

A :class:`PackedKernel` is the packed engine's replacement for an
eagerly compiled :class:`~repro.core.system.System`: a successor
*function* over dense int codes, memoized per state, with no global
transition table.  Two constructors:

* :meth:`PackedKernel.from_program` lowers a guarded-command program
  under the paper's central daemon, stuttering moves kept: each
  action's parallel assignment becomes a **digit-delta** update on the
  mixed-radix code (no pack/unpack of the successor tuple at all).
  Out-of-domain writes raise exactly the
  :class:`~repro.core.errors.GCLError` that ``compile_program`` raises.
  Other daemons reach the kernels as compiled systems.
* :meth:`PackedKernel.from_system` wraps an existing ``System``
  (encode/decode at the edges) so every checker entry point accepts
  both representations.

``compile(codes, drop_self)`` produces the tuple ``System`` of the
transitions out of just the states of ``codes`` — what a cycle witness
and the fair-trap search need, without self-loops under weak and
strong fairness — and ``materialize()`` produces (and caches) the
whole one.  No checker phase calls ``materialize()``: it stays as a
target that ``benchmarks/perf/spans.py`` times.  For program-built
kernels both run :func:`~repro.gcl.semantics.compile_states`, the
per-state move generator behind ``program.compile()``, so their
successor sets are byte-identical to the compiled system's.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.errors import GCLError
from ..core.state import State, StateSchema
from ..core.system import System
from ..gcl.program import Program
from ..gcl.semantics import compile_states
from .interner import StateInterner

__all__ = ["PackedKernel"]

#: ``compiler(states, initial, drop_self)``: the tuple ``System`` of
#: the transitions out of ``states``, without self-loops when
#: ``drop_self`` is set; ``initial=None`` means the source's own initial
#: states.
Compiler = Callable[[Iterable[State], Optional[Iterable[State]], bool], System]


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

    def compile(self, codes: Iterable[int], drop_self: bool = False) -> System:
        """The tuple-state ``System`` of the transitions out of the
        states of ``codes``, in the order given.

        Each source's successor set iterates exactly as in
        :meth:`materialize`'s system, or with ``drop_self`` as in its
        ``without_self_loops()``.  A kernel wrapping a compiled system
        returns that system whole (``without_self_loops()`` of it with
        ``drop_self``).
        """
        decode = self.interner.decode
        return self._compiler(
            (decode(int(code)) for code in codes), (), drop_self
        )

    def materialize(self) -> System:
        """The equivalent tuple-state ``System`` (cached on first call).

        No engine calls it: the packed rung builds its witness regions
        with :meth:`compile`, and refinement has no packed rung.  It
        stays only as a layer that ``benchmarks/perf/spans.py`` times.
        """
        if self._materialized is None:
            self._materialized = self._compiler(self.schema.states(), None, False)
        return self._materialized

    @classmethod
    def from_program(cls, program: Program) -> "PackedKernel":
        """Lower ``program`` to a packed kernel (no transition table).

        Mirrors :func:`~repro.gcl.semantics.compile_program` exactly:
        the central daemon, stuttering moves kept, the program's name,
        and the same :class:`GCLError` on out-of-domain writes.
        """
        schema = program.schema()
        interner = StateInterner(schema)
        actions = tuple(program.actions)
        places = interner.places_by_name()
        digit_maps = interner.digit_maps_by_name()

        def successors_of(code: int) -> Tuple[int, ...]:
            env = interner.decode_env(code)
            found: List[int] = []
            for action in actions:
                if not action.enabled(env):
                    continue
                # Parallel assignment: all right-hand sides read the
                # pre-state.  Evaluation errors propagate raw, as they
                # do from ``daemon.steps`` in compile_program.
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
                    # Unknown variable or out-of-domain value: take the
                    # tuple path to raise compile_program's error.
                    new_code = _pack_move(
                        interner, program, action.execute(env),
                        (action.name,), code,
                    )
                found.append(new_code)
            return tuple(sorted(set(found)))

        initial_codes = tuple(
            sorted(interner.encode(state) for state in program.initial_states())
        )

        def compiler(states, initial, drop_self) -> System:
            return compile_states(
                program, states, keep_stutter=not drop_self, initial=initial
            )

        return cls(interner, successors_of, initial_codes, program.name, compiler)

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
            lambda states, initial, drop_self: (
                system.without_self_loops() if drop_self else system
            ),
        )


def _pack_move(
    interner: StateInterner,
    program: Program,
    new_env: Dict[str, object],
    action_labels: Tuple[str, ...],
    source_code: int,
) -> int:
    """Pack one action's move, raising compile_program's exact error."""
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
