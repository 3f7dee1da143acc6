"""Table-backed tuple bridges: the array kernels' ``compile`` and
``materialize``.

The witness regions (the cycle witnesses, the strong-fairness
fair-trap search and the refinement witnesses) need tuple-state
:class:`~repro.core.system.System` objects whose successor sets
iterate exactly as ``compile_program``'s do.  A :class:`TupleBridge`
builds them from the per-action ``(mask, successor)`` arrays a kernel
already holds (the vector tables) or evaluates (the shared kernel's
:class:`~.lower.LoweredProgram`), never from the scalar evaluator.

The sequence is the scalar compiler's (:mod:`repro.gcl.semantics`)
under the central daemon: sources in the order given (code order for
the whole space), each source's moves in action order, stuttering
moves included.  Each successor set is therefore built from the same
insertion sequence, and each pair's labels name the actions that make
it.  ``compile(codes, drop_self=True)`` leaves the self-loops out as
:meth:`~repro.core.system.System.without_self_loops` does, so its
successor sets iterate as that method's.  A state is a tuple of the
schema's domain objects, as the scalar path has it, except where an
action writes a value whose type differs from its variable's domain
(``x := y == 0`` into an int domain): the scalar path keeps the
written value, so the bridge casts that component to the written type.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from ...core.state import State
from ...core.system import System, Transition, stutter_free
from ...gcl.action import GuardedAction
from .analyze import BOOL, INT, expr_type
from .lower import ActionPair, LoweredProgram

__all__ = ["TupleBridge"]

#: Each action's ``(mask, successor)`` arrays over a batch of codes.
PairsOf = Callable[[np.ndarray], Iterable[ActionPair]]

#: ``(position, type)``: a state component to cast to the written type.
Cast = Tuple[int, type]


class TupleBridge:
    """Tuple-state systems from a kernel's per-action arrays.

    ``pairs_of(codes)`` yields one ``(mask, successor)`` pair per
    action for a code batch of at most ``batch`` codes; each pair is
    read before the next is asked for, so reused buffers are fine.
    Systems are named after the program.
    """

    __slots__ = (
        "_interner", "_pairs_of", "_batch", "_name", "_names", "_casts",
        "_initial_codes", "_scalar_initial",
    )

    def __init__(self, lowered: LoweredProgram, pairs_of: PairsOf, batch: int):
        self._interner = lowered.interner
        self._pairs_of = pairs_of
        self._batch = batch
        self._name = lowered.program.name
        actions = lowered.program.actions
        self._names = [action.name for action in actions]
        var_types = {
            name: BOOL if codec.is_bool else INT
            for name, codec in lowered.codecs.items()
        }
        self._casts = [_casts(action, var_types) for action in actions]
        self._initial_codes = lowered.initial_codes
        self._scalar_initial = lowered.scalar_initial

    def compile(self, codes: Iterable[int], drop_self: bool = False) -> System:
        """The transitions out of the states of ``codes``, in the order
        given, with no initial states — what the packed kernel's
        ``compile`` gives; with ``drop_self`` self-loops are left out."""
        return self._system(np.fromiter(codes, dtype=np.int64), (), drop_self)

    @property
    def decodes(self) -> bool:
        """Is every target state it builds its interner's decoding
        (no action writes a value of another type than its variable's
        domain)?"""
        return not any(self._casts)

    def initial_states(self) -> Iterable[State]:
        """The initial states in the order ``Program.initial_states``
        yields them, which :meth:`materialize` passes to its system."""
        if self._scalar_initial is None:
            return self._interner.decode_array(self._initial_codes)
        return self._scalar_initial

    def materialize(self) -> System:
        """``program.compile()``: the whole space in code order, with
        the initial states of :meth:`initial_states`."""
        return self._system(
            np.arange(self._interner.size, dtype=np.int64),
            self.initial_states(),
            False,
        )

    def _system(
        self, codes: np.ndarray, initial: Iterable[State], drop_self: bool
    ) -> System:
        adjacency: Dict[State, Set[State]] = {}
        labels: Dict[Transition, Set[str]] = {}
        names, casts = self._names, self._casts
        for source, target, action in self._moves(codes):
            for index, kind in casts[action]:
                values = list(target)
                values[index] = kind(values[index])
                target = tuple(values)
            adjacency.setdefault(source, set()).add(target)
            if not (drop_self and target == source):
                labels.setdefault((source, target), set()).add(names[action])
        if drop_self:
            adjacency = stutter_free(adjacency)
        return System.of_members(
            self._interner.schema, adjacency, initial, self._name, labels
        )

    def _moves(self, codes: np.ndarray) -> Iterator[Tuple[State, State, int]]:
        """``(source, target, action)`` per move: sources in the order
        of ``codes``, each one's moves in action order."""
        actions = len(self._names)
        decode = self._interner.decode_array
        for start in range(0, codes.shape[0], self._batch):
            batch = codes[start:start + self._batch]
            enabled = np.zeros((actions, batch.shape[0]), dtype=bool)
            successors = np.empty((actions, batch.shape[0]), dtype=np.int64)
            for index, (mask, succ) in enumerate(self._pairs_of(batch)):
                enabled[index] = mask
                successors[index] = succ
            positions, moved = np.nonzero(enabled.T)
            sources = decode(batch)
            targets = decode(successors[moved, positions])
            for position, action, target in zip(
                positions.tolist(), moved.tolist(), targets
            ):
                yield sources[position], target, action


def _casts(action: GuardedAction, var_types: Dict[str, str]) -> Tuple[Cast, ...]:
    """The components ``action`` writes with a value of another type
    than the variable's domain, and the written type."""
    positions = {name: index for index, name in enumerate(var_types)}
    casts: List[Cast] = []
    for target, rhs in action.assignments.items():
        written = expr_type(rhs, var_types)
        if written != var_types[target]:
            casts.append((positions[target], bool if written == BOOL else int))
    return tuple(casts)
