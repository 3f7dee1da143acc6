"""Table-backed tuple bridges: the array kernels' ``compile`` and
``materialize``.

The witness phases, the strong-fairness fair-trap search and the
refinement replay need tuple-state :class:`~repro.core.system.System`
objects whose successor sets iterate exactly as ``compile_program``'s
do.  A :class:`TupleBridge` builds them from the per-action ``(mask,
successor)`` arrays a kernel already holds (the vector tables) or
evaluates (the shared kernel's :class:`~.lower.LoweredProgram`), never
from the scalar evaluator.

The sequence is the scalar compiler's (:mod:`repro.gcl.semantics`)
under the central daemon: sources in the order given (code order for
the whole space), each source's moves in action order, and a
stuttering move dropped unless the kernel keeps stutter.  Each
successor set is therefore built from the same insertion sequence, and
each pair's labels name the actions that make it.  A state is a tuple of the schema's domain objects, as the scalar
path has it, except where an action writes a value whose type differs
from its variable's domain (``x := y == 0`` into an int domain): the
scalar path keeps the written value, so the bridge casts that component
to the written type.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Set, Tuple

import numpy as np

from ...core.state import State
from ...core.system import System, Transition
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
    ``keep_stutter`` and ``name`` are the kernel's.
    """

    __slots__ = (
        "_interner", "_pairs_of", "_batch", "_keep_stutter", "_name",
        "_digits", "_names", "_casts", "_initial_codes", "_scalar_initial",
    )

    def __init__(
        self,
        lowered: LoweredProgram,
        pairs_of: PairsOf,
        batch: int,
        keep_stutter: bool,
        name: str,
    ):
        self._interner = lowered.interner
        self._pairs_of = pairs_of
        self._batch = batch
        self._keep_stutter = keep_stutter
        self._name = name
        self._digits = [
            (codec.place, codec.radix, np.array(domain, dtype=object))
            for codec, domain in zip(
                lowered.codecs.values(), self._interner.schema.domains
            )
        ]
        actions = lowered.program.actions
        self._names = [action.name for action in actions]
        var_types = {
            name: BOOL if codec.is_bool else INT
            for name, codec in lowered.codecs.items()
        }
        self._casts = [_casts(action, var_types) for action in actions]
        self._initial_codes = lowered.initial_codes
        self._scalar_initial = lowered.scalar_initial

    def compile(self, states: Iterable[State]) -> System:
        """The transitions out of ``states``, in the order given, with
        no initial states — what the packed kernel's ``compile`` gives."""
        encode = self._interner.encode
        codes = np.fromiter((encode(state) for state in states), dtype=np.int64)
        return self._system(codes, ())

    def materialize(self) -> System:
        """``program.compile()``: the whole space in code order, with
        the initial states iterating as ``Program.initial_states``
        yields them."""
        initial: Iterable[State]
        if self._scalar_initial is None:
            initial = self._decode(np.asarray(self._initial_codes, dtype=np.int64))
        else:
            initial = self._scalar_initial
        return self._system(np.arange(self._interner.size, dtype=np.int64), initial)

    def _decode(self, codes: np.ndarray) -> List[State]:
        """The state tuples of ``codes``, made of the domain objects."""
        if not self._digits:
            empty: State = ()
            return [empty] * codes.shape[0]
        return list(
            zip(
                *(
                    objects[(codes // place) % radix].tolist()
                    for place, radix, objects in self._digits
                )
            )
        )

    def _system(self, codes: np.ndarray, initial: Iterable[State]) -> System:
        adjacency: Dict[State, Set[State]] = {}
        labels: Dict[Transition, Set[str]] = {}
        names, casts = self._names, self._casts
        for source, target, action in self._moves(codes):
            for index, kind in casts[action]:
                values = list(target)
                values[index] = kind(values[index])
                target = tuple(values)
            adjacency.setdefault(source, set()).add(target)
            labels.setdefault((source, target), set()).add(names[action])
        return System.of_members(
            self._interner.schema, adjacency, initial, self._name, labels
        )

    def _moves(self, codes: np.ndarray) -> Iterator[Tuple[State, State, int]]:
        """``(source, target, action)`` per kept move: sources in the
        order of ``codes``, each one's moves in action order."""
        actions = len(self._names)
        for start in range(0, codes.shape[0], self._batch):
            batch = codes[start:start + self._batch]
            kept = np.zeros((actions, batch.shape[0]), dtype=bool)
            successors = np.empty((actions, batch.shape[0]), dtype=np.int64)
            for index, (mask, succ) in enumerate(self._pairs_of(batch)):
                kept[index] = mask
                if not self._keep_stutter:
                    kept[index] &= succ != batch
                successors[index] = succ
            positions, moved = np.nonzero(kept.T)
            sources = self._decode(batch)
            targets = self._decode(successors[moved, positions])
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
