"""Mixed-radix state interning: dense integer codes for schema states.

The packed engine replaces tuple states with dense ``int`` codes.  A
:class:`StateInterner` fixes the bijection: the code of a state is its
index in the schema's lexicographic enumeration order (the order of
``StateSchema.states()``), with the *first* schema variable most
significant.  ``encode`` and ``decode`` are exact inverses, and the
ordering invariant::

    interner.encode(state) == list(schema.states()).index(state)

is what lets the bitset fixpoints iterate codes in ascending order and
still decode back to the same schema-order sets the tuple engine
produces.

Packing is refused (``unpackable_reason``) when the state space is too
large for a byte-per-state flag array; callers fall back to the tuple
engine in that case.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.errors import StateSpaceError
from ..core.state import State, StateSchema

__all__ = [
    "MAX_PACKED_STATES",
    "StateInterner",
    "can_pack",
    "unpackable_reason",
]

#: Ceiling on packable state-space sizes: the fixpoints allocate a
#: byte-per-state flag array, so 2**22 states is a 4 MiB bound.
MAX_PACKED_STATES: int = 1 << 22


def unpackable_reason(schema: StateSchema) -> Optional[str]:
    """Why ``schema`` cannot be packed, or ``None`` if it can.

    The only structural obstruction is size: every finite schema has a
    mixed-radix encoding, but the packed fixpoints allocate flag
    arrays proportional to the state count.
    """
    size = schema.size()
    if size > MAX_PACKED_STATES:
        return (
            f"state space has {size} states, above the packed-engine "
            f"ceiling of {MAX_PACKED_STATES}"
        )
    return None


def can_pack(schema: StateSchema) -> bool:
    """Boolean form of :func:`unpackable_reason`."""
    return unpackable_reason(schema) is None


class StateInterner:
    """The mixed-radix bijection between schema states and dense ints.

    Codes run from ``0`` to ``schema.size() - 1`` and enumerate the
    state space in exactly the order of ``schema.states()``.

    Args:
        schema: the state schema to intern.
        enforce_ceiling: when ``False`` the :data:`MAX_PACKED_STATES`
            size check is skipped — the shared engine streams
            code chunks and bit-packed flags instead of byte-per-state
            arrays, so the ceiling's rationale does not apply to it.
            The arithmetic itself is exact at any size.

    Raises:
        ValueError: if the schema is unpackable (see
            :func:`unpackable_reason`) and the ceiling is enforced.
    """

    __slots__ = ("_schema", "_names", "_domains", "_places", "_digit_maps", "size")

    def __init__(self, schema: StateSchema, enforce_ceiling: bool = True):
        reason = unpackable_reason(schema) if enforce_ceiling else None
        if reason is not None:
            raise ValueError(f"schema is not packable: {reason}")
        self._schema = schema
        self._names: Tuple[str, ...] = schema.names
        self._domains: Tuple[Tuple[object, ...], ...] = schema.domains
        # First variable most significant: place value of position i is
        # the product of the radices to its right.
        places: List[int] = [1] * len(self._domains)
        for i in range(len(self._domains) - 2, -1, -1):
            places[i] = places[i + 1] * len(self._domains[i + 1])
        self._places: Tuple[int, ...] = tuple(places)
        self._digit_maps: Tuple[Dict[object, int], ...] = tuple(
            {value: digit for digit, value in enumerate(domain)}
            for domain in self._domains
        )
        self.size: int = schema.size()

    @property
    def schema(self) -> StateSchema:
        """The schema this interner encodes."""
        return self._schema

    def places_by_name(self) -> Dict[str, int]:
        """Per-variable place values, keyed by name (for kernels)."""
        return dict(zip(self._names, self._places))

    def digit_maps_by_name(self) -> Dict[str, Dict[object, int]]:
        """Per-variable value->digit maps, keyed by name (for kernels)."""
        return dict(zip(self._names, self._digit_maps))

    def encode(self, state: State) -> int:
        """The dense code of ``state``.

        Raises:
            StateSpaceError: if ``state`` is not a member of the schema
                (wrong arity or an out-of-domain component) — the same
                error ``schema.validate`` raises.
        """
        if not isinstance(state, tuple) or len(state) != len(self._names):
            self._schema.validate(state)  # raises the canonical arity error
        code = 0
        try:
            for value, digit_map, place in zip(state, self._digit_maps, self._places):
                code += digit_map[value] * place
        except (KeyError, TypeError):
            self._schema.validate(state)  # raises the canonical domain error
            raise StateSpaceError(
                f"state {state!r} has an unencodable component"
            )  # pragma: no cover - validate always raises first
        return code

    def decode(self, code: int) -> State:
        """The state tuple of ``code`` (exact inverse of :meth:`encode`).

        Raises:
            ValueError: if ``code`` is outside ``[0, size)``.
        """
        if not 0 <= code < self.size:
            raise ValueError(
                f"packed code {code} is outside the state space [0, {self.size})"
            )
        values: List[object] = [None] * len(self._domains)
        remaining = code
        for i in range(len(self._domains) - 1, -1, -1):
            remaining, digit = divmod(remaining, len(self._domains[i]))
            values[i] = self._domains[i][digit]
        return tuple(values)

    def decode_env(self, code: int) -> Dict[str, object]:
        """The name->value environment of ``code`` (for guard evaluation)."""
        return dict(zip(self._names, self.decode(code)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateInterner({self._schema.describe()})"
