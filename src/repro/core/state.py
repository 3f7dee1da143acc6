"""States, state schemas, and finite state spaces.

The paper models a system as a finite-state automaton ``(Sigma, T, I)``
over a state space ``Sigma``.  This module provides the concrete
representation of ``Sigma`` used throughout the library:

* a :class:`StateSchema` names the state variables and gives each a
  finite domain;
* a *state* is an immutable tuple of values, one per schema variable,
  in schema order (plain tuples keep the exhaustive enumerations used
  by the checkers cheap and hashable);
* a :class:`StateSpace` is the set of all states of a schema, lazily
  enumerable and queryable for membership.

The helpers here are deliberately free of any protocol knowledge: the
token-ring packages and the guarded-command compiler both build their
state spaces through this module.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .errors import SchemaMismatchError, StateSpaceError

__all__ = ["State", "StateSchema", "StateSpace"]

#: A state is an immutable tuple of variable values in schema order.
State = Tuple[object, ...]


class StateSchema:
    """An ordered set of named variables with finite domains.

    A schema fixes both the *shape* of states (which variables exist
    and in which order their values are stored) and the *extent* of the
    state space (the finite domain of each variable).

    Args:
        variables: mapping from variable name to an iterable of the
            values the variable may take.  Iteration order of the
            mapping fixes the tuple order of states.

    Raises:
        ValueError: if there are no variables, a domain is empty, or a
            domain contains duplicate values.

    Example:
        >>> schema = StateSchema({"x": (0, 1), "y": (0, 1, 2)})
        >>> schema.size()
        6
        >>> schema.pack({"y": 2, "x": 1})
        (1, 2)
    """

    def __init__(self, variables: Mapping[str, Iterable[object]]):
        if not variables:
            raise ValueError("a state schema needs at least one variable")
        self._names: Tuple[str, ...] = tuple(variables)
        self._domains: Tuple[Tuple[object, ...], ...] = tuple(
            tuple(domain) for domain in variables.values()
        )
        for name, domain in zip(self._names, self._domains):
            if not domain:
                raise ValueError(f"variable {name!r} has an empty domain")
            if len(set(domain)) != len(domain):
                raise ValueError(f"variable {name!r} has duplicate domain values")
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self._names)}
        self._domain_sets = tuple(frozenset(domain) for domain in self._domains)

    @property
    def names(self) -> Tuple[str, ...]:
        """Variable names in tuple order."""
        return self._names

    @property
    def domains(self) -> Tuple[Tuple[object, ...], ...]:
        """Per-variable domains, aligned with :attr:`names`."""
        return self._domains

    def domain_of(self, name: str) -> Tuple[object, ...]:
        """Return the domain of variable ``name``.

        Raises:
            KeyError: if the schema has no such variable.
        """
        return self._domains[self._index[name]]

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self._names)

    def size(self) -> int:
        """Number of states in the state space (product of domain sizes)."""
        result = 1
        for domain in self._domains:
            result *= len(domain)
        return result

    def pack(self, assignment: Mapping[str, object]) -> State:
        """Build a state tuple from a name->value mapping.

        Every schema variable must be assigned, every value must lie in
        the variable's domain, and no extra names may be present.

        Raises:
            StateSpaceError: on missing/extra variables or out-of-domain
                values.
        """
        extra = set(assignment) - set(self._names)
        if extra:
            raise StateSpaceError(f"unknown variables in assignment: {sorted(extra)}")
        values = []
        for name, domain_set in zip(self._names, self._domain_sets):
            if name not in assignment:
                raise StateSpaceError(f"assignment is missing variable {name!r}")
            value = assignment[name]
            if value not in domain_set:
                raise StateSpaceError(
                    f"value {value!r} is outside the domain of {name!r}"
                )
            values.append(value)
        return tuple(values)

    def unpack(self, state: State) -> Dict[str, object]:
        """Return the name->value dictionary view of a state tuple."""
        self.validate(state)
        return dict(zip(self._names, state))

    def value(self, state: State, name: str) -> object:
        """Read variable ``name`` out of ``state`` without unpacking it all."""
        return state[self._index[name]]

    def replace(self, state: State, **updates: object) -> State:
        """Return a copy of ``state`` with the named variables replaced.

        Raises:
            StateSpaceError: if an update is out of domain or names an
                unknown variable.
        """
        values = list(state)
        for name, value in updates.items():
            if name not in self._index:
                raise StateSpaceError(f"unknown variable {name!r}")
            position = self._index[name]
            if value not in self._domain_sets[position]:
                raise StateSpaceError(
                    f"value {value!r} is outside the domain of {name!r}"
                )
            values[position] = value
        return tuple(values)

    def validate(self, state: State) -> None:
        """Assert that ``state`` is a member of this schema's state space.

        Raises:
            StateSpaceError: if the tuple has the wrong arity or an
                out-of-domain component.
        """
        if not isinstance(state, tuple) or len(state) != len(self._names):
            raise StateSpaceError(
                f"state {state!r} does not have arity {len(self._names)}"
            )
        for name, domain_set, value in zip(self._names, self._domain_sets, state):
            if value not in domain_set:
                raise StateSpaceError(
                    f"state component {name!r}={value!r} is out of domain"
                )

    def is_valid(self, state: State) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(state)
        except StateSpaceError:
            return False
        return True

    def states(self) -> Iterator[State]:
        """Enumerate the full state space in lexicographic domain order."""
        return iter(itertools.product(*self._domains))

    def space(self) -> "StateSpace":
        """Return the :class:`StateSpace` over this schema."""
        return StateSpace(self)

    def compatible_with(self, other: "StateSchema") -> bool:
        """True iff both schemas have identical names and domains."""
        return self._names == other._names and self._domains == other._domains

    def require_compatible(self, other: "StateSchema", context: str) -> None:
        """Raise :class:`SchemaMismatchError` unless schemas match.

        Args:
            context: a short phrase naming the operation, used in the
                error message.
        """
        if not self.compatible_with(other):
            raise SchemaMismatchError(
                f"{context}: schemas differ "
                f"({self.describe()} vs {other.describe()})"
            )

    def describe(self) -> str:
        """Human-readable one-line description of the schema."""
        parts = ", ".join(
            f"{name}:{len(domain)}" for name, domain in zip(self._names, self._domains)
        )
        return f"<schema {parts}; {self.size()} states>"

    def format_state(self, state: State) -> str:
        """Render a state as ``name=value`` pairs for messages and traces."""
        self.validate(state)
        return " ".join(f"{n}={v}" for n, v in zip(self._names, state))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateSchema({self.describe()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateSchema):
            return NotImplemented
        return self.compatible_with(other)

    def __hash__(self) -> int:
        return hash((self._names, self._domains))


class StateSpace:
    """The (finite) set of all states of a schema.

    Thin wrapper that lets callers treat ``Sigma`` as a first-class
    value: it supports ``in``, ``len``, and iteration, and caches the
    materialized frozenset on first full enumeration.
    """

    def __init__(self, schema: StateSchema):
        self._schema = schema
        self._cache: frozenset | None = None

    @property
    def schema(self) -> StateSchema:
        """The schema this space enumerates."""
        return self._schema

    def __iter__(self) -> Iterator[State]:
        return self._schema.states()

    def __len__(self) -> int:
        return self._schema.size()

    def __contains__(self, state: object) -> bool:
        return isinstance(state, tuple) and self._schema.is_valid(state)

    def as_frozenset(self) -> frozenset:
        """Materialize (and cache) the whole space as a frozenset."""
        if self._cache is None:
            self._cache = frozenset(self._schema.states())
        return self._cache

    def sample(self, count: int, rng) -> Sequence[State]:
        """Draw ``count`` states uniformly at random using ``rng``.

        Sampling draws each variable independently from its domain, so
        it never materializes the full space.

        Args:
            count: number of states to draw (with replacement).
            rng: a :class:`random.Random`-like object.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        domains = self._schema.domains
        return [tuple(rng.choice(domain) for domain in domains) for _ in range(count)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StateSpace({self._schema.describe()})"
