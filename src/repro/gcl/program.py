"""Guarded-command programs.

A :class:`Program` is the syntactic unit the paper writes in its
figures: a set of variables with finite domains, a list of guarded
actions (possibly organized into processes), and a characterization of
the initial states.  Programs are *compiled* to semantic
:class:`~repro.core.system.System` automata by
:mod:`repro.gcl.semantics` under a chosen daemon.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import GCLError
from ..core.state import State, StateSchema
from .action import GuardedAction
from .daemon import CentralDaemon, Daemon
from .expr import Env, Expr
from .process import Process
from .variable import Variable

__all__ = ["Program"]


class Program:
    """A guarded-command program over finite-domain variables.

    Args:
        name: display name (used for the compiled system too).
        variables: the declared variables, in order; the order fixes
            the compiled state-tuple layout.
        actions: the program's actions.  May be empty for a *null*
            program (used when a wrapper refines to nothing, like the
            paper's vacuous ``W1'`` in Section 4.1).
        init: either a boolean :class:`~repro.gcl.expr.Expr`
            characterizing the initial states, an iterable of explicit
            name->value mappings, or ``None`` for *no* initial states
            (wrappers).
        processes: optional process structure for model-compliance
            checking; when given, its actions must be exactly
            ``actions`` (same names, same order is not required).

    Raises:
        GCLError: on duplicate variable names, duplicate action names,
            actions touching undeclared variables, or process/action
            mismatches.
    """

    def __init__(
        self,
        name: str,
        variables: Sequence[Variable],
        actions: Sequence[GuardedAction],
        init: "Expr | Iterable[Mapping[str, object]] | None" = None,
        processes: Optional[Sequence[Process]] = None,
    ):
        self.name = name
        self.variables: Tuple[Variable, ...] = tuple(variables)
        names = [variable.name for variable in self.variables]
        if len(set(names)) != len(names):
            raise GCLError(f"program {name!r} declares duplicate variables")
        self._by_name: Dict[str, Variable] = {v.name: v for v in self.variables}
        self.actions: Tuple[GuardedAction, ...] = tuple(actions)
        action_names = [action.name for action in self.actions]
        if len(set(action_names)) != len(action_names):
            raise GCLError(f"program {name!r} declares duplicate action names")
        declared = set(self._by_name)
        for action in self.actions:
            undeclared = (action.read_set() | action.write_set()) - declared
            if undeclared:
                raise GCLError(
                    f"action {action.name!r} uses undeclared variables "
                    f"{sorted(undeclared)}"
                )
        self.processes: Tuple[Process, ...] = tuple(processes or ())
        if self.processes:
            from_processes = {
                action.name for process in self.processes for action in process.actions
            }
            if from_processes != set(action_names):
                raise GCLError(
                    f"program {name!r}: process actions {sorted(from_processes)} "
                    f"do not match program actions {sorted(action_names)}"
                )
        self._init = init
        self._schema: Optional[StateSchema] = None

    # ------------------------------------------------------------------
    # State plumbing
    # ------------------------------------------------------------------

    def schema(self) -> StateSchema:
        """The state schema induced by the variable declarations (cached)."""
        if self._schema is None:
            self._schema = StateSchema(
                {variable.name: variable.domain.values for variable in self.variables}
            )
        return self._schema

    def env_of(self, state: State) -> Dict[str, object]:
        """Unpack a state tuple into a name->value environment."""
        return self.schema().unpack(state)

    def state_of(self, env: Mapping[str, object]) -> State:
        """Pack an environment into a state tuple.

        Raises:
            StateSpaceError: if the environment does not cover the
                variables or assigns out-of-domain values (e.g. an
                action computed a value outside the target domain).
        """
        return self.schema().pack(env)

    def variable(self, name: str) -> Variable:
        """Look up a declared variable.

        Raises:
            KeyError: if no such variable is declared.
        """
        return self._by_name[name]

    # ------------------------------------------------------------------
    # Semantics helpers
    # ------------------------------------------------------------------

    def enabled_actions(self, state: State) -> List[GuardedAction]:
        """Actions whose guards hold in ``state`` (program order)."""
        env = self.env_of(state)
        return [action for action in self.actions if action.enabled(env)]

    def is_initial(self, state: State) -> bool:
        """Does ``state`` satisfy the program's initial characterization?"""
        if self._init is None:
            return False
        if isinstance(self._init, Expr):
            value = self._init.eval(self.env_of(state))
            if not isinstance(value, bool):
                raise GCLError(
                    f"init predicate of {self.name!r} is not boolean-valued"
                )
            return value
        schema = self.schema()
        packed = {schema.pack(dict(assignment)) for assignment in self._init}
        return state in packed

    @property
    def init_predicate(self) -> Optional[Expr]:
        """The initial characterization when it is a predicate, else
        ``None`` (explicit assignments, or no initial states)."""
        return self._init if isinstance(self._init, Expr) else None

    def initial_states(self) -> Iterator[State]:
        """Enumerate the initial states.

        Predicate form scans the full space; explicit form packs the
        given assignments directly.
        """
        if self._init is None:
            return iter(())
        if isinstance(self._init, Expr):
            predicate = self._init
            schema = self.schema()

            def generate() -> Iterator[State]:
                for state in schema.states():
                    value = predicate.eval(schema.unpack(state))
                    if not isinstance(value, bool):
                        raise GCLError(
                            f"init predicate of {self.name!r} is not boolean-valued"
                        )
                    if value:
                        yield state

            return generate()
        schema = self.schema()
        return iter({schema.pack(dict(assignment)) for assignment in self._init})

    def compile(
        self,
        daemon: Optional[Daemon] = None,
        name: Optional[str] = None,
    ):
        """Compile to a :class:`~repro.core.system.System`.

        Thin delegate to :func:`repro.gcl.semantics.compile_program`;
        see there for the semantics.
        """
        from .semantics import compile_program

        return compile_program(self, daemon=daemon or CentralDaemon(), name=name)

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------

    def with_actions(
        self,
        actions: Sequence[GuardedAction],
        name: Optional[str] = None,
    ) -> "Program":
        """A copy of this program with a different action list.

        Keeps variables and the initial characterization; drops the
        process structure (the caller re-attaches one if needed).
        Used by the derivations when an action list is rewritten
        (guard relaxation, wrapper merging).
        """
        return Program(
            name or self.name,
            self.variables,
            actions,
            init=self._init,
            processes=None,
        )

    def with_init(
        self,
        init: "Expr | Iterable[Mapping[str, object]] | None",
        name: Optional[str] = None,
    ) -> "Program":
        """A copy of this program with a different initial characterization."""
        return Program(
            name or self.name,
            self.variables,
            self.actions,
            init=init,
            processes=self.processes or None,
        )

    def merged_with(self, other: "Program", name: Optional[str] = None) -> "Program":
        """Syntactic union of two programs over the same variables.

        The GCL-level counterpart of the semantic box operator: the
        action lists are concatenated.  The initial characterization is
        taken from ``self`` (wrappers contribute none).

        Raises:
            GCLError: if variable declarations differ or action names
                collide.
        """
        if self.variables != other.variables:
            raise GCLError(
                f"cannot merge {self.name!r} with {other.name!r}: "
                "variable declarations differ"
            )
        collisions = {a.name for a in self.actions} & {a.name for a in other.actions}
        if collisions:
            raise GCLError(f"action name collision on merge: {sorted(collisions)}")
        return Program(
            name or f"{self.name} [] {other.name}",
            self.variables,
            tuple(self.actions) + tuple(other.actions),
            init=self._init,
            processes=None,
        )

    def render(self) -> str:
        """Paper-style listing of the program (see :mod:`repro.gcl.pretty`)."""
        from .pretty import render_program

        return render_program(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Program({self.name!r}, {len(self.variables)} vars, "
            f"{len(self.actions)} actions)"
        )
