"""Counterexample witnesses produced by the decision procedures.

Every checker in this package answers with a :class:`CheckResult`: a
boolean verdict plus, on failure, a :class:`Witness` that pins down
*which* clause of the paper's definition broke and *where*.  Witnesses
carry concrete state sequences so that a failed theorem check can be
replayed by hand (or rendered by :mod:`repro.checker.report`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..core.state import State, StateSchema

__all__ = ["WitnessKind", "Witness", "CheckResult"]


class WitnessKind(Enum):
    """The clause of a definition that a witness violates."""

    #: A reachable transition of ``C`` is not a transition of ``A``.
    ILLEGAL_TRANSITION = "illegal-transition"
    #: A transition of ``C`` has no matching (multi-step) path in ``A``.
    NO_ABSTRACT_PATH = "no-abstract-path"
    #: A compressing transition of ``C`` lies on a cycle of ``C``
    #: (infinitely many omissions would be needed).
    COMPRESSION_ON_CYCLE = "compression-on-cycle"
    #: ``C`` halts in a state where ``A`` can still move (maximality
    #: of the matched abstract computation fails).
    BAD_TERMINAL = "bad-terminal"
    #: A cycle that never enters the legitimate set (divergence).
    DIVERGENT_CYCLE = "divergent-cycle"
    #: A deadlock outside the legitimate set.
    ILLEGITIMATE_DEADLOCK = "illegitimate-deadlock"
    #: Behaviour inside the legitimate set departs from the target.
    CLOSURE_VIOLATION = "closure-violation"
    #: The abstraction function failed totality or surjectivity.
    BAD_ABSTRACTION = "bad-abstraction"
    #: A tolerance property of a component system failed (used by the
    #: introductory counterexamples).
    TOLERANCE_VIOLATION = "tolerance-violation"


@dataclass(frozen=True)
class Witness:
    """A concrete violation of one clause of a checked definition.

    Attributes:
        kind: which clause failed.
        message: one-line human explanation.
        states: the states involved (a transition pair, a cycle, or a
            deadlocked state), in order.
        schema: schema used to pretty-print ``states`` (optional).
    """

    kind: WitnessKind
    message: str
    states: Tuple[State, ...] = ()
    schema: Optional[StateSchema] = None

    def format(self) -> str:
        """Render the witness with pretty-printed states."""
        lines = [f"[{self.kind.value}] {self.message}"]
        for state in self.states:
            if self.schema is not None:
                lines.append(f"    {self.schema.format_state(state)}")
            else:
                lines.append(f"    {state!r}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a decision procedure plus failure evidence.

    Attributes:
        holds: the verdict.
        check: name of the property that was decided (e.g.
            ``"convergence refinement"``).
        witness: populated iff the check found a counterexample.
        detail: optional free-form text with statistics of the check
            (state counts, number of compression edges, ...).
    """

    holds: bool
    check: str
    witness: Optional[Witness] = None
    detail: str = ""

    @property
    def verdict(self) -> str:
        """``"HOLDS"`` or ``"FAILS"``."""
        return "HOLDS" if self.holds else "FAILS"

    def __bool__(self) -> bool:
        return self.holds

    def format(self) -> str:
        """Multi-line rendering: verdict, detail, and witness if any."""
        lines = [f"{self.check}: {self.verdict}"]
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.witness is not None:
            lines.extend("  " + line for line in self.witness.format().splitlines())
        return "\n".join(lines)

    def expect(self) -> "CheckResult":
        """Assert the verdict is positive; raise with the witness otherwise.

        Returns ``self`` for chaining.  Useful in derivation scripts
        where a failed check should abort loudly.
        """
        if not self.holds:
            raise AssertionError(self.format())
        return self
