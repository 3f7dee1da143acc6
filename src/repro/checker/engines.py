"""Which engine decides a check, and where it goes when one cannot.

Four engines decide the checkers' relations with identical verdicts:
``shared`` (streamed chunks that spill past a memory budget), ``vector``
(whole-space NumPy arrays), ``packed`` (interned codes and bitset
fixpoints, reached only as vector's fallback rung) and ``tuple``
(plain sets, the reference).  This module is the one place that says
which of them runs a check, for both checkers:

* :func:`engine_chain` turns a request into an ordered list.  It walks
  :data:`RUNGS` from the request down, keeps each engine the calling
  checker has a backend for and whose preflight passes, and records
  the choice as ``engine.selected`` / ``engine.fallback`` events and
  ``engine.*`` counters.  Nothing is refused silently: every request
  that does not run as asked says why.
* :func:`run_chain` runs the checker's attempt on each listed engine
  in turn.  A recoverable runtime fault
  (:data:`~repro.resilience.degrade.RECOVERABLE_ENGINE_FAULTS`) moves
  the check to the next engine with a ``during="runtime"`` event.

Restarting lower down is sound because the engines are pure functions
of their inputs with identical verdicts (the CI differentials pin
this), so a partial first attempt leaves nothing behind but the
counters it already emitted.  The last engine's faults propagate:
masking a tuple-engine crash would hide a real failure.
"""

from __future__ import annotations

from typing import Callable, Collection, Optional, Tuple, TypeVar

from ..core.abstraction import AbstractionFunction
from ..kernel.engine import CheckSource
from ..kernel.shared.budget import active_memory_context
from ..obs import Instrumentation
from ..resilience.degrade import RECOVERABLE_ENGINE_FAULTS

__all__ = [
    "ENGINES",
    "PACKED_ALIAS_REASON",
    "RUNGS",
    "engine_chain",
    "run_chain",
]

#: The engine names a checker accepts.
ENGINES = ("packed", "tuple", "vector", "shared")

#: The order a request walks the engines in, most exotic first.
RUNGS = ("shared", "vector", "packed", "tuple")

PACKED_ALIAS_REASON = (
    "'packed' is an alias of 'vector'; the packed kernel runs only as "
    "the vector engine's fallback"
)

T = TypeVar("T")


def _require_known_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of "
            + ", ".join(map(repr, ENGINES))
        )


def _unalias(engine: str, instrumentation: Instrumentation) -> str:
    """The engine a request names, with ``packed`` served by vector.

    The alias is a fallback like any other: it emits a reasoned
    ``engine.fallback`` event, so a packed request never runs
    elsewhere silently.  Its ``engine.fallback.vector`` counter waits
    for vector's preflight (:func:`engine_chain`), so it is counted
    only when vector serves the request.
    """
    if engine != "packed":
        return engine
    instrumentation.event(
        "engine.fallback", requested="packed", reason=PACKED_ALIAS_REASON
    )
    return "vector"


def _preflight(
    rung: str,
    concrete: CheckSource,
    abstract: CheckSource,
    alpha: Optional[AbstractionFunction],
) -> Optional[str]:
    """Why ``rung`` cannot run these sources (``None``: it can).

    Shared has its own gates
    (:func:`~repro.kernel.shared.shared_fallback_reason`): the interner
    ceiling is exactly the limit it exists to bypass.  Vector and
    packed intern every state, so both check the ceiling; vector also
    needs a lowerable program.
    """
    if rung == "tuple":
        return None
    if rung == "shared":
        from ..kernel.shared import shared_fallback_reason

        return shared_fallback_reason(concrete, abstract, alpha)
    from ..kernel import packed_fallback_reason

    reason = packed_fallback_reason(concrete, abstract)
    if reason is None and rung == "vector":
        from ..kernel.vector import vector_fallback_reason

        reason = vector_fallback_reason(concrete, abstract)
    return reason


def engine_chain(
    engine: str,
    concrete: CheckSource,
    abstract: CheckSource,
    alpha: Optional[AbstractionFunction],
    backends: Collection[str],
    instrumentation: Instrumentation,
    unserved: str = "",
) -> Tuple[str, ...]:
    """The engines that may decide this check, in the order to try them.

    A ``tuple`` request runs there silently.  Any other request is
    unaliased (``packed`` runs the vector chain), then walked down
    :data:`RUNGS`.  A request for a rung outside ``backends`` (the
    refinement checker has no shared backend) continues at vector with
    an ``engine.fallback`` event giving ``unserved`` as its reason.
    Shared is tried when requested, or for a vector request while a
    memory context (:func:`repro.kernel.shared.using_memory_budget`)
    is active.  A refusal is recorded once per rung, as an
    ``engine.fallback`` event naming the refused rung: shared (when
    tried), then vector when packed or tuple runs.  The first engine
    kept is recorded: ``engine.<name>`` and ``engine.selected`` for
    shared, vector or packed, or ``engine.fallback.tuple`` when only
    the tuple reference is left.  A fallback counter names the engine
    that runs: ``engine.fallback.vector`` for a shared or packed
    request that vector serves, ``engine.fallback.packed`` or
    ``engine.fallback.tuple`` below it.
    The engines below the first are kept silently; :func:`run_chain`
    reaches them only on a runtime fault.
    """
    _require_known_engine(engine)
    if engine == "tuple":
        return ("tuple",)
    requested = _unalias(engine, instrumentation)
    if requested not in backends:
        instrumentation.event(
            "engine.fallback", requested=requested, reason=unserved
        )
        requested = "vector"
    tries_shared = requested == "shared" or (
        "shared" in backends and active_memory_context() is not None
    )
    reasons = {
        rung: _preflight(rung, concrete, abstract, alpha)
        for rung in RUNGS[0 if tries_shared else 1:]
        if rung in backends
    }
    chain = tuple(rung for rung, reason in reasons.items() if reason is None)
    first = chain[0]
    if tries_shared and first != "shared":
        instrumentation.event(
            "engine.fallback", requested="shared", reason=reasons["shared"]
        )
    if first == "tuple":
        instrumentation.count("engine.fallback.tuple", 1)
        instrumentation.event(
            "engine.fallback", requested="vector", reason=reasons["vector"]
        )
        return chain
    if first == "packed":
        instrumentation.count("engine.fallback.packed", 1)
        instrumentation.event(
            "engine.fallback", requested="vector", reason=reasons["vector"]
        )
    elif engine in ("shared", "packed") and first == "vector":
        instrumentation.count("engine.fallback.vector", 1)
    instrumentation.count(f"engine.{first}", 1)
    instrumentation.event("engine.selected", engine=first)
    return chain


def run_chain(
    chain: Tuple[str, ...],
    attempt: Callable[[str], Optional[T]],
    instrumentation: Instrumentation,
) -> Tuple[str, T]:
    """The engine that decided, and its verdict.

    ``attempt(engine)`` returns the verdict, or ``None`` when the
    engine declines after emitting its own reasoned fallback event (a
    refinement violation replays on tuple for the witness).  A
    recoverable fault moves the check one engine down with a
    ``during="runtime"`` event; on the last engine it propagates.
    """
    for position, engine in enumerate(chain):
        try:
            outcome = attempt(engine)
        except RECOVERABLE_ENGINE_FAULTS as fault:
            if position == len(chain) - 1:
                raise
            instrumentation.count(f"engine.fallback.{chain[position + 1]}", 1)
            instrumentation.count("resilience.engine.fallback", 1)
            instrumentation.event(
                "engine.fallback",
                requested=engine,
                during="runtime",
                reason=f"{type(fault).__name__}: {fault}",
            )
            continue
        if outcome is not None:
            return engine, outcome
    raise AssertionError("engine chain exhausted")  # pragma: no cover
