"""Static lowerability analysis for the vector engine.

The vector engine lowers guard predicates and assignment right-hand
sides to whole-array NumPy operations.  Array evaluation cannot raise
the per-state :class:`~repro.core.errors.GCLEvalError` a dynamically
ill-typed expression would raise on the tuple engine, so lowering is
only attempted for programs this module can *statically* type: every
domain is made of plain ints or bools, every expression type-checks
under the simple int/bool discipline the evaluator enforces at
runtime, and every modulus is a provably non-zero constant.  Anything
else falls back to the packed engine, whose per-state evaluation
reproduces the tuple engine's errors exactly.  The analysis reads only
the program's syntax, so engine selection never evaluates an
expression.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from ...gcl import expr as ast
from ...gcl.program import Program

__all__ = [
    "BOOL",
    "INT",
    "MAX_VECTOR_CELLS",
    "MAX_VECTOR_CELLS_ENV",
    "domain_type",
    "effective_max_vector_cells",
    "expr_type",
    "structural_unlowerable_reason",
    "unlowerable_reason",
]

#: Expression/domain types of the static discipline.
BOOL = "bool"
INT = "int"

#: Default ceiling on ``|Sigma| * (actions + variables)``: the vector
#: kernel materializes one full-space int64/bool array per action and
#: per variable, so this caps its resident footprint at a few hundred
#: MiB (the packed engine, which stays lazy, picks up anything larger).
#: Override per process with :data:`MAX_VECTOR_CELLS_ENV` or per call
#: with the ``max_cells`` keyword of :func:`unlowerable_reason`.
MAX_VECTOR_CELLS: int = 1 << 25

#: Environment variable overriding :data:`MAX_VECTOR_CELLS`.
MAX_VECTOR_CELLS_ENV = "REPRO_MAX_VECTOR_CELLS"


def effective_max_vector_cells() -> int:
    """The vector-cell ceiling in force: env override or the default.

    Read at call time (not import time) so tests and long-lived
    processes can retune it.  Unparsable or non-positive values fall
    back to the default — a misconfigured environment must degrade a
    check to the packed engine, never crash it.
    """
    raw = os.environ.get(MAX_VECTOR_CELLS_ENV)
    if raw is None:
        return MAX_VECTOR_CELLS
    try:
        value = int(raw, 0)
    except ValueError:
        return MAX_VECTOR_CELLS
    return value if value > 0 else MAX_VECTOR_CELLS


def domain_type(values: Sequence[object]) -> Optional[str]:
    """The static type of a domain, or ``None`` when not lowerable.

    A domain lowers when its values are all bools or all non-bool ints
    (an int64 lookup table then maps digits to values) and are
    pairwise distinct (the value->digit inverse must be a function).
    """
    if len(set(values)) != len(values):
        return None
    if all(isinstance(value, bool) for value in values):
        return BOOL
    if all(
        isinstance(value, int) and not isinstance(value, bool) for value in values
    ):
        return INT
    return None


def expr_type(node: ast.Expr, var_types: Dict[str, str]) -> Optional[str]:
    """The static type of an expression, or ``None`` when not lowerable.

    Mirrors the evaluator's runtime checks (``_require_bool`` /
    ``_require_int``) conservatively: an expression types only when no
    reachable evaluation could raise, so the lowered array semantics
    agree with per-state evaluation on every state.
    """
    if isinstance(node, ast.Var):
        return var_types.get(node.name)
    if isinstance(node, ast.Const):
        if isinstance(node.value, bool):
            return BOOL
        if isinstance(node.value, int):
            return INT
        return None
    if isinstance(node, ast.Not):
        return BOOL if expr_type(node.operand, var_types) == BOOL else None
    if isinstance(node, (ast.And, ast.Or, ast.Implies)):
        if (
            expr_type(node.left, var_types) == BOOL
            and expr_type(node.right, var_types) == BOOL
        ):
            return BOOL
        return None
    if isinstance(node, (ast.Eq, ast.Ne)):
        # Equality is untyped at runtime; both sides merely need to
        # lower.  Bool-vs-int comparisons agree between Python and
        # int64 arrays because bool is an int subtype on both sides.
        if (
            expr_type(node.left, var_types) is not None
            and expr_type(node.right, var_types) is not None
        ):
            return BOOL
        return None
    if isinstance(node, (ast.Lt, ast.Le, ast.Gt, ast.Ge)):
        if (
            expr_type(node.left, var_types) == INT
            and expr_type(node.right, var_types) == INT
        ):
            return BOOL
        return None
    if isinstance(node, ast.Mod):
        # The evaluator raises on modulus zero; only a provably
        # non-zero constant divisor is statically safe.
        if not isinstance(node.right, ast.Const):
            return None
        if not isinstance(node.right.value, int) or isinstance(node.right.value, bool):
            return None
        if node.right.value == 0:
            return None
        return INT if expr_type(node.left, var_types) == INT else None
    if isinstance(node, (ast.Add, ast.Sub, ast.Mul)):
        if (
            expr_type(node.left, var_types) == INT
            and expr_type(node.right, var_types) == INT
        ):
            return INT
        return None
    if isinstance(node, (ast.AddMod, ast.SubMod)):
        # The modulus is a constructor-validated positive int.
        if (
            expr_type(node.left, var_types) == INT
            and expr_type(node.right, var_types) == INT
        ):
            return INT
        return None
    if isinstance(node, ast.Ite):
        if expr_type(node.condition, var_types) != BOOL:
            return None
        then_type = expr_type(node.then, var_types)
        if then_type is None or then_type != expr_type(node.otherwise, var_types):
            return None
        return then_type
    return None  # unknown node kind: never guess


def structural_unlowerable_reason(program: Program) -> Optional[str]:
    """The size-independent half of :func:`unlowerable_reason`.

    Checks the domains, every guard, and every assignment — everything
    except the full-space footprint ceiling.  Consumers that never
    materialize full-space tables (the shared engine's streamed kernel)
    use this form: the cell ceiling is a RAM bound on table
    materialization, not a limit of the lowering itself.
    """
    schema = program.schema()
    var_types: Dict[str, str] = {}
    for name, domain in zip(schema.names, schema.domains):
        kind = domain_type(domain)
        if kind is None:
            return (
                f"variable {name!r} has a domain that is not all-int or "
                f"all-bool; no int64 lookup table exists"
            )
        var_types[name] = kind
    for action in program.actions:
        if expr_type(action.guard, var_types) != BOOL:
            return (
                f"guard of action {action.name!r} does not lower to a "
                f"boolean array expression"
            )
        for target, rhs in action.assignments.items():
            if target not in var_types:
                return (
                    f"action {action.name!r} writes {target!r}, which is "
                    f"not a schema variable"
                )
            if expr_type(rhs, var_types) is None:
                return (
                    f"assignment to {target!r} in action {action.name!r} "
                    f"does not lower to an array expression"
                )
    return None


def unlowerable_reason(
    program: Program, max_cells: Optional[int] = None
) -> Optional[str]:
    """Why ``program`` cannot lower to array kernels (``None`` = it can).

    Checks, in order: the domains, every guard, every assignment, and
    the full-space array footprint.  A program always lowers under the
    central daemon; other daemons reach the array engines as compiled
    systems.

    Args:
        program: the program to analyze.
        max_cells: the footprint ceiling to judge against; defaults to
            :func:`effective_max_vector_cells` (the
            ``REPRO_MAX_VECTOR_CELLS`` override or the built-in
            default).
    """
    reason = structural_unlowerable_reason(program)
    if reason is not None:
        return reason
    ceiling = max_cells if max_cells is not None else effective_max_vector_cells()
    schema = program.schema()
    cells = schema.size() * (len(program.actions) + len(schema.names))
    if cells > ceiling:
        return (
            f"full-space action tables need {cells} cells, above the "
            f"vector-engine ceiling of {ceiling}"
        )
    return None
