"""Expression lowering: GCL ASTs to NumPy array evaluators.

``lower_expr`` turns an expression that passed the static analysis of
:mod:`.analyze` into a closure over an *array environment* — a mapping
from variable name to an int64 array of that variable's value in each
state of a batch.  Boolean-typed nodes return boolean arrays, integer
nodes int64 arrays; scalars (from constants) are left to NumPy
broadcasting.

The semantics match per-state evaluation exactly on statically typed
programs: comparisons between bools and ints agree because bool is an
int subtype in Python and bools are carried as 0/1 in int64 arrays;
``%`` follows the divisor's sign in both Python and NumPy; ``&&`` /
``||`` evaluate both operands, which is observationally identical to
the evaluator's short-circuit because the language is effect-free and
analysis guarantees neither operand can raise.

:class:`LoweredProgram` is the one array form of a program that both
array kernels run: the per-variable codec (:class:`VarCodec`), the
lowered guards and assignments, and the per-action ``(mask,
successor)`` evaluation of a code batch with its out-of-domain check.
The vector kernel sweeps the whole space through it and keeps the
results as tables; the shared kernel evaluates it chunk by chunk on
demand.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...gcl import expr as ast
from ...gcl.daemon import CentralDaemon
from ...gcl.program import Program
from ...gcl.semantics import program_moves
from ..interner import StateInterner
from .analyze import BOOL, INT, domain_type, expr_type

__all__ = [
    "ArrayEnv",
    "ArrayFn",
    "LoweredProgram",
    "VarCodec",
    "decode_columns",
    "encode_columns",
    "lower_expr",
    "var_codecs",
]

#: A batch environment: variable name -> int64 value array (one entry
#: per state in the batch; bools are carried as 0/1).
ArrayEnv = Dict[str, np.ndarray]

#: A lowered expression: array environment in, value array (or NumPy
#: scalar, for constant subtrees) out.
ArrayFn = Callable[[ArrayEnv], np.ndarray]

#: One action over a code batch: its enabled mask and successor codes.
ActionPair = Tuple[np.ndarray, np.ndarray]


def lower_expr(node: ast.Expr, var_types: Dict[str, str]) -> ArrayFn:
    """Lower one statically typed expression to an array evaluator.

    Raises:
        ValueError: if the expression does not type under
            :func:`.analyze.expr_type` (callers are expected to have
            gated on :func:`.analyze.unlowerable_reason` already).
    """
    if expr_type(node, var_types) is None:
        raise ValueError(f"expression {node.render()} is not lowerable")
    return _lower(node, var_types)


def _lower(node: ast.Expr, var_types: Dict[str, str]) -> ArrayFn:
    if isinstance(node, ast.Var):
        name = node.name
        if var_types[name] == BOOL:
            return lambda env: env[name] != 0
        return lambda env: env[name]
    if isinstance(node, ast.Const):
        if isinstance(node.value, bool):
            constant_bool = np.bool_(node.value)
            return lambda env: constant_bool
        constant_int = np.int64(node.value)
        return lambda env: constant_int
    if isinstance(node, ast.Not):
        operand = _lower(node.operand, var_types)
        return lambda env: ~operand(env)
    if isinstance(node, ast.And):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) & right(env)
    if isinstance(node, ast.Or):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) | right(env)
    if isinstance(node, ast.Implies):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: ~left(env) | right(env)
    if isinstance(node, ast.Eq):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) == right(env)
    if isinstance(node, ast.Ne):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) != right(env)
    if isinstance(node, ast.Lt):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) < right(env)
    if isinstance(node, ast.Le):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) <= right(env)
    if isinstance(node, ast.Gt):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) > right(env)
    if isinstance(node, ast.Ge):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) >= right(env)
    if isinstance(node, ast.Add):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) + right(env)
    if isinstance(node, ast.Sub):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) - right(env)
    if isinstance(node, ast.Mul):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) * right(env)
    if isinstance(node, ast.Mod):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        return lambda env: left(env) % right(env)
    if isinstance(node, ast.AddMod):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        modulus = np.int64(node.modulus)
        return lambda env: (left(env) + right(env)) % modulus
    if isinstance(node, ast.SubMod):
        left, right = _lower(node.left, var_types), _lower(node.right, var_types)
        modulus = np.int64(node.modulus)
        return lambda env: (left(env) - right(env)) % modulus
    if isinstance(node, ast.Ite):
        condition = _lower(node.condition, var_types)
        then = _lower(node.then, var_types)
        otherwise = _lower(node.otherwise, var_types)
        return lambda env: np.where(condition(env), then(env), otherwise(env))
    raise ValueError(
        f"no lowering for expression node {type(node).__name__}"
    )  # pragma: no cover - expr_type rejects unknown nodes first


class VarCodec:
    """One variable's digit of the mixed-radix code: ``place`` and
    ``radix`` locate it, ``values`` maps it to an int64 value (bools as
    0/1, as Python coerces them), and a sorted inverse maps values back.
    ``identity`` marks value tables equal to ``0..radix-1`` (bools and
    modular counters), where digit and value coincide.
    """

    __slots__ = (
        "place", "radix", "values", "is_bool", "identity", "sorted_values", "sorted_digits"
    )

    def __init__(self, place: int, domain: Sequence[object]):
        ints = [int(value) for value in domain]
        self.place = place
        self.radix = len(domain)
        self.values = np.asarray(ints, dtype=np.int64)
        self.is_bool = domain_type(domain) == BOOL
        self.identity = ints == list(range(self.radix))
        order = np.argsort(self.values, kind="stable")
        self.sorted_values = self.values[order]
        self.sorted_digits = order.astype(np.int64)

    def digits_of(self, values: np.ndarray) -> np.ndarray:
        """The digits of int64 ``values``; a value outside the domain
        gets a meaningless digit, which :meth:`outside` flags."""
        if self.identity:
            return values
        slots = np.minimum(
            np.searchsorted(self.sorted_values, values), self.radix - 1
        )
        return self.sorted_digits[slots]

    def outside(self, values: np.ndarray, digits: np.ndarray) -> np.ndarray:
        """Mask of the ``values`` outside the domain, given their digits."""
        if self.identity:
            return (values < 0) | (values >= self.radix)
        return self.values[digits] != values


def var_codecs(interner: StateInterner) -> Dict[str, VarCodec]:
    """Every variable's codec, in schema order (domains must lower)."""
    places = interner.places_by_name()
    schema = interner.schema
    return {
        name: VarCodec(places[name], domain)
        for name, domain in zip(schema.names, schema.domains)
    }


def decode_columns(
    codecs: Dict[str, VarCodec], codes: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-variable value columns of ``codes``, bools as bool arrays —
    the column form an abstraction's ``array_mapping`` consumes."""
    columns: Dict[str, np.ndarray] = {}
    for name, codec in codecs.items():
        column = codec.values[(codes // codec.place) % codec.radix]
        columns[name] = column.astype(bool) if codec.is_bool else column
    return columns


def encode_columns(
    codecs: Dict[str, VarCodec], columns: Dict[str, np.ndarray], count: int
) -> np.ndarray:
    """Mixed-radix codes of per-variable value columns; a row with any
    value outside its domain encodes as ``-1``."""
    encoded = np.zeros(count, dtype=np.int64)
    outside = np.zeros(count, dtype=bool)
    for name, codec in codecs.items():
        column = np.asarray(columns[name]).astype(np.int64, copy=False)
        if column.ndim == 0:
            column = np.broadcast_to(column, (count,))
        digits = codec.digits_of(column)
        outside |= codec.outside(column, digits)
        encoded += digits * np.int64(codec.place)
    encoded[outside] = -1
    return encoded


class LoweredProgram:
    """A program's actions as array functions over one codec.

    Built once per kernel; :meth:`evaluate` is the only place a code
    batch meets the program's guards and assignments.  The program
    must pass :func:`.analyze.structural_unlowerable_reason`.
    """

    def __init__(self, program: Program, interner: StateInterner):
        self.program = program
        self.interner = interner
        self.codecs = var_codecs(interner)
        var_types = {
            name: BOOL if codec.is_bool else INT
            for name, codec in self.codecs.items()
        }
        self.initial_codes = tuple(
            sorted(interner.encode(state) for state in program.initial_states())
        )
        self._actions = [
            (
                lower_expr(action.guard, var_types),
                [
                    (target, lower_expr(rhs, var_types))
                    for target, rhs in action.assignments.items()
                ],
                tuple(
                    dict.fromkeys(
                        free
                        for rhs in action.assignments.values()
                        for free in rhs.free_variables()
                    )
                ),
            )
            for action in program.actions
        ]
        self._scratch: Dict[str, np.ndarray] = {}

    def evaluate(self, codes: np.ndarray, check: bool) -> Iterator[ActionPair]:
        """Per-action ``(mask, successor)`` arrays for an int64 code batch.

        ``successor[i] == codes[i]`` wherever the action is disabled.
        Unchecked, the pairs stream out of reused buffers, valid until
        the next step, and the caller vouches that every write stays in
        its domain.  With ``check`` the batch is evaluated whole first
        and raises ``compile_program``'s exact ``GCLError`` at its lowest
        offending position, naming the first action offending there.
        """
        if not check:
            return self._stream(codes, None)
        offenders: List[int] = []
        pairs = [
            (mask, succ.copy()) for mask, succ in self._stream(codes, offenders)
        ]
        if offenders:
            state = self.interner.decode(int(codes[min(offenders)]))
            for _ in program_moves(self.program, CentralDaemon(), state):
                pass
            raise AssertionError(  # pragma: no cover - program_moves raises
                "out-of-domain write did not reproduce on the scalar path"
            )
        return iter(pairs)

    def sweep(self, chunk: int) -> Iterator[Tuple[int, int, Iterator[ActionPair]]]:
        """The checked evaluation of the whole space in ascending
        batches of ``chunk`` codes, so the first offending state in code
        order raises: ``(start, stop, pairs)`` per batch."""
        size = self.interner.size
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            codes = np.arange(start, stop, dtype=np.int64)
            yield start, stop, self.evaluate(codes, check=True)

    def _buffer(self, key: str, length: int) -> np.ndarray:
        """A reused int64 work buffer: a sweep's chunks share one length
        (plus one tail), so per-chunk allocations become rewrites."""
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape[0] != length:
            buffer = np.empty(length, dtype=np.int64)
            self._scratch[key] = buffer
        return buffer

    def _stream(
        self, codes: np.ndarray, offenders: Optional[List[int]]
    ) -> Iterator[ActionPair]:
        """Evaluate action by action; with ``offenders``, range-check
        every write and record each action's first offending position."""
        count = codes.shape[0]
        digits: ArrayEnv = {}
        env: ArrayEnv = {}
        for name, codec in self.codecs.items():
            digit = self._buffer(f"digit:{name}", count)
            np.floor_divide(codes, codec.place, out=digit)
            np.remainder(digit, codec.radix, out=digit)
            digits[name] = digit
            env[name] = digit if codec.identity else codec.values[digit]
        for guard, assigns, free_vars in self._actions:
            mask = np.asarray(guard(env), dtype=bool)
            if mask.ndim == 0:
                mask = np.full(codes.shape, bool(mask))
            succ = self._buffer("succ", count)
            np.copyto(succ, codes)
            enabled = np.nonzero(mask)[0]
            if enabled.size:
                action_env: ArrayEnv = {
                    free: env[free][enabled] for free in free_vars
                }
                delta = np.zeros(enabled.shape, dtype=np.int64)
                for target, lowered in assigns:
                    codec = self.codecs[target]
                    values = np.asarray(lowered(action_env)).astype(
                        np.int64, copy=False
                    )
                    if values.ndim == 0:
                        values = np.full(enabled.shape, values)
                    new_digits = codec.digits_of(values)
                    if offenders is not None:
                        outside = codec.outside(values, new_digits)
                        if outside.any():
                            offenders.append(int(enabled[int(np.argmax(outside))]))
                    delta += (new_digits - digits[target][enabled]) * np.int64(
                        codec.place
                    )
                succ[enabled] = codes[enabled] + delta
            yield mask, succ
