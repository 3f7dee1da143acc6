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
An action reads and writes only its *support*, a few of the program's
variables, so where the support's digit combinations fit in one batch
the closures run once over that subspace into a *support table* (guard,
code delta, out-of-domain flag).  A batch is then decoded once, by a
quotient chain (:func:`decode_digits`), and each tabled action is a
gather at ``Σ digit · stride``; the out-of-domain check of the whole
space is read off the tables, and only untabled actions are swept.
The vector kernel runs the whole space through it and keeps the
results as full-space tables; the shared kernel evaluates it chunk by
chunk on demand.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...core.state import State
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


def decode_digits(
    codecs: Dict[str, VarCodec],
    codes: np.ndarray,
    digit_buffer: Callable[[str], np.ndarray],
    quotients: Tuple[np.ndarray, np.ndarray],
) -> ArrayEnv:
    """Every variable's digit of ``codes`` by a quotient chain.

    From the least significant variable up, ``q = codes // place`` and
    the digit is ``q - q_next * radix``: floor divisions and a
    multiply-subtract, no ``np.remainder``.  ``digit_buffer(name)``
    supplies each digit's int64 array; the two ``quotients`` arrays
    hold the rolling quotients.
    """
    digits: ArrayEnv = {}
    quotient = codes
    order = list(reversed(codecs.items()))
    for position, (name, codec) in enumerate(order):
        digit = digit_buffer(name)
        if position + 1 == len(order):
            np.copyto(digit, quotient)
        else:
            following = quotients[position % 2]
            np.floor_divide(codes, codec.place * codec.radix, out=following)
            np.multiply(following, codec.radix, out=digit)
            np.subtract(quotient, digit, out=digit)
            quotient = following
        digits[name] = digit
    return digits


def decode_columns(
    codecs: Dict[str, VarCodec], codes: np.ndarray
) -> Dict[str, np.ndarray]:
    """Per-variable value columns of ``codes``, bools as bool arrays —
    the column form an abstraction's ``array_mapping`` consumes.  A
    digit column is its own value column where the values are the
    digits, so a batch costs one int64 array per variable."""
    count = codes.shape[0]
    digits = decode_digits(
        codecs,
        codes,
        lambda name: np.empty(count, dtype=np.int64),
        (np.empty(count, dtype=np.int64), np.empty(count, dtype=np.int64)),
    )
    columns: Dict[str, np.ndarray] = {}
    for name, codec in codecs.items():
        digit = digits.pop(name)
        column = digit if codec.identity else codec.values[digit]
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


class _Action:
    """One action's lowered form.

    ``support`` pairs each variable the action reads or writes, in
    schema order, with its stride in the support table's row index.  A
    tabled action keeps ``table``, its guard and code delta per row,
    plus ``bad``, the rows whose move leaves the domain (``None`` when
    none does), and ``lowest``, the lowest such code.  An untabled
    action (``table is None``) is evaluated from its closures on every
    batch.
    """

    __slots__ = ("guard", "assigns", "free_vars", "support", "table", "bad", "lowest")

    def __init__(
        self,
        guard: ArrayFn,
        assigns: List[Tuple[str, ArrayFn]],
        free_vars: Tuple[str, ...],
        support: Tuple[Tuple[str, int], ...],
    ):
        self.guard = guard
        self.assigns = assigns
        self.free_vars = free_vars
        self.support = support
        self.table: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.bad: Optional[np.ndarray] = None
        self.lowest: Optional[int] = None


class LoweredProgram:
    """A program's actions as array functions over one codec.

    Built once per kernel; :meth:`evaluate` is the only place a code
    batch meets the program's guards and assignments.  The program
    must pass :func:`.analyze.structural_unlowerable_reason`.

    An action whose support (the variables it reads or writes) spans at
    most ``table_limit`` digit combinations — the kernel's batch size,
    so a table is never larger than a batch — is evaluated once over
    that subspace into a support table; a batch then gathers from it.
    A wider action is evaluated directly on every batch.

    ``initial_codes`` are ascending.  A boolean init predicate is
    lowered like a guard and swept over the space, one mask per
    ``table_limit`` codes.  Explicit initial assignments, and a
    predicate outside the fragment, take the scalar
    ``Program.initial_states`` (and its exact ``GCLError``); its states
    are kept, in its iteration order, as ``scalar_initial`` (``None``
    for a lowered predicate).
    """

    def __init__(self, program: Program, interner: StateInterner, table_limit: int):
        self.program = program
        self.interner = interner
        self.codecs = var_codecs(interner)
        var_types = {
            name: BOOL if codec.is_bool else INT
            for name, codec in self.codecs.items()
        }
        self._scratch: Dict[str, np.ndarray] = {}
        predicate = program.init_predicate
        if predicate is not None and expr_type(predicate, var_types) == BOOL:
            self.scalar_initial: Optional[Tuple[State, ...]] = None
            self.initial_codes = self._initial_sweep(
                lower_expr(predicate, var_types), table_limit
            )
        else:
            self.scalar_initial = tuple(program.initial_states())
            self.initial_codes = tuple(
                sorted(interner.encode(state) for state in self.scalar_initial)
            )
        self._actions: List[_Action] = []
        grids: Dict[Tuple[int, ...], np.ndarray] = {}
        for action in program.actions:
            read = set(action.guard.free_variables()) | set(action.assignments)
            for rhs in action.assignments.values():
                read.update(rhs.free_variables())
            support = [name for name in self.codecs if name in read]
            radices = tuple(self.codecs[name].radix for name in support)
            lowered = _Action(
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
                tuple(zip(support, _strides(radices))),
            )
            self._actions.append(lowered)
            rows = math.prod(radices)
            if rows <= table_limit:
                if radices not in grids:
                    grids[radices] = np.indices(radices, dtype=np.int64).reshape(
                        len(radices), rows
                    )
                self._tabulate(lowered, grids[radices])
        self._direct = [action for action in self._actions if action.table is None]

    def _initial_sweep(self, predicate: ArrayFn, batch: int) -> Tuple[int, ...]:
        """The codes satisfying the lowered init ``predicate``, ascending:
        one mask per ``batch`` codes of the space."""
        size = self.interner.size
        found: List[np.ndarray] = []
        for start in range(0, size, batch):
            codes = np.arange(start, min(start + batch, size), dtype=np.int64)
            digits = self._digits(codes)
            env = {name: self._values(name, digit) for name, digit in digits.items()}
            mask = np.asarray(predicate(env), dtype=bool)
            found.append(codes[np.broadcast_to(mask, codes.shape)])
        return tuple(np.concatenate(found).tolist()) if found else ()

    def evaluate(self, codes: np.ndarray) -> Iterator[ActionPair]:
        """Per-action ``(mask, successor)`` arrays for an int64 code batch.

        ``successor[i] == codes[i]`` wherever the action is disabled.
        The pairs stream out of reused buffers, valid until the next
        step, and the caller vouches that every write stays in its
        domain (:meth:`validate` has run).
        """
        return self._stream(codes, self._actions, None)

    def validate(self, chunk: int) -> None:
        """Raise ``compile_program``'s exact ``GCLError`` for the first
        out-of-domain write in code order, if the program makes one.

        A tabled action's lowest offending code is read off its table.
        Only untabled actions are swept, in ascending batches of
        ``chunk`` codes, and only below the lowest code a table names.
        """
        lowest = min(
            (action.lowest for action in self._actions if action.lowest is not None),
            default=self.interner.size,
        )
        if self._direct:
            for start in range(0, lowest, chunk):
                codes = np.arange(start, min(start + chunk, lowest), dtype=np.int64)
                offenders: List[int] = []
                for _ in self._stream(codes, self._direct, offenders):
                    pass
                if offenders:
                    lowest = start + min(offenders)
                    break
        if lowest < self.interner.size:
            self._raise_at(lowest)

    def _raise_at(self, code: int) -> None:
        """Replay the scalar semantics at ``code``, which raises the
        error naming the first action that offends there."""
        state = self.interner.decode(code)
        for _ in program_moves(self.program, CentralDaemon(), state):
            pass
        raise AssertionError(  # pragma: no cover - program_moves raises
            "out-of-domain write did not reproduce on the scalar path"
        )

    def _tabulate(self, action: _Action, grid: np.ndarray) -> None:
        """Evaluate ``action`` once over its support subspace: every
        combination of its support digits (``grid``, one row per
        support variable), the other digits 0."""
        rows = grid.shape[1]
        digits = {name: column for (name, _), column in zip(action.support, grid)}
        env = {name: self._values(name, digit) for name, digit in digits.items()}
        mask, moved, delta, outside = self._moves(action, rows, digits, env, check=True)
        deltas = np.zeros(rows, dtype=np.int64)
        deltas[moved] = delta
        action.table = (mask, deltas)
        if outside.any():
            bad = np.zeros(rows, dtype=bool)
            bad[moved] = outside
            places = [self.codecs[name].place for name, _ in action.support]
            action.bad = bad
            action.lowest = int((np.asarray(places, dtype=np.int64) @ grid[:, bad]).min())

    def _digits(self, codes: np.ndarray) -> ArrayEnv:
        """Every variable's digit of ``codes``, in reused buffers."""
        count = codes.shape[0]
        return decode_digits(
            self.codecs,
            codes,
            lambda name: self._buffer(f"digit:{name}", count),
            (self._buffer("quotient:0", count), self._buffer("quotient:1", count)),
        )

    def _values(self, name: str, digits: np.ndarray) -> np.ndarray:
        codec = self.codecs[name]
        return digits if codec.identity else codec.values[digits]

    def _buffer(self, key: str, length: int, dtype=np.int64) -> np.ndarray:
        """A reused work buffer: a sweep's chunks share one length (plus
        one tail), so per-chunk allocations become rewrites."""
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape[0] != length:
            buffer = np.empty(length, dtype=dtype)
            self._scratch[key] = buffer
        return buffer

    def _moves(
        self, action: _Action, count: int, digits: ArrayEnv, env: ArrayEnv, check: bool
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Evaluate ``action``'s closures over ``count`` codes: its
        guard mask, the enabled positions, their code deltas, and (with
        ``check``, else all false) which of them write outside a domain."""
        mask = np.asarray(action.guard(env), dtype=bool)
        if mask.ndim == 0:
            mask = np.full(count, bool(mask))
        enabled = np.nonzero(mask)[0]
        delta = np.zeros(enabled.shape, dtype=np.int64)
        outside = np.zeros(enabled.shape, dtype=bool)
        if enabled.size:
            action_env: ArrayEnv = {free: env[free][enabled] for free in action.free_vars}
            for target, lowered in action.assigns:
                codec = self.codecs[target]
                values = np.asarray(lowered(action_env)).astype(np.int64, copy=False)
                if values.ndim == 0:
                    values = np.full(enabled.shape, values)
                new_digits = codec.digits_of(values)
                if check:
                    outside |= codec.outside(values, new_digits)
                delta += (new_digits - digits[target][enabled]) * np.int64(codec.place)
        return mask, enabled, delta, outside

    def _stream(
        self,
        codes: np.ndarray,
        actions: Sequence[_Action],
        offenders: Optional[List[int]],
    ) -> Iterator[ActionPair]:
        """Evaluate ``actions`` one by one; with ``offenders``,
        range-check every write and record each action's first
        offending position."""
        count = codes.shape[0]
        digits = self._digits(codes)
        env: ArrayEnv = {}
        if self._direct:
            env = {name: self._values(name, digit) for name, digit in digits.items()}
        succ = self._buffer("succ", count)
        table_mask = self._buffer("mask", count, bool)
        index, term = self._buffer("index", count), self._buffer("term", count)
        for action in actions:
            if action.table is not None:
                enabled, delta = action.table
                row = self._row(action, digits, index, term)
                mask = enabled.take(row, mode="clip", out=table_mask)
                delta.take(row, mode="clip", out=succ)
                succ += codes
                if offenders is not None and action.bad is not None:
                    bad = action.bad[row]
                    if bad.any():
                        offenders.append(int(np.argmax(bad)))
            else:
                mask, moved, moves, outside = self._moves(
                    action, count, digits, env, offenders is not None
                )
                if offenders is not None and outside.any():
                    offenders.append(int(moved[int(np.argmax(outside))]))
                np.copyto(succ, codes)
                succ[moved] += moves
            yield mask, succ

    @staticmethod
    def _row(
        action: _Action, digits: ArrayEnv, index: np.ndarray, term: np.ndarray
    ) -> np.ndarray:
        """Each code's row in ``action``'s support table, the sum of its
        support digits times their strides: built in ``index`` (with
        ``term`` as scratch), or a digit column itself for a support of
        one variable."""
        (*high, (last, _)) = action.support
        if not high:
            return digits[last]
        (first, stride), *rest = high
        np.multiply(digits[first], stride, out=index)
        for name, stride in rest:
            np.multiply(digits[name], stride, out=term)
            index += term
        index += digits[last]
        return index


def _strides(radices: Sequence[int]) -> List[int]:
    """Mixed-radix strides, the last digit varying fastest — the row
    order of ``np.indices``."""
    strides = [1] * len(radices)
    for position in range(len(radices) - 2, -1, -1):
        strides[position] = strides[position + 1] * radices[position + 1]
    return strides
