"""Guarded-command language: the notation of the paper's figures.

Provides finite-domain variables (:mod:`~repro.gcl.domain`,
:mod:`~repro.gcl.variable`), expressions (:mod:`~repro.gcl.expr`),
guarded actions (:mod:`~repro.gcl.action`), processes with the
abstract/concrete access models (:mod:`~repro.gcl.process`), programs
(:mod:`~repro.gcl.program`), daemons (:mod:`~repro.gcl.daemon`),
compilation to automata (:mod:`~repro.gcl.semantics`), and a concrete
syntax (:mod:`~repro.gcl.parser`, :mod:`~repro.gcl.pretty`).
"""

from .action import GuardedAction
from .daemon import CentralDaemon, Daemon, DistributedDaemon, SynchronousDaemon
from .domain import BoolDomain, Domain, EnumDomain, IntRange, ModularDomain
from .expr import (
    Add,
    AddMod,
    And,
    BigAnd,
    BigOr,
    Const,
    Eq,
    Expr,
    FALSE,
    Ge,
    Gt,
    Implies,
    Ite,
    Le,
    Lt,
    Mod,
    Mul,
    Ne,
    Not,
    Or,
    Sub,
    SubMod,
    TRUE,
    Var,
)
from .parser import parse_expression, parse_program, tokenize
from .pretty import render_actions, render_program
from .process import ModelViolation, Process, check_model_compliance
from .program import Program
from .semantics import compile_program, compile_states, program_moves
from .variable import Variable

__all__ = [
    "GuardedAction",
    "CentralDaemon",
    "Daemon",
    "DistributedDaemon",
    "SynchronousDaemon",
    "BoolDomain",
    "Domain",
    "EnumDomain",
    "IntRange",
    "ModularDomain",
    "Add",
    "AddMod",
    "And",
    "BigAnd",
    "BigOr",
    "Const",
    "Eq",
    "Expr",
    "FALSE",
    "Ge",
    "Gt",
    "Implies",
    "Ite",
    "Le",
    "Lt",
    "Mod",
    "Mul",
    "Ne",
    "Not",
    "Or",
    "Sub",
    "SubMod",
    "TRUE",
    "Var",
    "parse_expression",
    "parse_program",
    "tokenize",
    "render_actions",
    "render_program",
    "ModelViolation",
    "Process",
    "check_model_compliance",
    "Program",
    "compile_program",
    "compile_states",
    "program_moves",
    "Variable",
]
