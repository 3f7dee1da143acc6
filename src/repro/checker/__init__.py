"""Finite-state decision procedures for the paper's definitions.

Public surface:

* :mod:`repro.checker.graph` — reachability, SCCs, cycles, paths;
* :mod:`repro.checker.refinement_check` — ``[C (= A]_init``,
  ``[C (= A]``, and the convergence-refinement relation ``[C <= A]``;
* :mod:`repro.checker.convergence` — stabilization and
  self-stabilization;
* :mod:`repro.checker.witnesses` / :mod:`repro.checker.report` —
  counterexample values and rendered verification reports.
"""

from .convergence import (
    StabilizationResult,
    behavioural_core,
    check_self_stabilization,
    check_stabilization,
    convergence_profile,
    legitimate_abstract_states,
    worst_case_convergence_steps,
    worst_case_schedule,
)
from .fairness import find_fair_trap, has_fair_divergence
from .graph import (
    edge_on_cycle,
    find_cycle_within,
    has_cycle_within,
    reachable_set,
    shortest_path,
    states_on_cycles,
    strongly_connected_components,
    terminal_states_within,
)
from .refinement_check import (
    check_convergence_refinement,
    check_everywhere_eventually_refinement,
    check_everywhere_refinement,
    check_init_refinement,
    compression_transitions,
    expand_to_abstract_path,
)
from .report import ReportEntry, VerificationReport
from .witnesses import CheckResult, Witness, WitnessKind

__all__ = [
    "StabilizationResult",
    "behavioural_core",
    "check_self_stabilization",
    "check_stabilization",
    "convergence_profile",
    "find_fair_trap",
    "has_fair_divergence",
    "legitimate_abstract_states",
    "worst_case_convergence_steps",
    "worst_case_schedule",
    "edge_on_cycle",
    "find_cycle_within",
    "has_cycle_within",
    "reachable_set",
    "shortest_path",
    "states_on_cycles",
    "strongly_connected_components",
    "terminal_states_within",
    "check_convergence_refinement",
    "check_everywhere_eventually_refinement",
    "check_everywhere_refinement",
    "check_init_refinement",
    "compression_transitions",
    "expand_to_abstract_path",
    "ReportEntry",
    "VerificationReport",
    "CheckResult",
    "Witness",
    "WitnessKind",
]
