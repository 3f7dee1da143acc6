"""Supervised execution and deterministic chaos for the verification
stack.

The paper's graybox wrappers keep a *system* correct under transient
faults; this package applies the same philosophy to the verification
runtime itself.  Three layers:

* :mod:`repro.resilience.policy` — the supervision contract: per-task
  timeouts, bounded retries, deterministic seeded backoff.
* :mod:`repro.resilience.supervisor` — the fork-per-task executor
  behind :class:`repro.parallel.pool.WorkerPool`: worker death and
  timeouts become bounded retries; poison tasks quarantine to an
  inline (sequential) run with the identical result.
* :mod:`repro.resilience.chaos` — seeded fault plans (kill a worker,
  delay a task, raise ``MemoryError`` at a state threshold, corrupt a
  cache entry, truncate a checkpoint) injectable via ``--chaos`` /
  ``REPRO_CHAOS``, so every recovery path is provable in tests and CI.
* :mod:`repro.resilience.degrade` — the faults on which a check
  restarts on the next engine of its chain
  (:func:`repro.checker.engines.run_chain`) instead of aborting.

Recovery is observable: the supervisor and its callers emit
``resilience.*`` counters and events (see ``docs/ROBUSTNESS.md`` for
the recovery-invariants table).
"""

from .chaos import (
    ChaosPlanError,
    FaultAction,
    FaultPlan,
    active_plan,
    load_plan,
    using_chaos,
)
from .degrade import RECOVERABLE_ENGINE_FAULTS, EngineFault
from .policy import (
    DEFAULT_POLICY,
    SupervisionPolicy,
    backoff_delay,
    current_policy,
    using_policy,
)
from .supervisor import WorkerTaskError, supervised_map, supervised_unordered

__all__ = [
    "SupervisionPolicy",
    "DEFAULT_POLICY",
    "current_policy",
    "using_policy",
    "backoff_delay",
    "WorkerTaskError",
    "supervised_map",
    "supervised_unordered",
    "FaultAction",
    "FaultPlan",
    "ChaosPlanError",
    "load_plan",
    "using_chaos",
    "active_plan",
    "EngineFault",
    "RECOVERABLE_ENGINE_FAULTS",
]
