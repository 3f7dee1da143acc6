"""The worker pool and the content-addressed result cache.

A campaign sweep or a spec tree holds many independent checks.  This
package is the execution layer both fan out through:

* :mod:`repro.parallel.pool` — a fork-based worker-process pool whose
  workers inherit the systems, abstraction closures, and auxiliary
  sets by copy-on-write instead of pickling them per task;
* :mod:`repro.parallel.cache` — the content-addressed verification
  cache: verdicts keyed by a canonical program fingerprint plus the
  checker parameters, so re-checking an unchanged spec is a file read.

Only the check-level pools (``verify-tree``, campaigns) open a pool;
every engine decides one check in one process at every worker count.
See ``docs/PERFORMANCE.md`` for where parallelism lives.
"""

from .cache import (
    VerificationCache,
    cache_key,
    canonical_program_text,
    program_fingerprint,
)
from .pool import WorkerPool, parallel_available, resolve_workers

__all__ = [
    "VerificationCache",
    "cache_key",
    "canonical_program_text",
    "program_fingerprint",
    "WorkerPool",
    "parallel_available",
    "resolve_workers",
]
