"""The campaign runtime: jobs, executors and the shared evaluation store.

This package turns a sweep definition into throughput:

* :mod:`~repro.runtime.jobs` — :class:`ExplorationJob`, a fully picklable
  description of one exploration, plus deterministic expansion of a
  campaign definition into its job list; :class:`SweepJob` chunks an
  exhaustive design-space sweep over the same executors;
* :mod:`~repro.runtime.executor` — one executor interface with two
  strategies: :class:`SerialExecutor` (inline, the default) and
  :class:`ProcessExecutor` (multiprocessing fan-out with per-job error
  capture and store merge-back);
* :mod:`~repro.runtime.store` — :class:`EvaluationStore`, a process-safe,
  optionally disk-backed cache of design-point evaluations keyed by
  content fingerprints, so sibling runs (other seeds, other agents, later
  campaigns) start warm instead of re-measuring the same design points;
* :mod:`~repro.runtime.resilience` — :class:`RetryPolicy` (attempt
  budgets, per-job timeouts, deterministic backoff) and the retryability
  classification both executors share;
* :mod:`~repro.runtime.checkpoint` — :class:`CampaignCheckpoint`, the
  journal that lets a killed campaign resume without re-running finished
  jobs;
* :mod:`~repro.runtime.faults` — the deterministic, env-guarded fault
  injection harness the fault-tolerance tests and the chaos CI job drive.

Both executors produce identical results for the same job list; the store
only ever returns records bit-identical to a fresh evaluation.
"""

from repro.runtime.checkpoint import CampaignCheckpoint
from repro.runtime.executor import (
    Executor,
    JobOutcome,
    ProcessExecutor,
    SerialExecutor,
    flatten_outcomes,
)
from repro.runtime.faults import FAULT_PLAN_ENV, FaultPlan, FaultRule, inject_faults
from repro.runtime.jobs import (
    AgentSpec,
    BatchedExplorationJob,
    ExplorationJob,
    SweepJob,
    execute_job,
    expand_jobs,
)
from repro.runtime.resilience import RetryPolicy, is_retryable, job_fingerprint


def __getattr__(name: str):
    # ``AGENT_NAMES`` resolves through the unified agent registry
    # (:mod:`repro.experiments.registry`); it is looked up lazily so that
    # importing the runtime during package bootstrap never drags the
    # registry (and the agent stack behind it) in early.
    if name == "AGENT_NAMES":
        from repro.runtime import jobs

        return jobs.AGENT_NAMES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
from repro.runtime.store import (
    EvaluationKey,
    EvaluationStore,
    StoreStats,
    benchmark_fingerprint,
    catalog_fingerprint,
)

__all__ = [
    "AGENT_NAMES",
    "AgentSpec",
    "BatchedExplorationJob",
    "ExplorationJob",
    "SweepJob",
    "expand_jobs",
    "execute_job",
    "Executor",
    "JobOutcome",
    "SerialExecutor",
    "ProcessExecutor",
    "flatten_outcomes",
    "EvaluationKey",
    "EvaluationStore",
    "StoreStats",
    "benchmark_fingerprint",
    "catalog_fingerprint",
    "RetryPolicy",
    "is_retryable",
    "job_fingerprint",
    "CampaignCheckpoint",
    "FaultPlan",
    "FaultRule",
    "inject_faults",
    "FAULT_PLAN_ENV",
]
