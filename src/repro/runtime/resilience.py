"""Retry policies for the campaign runtime: bounded, deterministic, honest.

A paper-scale campaign runs thousands of jobs across worker processes; at
that scale transient failures — a worker killed by the OOM killer, a
locked sqlite backend, an injected chaos fault — are events to recover
from, not reasons to restart from scratch.  This module is the policy
half of that recovery story:

* :class:`RetryPolicy` — a frozen description of *how hard to try*: total
  attempt budget, per-attempt timeout, and exponential backoff whose
  jitter derives deterministically from the job fingerprint (two runs of
  the same campaign sleep the same schedule; two different jobs failing
  together do not stampede in phase).
* :func:`is_retryable` — the single classification point deciding whether
  a captured exception is worth a re-run.  Deterministic failures
  (configuration mistakes, contract violations — any
  :class:`~repro.errors.ReproError` except
  :class:`~repro.errors.TransientError`) fail the same way every time, so
  retrying them only hides bugs; transient conditions (lost workers,
  timeouts, locked backends) get their budget.
* :func:`job_fingerprint` — a stable content hash of one runtime job,
  shared by the backoff jitter and the checkpoint journal
  (:mod:`repro.runtime.checkpoint`).  Labels are excluded: a relabeled
  job computes the same numbers, so it may reuse the same checkpoint.

The policy is *fingerprint-neutral* by construction: it lives in
:class:`~repro.experiments.spec.RuntimeSpec` territory (wall-clock, not
results), and a retried job re-executes the same deterministic
computation, so attempts never change what a campaign computes — only
whether it completes.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import sqlite3
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError, ReproError, TransientError

__all__ = ["RetryPolicy", "is_retryable", "job_fingerprint"]


#: Exception types (outside the repro hierarchy) treated as transient.
#: Everything here describes a condition of the *run*, not the *job*:
#: re-executing the same deterministic job can genuinely succeed.
_RETRYABLE_TYPES = (
    ConnectionError,
    TimeoutError,
    InterruptedError,
    BlockingIOError,
    concurrent.futures.TimeoutError,
    concurrent.futures.BrokenExecutor,  # covers BrokenProcessPool
    sqlite3.OperationalError,
)


def is_retryable(error: BaseException) -> bool:
    """Whether a re-execution of the failed job could plausibly succeed.

    :class:`~repro.errors.TransientError` is always retryable; every other
    :class:`~repro.errors.ReproError` is deterministic (the same spec will
    raise it again) and never is.  Outside the library's hierarchy, only
    the conditions of the surrounding run — lost connections and workers,
    timeouts, a locked sqlite backend — classify as transient; arbitrary
    exceptions default to non-retryable, because a deterministic job that
    crashed once will crash identically on every attempt.
    """
    if isinstance(error, TransientError):
        return True
    if isinstance(error, ReproError):
        return False
    return isinstance(error, _RETRYABLE_TYPES)


def _agent_identity(agent) -> str:
    """The content identity of an :class:`~repro.runtime.jobs.AgentSpec`.

    Hyperparameters are sorted (insertion order is presentation, not
    content); the reporting label is excluded.
    """
    options = ",".join(
        f"{key}={value!r}" for key, value in sorted(agent.options.items())
    )
    # The trailing "factory=" once named a custom agent factory; it stays
    # so fingerprints keep their bytes and older checkpoint journals resume.
    return f"{agent.name}({options})factory="


def job_fingerprint(job) -> str:
    """Stable content hash of one runtime job (any of the three kinds).

    Covers exactly the result-determining fields — benchmark content
    fingerprint, seed(s), agent identity, step budget, environment
    settings for explorations; seed and evaluator settings for sweeps —
    and excludes the presentation-only benchmark label, so the same work
    relabeled by a different spec still matches.  Identical across
    processes and runs; used to key checkpoint journal entries and to
    derive deterministic backoff jitter.
    """
    from repro.runtime.jobs import BatchedExplorationJob, ExplorationJob, SweepJob
    from repro.runtime.store import _stable_repr, benchmark_fingerprint

    if isinstance(job, SweepJob):
        parts = [
            "sweep",
            benchmark_fingerprint(job.benchmark),
            f"seed={job.seed}",
            f"signed={job.signed_accuracy}",
            f"restrict={job.restrict_to_benchmark_widths}",
        ]
    elif isinstance(job, BatchedExplorationJob):
        parts = [
            "batched",
            benchmark_fingerprint(job.benchmark),
            f"seeds={tuple(job.seeds)}",
            _agent_identity(job.agent),
            f"steps={job.max_steps}",
            f"env={_stable_repr(job.env_kwargs)}",
            f"random_start={job.random_start}",
        ]
    elif isinstance(job, ExplorationJob):
        parts = [
            "explore",
            benchmark_fingerprint(job.benchmark),
            f"seed={job.seed}",
            _agent_identity(job.agent),
            f"steps={job.max_steps}",
            f"env={_stable_repr(job.env_kwargs)}",
            f"random_start={job.random_start}",
        ]
    else:
        raise ConfigurationError(
            f"job_fingerprint expects a runtime job "
            f"(ExplorationJob/BatchedExplorationJob/SweepJob), "
            f"got {type(job).__name__}"
        )
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the executors try before a job's failure becomes final.

    Attributes
    ----------
    max_attempts:
        Total executions a job may consume (1 = the historical
        run-once-capture-failure behaviour).  Only *retryable* failures
        (see :func:`is_retryable`) spend extra attempts; deterministic
        errors fail on the first.
    job_timeout_s:
        Per-attempt wall-clock budget, or ``None`` for unbounded.  The
        process executor enforces it preemptively (the future is abandoned
        and the wedged worker's pool rebuilt); the serial executor can only
        check *after* the job returns — a cooperative timeout that still
        classifies the attempt as timed out, discards its result for
        parity with the process path, and spends a retry.
    backoff_base_s / backoff_factor / backoff_max_s:
        Exponential backoff between attempts: attempt ``n`` sleeps
        ``base * factor**(n-1)`` capped at ``backoff_max_s`` and scaled by
        a deterministic jitter in ``[0.5, 1.0]`` derived from the job
        fingerprint — reproducible run to run, decorrelated job to job.
    """

    max_attempts: int = 1
    job_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if (not isinstance(self.max_attempts, int)
                or isinstance(self.max_attempts, bool) or self.max_attempts < 1):
            raise ConfigurationError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if self.job_timeout_s is not None:
            if (not isinstance(self.job_timeout_s, (int, float))
                    or isinstance(self.job_timeout_s, bool)
                    or self.job_timeout_s <= 0):
                raise ConfigurationError(
                    f"job_timeout_s must be a positive number or None, "
                    f"got {self.job_timeout_s!r}"
                )
            object.__setattr__(self, "job_timeout_s", float(self.job_timeout_s))
        for name in ("backoff_base_s", "backoff_factor", "backoff_max_s"):
            value = getattr(self, name)
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or value < 0):
                raise ConfigurationError(
                    f"{name} must be a non-negative number, got {value!r}"
                )
            object.__setattr__(self, name, float(value))

    @property
    def enabled(self) -> bool:
        """Whether this policy changes anything over run-once semantics."""
        return self.max_attempts > 1 or self.job_timeout_s is not None

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt ``attempt`` (1-based).

        Deterministic: the same (fingerprint, attempt) pair always yields
        the same delay, so retried campaigns replay identical schedules.
        """
        exponent = max(int(attempt) - 1, 0)
        raw = min(self.backoff_base_s * (self.backoff_factor ** exponent),
                  self.backoff_max_s)
        digest = hashlib.sha1(f"{fingerprint}|{attempt}".encode("utf-8")).digest()
        jitter = 0.5 + (int.from_bytes(digest[:8], "big") / 2 ** 64) * 0.5
        return raw * jitter
