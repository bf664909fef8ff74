"""Pluggable exploration executors: serial and multi-process fan-out.

One interface, two strategies.  :class:`SerialExecutor` preserves the
historical behaviour — jobs run inline, one after the other, sharing the
evaluation store directly.  :class:`ProcessExecutor` fans the same job list
out over worker processes: each job is submitted with only the store
records under its own benchmark and seeds, runs against a private store
built from them, and ships back only the records its slice lacked, which
the parent merges as soon as that job finishes — there is no barrier
between jobs.  Because design-point evaluation is fully deterministic
given (benchmark, catalog, seed), both executors produce identical results
for the same job list — parallelism changes wall-clock time, never output.

Failures are captured per job: a crashing exploration (or an unpicklable
job) yields a :class:`JobOutcome` carrying the traceback instead of killing
the sweep, so a 4 x 3 campaign with one bad configuration still returns the
other eleven results.

Both executors are additionally *fault-tolerant* (see
:mod:`repro.runtime.resilience` for the policy and
:mod:`repro.runtime.checkpoint` for resume):

* a :class:`~repro.runtime.resilience.RetryPolicy` grants retryable
  failures extra attempts with deterministic backoff, and bounds each
  attempt's wall-clock (preemptively under the process executor, which
  abandons the future and rebuilds the pool around the wedged worker;
  post-hoc under the serial executor, which can only notice *after* the
  job returns — it then discards the late attempt and classifies it as
  timed out, so both executors agree that an over-budget job is a
  ``timed_out`` outcome);
* the process executor survives worker death: a ``BrokenProcessPool``
  salvages every already-collected outcome, rebuilds the pool, and
  re-dispatches only the unfinished jobs; after ``max_pool_rebuilds``
  rebuilds it degrades to in-process serial execution for the remaining
  tail — logged, never silent;
* a :class:`~repro.runtime.checkpoint.CampaignCheckpoint` restores
  journaled jobs instead of executing them and records outcomes as they
  finalize, so a killed run resumes from its last flush;
* ``KeyboardInterrupt`` flushes completed work into the store (and
  journal) before re-raising, under either executor; the process executor
  also shuts its pool down (``cancel_futures=True``) — Ctrl-C loses the
  jobs in flight, not the campaign.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import signal
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runtime.jobs import BatchedExplorationJob, ExplorationJob, execute_job
from repro.runtime.resilience import RetryPolicy, is_retryable, job_fingerprint
from repro.runtime.store import (
    EvaluationKey,
    EvaluationStore,
    StoreStats,
    benchmark_fingerprint,
)

__all__ = ["JobOutcome", "Executor", "SerialExecutor", "ProcessExecutor",
           "flatten_outcomes"]

logger = logging.getLogger(__name__)

#: Called after every finished job with its outcome (progress reporting).
OutcomeCallback = Callable[["JobOutcome"], None]


def _format_job_error(job: ExplorationJob) -> str:
    """The current exception's *full* traceback, headed by the job identity.

    Captured failures travel as strings through :class:`JobOutcome` into
    report entries and serialized experiment reports, so this is the
    only diagnostic a failed shard leaves behind: it must carry the whole
    traceback (not just the exception repr) plus which job produced it.
    """
    describe = getattr(job, "describe", None)
    identity = describe() if callable(describe) else repr(job)
    return f"job {identity} failed:\n{traceback.format_exc()}"


def _capture_failure(job: ExplorationJob,
                     error: BaseException) -> Tuple[str, bool]:
    """Capture one failure: (full traceback string, is it retryable?).

    The single helper every broad handler in this module funnels through,
    so a captured failure always carries its complete diagnostic *and* a
    retryability classification for the retry layer.
    """
    return _format_job_error(job), is_retryable(error)


def _timeout_error(job: ExplorationJob, timeout_s: float, attempts: int) -> str:
    """The error string of an attempt that exceeded its wall-clock budget."""
    describe = getattr(job, "describe", None)
    identity = describe() if callable(describe) else repr(job)
    return (f"job {identity} timed out: attempt {attempts} exceeded the "
            f"per-job timeout of {timeout_s:g} s")


@dataclass
class JobOutcome:
    """Result (or captured failure) of one executed job."""

    job: ExplorationJob
    result: Optional[object] = None  # ExplorationResult when ok
    error: Optional[str] = None
    duration_s: float = 0.0
    #: Executions this outcome consumed (> 1 when the retry layer stepped in).
    attempts: int = 1
    #: Whether the final attempt exceeded the policy's per-job timeout.
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retried(self) -> bool:
        """Whether the job needed more than one attempt."""
        return self.attempts > 1


def flatten_outcomes(outcomes: Sequence[JobOutcome]) -> List[JobOutcome]:
    """Expand batched-job outcomes into per-seed outcomes, in seed order.

    A :class:`~repro.runtime.jobs.BatchedExplorationJob` returns one result
    per seed; plan execution and the experiment reports are written in
    terms of one outcome per (benchmark, agent, seed), so
    this splits every batched outcome into the outcomes its serial
    equivalents would have produced.  The batch's wall-clock is split
    evenly across its seeds — the sum is preserved, the attribution is
    nominal.  Failed batches propagate their error to every seed, and
    retry/timeout accounting carries over to every sub-outcome.
    Non-batched outcomes pass through unchanged.
    """
    flat: List[JobOutcome] = []
    for outcome in outcomes:
        if not isinstance(outcome.job, BatchedExplorationJob):
            flat.append(outcome)
            continue
        sub_jobs = outcome.job.jobs()
        share = outcome.duration_s / len(sub_jobs)
        if outcome.ok:
            for sub_job, result in zip(sub_jobs, outcome.result):
                flat.append(JobOutcome(job=sub_job, result=result,
                                       duration_s=share,
                                       attempts=outcome.attempts,
                                       timed_out=outcome.timed_out))
        else:
            for sub_job in sub_jobs:
                flat.append(JobOutcome(job=sub_job, error=outcome.error,
                                       duration_s=share,
                                       attempts=outcome.attempts,
                                       timed_out=outcome.timed_out))
    return flat


def _restore_from_checkpoint(checkpoint, job) -> Optional[JobOutcome]:
    """The journaled outcome of ``job``, or ``None`` (job must execute).

    Restored outcomes carry no duration (the work happened in an earlier
    run) and count one attempt; entry payloads that fail to decode make
    the checkpoint fall back to ``None`` — see
    :meth:`~repro.runtime.checkpoint.CampaignCheckpoint.result_for`.
    """
    if checkpoint is None:
        return None
    result = checkpoint.result_for(job)
    if result is None:
        return None
    return JobOutcome(job=job, result=result)


class Executor(ABC):
    """Runs a list of exploration jobs against a shared evaluation store."""

    @abstractmethod
    def run(self, jobs: Sequence[ExplorationJob],
            store: Optional[EvaluationStore] = None,
            on_outcome: Optional[OutcomeCallback] = None,
            checkpoint: Optional[object] = None) -> List[JobOutcome]:
        """Execute every job; outcomes are returned in job order.

        ``checkpoint`` optionally names a
        :class:`~repro.runtime.checkpoint.CampaignCheckpoint`: journaled
        jobs are restored instead of executed, finished jobs are recorded,
        and the journal is flushed when the run completes (or is
        interrupted).
        """


class SerialExecutor(Executor):
    """Runs jobs inline, one at a time (the default executor).

    ``retry_policy`` grants retryable failures extra attempts (with
    deterministic backoff) and bounds each attempt's wall-clock
    *cooperatively*: inline execution cannot be preempted, so the budget
    is checked after the attempt returns — a late attempt is discarded
    and classified ``timed_out`` exactly as the process executor would
    classify its abandoned future, keeping outcome semantics aligned
    across executors.
    """

    def __init__(self, retry_policy: Optional[RetryPolicy] = None) -> None:
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy, got {type(retry_policy).__name__}"
            )
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry_policy

    def run(self, jobs: Sequence[ExplorationJob],
            store: Optional[EvaluationStore] = None,
            on_outcome: Optional[OutcomeCallback] = None,
            checkpoint: Optional[object] = None) -> List[JobOutcome]:
        store = store if store is not None else EvaluationStore()
        outcomes: List[JobOutcome] = []
        try:
            for job in jobs:
                outcome = _restore_from_checkpoint(checkpoint, job)
                if outcome is None:
                    outcome = self._run_one(job, store)
                    if checkpoint is not None:
                        checkpoint.record(outcome, store)
                outcomes.append(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
        except KeyboardInterrupt:
            _flush_completed_work(store, checkpoint)
            raise
        if checkpoint is not None:
            checkpoint.flush(store)
        return outcomes

    def _run_one(self, job: ExplorationJob, store: EvaluationStore) -> JobOutcome:
        """Execute one job under the retry policy; always returns an outcome."""
        policy = self._retry_policy
        attempts = 0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                result = execute_job(job, store=store)
            except Exception as exc:
                duration = time.perf_counter() - started
                error, retryable = _capture_failure(job, exc)
                if retryable and attempts < policy.max_attempts:
                    time.sleep(policy.backoff_s(job_fingerprint(job), attempts))
                    continue
                return JobOutcome(job=job, error=error, duration_s=duration,
                                  attempts=attempts)
            duration = time.perf_counter() - started
            if policy.job_timeout_s is not None and duration > policy.job_timeout_s:
                # Cooperative timeout: the attempt already ran to completion,
                # but it blew its budget — discard the late result so serial
                # and process runs classify the same over-budget job the
                # same way (timeouts are retryable: the delay may have been
                # transient, e.g. a cold cache or an injected fault).
                if attempts < policy.max_attempts:
                    time.sleep(policy.backoff_s(job_fingerprint(job), attempts))
                    continue
                return JobOutcome(
                    job=job,
                    error=_timeout_error(job, policy.job_timeout_s, attempts),
                    duration_s=duration, attempts=attempts, timed_out=True,
                )
            return JobOutcome(job=job, result=result, duration_s=duration,
                              attempts=attempts)


def _flush_completed_work(store: EvaluationStore, checkpoint) -> None:
    """Persist what an interrupted run completed: the store, then the journal.

    An interrupted campaign then resumes instead of restarting: the store
    holds every evaluation made or merged so far, the journal every
    finalized outcome.
    """
    if checkpoint is not None:
        checkpoint.flush(store)
    else:
        store.flush()


def _pool_worker_init() -> None:
    """Give pool workers default signal dispositions.

    A ``fork``-started worker inherits the parent's Python signal handlers
    and wakeup fd.  When the parent is an asyncio process (the evaluation
    daemon), that state is live machinery: a SIGTERM aimed at the *worker*
    (``ProcessPoolExecutor`` terminating a broken pool) would be written
    into the shared self-pipe — the parent's loop then drains as if *it*
    had been signalled — and the worker itself would never die from it.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _job_seeds(job: ExplorationJob) -> Tuple[int, ...]:
    """The workload seeds whose store contexts ``job`` can read."""
    if isinstance(job, BatchedExplorationJob):
        return tuple(job.seeds)
    return (job.seed,)


def _run_job_in_worker(job: ExplorationJob,
                       records: Dict[EvaluationKey, object],
                       ) -> Tuple[Optional[object], Optional[str], bool,
                                  Dict[EvaluationKey, object], "StoreStats"]:
    """Worker entry point: run one job against a private store of its records.

    ``records`` is the parent store's slice under the job's own benchmark
    and seeds (:meth:`EvaluationStore.records_for`), read when the job was
    submitted.  Returns ``(result, error, retryable, new_entries, stats)``:
    ``new_entries`` are the records the job added — the keys its slice
    lacked — so the merge payload follows the work the job did;
    ``retryable`` classifies a captured failure for the parent's retry
    layer (the exception object itself cannot cross the process boundary
    as data).
    """
    store = EvaluationStore(records=records)
    try:
        result = execute_job(job, store=store)
    except Exception as exc:
        error, retryable = _capture_failure(job, exc)
        return None, error, retryable, {}, store.stats
    new_entries = {key: record for key, record in store.snapshot().items()
                   if key not in records}
    return result, None, False, new_entries, store.stats


class ProcessExecutor(Executor):
    """Fans jobs out over worker processes with store merge-back.

    At most ``n_jobs`` jobs are in flight.  As each one finishes, its new
    records are merged into the shared store and the next pending job is
    submitted at once — no job waits for a slower sibling.
    A submission carries only the store records under that job's own
    benchmark and seeds, read at submit time, so evaluations contributed
    by finished jobs warm-start later ones (seeds and agents re-visiting
    the same design points never pay for them twice) while the cost of a
    dispatch follows the job, not the store.  ``on_outcome`` and the
    checkpoint see outcomes as jobs finish; :meth:`run` returns them in
    job order.

    Crash recovery: a worker dying mid-job (``BrokenProcessPool``) or a
    job exceeding the retry policy's per-job timeout (timed from its own
    submission) never sinks the run — the jobs still in flight are
    drained, completed outcomes kept, the pool is rebuilt, and only the
    unfinished jobs re-dispatch.  After ``max_pool_rebuilds`` rebuilds
    the executor stops trusting process isolation and runs the remaining
    jobs serially in-process (logged at WARNING; a job that keeps killing
    its host will then take the parent down — at that point the crash is
    the diagnostic).

    Parameters
    ----------
    n_jobs:
        Worker process count; defaults to the machine's CPU count.  Workers
        start with ``"fork"`` where the platform has it (cheap workers on
        POSIX) and ``"spawn"`` elsewhere.
    retry_policy:
        Attempt budget, per-job timeout and backoff shared with the
        serial path (see :class:`~repro.runtime.resilience.RetryPolicy`).
    max_pool_rebuilds:
        Pool rebuilds (worker crashes / timed-out workers) tolerated
        before degrading to serial execution.
    """

    def __init__(self, n_jobs: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_pool_rebuilds: int = 3) -> None:
        if n_jobs is not None and n_jobs <= 0:
            raise ConfigurationError(f"n_jobs must be positive, got {n_jobs}")
        self._n_jobs = int(n_jobs) if n_jobs is not None else (os.cpu_count() or 1)
        if retry_policy is not None and not isinstance(retry_policy, RetryPolicy):
            raise ConfigurationError(
                f"retry_policy must be a RetryPolicy, got {type(retry_policy).__name__}"
            )
        self._retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        if (not isinstance(max_pool_rebuilds, int)
                or isinstance(max_pool_rebuilds, bool) or max_pool_rebuilds < 0):
            raise ConfigurationError(
                f"max_pool_rebuilds must be a non-negative integer, "
                f"got {max_pool_rebuilds!r}"
            )
        self._max_pool_rebuilds = max_pool_rebuilds

    @property
    def n_jobs(self) -> int:
        return self._n_jobs

    @property
    def retry_policy(self) -> RetryPolicy:
        return self._retry_policy

    def _context(self) -> multiprocessing.context.BaseContext:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        return multiprocessing.get_context(method)

    def run(self, jobs: Sequence[ExplorationJob],
            store: Optional[EvaluationStore] = None,
            on_outcome: Optional[OutcomeCallback] = None,
            checkpoint: Optional[object] = None) -> List[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return []
        store = store if store is not None else EvaluationStore()
        if self._n_jobs == 1 or len(jobs) == 1:
            return SerialExecutor(retry_policy=self._retry_policy).run(
                jobs, store=store, on_outcome=on_outcome, checkpoint=checkpoint)

        policy = self._retry_policy
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)

        def finalize(index: int, outcome: JobOutcome) -> None:
            outcomes[index] = outcome
            if checkpoint is not None:
                checkpoint.record(outcome, store)
            if on_outcome is not None:
                on_outcome(outcome)

        #: Unfinished work as (job index, failed attempts so far).
        pending: Deque[Tuple[int, int]] = deque()
        for index, job in enumerate(jobs):
            restored = _restore_from_checkpoint(checkpoint, job)
            if restored is not None:
                outcomes[index] = restored
                if on_outcome is not None:
                    on_outcome(restored)
            else:
                pending.append((index, 0))

        #: Submitted work: future -> (job index, failed attempts, submit time).
        in_flight: Dict[Future, Tuple[int, int, float]] = {}
        backoff = 0.0

        def end_attempt(index: int, attempts: int, outcome: JobOutcome,
                        retryable: bool) -> None:
            """Finalize ``outcome``, or queue a retry while budget remains."""
            nonlocal backoff
            if not outcome.ok and retryable and attempts < policy.max_attempts:
                pending.append((index, attempts))
                backoff = max(backoff, policy.backoff_s(job_fingerprint(outcome.job),
                                                        attempts))
            else:
                finalize(index, outcome)

        def settle(future: Future, overdue: bool) -> Optional[str]:
            """Classify one finished or overdue job; returns why the pool
            must be rebuilt, if it must."""
            index, failed_attempts, submitted = in_flight.pop(future)
            job = jobs[index]
            attempts = failed_attempts + 1
            duration = time.perf_counter() - submitted
            if overdue:
                # The worker is wedged past the per-job budget: abandon the
                # future and rebuild the pool once the others are drained
                # (the worker itself cannot be preempted).  Timeouts are
                # retryable: the delay may have been transient.
                future.cancel()
                end_attempt(index, attempts, JobOutcome(
                    job=job, error=_timeout_error(job, policy.job_timeout_s, attempts),
                    duration_s=duration, attempts=attempts, timed_out=True,
                ), retryable=True)
                return "has a timed-out worker"
            try:
                result, error, retryable, new_entries, stats = future.result()
            except BrokenProcessPool:
                # A worker died; every unfinished future of the pool raises
                # this.  The job did not fail — the pool did — so it
                # re-dispatches without consuming a retry attempt (bounded
                # by max_pool_rebuilds, not max_attempts).
                pending.append((index, failed_attempts))
                return "lost a worker"
            except Exception as exc:
                # Pickling of arguments/results failed in transit;
                # future.result() re-raises with the remote traceback
                # chained in, so the capture keeps both sides.
                error, retryable = _capture_failure(job, exc)
                end_attempt(index, attempts, JobOutcome(
                    job=job, error=error, duration_s=duration, attempts=attempts,
                ), retryable)
                return None
            store.merge(new_entries)
            store.record_external_lookups(stats.hits, stats.misses)
            end_attempt(index, attempts, JobOutcome(
                job=job, result=result, error=error, duration_s=duration,
                attempts=attempts,
            ), retryable)
            return None

        workers = min(self._n_jobs, len(jobs))
        pool: Optional[ProcessPoolExecutor] = None
        rebuild: Optional[str] = None  # why the pool goes once drained
        rebuilds = 0
        try:
            while pending or in_flight:
                if rebuild is not None and not in_flight:
                    rebuilds += 1
                    logger.warning(
                        "worker pool %s; rebuilding (%d/%d tolerated) with "
                        "%d job(s) unfinished",
                        rebuild, rebuilds, self._max_pool_rebuilds, len(pending),
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                    rebuild = None
                if rebuild is None:
                    if pool is None and rebuilds > self._max_pool_rebuilds:
                        # Degrade to serial: process isolation has failed
                        # max_pool_rebuilds + 1 times; finish the tail inline.
                        logger.warning(
                            "worker pool failed %d times (limit %d); degrading to "
                            "serial execution for the remaining %d job(s)",
                            rebuilds, self._max_pool_rebuilds, len(pending),
                        )
                        serial = SerialExecutor(retry_policy=policy)
                        remaining = [jobs[index] for index, _ in pending]
                        serial_outcomes = serial.run(
                            remaining, store=store, on_outcome=on_outcome,
                            checkpoint=checkpoint)
                        for (index, _), outcome in zip(pending, serial_outcomes):
                            outcomes[index] = outcome
                        pending.clear()
                        break
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers,
                                                   mp_context=self._context(),
                                                   initializer=_pool_worker_init)
                    while pending and len(in_flight) < workers:
                        index, failed_attempts = pending.popleft()
                        try:
                            future = self._submit(pool, jobs[index], store)
                        except BrokenProcessPool:
                            # A worker died since the last collection.
                            pending.appendleft((index, failed_attempts))
                            rebuild = "lost a worker"
                            break
                        if isinstance(future, str):  # submission failed (see _submit)
                            finalize(index, JobOutcome(job=jobs[index], error=future,
                                                       attempts=failed_attempts + 1))
                        else:
                            in_flight[future] = (index, failed_attempts,
                                                 time.perf_counter())
                if not in_flight:
                    continue
                timeout = None
                if policy.job_timeout_s is not None:
                    first_deadline = min(submitted for _, _, submitted
                                         in in_flight.values()) + policy.job_timeout_s
                    timeout = max(first_deadline - time.perf_counter(), 0.0)
                wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
                now = time.perf_counter()
                for future, (_, _, submitted) in list(in_flight.items()):
                    overdue = (not future.done() and policy.job_timeout_s is not None
                               and now - submitted >= policy.job_timeout_s)
                    if future.done() or overdue:
                        rebuild = settle(future, overdue) or rebuild
                if backoff > 0.0 and pending:
                    time.sleep(backoff)
                backoff = 0.0
        except KeyboardInterrupt:
            _flush_completed_work(store, checkpoint)
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        if checkpoint is not None:
            checkpoint.flush(store)
        return [outcome for outcome in outcomes if outcome is not None]

    @staticmethod
    def _submit(pool: ProcessPoolExecutor, job: ExplorationJob,
                store: EvaluationStore):
        """Submit ``job`` with its slice of ``store``; a job that cannot be
        submitted yields its captured error string instead of a future."""
        try:
            records = store.records_for(benchmark_fingerprint(job.benchmark),
                                        _job_seeds(job))
            return pool.submit(_run_job_in_worker, job, records)
        except BrokenProcessPool:
            raise  # the pool failed, not the job
        except Exception as exc:  # unpicklable job: captured, does not kill the sweep
            error, _ = _capture_failure(job, exc)
            return error
