"""The serial exploration engine: the reference of the batched one.

:func:`~repro.runtime.jobs.execute_job` runs every RL exploration on the
batched engine (:mod:`repro.dse.batched_env`), one-seed jobs included, so
comparing two ``execute_job`` calls compares that engine with itself.  The
identity tests compare it with this instead: one episode stepped through
:class:`~repro.dse.environment.AxcDseEnv` by
:class:`~repro.dse.explorer.Explorer`, with the agent the family's serial
builder makes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional
from unittest import mock

from repro.dse import AxcDseEnv, Explorer
from repro.runtime import EvaluationStore, ExplorationJob, execute_job, executor


def serial_result(job: ExplorationJob, store: Optional[EvaluationStore] = None):
    """The result of one RL :class:`ExplorationJob` on the serial engine."""
    environment = AxcDseEnv(job.benchmark, evaluation_seed=job.seed, store=store,
                            **job.env_kwargs)
    agent = job.agent.build(environment, job.seed, job.max_steps)
    return Explorer(environment, agent, max_steps=job.max_steps).run(
        seed=job.seed, random_start=job.random_start)


@contextmanager
def serial_engine() -> Iterator[List[ExplorationJob]]:
    """Run the one-seed RL jobs that reach the executors on the serial engine.

    Every other job (batched, baseline, sweep) runs as usual.  Yields the
    list of jobs run serially, so a test can check that its reference
    really came from the serial engine.  Meant for the serial executor: a
    process pool's workers see the patch only if they start inside it.
    """
    ran: List[ExplorationJob] = []

    def run(job, store=None):
        if isinstance(job, ExplorationJob) and not job.agent.is_baseline():
            ran.append(job)
            return serial_result(job, store=store)
        return execute_job(job, store=store)

    with mock.patch.object(executor, "execute_job", run):
        yield ran
