"""Exploration jobs: picklable work units for the campaign runtime.

A sweep — the paper's Table III, the ablations, any multi-seed evaluation —
is a list of independent explorations.  :class:`ExplorationJob` captures one
of them as data (benchmark instance, workload seed, agent spec, step budget,
environment settings) so an executor can run it anywhere: inline, in a
worker process, or on a remote machine.  Everything in a job is picklable;
:func:`expand_jobs` derives the job list of a campaign definition
deterministically, and :func:`execute_job` is the single entry point every
executor funnels through.

Agents are described by :class:`AgentSpec`: a family registered in the
unified :mod:`repro.experiments.registry` (RL agents *and* the
metaheuristic baselines), addressed by name, plus JSON-style options.  The
spec is plain data, so it pickles to any worker, and every RL spec can run
batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ConfigurationError, ExplorationError

if TYPE_CHECKING:  # imported lazily at run time to keep import edges acyclic
    from repro.benchmarks.base import Benchmark
    from repro.dse.environment import AxcDseEnv
    from repro.dse.results import ExplorationResult
    from repro.runtime.store import EvaluationStore

__all__ = [
    "AgentSpec",
    "ExplorationJob",
    "BatchedExplorationJob",
    "SweepJob",
    "expand_jobs",
    "execute_job",
    "AGENT_NAMES",
]

def __getattr__(name: str):
    # ``AGENT_NAMES`` delegates to the unified agent registry (resolved
    # lazily: the registry lives above this module in the import graph).
    if name == "AGENT_NAMES":
        from repro.experiments.registry import agent_names

        return agent_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AgentSpec:
    """Picklable description of the agent driving one exploration.

    Names a family registered in the unified agent registry
    (:mod:`repro.experiments.registry`) — the RL agents ``"q-learning"``,
    ``"sarsa"``, ``"random"`` or the metaheuristic baselines
    ``"hill-climbing"``, ``"simulated-annealing"``, ``"genetic"``,
    ``"exhaustive"`` — with optional constructor overrides.
    """

    name: str
    options: Mapping[str, object] = field(default_factory=dict)
    #: Reporting identity; defaults to ``name``.  Distinct labels let one
    #: campaign run several hyperparameter variants of the same family and
    #: keep their results apart.
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", dict(self.options))
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        elif not isinstance(self.label, str) or not self.label:
            raise ConfigurationError(
                f"agent label must be a non-empty string, got {self.label!r}"
            )
        from repro.experiments.registry import agent_family, agent_names

        try:
            agent_family(self.name)
        except ConfigurationError:
            raise ConfigurationError(
                f"agent name must be one of {agent_names()}, got {self.name!r}"
            ) from None

    def build(self, environment: "AxcDseEnv", seed: int, max_steps: int) -> object:
        """Instantiate the serial engine's step-loop agent for one exploration.

        Jobs never call this: :func:`execute_job` steps every RL job on the
        batched engine with the family's vectorized builder.  It serves the
        serial engine (:class:`~repro.dse.explorer.Explorer`), the
        reference the batched engine is tested against.

        Baseline families (``hill-climbing``, ``simulated-annealing``,
        ``genetic``, ``exhaustive``) own their search loop and are driven by
        :func:`execute_job` / :meth:`build_baseline` instead of an
        :class:`~repro.dse.explorer.Explorer`; asking ``build`` for one is a
        configuration error.
        """
        from repro.experiments.registry import RL, agent_family

        family = agent_family(self.name)
        if family.kind != RL:
            raise ConfigurationError(
                f"agent {self.name!r} is a self-driving baseline explorer; it is "
                f"run through execute_job / AgentSpec.build_baseline, not built "
                f"for an environment step loop"
            )
        return family.builder(environment, seed, max_steps, self.options)

    def build_baseline(self, evaluator, thresholds, seed: int, budget: int) -> object:
        """Instantiate the baseline explorer for one exploration.

        The returned object's ``run()`` yields an
        :class:`~repro.dse.results.ExplorationResult`, directly comparable
        to RL traces.  Only valid for baseline families.
        """
        from repro.experiments.registry import BASELINE, agent_family

        family = agent_family(self.name)
        if family.kind != BASELINE:
            raise ConfigurationError(
                f"agent {self.name!r} is not a baseline explorer; use build()"
            )
        return family.builder(evaluator, thresholds, seed, budget, self.options)

    def is_baseline(self) -> bool:
        """Whether this spec names a self-driving baseline explorer.

        Every other spec names an RL family, which always has a batched
        builder: its same-hyperparameter jobs may run batched.
        """
        from repro.experiments.registry import BASELINE, agent_family

        return agent_family(self.name).kind == BASELINE


@dataclass(frozen=True)
class ExplorationJob:
    """One exploration of a campaign, as shippable data.

    Attributes
    ----------
    benchmark_label:
        Campaign-level label of the benchmark configuration (the key of the
        campaign's benchmark mapping, e.g. ``"matmul_10x10"``).
    benchmark:
        The benchmark instance itself (picklable by construction: plain
        attributes, no open resources).
    seed:
        Workload and exploration seed of this run.
    agent:
        The agent specification.
    max_steps:
        Exploration step budget.
    env_kwargs:
        Environment settings (thresholds, action scheme, reward function,
        ...): keyword arguments of
        :class:`~repro.dse.batched_env.BatchedAxcDseEnv`, which an RL job
        steps on as a one-episode batch, and of
        :class:`~repro.dse.environment.AxcDseEnv`, whose evaluator and
        thresholds a baseline job searches with.  Both accept the same
        settings.
    random_start:
        Whether the exploration starts from a random design point.
    """

    benchmark_label: str
    benchmark: "Benchmark"
    seed: int
    agent: AgentSpec
    max_steps: int = 10_000
    env_kwargs: Mapping[str, object] = field(default_factory=dict)
    random_start: bool = False

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ExplorationError(f"max_steps must be positive, got {self.max_steps}")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "max_steps", int(self.max_steps))
        object.__setattr__(self, "env_kwargs", dict(self.env_kwargs))

    def describe(self) -> str:
        """Short human-readable identity, used in error reports and logs."""
        return (
            f"{self.benchmark_label}[seed={self.seed}, agent={self.agent.label}, "
            f"steps={self.max_steps}]"
        )


@dataclass(frozen=True)
class BatchedExplorationJob:
    """A group of same-(benchmark, agent, hyperparameters) explorations.

    Executed through the batched engine (:mod:`repro.dse.batched_env`) as
    one work unit: all seeds step in lockstep, sharing one vectorized
    agent and the per-workload outcome lists.  The result of executing a
    batched job is a *list* of per-seed
    :class:`~repro.dse.results.ExplorationResult`\\ s, in seed order, each
    bit-identical to running the seed's episode on the serial engine
    (:class:`~repro.dse.explorer.Explorer`);
    :func:`~repro.runtime.executor.flatten_outcomes` splits the batched
    outcome back into per-seed outcomes for reporting.  A one-seed RL
    :class:`ExplorationJob` runs as a one-seed batch of this kind too
    (see :func:`execute_job`).
    """

    benchmark_label: str
    benchmark: "Benchmark"
    seeds: Sequence[int]
    agent: AgentSpec
    max_steps: int = 10_000
    env_kwargs: Mapping[str, object] = field(default_factory=dict)
    random_start: bool = False

    def __post_init__(self) -> None:
        if self.max_steps <= 0:
            raise ExplorationError(f"max_steps must be positive, got {self.max_steps}")
        seeds = tuple(int(seed) for seed in self.seeds)
        if not seeds:
            raise ExplorationError("a batched job requires at least one seed")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "max_steps", int(self.max_steps))
        object.__setattr__(self, "env_kwargs", dict(self.env_kwargs))
        if self.agent.is_baseline():
            raise ConfigurationError(
                f"agent {self.agent.label!r} is a baseline explorer and does not "
                f"support batched execution"
            )

    @property
    def batch_size(self) -> int:
        return len(self.seeds)

    def jobs(self) -> List[ExplorationJob]:
        """The per-seed jobs this batch stands for, in seed order."""
        return [
            ExplorationJob(
                benchmark_label=self.benchmark_label,
                benchmark=self.benchmark,
                seed=seed,
                agent=self.agent,
                max_steps=self.max_steps,
                env_kwargs=dict(self.env_kwargs),
                random_start=self.random_start,
            )
            for seed in self.seeds
        ]

    def describe(self) -> str:
        """Short human-readable identity, used in error reports and logs."""
        return (
            f"{self.benchmark_label}[seeds={list(self.seeds)}, "
            f"agent={self.agent.label}, steps={self.max_steps}, batched]"
        )


def _chunk_seeds(seeds: Sequence[int], batch_size: int) -> List[Sequence[int]]:
    """Split a seed list into consecutive chunks of at most ``batch_size``."""
    if batch_size == 0:  # auto: one batch spanning every seed
        return [tuple(seeds)]
    return [tuple(seeds[start:start + batch_size])
            for start in range(0, len(seeds), batch_size)]


def expand_jobs(benchmarks: Mapping[str, "Benchmark"],
                agents: Union[AgentSpec, Sequence[AgentSpec]],
                seeds: Sequence[int] = (0,),
                max_steps: int = 10_000,
                env_kwargs: Optional[Mapping[str, object]] = None,
                random_start: bool = False,
                batch_size: Optional[int] = None) -> List[Union[ExplorationJob,
                                                                BatchedExplorationJob]]:
    """Deterministically expand a campaign definition into its job list.

    Parameters
    ----------
    benchmarks:
        Benchmarks keyed by label (the label becomes each job's identity).
    agents:
        One :class:`AgentSpec` or a sequence of them.
    seeds:
        Exploration/workload seeds; one job per benchmark x agent x seed.
    max_steps:
        Step budget per exploration.
    env_kwargs:
        Extra :class:`~repro.dse.environment.AxcDseEnv` keyword arguments
        (thresholds, ...), shared by every job.
    random_start:
        Start each exploration from a random design point.
    batch_size:
        Batching policy for same-(benchmark, agent, hyperparameter) seed
        groups.  ``None`` or ``1`` keeps one :class:`ExplorationJob` per
        seed, which :func:`execute_job` steps as a one-episode batch;
        ``0`` groups every RL seed group into one
        :class:`BatchedExplorationJob`; ``n > 1`` caps batches at ``n``
        seeds.  Baseline explorers always expand to per-seed jobs, as do
        single-seed groups — batching never changes results, only
        wall-clock.

    Returns
    -------
    The job list in benchmark (mapping order) x agent x seed order — the
    same definition always yields the same list, and executors may run
    jobs in any order but report results in expansion order.  With
    batching enabled, consecutive seeds of one (benchmark, agent) group
    collapse into :class:`BatchedExplorationJob` entries at the position
    of their first seed.
    """
    if not benchmarks:
        raise ExplorationError("a campaign requires at least one benchmark")
    if isinstance(agents, AgentSpec):
        agents = (agents,)
    agents = tuple(agents)
    if not agents:
        raise ExplorationError("a campaign requires at least one agent spec")
    seeds = tuple(int(seed) for seed in seeds)
    if not seeds:
        raise ExplorationError("a campaign requires at least one seed")
    if batch_size is not None and batch_size < 0:
        raise ConfigurationError(
            f"batch_size must be non-negative (0 = one batch per group), "
            f"got {batch_size}"
        )

    jobs: List[Union[ExplorationJob, BatchedExplorationJob]] = []
    for label, benchmark in benchmarks.items():
        for agent in agents:
            batched = (
                batch_size is not None and batch_size != 1
                and len(seeds) > 1 and not agent.is_baseline()
            )
            if batched:
                for chunk in _chunk_seeds(seeds, batch_size):
                    if len(chunk) == 1:
                        jobs.append(
                            ExplorationJob(
                                benchmark_label=label, benchmark=benchmark,
                                seed=chunk[0], agent=agent, max_steps=max_steps,
                                env_kwargs=dict(env_kwargs or {}),
                                random_start=random_start,
                            )
                        )
                    else:
                        jobs.append(
                            BatchedExplorationJob(
                                benchmark_label=label, benchmark=benchmark,
                                seeds=chunk, agent=agent, max_steps=max_steps,
                                env_kwargs=dict(env_kwargs or {}),
                                random_start=random_start,
                            )
                        )
                continue
            for seed in seeds:
                jobs.append(
                    ExplorationJob(
                        benchmark_label=label,
                        benchmark=benchmark,
                        seed=seed,
                        agent=agent,
                        max_steps=max_steps,
                        env_kwargs=dict(env_kwargs or {}),
                        random_start=random_start,
                    )
                )
    return jobs


@dataclass(frozen=True)
class SweepJob:
    """The exhaustive sweep of one evaluation context, as shippable data.

    A context is a benchmark, its operator catalog and a workload seed.  The
    job evaluates the context's whole design space against the shared store
    and returns its Pareto front, so a sweep fans out over executors one
    context per job, like exploration jobs.

    Attributes
    ----------
    benchmark_label:
        Sweep-level label of the benchmark configuration.
    benchmark:
        The benchmark instance (picklable by construction).
    seed:
        Workload seed the context is evaluated under.
    signed_accuracy, restrict_to_benchmark_widths:
        Evaluator settings.
    """

    benchmark_label: str
    benchmark: "Benchmark"
    seed: int
    signed_accuracy: bool = False
    restrict_to_benchmark_widths: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))

    def describe(self) -> str:
        """Short human-readable identity, used in error reports and logs."""
        return f"{self.benchmark_label}[sweep, seed={self.seed}]"


def execute_job(job: ExplorationJob,
                store: Optional["EvaluationStore"] = None) -> "ExplorationResult":
    """Run one exploration job and return its result.

    ``store`` warm-starts the evaluator with previously measured design
    points and receives every new evaluation.

    An RL job runs on the batched engine as a one-episode
    :class:`BatchedExplorationJob`; its result is bit-identical to driving
    :class:`~repro.dse.explorer.Explorer` through
    :class:`~repro.dse.environment.AxcDseEnv` for the job's seed, and
    faster.  A :class:`BatchedExplorationJob` returns its per-seed results
    as a list.

    Sweeps (:class:`SweepJob`) funnel through here too, so both executors run
    sweeps and explorations interchangeably; they return a
    :class:`~repro.dse.sweep.SweepChunk` instead of an exploration result.

    Baseline agent specs (``hill-climbing``, ``simulated-annealing``,
    ``genetic``, ``exhaustive``) run their own search loop against the
    environment's evaluator and thresholds.
    """
    from repro.runtime.faults import inject_faults

    # Chaos hook: a no-op unless a test installed a fault plan (env-guarded).
    inject_faults(job)

    if isinstance(job, SweepJob):
        from repro.dse.sweep import execute_sweep_job

        return execute_sweep_job(job, store=store)

    if isinstance(job, BatchedExplorationJob):
        return _execute_batched_job(job, store=store)

    if not job.agent.is_baseline():
        (result,) = _execute_batched_job(BatchedExplorationJob(
            benchmark_label=job.benchmark_label, benchmark=job.benchmark,
            seeds=(job.seed,), agent=job.agent, max_steps=job.max_steps,
            env_kwargs=job.env_kwargs, random_start=job.random_start,
        ), store=store)
        return result

    from repro.dse.environment import AxcDseEnv

    env_kwargs: Dict[str, object] = {"store": store, **dict(job.env_kwargs)}
    environment = AxcDseEnv(job.benchmark, evaluation_seed=job.seed, **env_kwargs)
    if job.random_start:
        raise ConfigurationError(
            f"{job.describe()}: baseline explorers choose their own "
            f"starting point; random_start is not supported"
        )
    explorer = job.agent.build_baseline(
        environment.evaluator, environment.thresholds, job.seed, job.max_steps
    )
    return explorer.run()


def _execute_batched_job(job: BatchedExplorationJob,
                         store: Optional["EvaluationStore"] = None,
                         ) -> List["ExplorationResult"]:
    """Run one batched job; returns per-seed results in seed order."""
    from repro.dse.batched_env import BatchedAxcDseEnv, BatchedExplorer
    from repro.experiments.registry import agent_family

    env_kwargs: Dict[str, object] = {"store": store, **dict(job.env_kwargs)}
    environment = BatchedAxcDseEnv(job.benchmark, seeds=job.seeds, **env_kwargs)
    family = agent_family(job.agent.name)
    agent = family.vectorized(environment, job.seeds, job.max_steps, job.agent.options)
    explorer = BatchedExplorer(environment, agent, max_steps=job.max_steps)
    return explorer.run(random_start=job.random_start)
