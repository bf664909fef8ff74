"""Exhaustive design-space sweeps: the ground-truth Pareto front.

An RL exploration visits a few thousand (mostly repeated) design points;
the spaces of the paper's benchmarks hold a few hundred distinct ones.
Sweeping the whole space therefore yields, at modest cost, the *true*
Pareto front of every benchmark — the yardstick an agent's discovered
front can be judged against (see :func:`repro.dse.frontier.front_quality`).

The unit of a sweep is one evaluation context (benchmark, catalog and
workload seed): a sweep-kind :class:`~repro.experiments.spec.ExperimentSpec`
plans into one picklable :class:`~repro.runtime.jobs.SweepJob` per
benchmark x seed, run on any :class:`~repro.runtime.executor.Executor`.
:func:`execute_sweep_job` builds one :class:`~repro.dse.evaluator.Evaluator`
and evaluates ``[0, size)`` exactly as the batched environment's context
fill does — stored points from the shared
:class:`~repro.runtime.store.EvaluationStore` (so sweeps warm-start
campaigns and vice versa), the rest as one stacked kernel pass — and
returns the context's front.  Both executors produce identical results for
the same definition: parallelism changes wall-clock, never output.

Parallelism is across contexts, never inside one.  A sweep of a single
context runs as one job, and the process executor runs a one-job list in
its own process, so a one-seed sweep of one benchmark gains nothing from
workers.  Splitting a context pays off only for large kernels: on a
2-vCPU host a 2,048-long dot product took 157 ms as 48-point slices on two
workers against 227 ms as one job, while ``sobel`` and ``matmul_50x50``
ran as fast or faster as one job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.frontier import (
    FrontQuality,
    ParetoArchive,
    front_points,
    front_quality,
    hypervolume_proxy,
)
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds
from repro.operators.energy import RunCost
from repro.runtime.jobs import SweepJob
from repro.runtime.store import EvaluationStore

__all__ = ["SweepChunk", "SweepResult", "execute_sweep_job"]


@dataclass(frozen=True)
class SweepChunk:
    """Result of one executed :class:`~repro.runtime.jobs.SweepJob` (picklable).

    Carries the context's Pareto front plus its space size, thresholds and
    precise baseline, so plan execution can assemble a :class:`SweepResult`
    without re-running the precise version.
    """

    benchmark_label: str
    seed: int
    evaluated: int
    space_size: int
    front: Tuple[EvaluationRecord, ...]
    thresholds: ExplorationThresholds
    precise_cost: RunCost


@dataclass
class SweepResult:
    """The ground-truth front of one (benchmark, seed) exhaustive sweep."""

    benchmark_label: str
    benchmark_name: str
    seed: int
    space_size: int
    evaluations: int
    front: List[EvaluationRecord]
    thresholds: ExplorationThresholds
    precise_cost: RunCost
    #: Duration of this context's job; ``metadata["sweep_wall_clock_s"]``
    #: holds the whole run's wall-clock.
    duration_s: float = 0.0
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def front_size(self) -> int:
        return len(self.front)

    def front_points(self) -> List[Tuple[float, float, float]]:
        """The front as ``(accuracy, power, time)`` tuples, sorted by accuracy."""
        return front_points(self.front)

    def feasible_front(self) -> List[EvaluationRecord]:
        """Front members whose accuracy degradation respects the threshold."""
        return [
            record for record in self.front
            if record.deltas.accuracy <= self.thresholds.accuracy
        ]

    def hypervolume(self) -> float:
        """Hypervolume proxy of the true front (see :mod:`repro.dse.frontier`)."""
        return hypervolume_proxy(self.front)

    def judge(self, records) -> FrontQuality:
        """Score any trace or front against this ground-truth front."""
        return front_quality(ParetoArchive(records).front(), self.front)


def execute_sweep_job(job: SweepJob, store: Optional[EvaluationStore] = None) -> SweepChunk:
    """Evaluate one context's whole design space and return its front."""
    evaluator = Evaluator(
        job.benchmark,
        seed=job.seed,
        signed_accuracy=job.signed_accuracy,
        restrict_to_benchmark_widths=job.restrict_to_benchmark_widths,
        store=store,
    )
    space_size = evaluator.design_space.size
    records = evaluator.evaluate_index_range(0, space_size)
    thresholds = derive_thresholds(
        evaluator.precise_outputs,
        evaluator.precise_cost.power_mw,
        evaluator.precise_cost.time_ns,
    )
    return SweepChunk(
        benchmark_label=job.benchmark_label,
        seed=job.seed,
        evaluated=len(records),
        space_size=space_size,
        front=tuple(ParetoArchive(records).front()),
        thresholds=thresholds,
        precise_cost=evaluator.precise_cost,
    )
