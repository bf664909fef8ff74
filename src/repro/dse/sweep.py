"""Exhaustive design-space sweeps: the ground-truth Pareto front.

An RL exploration visits a few thousand (mostly repeated) design points;
the spaces of the paper's benchmarks hold a few hundred distinct ones.
Sweeping the whole space therefore yields, at modest cost, the *true*
Pareto front of every benchmark — the yardstick an agent's discovered
front can be judged against (see :func:`repro.dse.frontier.front_quality`).

A sweep is chunked: a sweep-kind
:class:`~repro.experiments.spec.ExperimentSpec` plans into disjoint index
ranges of the enumerated space, each run as a picklable
:class:`~repro.runtime.jobs.SweepJob` on any
:class:`~repro.runtime.executor.Executor`.  Every chunk evaluates its
points through a shared :class:`~repro.runtime.store.EvaluationStore` (so
sweeps warm-start campaigns and vice versa) and returns its chunk-local
front (:func:`execute_sweep_job`); plan execution merges those into one
:class:`SweepResult` per benchmark x seed through a
:class:`~repro.dse.frontier.ParetoArchive` — the front of a union is the
front of the union of the chunk fronts, so only tiny payloads cross process
boundaries.  Both executors produce identical results for the same
definition: parallelism changes wall-clock, never output.
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
from repro.errors import ExplorationError
from repro.operators.energy import RunCost
from repro.runtime.jobs import SweepJob
from repro.runtime.store import EvaluationStore, benchmark_fingerprint

__all__ = ["SweepChunk", "SweepResult", "execute_sweep_job"]


@dataclass(frozen=True)
class SweepChunk:
    """Result of one executed sweep chunk (picklable, outputs-free).

    Carries the chunk-local Pareto front plus the benchmark-level context
    (space size, thresholds, precise baseline) so the driver can assemble
    a :class:`SweepResult` without re-running the precise version.
    """

    benchmark_label: str
    seed: int
    start: int
    stop: int
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
    #: Summed durations of this sweep's chunks — exact wall-clock when run
    #: serially, an upper bound under a process executor (chunks overlap);
    #: ``metadata["sweep_wall_clock_s"]`` holds the whole run's wall-clock.
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


# Process-local evaluator reuse: building an evaluator runs the precise
# benchmark once, and a sweep executes many chunks of the same evaluation
# context in the same process (serially, or on a pooled worker, job after
# job).  Caching the evaluator pays that baseline once per context per
# process; each chunk then attaches its own store via `use_store`.
_EVALUATOR_CACHE: Dict[Tuple, Evaluator] = {}
_EVALUATOR_CACHE_LIMIT = 8


def _evaluator_for(job: SweepJob, store: EvaluationStore) -> Evaluator:
    key = (
        benchmark_fingerprint(job.benchmark),
        job.seed,
        job.signed_accuracy,
        job.restrict_to_benchmark_widths,
    )
    evaluator = _EVALUATOR_CACHE.get(key)
    if evaluator is None:
        if len(_EVALUATOR_CACHE) >= _EVALUATOR_CACHE_LIMIT:
            # Evict the oldest context only; the active one stays cached.
            _EVALUATOR_CACHE.pop(next(iter(_EVALUATOR_CACHE)))
        evaluator = Evaluator(
            job.benchmark,
            seed=job.seed,
            signed_accuracy=job.signed_accuracy,
            restrict_to_benchmark_widths=job.restrict_to_benchmark_widths,
            store=store,
        )
        _EVALUATOR_CACHE[key] = evaluator
    return evaluator.use_store(store)


def execute_sweep_job(job: SweepJob, store: Optional[EvaluationStore] = None) -> SweepChunk:
    """Evaluate one chunk of the design space and return its local front."""
    evaluator = _evaluator_for(job, store if store is not None else EvaluationStore())
    try:
        space = evaluator.design_space
        if job.start >= space.size:
            raise ExplorationError(
                f"sweep chunk {job.describe()} starts beyond the space (size {space.size})"
            )
        records = evaluator.evaluate_index_range(job.start, job.stop)
        archive = ParetoArchive(records)
        thresholds = derive_thresholds(
            evaluator.precise_outputs,
            evaluator.precise_cost.power_mw,
            evaluator.precise_cost.time_ns,
        )
    finally:
        # Detach the job's store so the cached evaluator does not pin it (or
        # a worker's slice of it) for the life of the process.
        evaluator.use_store(EvaluationStore())
    return SweepChunk(
        benchmark_label=job.benchmark_label,
        seed=job.seed,
        start=job.start,
        stop=min(job.stop, space.size),
        evaluated=len(records),
        space_size=space.size,
        front=tuple(archive.front()),
        thresholds=thresholds,
        precise_cost=evaluator.precise_cost,
    )
