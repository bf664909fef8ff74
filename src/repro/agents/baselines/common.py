"""Shared plumbing for the non-RL baseline explorers.

The baselines (simulated annealing, genetic algorithm, hill climbing,
exhaustive search) explore the same design space through the same
:class:`~repro.dse.evaluator.Evaluator`, so their results are directly
comparable to the RL agent's.  They all optimise the same scalar fitness —
normalised power + time reduction when the accuracy constraint holds, a
negative accuracy penalty otherwise — and emit ordinary
:class:`~repro.dse.results.ExplorationResult` traces so every analysis and
reporting helper works on them unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.dse.design_space import DesignPoint
from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.results import ExplorationResult, TraceBuilder
from repro.dse.reward import Algorithm1Reward
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds
from repro.metrics.deltas import ObjectiveDeltas

__all__ = ["fitness", "BaselineRecorder", "default_thresholds"]


def fitness(deltas: ObjectiveDeltas, thresholds: ExplorationThresholds) -> float:
    """Scalar quality of a design point for the baseline explorers.

    Feasible points (accuracy within ``accth``) score the sum of their
    normalised power and time reductions; infeasible points score the
    negative normalised accuracy excess, so the search is always pulled back
    towards the feasible region.
    """
    accuracy_scale = thresholds.accuracy if thresholds.accuracy > 0 else 1.0
    power_scale = thresholds.power_mw if thresholds.power_mw > 0 else 1.0
    time_scale = thresholds.time_ns if thresholds.time_ns > 0 else 1.0
    if deltas.accuracy > thresholds.accuracy:
        return -(deltas.accuracy / accuracy_scale)
    return deltas.power_mw / power_scale + deltas.time_ns / time_scale


def default_thresholds(evaluator: Evaluator, accuracy_factor: float = 0.4,
                       power_fraction: float = 0.5,
                       time_fraction: float = 0.5) -> ExplorationThresholds:
    """Thresholds derived exactly as the environment derives them."""
    return derive_thresholds(
        evaluator.precise_outputs,
        evaluator.precise_cost.power_mw,
        evaluator.precise_cost.time_ns,
        accuracy_factor=accuracy_factor,
        power_fraction=power_fraction,
        time_fraction=time_fraction,
    )


class BaselineRecorder:
    """Collects per-evaluation steps in the same columns as the RL trace."""

    def __init__(self, evaluator: Evaluator, thresholds: ExplorationThresholds,
                 agent_name: str) -> None:
        self._evaluator = evaluator
        self._thresholds = thresholds
        self._agent_name = agent_name
        self._reward = Algorithm1Reward()
        self._trace = TraceBuilder()

    @property
    def num_evaluations(self) -> int:
        return len(self._trace)

    def evaluate(self, point: DesignPoint, is_baseline: bool = False) -> EvaluationRecord:
        """Evaluate a point and append the corresponding step.

        ``is_baseline`` marks the do-nothing starting configuration a search
        seeds itself with (hill climbing and simulated annealing start at
        the precise design point), so feasibility summaries score baseline
        traces under the same rules as explorer traces.
        """
        record = self._evaluator.evaluate(point)
        outcome = self._reward(point, record.deltas, self._thresholds,
                               self._evaluator.design_space)
        self._trace.append(point, record.deltas, None, outcome.reward,
                           outcome.constraint_violated, is_baseline)
        return record

    def result(self, best_point: Optional[DesignPoint] = None,
               terminated: bool = False) -> ExplorationResult:
        """Package the recorded trace as an :class:`ExplorationResult`.

        When ``best_point`` is given, a final step for it is appended (if
        it is not already last) so ``ExplorationResult.solution`` reports the
        point the baseline actually returns.
        """
        if best_point is not None and self._trace.last_point != best_point:
            self.evaluate(best_point)
        return self._trace.build(
            benchmark_name=self._evaluator.benchmark.name,
            thresholds=self._thresholds,
            precise_cost=self._evaluator.precise_cost,
            agent_name=self._agent_name,
            terminated=terminated,
            metadata={"evaluations": self._trace.num_points},
        )
