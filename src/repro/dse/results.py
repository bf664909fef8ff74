"""Exploration traces and summaries (the raw material of Table III / Figs 2-4).

An :class:`ExplorationResult` holds its trace as columns.  A 10,000-step
episode visits only a few hundred distinct design points, so the points
and their objective deltas sit once in a table, in first-visit order, and
each step is one row of small arrays: the point's id in that table, the
action, the reward and two flags.  Cumulative rewards are a running sum
over the reward column, the per-step series are gathers, and the Pareto /
feasibility summaries work on the table.  :attr:`ExplorationResult.records`
rebuilds the familiar one-:class:`StepRecord`-per-step view on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.design_space import DesignPoint
from repro.dse.thresholds import ExplorationThresholds
from repro.errors import AnalysisError
from repro.metrics.deltas import ObjectiveDeltas
from repro.operators.catalog import OperatorCatalog
from repro.operators.energy import RunCost

if TYPE_CHECKING:  # imported lazily at run time to avoid an import cycle
    from repro.dse.frontier import FrontQuality, ParetoArchive

__all__ = ["StepRecord", "ObjectiveSummary", "ExplorationResult", "TraceBuilder"]

#: The action column's stand-in for ``None`` (a step no agent action led to).
NO_ACTION = -1


@dataclass(frozen=True)
class StepRecord:
    """Everything observed at one exploration step.

    ``is_baseline`` marks the synthetic step-0 record the explorer emits
    for the starting configuration before the agent acts — it is part of
    the trace (series, exports) but not of the agent's achievement, so
    feasibility summaries exclude it by default.
    """

    step: int
    action: Optional[int]
    point: DesignPoint
    deltas: ObjectiveDeltas
    reward: float
    cumulative_reward: float
    constraint_violated: bool = False
    is_baseline: bool = False


@dataclass(frozen=True)
class ObjectiveSummary:
    """Minimum / solution / maximum of one objective over the exploration.

    This is exactly one block of Table III: the minimum and maximum value of
    the objective observed during the exploration, and the value of the
    solution (the approximate version of the last step).
    """

    minimum: float
    solution: float
    maximum: float


@dataclass(eq=False)
class ExplorationResult:
    """The full trace of one exploration run plus its Table-III summary.

    ``points`` and ``deltas`` are the table of distinct (point, deltas)
    pairs in first-visit order.  The per-step columns are ``point_ids``
    (row in that table), ``actions`` (``-1`` for ``None``), ``rewards``,
    ``violated`` and ``baseline``.  Results compare equal when every
    column and every other field does.
    """

    benchmark_name: str
    points: Tuple[DesignPoint, ...]
    deltas: Tuple[ObjectiveDeltas, ...]
    point_ids: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    violated: np.ndarray
    baseline: np.ndarray
    thresholds: ExplorationThresholds
    precise_cost: RunCost
    agent_name: str = "q-learning"
    terminated: bool = False
    truncated: bool = False
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = tuple(self.points)
        self.deltas = tuple(self.deltas)
        self.point_ids = np.asarray(self.point_ids, dtype=np.int32)
        self.actions = np.asarray(self.actions, dtype=np.int8)
        self.rewards = np.asarray(self.rewards, dtype=np.float64)
        self.violated = np.asarray(self.violated, dtype=bool)
        self.baseline = np.asarray(self.baseline, dtype=bool)
        if not self.point_ids.size:
            raise AnalysisError("an exploration result requires at least one step record")
        # Derived views (records, objective matrix, first scored steps):
        # rebuilt on demand, never pickled, never compared.
        self._cache: Dict[object, object] = {}

    @classmethod
    def from_records(cls, records: Sequence[StepRecord], **fields) -> "ExplorationResult":
        """Build a result from step records (the inverse of :attr:`records`).

        Steps are numbered by position and cumulative rewards are the
        running sum of the rewards, so the records' own ``step`` and
        ``cumulative_reward`` fields are not kept.
        """
        builder = TraceBuilder()
        for record in records:
            if record.action is not None and record.action < 0:
                raise AnalysisError(f"step actions are non-negative, got {record.action}")
            builder.append(record.point, record.deltas, record.action, record.reward,
                           record.constraint_violated, record.is_baseline)
        return builder.build(**fields)

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        del state["_cache"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._cache = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExplorationResult):
            return NotImplemented
        if self is other:
            return True
        return (
            self.benchmark_name == other.benchmark_name
            and self.points == other.points
            and self.deltas == other.deltas
            and all(np.array_equal(mine, theirs)
                    for mine, theirs in zip(self._columns(), other._columns()))
            and self.thresholds == other.thresholds
            and self.precise_cost == other.precise_cost
            and self.agent_name == other.agent_name
            and self.terminated == other.terminated
            and self.truncated == other.truncated
            and self.metadata == other.metadata
        )

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (self.point_ids, self.actions, self.rewards, self.violated, self.baseline)

    # ------------------------------------------------------------ step views

    @property
    def num_steps(self) -> int:
        return int(self.point_ids.size)

    @property
    def records(self) -> Tuple[StepRecord, ...]:
        """One :class:`StepRecord` per step, built on first access."""
        view = self._cache.get("records")
        if view is None:
            view = self._cache["records"] = tuple(
                self._records_at(np.arange(self.num_steps))
            )
        return view

    def _records_at(self, steps: np.ndarray) -> List[StepRecord]:
        """The step records of the given step numbers, in that order."""
        points, deltas = self.points, self.deltas
        cumulative = self.cumulative_reward_series()[steps].tolist()
        return [
            StepRecord(step=step, action=None if action == NO_ACTION else action,
                       point=points[row], deltas=deltas[row], reward=reward,
                       cumulative_reward=total, constraint_violated=violated,
                       is_baseline=baseline)
            for step, row, action, reward, total, violated, baseline in zip(
                steps.tolist(), self.point_ids[steps].tolist(),
                self.actions[steps].tolist(), self.rewards[steps].tolist(),
                cumulative, self.violated[steps].tolist(),
                self.baseline[steps].tolist())
        ]

    @property
    def solution(self) -> StepRecord:
        """The approximate version of the last step (the paper's 'solution')."""
        return self._records_at(np.array([self.num_steps - 1]))[0]

    # ------------------------------------------------------------ raw series

    def _objectives(self) -> np.ndarray:
        """The table's ``(rows, 3)`` matrix of (Δacc, Δpower, Δtime)."""
        matrix = self._cache.get("objectives")
        if matrix is None:
            matrix = self._cache["objectives"] = np.array(
                [(d.accuracy, d.power_mw, d.time_ns) for d in self.deltas],
                dtype=np.float64,
            ).reshape(-1, 3)
        return matrix

    def accuracy_series(self) -> np.ndarray:
        """Δacc at every step."""
        return self._objectives()[:, 0][self.point_ids]

    def power_series(self) -> np.ndarray:
        """Δpower at every step."""
        return self._objectives()[:, 1][self.point_ids]

    def time_series(self) -> np.ndarray:
        """Δtime at every step."""
        return self._objectives()[:, 2][self.point_ids]

    def reward_series(self) -> np.ndarray:
        """Reward at every step."""
        return self.rewards.copy()

    def cumulative_reward_series(self) -> np.ndarray:
        """Cumulative reward after every step.

        A running sum in step order starting from 0.0 — the same float
        additions, in the same order, as the producers' running total.
        """
        return np.cumsum(np.concatenate(([0.0], self.rewards)))[1:]

    # ------------------------------------------------------------- summaries

    def power_summary(self) -> ObjectiveSummary:
        series = self.power_series()
        return ObjectiveSummary(float(series.min()), float(series[-1]), float(series.max()))

    def time_summary(self) -> ObjectiveSummary:
        series = self.time_series()
        return ObjectiveSummary(float(series.min()), float(series[-1]), float(series.max()))

    def accuracy_summary(self) -> ObjectiveSummary:
        series = self.accuracy_series()
        return ObjectiveSummary(float(series.min()), float(series[-1]), float(series.max()))

    def _scored_steps(self, include_baseline: bool) -> np.ndarray:
        """The step numbers feasibility summaries score."""
        if include_baseline:
            return np.arange(self.num_steps)
        return np.flatnonzero(~self.baseline)

    def scored_records(self, include_baseline: bool = False) -> List[StepRecord]:
        """The records feasibility summaries score.

        The synthetic step-0 baseline (the precise starting configuration,
        zero deltas, trivially feasible) is excluded by default: counting
        it inflated ``feasible_fraction`` and let ``best_feasible`` return
        the do-nothing point when every real step was infeasible.  Pass
        ``include_baseline=True`` for the historical behaviour.
        """
        return self._records_at(self._scored_steps(include_baseline))

    def _first_scored(self, include_baseline: bool) -> List[StepRecord]:
        """Each table row's first scored step record, in step order.

        Every summary over scored steps depends on a step only through
        its table row, and ties go to the earliest step — so these few
        hundred records stand in for the whole trace.
        """
        key = ("first_scored", include_baseline)
        records = self._cache.get(key)
        if records is None:
            steps = self._scored_steps(include_baseline)
            _, first = np.unique(self.point_ids[steps], return_index=True)
            records = self._cache[key] = self._records_at(np.sort(steps[first]))
        return records

    def best_feasible(self, include_baseline: bool = False) -> Optional[StepRecord]:
        """The feasible step with the largest combined power + time reduction.

        Feasible means the accuracy degradation respects the threshold.  This
        is the record a user would actually deploy; the paper reports the
        last step instead, and both usually coincide when the agent learns.
        The synthetic step-0 baseline is not a candidate unless
        ``include_baseline`` is set (see :meth:`scored_records`).
        """
        feasible = [
            record for record in self._first_scored(include_baseline)
            if record.deltas.accuracy <= self.thresholds.accuracy
        ]
        if not feasible:
            return None
        return max(feasible, key=lambda record: record.deltas.power_mw + record.deltas.time_ns)

    def feasible_fraction(self, include_baseline: bool = False) -> float:
        """Fraction of steps whose accuracy degradation respected the threshold.

        Scores only the agent's own steps by default — the synthetic step-0
        baseline neither counts as feasible nor enters the denominator (see
        :meth:`scored_records`).  Returns 0.0 when nothing is scored.
        """
        rows = self.point_ids[self._scored_steps(include_baseline)]
        if not rows.size:
            return 0.0
        within = self._objectives()[:, 0] <= self.thresholds.accuracy
        return int(np.count_nonzero(within[rows])) / int(rows.size)

    # ----------------------------------------------------------- Pareto front

    def pareto_archive(self, include_baseline: bool = False) -> "ParetoArchive":
        """The trace's non-dominated archive (vectorized extraction).

        Like the feasibility summaries, the synthetic step-0 baseline earns
        no credit by default: the do-nothing starting point is not something
        the agent discovered (see :meth:`scored_records`).
        """
        from repro.dse.frontier import ParetoArchive

        return ParetoArchive(self._first_scored(include_baseline))

    def front(self, include_baseline: bool = False) -> List[StepRecord]:
        """The Pareto front of the trace, in first-occurrence order."""
        return self.pareto_archive(include_baseline).front()

    def front_quality(self, reference_front: Sequence,
                      include_baseline: bool = False) -> "FrontQuality":
        """Score this trace's front against a reference (e.g. ground-truth) front.

        ``reference_front`` is any sequence of records — typically the
        ``front`` of a :class:`~repro.dse.sweep.SweepResult` for the same
        benchmark and seed.
        """
        from repro.dse.frontier import front_quality

        return front_quality(self.front(include_baseline), reference_front)

    def selected_operators(self, catalog: OperatorCatalog) -> Dict[str, str]:
        """Names of the adder and multiplier of the solution configuration."""
        point = self.points[self.point_ids[-1]]
        return {
            "adder": catalog.adder(point.adder_index).name,
            "multiplier": catalog.multiplier(point.multiplier_index).name,
        }

    def table3_row(self, catalog: OperatorCatalog) -> Dict[str, object]:
        """One column of Table III for this benchmark configuration."""
        operators = self.selected_operators(catalog)
        return {
            "benchmark": self.benchmark_name,
            "steps": self.num_steps,
            "power_mw": self.power_summary(),
            "time_ns": self.time_summary(),
            "accuracy": self.accuracy_summary(),
            "adder": operators["adder"],
            "multiplier": operators["multiplier"],
        }

    # ------------------------------------------------------------ reward avg

    def average_reward(self, window: int = 100) -> np.ndarray:
        """Average reward over consecutive windows of ``window`` steps (Figure 4)."""
        if window <= 0:
            raise AnalysisError(f"window must be positive, got {window}")
        rewards = self.rewards
        num_windows = int(np.ceil(rewards.size / window))
        averages = np.empty(num_windows, dtype=np.float64)
        for index in range(num_windows):
            chunk = rewards[index * window:(index + 1) * window]
            averages[index] = float(np.mean(chunk))
        return averages


class TraceBuilder:
    """Collects one trace step by step into :class:`ExplorationResult` columns.

    The serial explorer and the baseline recorder append each step as it
    happens; the table keys on the (point, deltas) pair, so a revisited
    point costs one dict lookup and no new object.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[DesignPoint, ObjectiveDeltas], int] = {}
        self._points: List[DesignPoint] = []
        self._deltas: List[ObjectiveDeltas] = []
        self._ids: List[int] = []
        self._actions: List[int] = []
        self._rewards: List[float] = []
        self._violated: List[bool] = []
        self._baseline: List[bool] = []

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def num_points(self) -> int:
        """Distinct points recorded so far: the trace's own evaluations."""
        return len(self._points)

    @property
    def last_point(self) -> Optional[DesignPoint]:
        """The point of the latest step (``None`` before the first)."""
        return self._points[self._ids[-1]] if self._ids else None

    def append(self, point: DesignPoint, deltas: ObjectiveDeltas,
               action: Optional[int] = None, reward: float = 0.0,
               violated: bool = False, baseline: bool = False) -> None:
        """Record one step."""
        key = (point, deltas)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = len(self._points)
            self._points.append(point)
            self._deltas.append(deltas)
        self._ids.append(row)
        self._actions.append(NO_ACTION if action is None else action)
        self._rewards.append(reward)
        self._violated.append(violated)
        self._baseline.append(baseline)

    def build(self, **fields) -> ExplorationResult:
        """The result holding the steps recorded so far plus ``fields``."""
        return ExplorationResult(
            points=self._points, deltas=self._deltas, point_ids=self._ids,
            actions=self._actions, rewards=self._rewards, violated=self._violated,
            baseline=self._baseline, **fields,
        )
