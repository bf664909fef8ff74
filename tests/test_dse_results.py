"""Tests for exploration results, summaries and Pareto-front extraction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import ExplorationThresholds, ParetoArchive, StepRecord
from repro.dse.design_space import DesignPoint
from repro.dse.results import ExplorationResult
from repro.errors import AnalysisError
from repro.metrics import ObjectiveDeltas
from repro.operators.energy import RunCost


def _record(step, accuracy, power, time, reward=0.0, cumulative=0.0, adder=1, multiplier=1,
            is_baseline=False):
    return StepRecord(
        step=step,
        action=None if step == 0 else 0,
        point=DesignPoint(adder, multiplier, (False, False)),
        deltas=ObjectiveDeltas(accuracy=accuracy, power_mw=power, time_ns=time),
        reward=reward,
        cumulative_reward=cumulative,
        is_baseline=is_baseline,
    )


def _result(records, accuracy_threshold=10.0):
    return ExplorationResult.from_records(
        records,
        benchmark_name="synthetic",
        thresholds=ExplorationThresholds(accuracy=accuracy_threshold, power_mw=5.0, time_ns=5.0),
        precise_cost=RunCost(power_mw=100.0, time_ns=100.0, operation_count=10),
    )


class TestExplorationResult:
    def test_requires_records(self):
        with pytest.raises(AnalysisError):
            _result([])

    def test_series_extraction(self):
        result = _result([_record(0, 1.0, 2.0, 3.0), _record(1, 4.0, 5.0, 6.0)])
        np.testing.assert_allclose(result.accuracy_series(), [1.0, 4.0])
        np.testing.assert_allclose(result.power_series(), [2.0, 5.0])
        np.testing.assert_allclose(result.time_series(), [3.0, 6.0])

    def test_solution_is_last_step(self):
        result = _result([_record(0, 0, 0, 0), _record(1, 1, 10, 20)])
        assert result.solution.step == 1
        assert result.solution.deltas.power_mw == 10

    def test_objective_summaries_are_min_solution_max(self):
        result = _result([
            _record(0, 0.0, 1.0, 9.0),
            _record(1, 5.0, 7.0, 2.0),
            _record(2, 3.0, 4.0, 5.0),
        ])
        power = result.power_summary()
        assert (power.minimum, power.solution, power.maximum) == (1.0, 4.0, 7.0)
        accuracy = result.accuracy_summary()
        assert (accuracy.minimum, accuracy.solution, accuracy.maximum) == (0.0, 3.0, 5.0)
        time = result.time_summary()
        assert (time.minimum, time.solution, time.maximum) == (2.0, 5.0, 9.0)

    def test_best_feasible_maximises_gains_within_threshold(self):
        result = _result([
            _record(0, 0.0, 1.0, 1.0),
            _record(1, 50.0, 100.0, 100.0),   # infeasible (accuracy)
            _record(2, 5.0, 30.0, 30.0),      # feasible, best gains
            _record(3, 2.0, 10.0, 10.0),
        ])
        best = result.best_feasible()
        assert best.step == 2

    def test_best_feasible_none_when_all_violate(self):
        result = _result([_record(0, 99.0, 1.0, 1.0)], accuracy_threshold=1.0)
        assert result.best_feasible() is None

    def test_feasible_fraction(self):
        result = _result([
            _record(0, 0.0, 0, 0),
            _record(1, 20.0, 0, 0),
            _record(2, 5.0, 0, 0),
            _record(3, 30.0, 0, 0),
        ])
        assert result.feasible_fraction() == pytest.approx(0.5)

    def test_feasible_fraction_excludes_synthetic_baseline(self):
        result = _result([
            _record(0, 0.0, 0, 0, is_baseline=True),  # do-nothing start, feasible
            _record(1, 20.0, 0, 0),
            _record(2, 5.0, 0, 0),
            _record(3, 30.0, 0, 0),
        ])
        # The trivially feasible step 0 neither counts nor enters the
        # denominator; the historical figure remains available on request.
        assert result.feasible_fraction() == pytest.approx(1 / 3)
        assert result.feasible_fraction(include_baseline=True) == pytest.approx(0.5)

    def test_best_feasible_ignores_synthetic_baseline(self):
        result = _result([
            _record(0, 0.0, 0.0, 0.0, is_baseline=True),
            _record(1, 50.0, 100.0, 100.0),  # infeasible
        ])
        # Previously the do-nothing starting point was reported as "best
        # feasible" even though every real step violated the constraint.
        assert result.best_feasible() is None
        baseline = result.best_feasible(include_baseline=True)
        assert baseline is not None and baseline.step == 0

    def test_feasible_fraction_of_baseline_only_trace(self):
        result = _result([_record(0, 0.0, 0, 0, is_baseline=True)])
        assert result.feasible_fraction() == 0.0
        assert result.best_feasible() is None

    def test_average_reward_windows(self):
        records = [_record(i, 0, 0, 0, reward=float(i % 2)) for i in range(10)]
        result = _result(records)
        averages = result.average_reward(window=5)
        assert averages.shape == (2,)
        np.testing.assert_allclose(averages, [0.4, 0.6])

    def test_average_reward_invalid_window(self):
        result = _result([_record(0, 0, 0, 0)])
        with pytest.raises(AnalysisError):
            result.average_reward(window=0)

    def test_table3_row_and_selected_operators(self, catalog):
        restricted = catalog.restrict_widths(8, 8)
        records = [_record(0, 0, 0, 0), _record(1, 1, 2, 3, adder=2, multiplier=3)]
        result = _result(records)
        row = result.table3_row(restricted)
        assert row["benchmark"] == "synthetic"
        assert row["adder"] == restricted.adder(2).name
        assert row["multiplier"] == restricted.multiplier(3).name
        assert row["power_mw"].solution == 2.0


class TestExplorerTraceFlags:
    def test_step0_is_marked_baseline_and_truncation_recorded(self, matmul_env):
        from repro.agents import RandomAgent
        from repro.dse import Explorer

        agent = RandomAgent(num_actions=matmul_env.action_space.n, seed=0)
        result = Explorer(matmul_env, agent, max_steps=15).run(seed=0)
        assert result.records[0].is_baseline
        assert all(not record.is_baseline for record in result.records[1:])
        assert result.truncated is False  # budget exhaustion is not truncation

    def test_truncation_is_distinguishable_from_budget_exhaustion(self, small_matmul):
        from repro.agents import RandomAgent
        from repro.dse import AxcDseEnv, Explorer

        class FiveStepEnv(AxcDseEnv):
            """Truncates every episode after five steps, like a time limit."""

            def reset(self, *, seed=None, options=None):
                self.elapsed = 0
                return super().reset(seed=seed, options=options)

            def step(self, action):
                observation, reward, terminated, _, info = super().step(action)
                self.elapsed += 1
                return observation, reward, terminated, self.elapsed >= 5, info

        environment = FiveStepEnv(small_matmul, evaluation_seed=0)
        agent = RandomAgent(num_actions=environment.action_space.n, seed=0)
        result = Explorer(environment, agent, max_steps=50).run(seed=0)
        assert result.truncated is True
        assert result.terminated is False
        assert result.num_steps == 6  # baseline + the 5 steps before truncation


class TestPareto:
    def test_dominates(self):
        better = _record(0, 1.0, 10.0, 10.0, adder=1)
        worse = _record(1, 2.0, 5.0, 5.0, adder=2)
        assert ParetoArchive([better, worse]).front() == [better]
        assert ParetoArchive([worse, better]).front() == [better]

    def test_no_domination_between_trade_offs(self):
        low_error = _record(0, 1.0, 5.0, 5.0, adder=1)
        high_gain = _record(1, 3.0, 20.0, 20.0, adder=2)
        assert ParetoArchive([low_error, high_gain]).front() == [low_error, high_gain]
        assert ParetoArchive([high_gain, low_error]).front() == [high_gain, low_error]

    def test_pareto_front_removes_dominated_points(self):
        records = [
            _record(0, 1.0, 10.0, 10.0, adder=1),
            _record(1, 2.0, 5.0, 5.0, adder=2),    # dominated by record 0
            _record(2, 0.5, 2.0, 2.0, adder=3),    # trade-off: keeps lower error
            _record(3, 3.0, 20.0, 20.0, adder=4),  # trade-off: keeps higher gain
        ]
        front = ParetoArchive(records).front()
        steps = {record.step for record in front}
        assert steps == {0, 2, 3}

    def test_pareto_front_deduplicates_identical_points(self):
        duplicated = [_record(0, 1.0, 10.0, 10.0), _record(1, 1.0, 10.0, 10.0)]
        assert len(ParetoArchive(duplicated).front()) == 1

    def test_pareto_points_sorted_by_accuracy(self):
        records = [
            _record(0, 3.0, 20.0, 20.0, adder=1),
            _record(1, 0.5, 2.0, 2.0, adder=2),
        ]
        points = ParetoArchive(records).front_points()
        assert points[0][0] <= points[1][0]
