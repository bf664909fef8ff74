"""Tests for trend fitting, reward curves and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import RandomAgent
from repro.analysis import (
    RewardCurve,
    characterize_catalog,
    exploration_trace,
    fit_trend,
    format_table,
    improvement_ratio,
    render_comparison,
    render_operator_table,
    render_table3,
    reward_curve,
    reward_curves,
    trace_trends,
)
from repro.dse import explore
from repro.errors import AnalysisError


@pytest.fixture
def random_result(matmul_env):
    agent = RandomAgent(num_actions=matmul_env.action_space.n, seed=0)
    return explore(matmul_env, agent, max_steps=120, seed=0)


class TestTrends:
    def test_fit_trend_recovers_linear_series(self):
        series = 2.0 * np.arange(50) + 5.0
        trend = fit_trend(series)
        assert trend.slope == pytest.approx(2.0)
        assert trend.intercept == pytest.approx(5.0)
        assert trend.increasing

    def test_fit_trend_flat_series(self):
        trend = fit_trend(np.full(20, 3.0))
        assert trend.slope == pytest.approx(0.0, abs=1e-9)
        assert not trend.increasing

    def test_fit_trend_requires_two_points(self):
        with pytest.raises(AnalysisError):
            fit_trend(np.array([1.0]))

    def test_trend_predict(self):
        trend = fit_trend(np.arange(10, dtype=float))
        np.testing.assert_allclose(trend.predict(np.array([0, 9])), [0.0, 9.0], atol=1e-9)

    def test_exploration_trace_keys_and_lengths(self, random_result):
        trace = exploration_trace(random_result)
        assert set(trace) == {"step", "power_mw", "time_ns", "accuracy"}
        assert all(len(series) == random_result.num_steps for series in trace.values())

    def test_trace_trends_produces_three_lines(self, random_result):
        trends = trace_trends(random_result)
        assert set(trends) == {"power_mw", "time_ns", "accuracy"}


class TestRewardCurves:
    def test_reward_curve_windows(self, random_result):
        curve = reward_curve(random_result, window=40)
        assert curve.window == 40
        assert curve.num_windows == int(np.ceil(random_result.num_steps / 40))
        assert curve.window_centers()[0] == pytest.approx(20.0)

    def test_reward_curves_keyed_by_benchmark(self, random_result):
        curves = reward_curves([random_result], window=50)
        assert random_result.benchmark_name in curves

    def test_improvement_ratio(self):
        curve = RewardCurve(benchmark_name="x", window=10,
                            averages=np.array([-1.0, 0.0, 0.5]))
        assert improvement_ratio(curve) == pytest.approx(1.5)

    def test_improvement_ratio_single_window(self):
        curve = RewardCurve(benchmark_name="x", window=10, averages=np.array([0.3]))
        assert improvement_ratio(curve) == 0.0

    def test_improvement_ratio_empty_raises(self):
        curve = RewardCurve(benchmark_name="x", window=10, averages=np.array([]))
        with pytest.raises(AnalysisError):
            improvement_ratio(curve)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert "bbbb" in lines[3]

    def test_render_operator_tables(self, catalog):
        adders = render_operator_table(catalog, kind="adder", measure=False)
        multipliers = render_operator_table(catalog, kind="multiplier", measure=False)
        assert "add8_00M" in adders
        assert "mul32_043" in multipliers
        assert "MRED" in adders

    def test_render_operator_table_with_measurement(self, catalog):
        table = render_operator_table(catalog, kind="adder", measure=True, samples=500)
        assert "MRED % (measured)" in table

    def test_render_table3(self, random_result, matmul_env):
        table = render_table3({"matmul": random_result}, matmul_env.evaluator.catalog)
        assert "Δpower sol" in table
        assert "matmul" in table

    def test_render_comparison(self, random_result):
        table = render_comparison([random_result])
        assert "random" in table
        assert "feasible %" in table

    def test_characterize_catalog_matches_rendered_table(self, catalog):
        characterisation = characterize_catalog(catalog, kind="adder", samples=500)
        assert [entry.name for entry, _ in characterisation] == \
            [entry.name for entry in catalog.adders]
        reports = [report for _, report in characterisation]
        with_reports = render_operator_table(catalog, kind="adder", measure=True,
                                             samples=500, reports=reports)
        fresh = render_operator_table(catalog, kind="adder", measure=True,
                                      samples=500)
        assert with_reports == fresh

    def test_characterize_catalog_rejects_unknown_kind(self, catalog):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="adder"):
            characterize_catalog(catalog, kind="divider")

    def test_report_count_mismatch_rejected(self, catalog):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="report"):
            render_operator_table(catalog, kind="adder", measure=True, reports=[])


def _synthetic_result(catalog) -> "ExplorationResult":
    """A tiny hand-built exploration whose rendered tables are known exactly."""
    from repro.dse.design_space import DesignPoint
    from repro.dse.results import ExplorationResult, StepRecord
    from repro.dse.thresholds import ExplorationThresholds
    from repro.metrics.deltas import ObjectiveDeltas
    from repro.operators.energy import RunCost

    point = DesignPoint(adder_index=1, multiplier_index=2,
                        variables=(True, False))
    steps = [
        # (accuracy, power, time, reward, violated)
        (0.0, 0.0, 0.0, 0.0, False),       # baseline
        (2.5, 120.0, 30.0, 1.0, False),    # feasible
        (9.0, 150.0, 45.0, -1.0, True),    # infeasible (Δacc > threshold)
        (1.5, 100.0, 25.0, 1.0, False),    # feasible solution
    ]
    cumulative = 0.0
    records = []
    for index, (accuracy, power, time_ns, reward, violated) in enumerate(steps):
        cumulative += reward
        records.append(StepRecord(
            step=index,
            action=None if index == 0 else 0,
            point=point,
            deltas=ObjectiveDeltas(accuracy=accuracy, power_mw=power,
                                   time_ns=time_ns),
            reward=reward,
            cumulative_reward=cumulative,
            constraint_violated=violated,
            is_baseline=index == 0,
        ))
    return ExplorationResult.from_records(
        records,
        benchmark_name="synthetic",
        thresholds=ExplorationThresholds(accuracy=5.0, power_mw=200.0,
                                         time_ns=100.0),
        precise_cost=RunCost(power_mw=300.0, time_ns=120.0, operation_count=10),
        agent_name="q-learning",
    )


class TestRenderingGolden:
    """Exact expected output for the table renderers (golden tests).

    The inputs are hand-built, so every cell is known in advance; any change
    to number formatting, column order or summary semantics shows up as a
    diff against these strings.
    """

    def test_render_table3_golden(self, catalog):
        result = _synthetic_result(catalog)
        # adder_index=1 / multiplier_index=2 resolve through the MRED-sorted
        # catalog to these names; the trailing spaces are the fixed-width
        # padding of the last column.
        table = render_table3({"synthetic": result}, catalog)
        expected = (
            "benchmark | steps | Δpower min | Δpower sol | Δpower max | "
            "Δtime min | Δtime sol | Δtime max | Δacc min | Δacc sol | "
            "Δacc max | adder    | multiplier   \n"
            "----------+-------+------------+------------+------------+"
            "-----------+-----------+-----------+----------+----------+"
            "----------+----------+--------------\n"
            "synthetic | 4     | 0.000      | 100.000    | 150.000    | "
            "0.000     | 25.000    | 45.000    | 0.000    | 1.500    | "
            "9.000    | add8_1HG | mul32_precise"
        )
        assert table == expected

    def test_render_comparison_golden(self, catalog):
        result = _synthetic_result(catalog)
        table = render_comparison([result])
        # Two of the three scored steps are feasible (66.7 %); the best
        # feasible step is the one with the largest Δpower + Δtime (step 1).
        expected = (
            "explorer   | steps | feasible % | best Δpower | best Δtime | best Δacc\n"
            "-----------+-------+------------+-------------+------------+----------\n"
            "q-learning | 4     | 66.7       | 120.000     | 30.000     | 2.500    "
        )
        assert table == expected

    def test_render_comparison_without_feasible_steps_golden(self, catalog):
        result = _synthetic_result(catalog)
        infeasible = result.__class__.from_records(
            [record for record in result.records
             if record.is_baseline or record.deltas.accuracy > 5.0],
            benchmark_name=result.benchmark_name,
            thresholds=result.thresholds,
            precise_cost=result.precise_cost,
            agent_name="random",
        )
        table = render_comparison([infeasible])
        expected = (
            "explorer | steps | feasible % | best Δpower | best Δtime | best Δacc\n"
            "---------+-------+------------+-------------+------------+----------\n"
            "random   | 2     | 0.0        | -           | -          | -        "
        )
        assert table == expected

    def test_render_operator_table_published_golden(self, catalog):
        table = render_operator_table(catalog, kind="adder", measure=False)
        lines = table.splitlines()
        assert lines[0].split(" | ") == [
            "operator ", "width", "MRED % (paper)", "power (mW)", "time (ns)"]
        first = catalog.adders[0]
        cells = [cell.strip() for cell in lines[2].split(" | ")]
        assert cells == [
            first.name,
            str(first.width),
            f"{first.published.mred_percent:.3f}",
            f"{first.published.power_mw:.4f}",
            f"{first.published.delay_ns:.3f}",
        ]
        # One row per catalog adder, in catalog (MRED-sorted) order.
        assert len(lines) == 2 + len(catalog.adders)
