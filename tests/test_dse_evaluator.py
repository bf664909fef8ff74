"""Tests for the design-point evaluator, thresholds and reward functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import (
    Algorithm1Reward,
    DesignPoint,
    Evaluator,
    ExplorationThresholds,
    ScalarizedReward,
    derive_thresholds,
)
from repro.errors import ConfigurationError, DesignSpaceError
from repro.metrics import ObjectiveDeltas


class TestEvaluator:
    def test_precise_baseline_is_cached_and_consistent(self, matmul_evaluator):
        outputs = matmul_evaluator.precise_outputs
        expected = (matmul_evaluator.inputs["a"] @ matmul_evaluator.inputs["b"]).ravel()
        np.testing.assert_array_equal(outputs, expected)
        assert matmul_evaluator.precise_cost.power_mw > 0
        assert matmul_evaluator.precise_cost.time_ns > 0

    def test_width_restriction_matches_benchmark(self, matmul_evaluator):
        catalog = matmul_evaluator.catalog
        assert all(entry.width == 8 for entry in catalog.adders)
        assert all(entry.width == 8 for entry in catalog.multipliers)
        assert matmul_evaluator.full_catalog.num_adders == 12

    def test_unrestricted_evaluator_keeps_full_catalog(self, small_matmul):
        evaluator = Evaluator(small_matmul, restrict_to_benchmark_widths=False)
        assert evaluator.catalog.num_adders == 12

    def test_initial_point_has_zero_deltas(self, matmul_evaluator):
        initial = matmul_evaluator.design_space.initial_point()
        record = matmul_evaluator.evaluate(initial)
        assert record.deltas.accuracy == 0.0
        assert record.deltas.power_mw == 0.0
        assert record.deltas.time_ns == 0.0

    def test_exact_operators_with_all_variables_selected_are_lossless(self, matmul_evaluator):
        point = DesignPoint(1, 1, (True,) * matmul_evaluator.design_space.num_variables)
        record = matmul_evaluator.evaluate(point)
        assert record.deltas.accuracy == 0.0

    def test_aggressive_point_reduces_power_and_time(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        record = matmul_evaluator.evaluate(space.most_aggressive_point())
        assert record.deltas.power_mw > 0
        assert record.deltas.time_ns > 0
        assert record.deltas.accuracy > 0

    def test_more_aggressive_multiplier_saves_more_power(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        variables = (True,) * space.num_variables
        mild = matmul_evaluator.evaluate(DesignPoint(1, 2, variables))
        aggressive = matmul_evaluator.evaluate(DesignPoint(1, space.num_multipliers, variables))
        assert aggressive.deltas.power_mw > mild.deltas.power_mw

    def test_evaluation_is_cached(self, matmul_evaluator):
        point = matmul_evaluator.design_space.most_aggressive_point()
        first = matmul_evaluator.evaluate(point)
        before = matmul_evaluator.cache_size
        second = matmul_evaluator.evaluate(point)
        assert first is second
        assert matmul_evaluator.cache_size == before

    def test_same_seed_same_workload(self, small_matmul):
        first = Evaluator(small_matmul, seed=3)
        second = Evaluator(small_matmul, seed=3)
        np.testing.assert_array_equal(first.inputs["a"], second.inputs["a"])
        third = Evaluator(small_matmul, seed=4)
        assert not np.array_equal(first.inputs["a"], third.inputs["a"])

    def test_invalid_point_raises(self, matmul_evaluator):
        with pytest.raises(DesignSpaceError):
            matmul_evaluator.evaluate(DesignPoint(99, 1, (False, False, False)))

    def test_power_delta_matches_manual_accounting(self, matmul_evaluator):
        # Approximating only the multiplications (variables a and b) with the
        # cheapest multiplier must save exactly ops * (precise - approx) power.
        space = matmul_evaluator.design_space
        catalog = matmul_evaluator.catalog
        point = DesignPoint(1, space.num_multipliers, (True, True, False))
        record = matmul_evaluator.evaluate(point)
        benchmark = matmul_evaluator.benchmark
        num_muls = benchmark.rows * benchmark.inner * benchmark.cols
        precise_mul = catalog.exact_multiplier(8).published.power_mw
        approx_mul = catalog.multiplier(space.num_multipliers).published.power_mw
        expected = num_muls * (precise_mul - approx_mul)
        assert record.deltas.power_mw == pytest.approx(expected, rel=1e-9)


class TestThresholds:
    def test_derived_as_in_the_paper(self, matmul_evaluator):
        thresholds = derive_thresholds(
            matmul_evaluator.precise_outputs,
            matmul_evaluator.precise_cost.power_mw,
            matmul_evaluator.precise_cost.time_ns,
        )
        assert thresholds.power_mw == pytest.approx(0.5 * matmul_evaluator.precise_cost.power_mw)
        assert thresholds.time_ns == pytest.approx(0.5 * matmul_evaluator.precise_cost.time_ns)
        expected_acc = 0.4 * float(np.mean(np.abs(matmul_evaluator.precise_outputs)))
        assert thresholds.accuracy == pytest.approx(expected_acc)

    def test_custom_fractions(self, matmul_evaluator):
        thresholds = derive_thresholds(
            matmul_evaluator.precise_outputs, 100.0, 200.0,
            accuracy_factor=0.1, power_fraction=0.25, time_fraction=0.75,
        )
        assert thresholds.power_mw == pytest.approx(25.0)
        assert thresholds.time_ns == pytest.approx(150.0)

    def test_predicates(self):
        thresholds = ExplorationThresholds(accuracy=10.0, power_mw=5.0, time_ns=5.0)
        good = ObjectiveDeltas(accuracy=2.0, power_mw=6.0, time_ns=7.0)
        weak = ObjectiveDeltas(accuracy=2.0, power_mw=1.0, time_ns=7.0)
        bad = ObjectiveDeltas(accuracy=20.0, power_mw=6.0, time_ns=7.0)
        assert thresholds.satisfied_by(good)
        assert thresholds.accuracy_ok(weak) and not thresholds.gains_ok(weak)
        assert not thresholds.accuracy_ok(bad)

    def test_negative_threshold_raises(self):
        with pytest.raises(ConfigurationError):
            ExplorationThresholds(accuracy=-1.0, power_mw=0.0, time_ns=0.0)

    def test_empty_outputs_raise(self):
        with pytest.raises(ConfigurationError):
            derive_thresholds(np.array([]), 1.0, 1.0)

    def test_negative_fraction_raises(self):
        with pytest.raises(ConfigurationError):
            derive_thresholds(np.array([1.0]), 1.0, 1.0, accuracy_factor=-0.1)


class TestAlgorithm1Reward:
    @pytest.fixture
    def space(self, matmul_evaluator):
        return matmul_evaluator.design_space

    @pytest.fixture
    def thresholds(self):
        return ExplorationThresholds(accuracy=10.0, power_mw=100.0, time_ns=100.0)

    @pytest.fixture
    def reward(self):
        return Algorithm1Reward(max_reward=50.0)

    def _point(self, space, aggressive=False):
        return space.most_aggressive_point() if aggressive else space.initial_point()

    def test_violation_gets_minus_max_reward(self, reward, space, thresholds):
        deltas = ObjectiveDeltas(accuracy=50.0, power_mw=500.0, time_ns=500.0)
        outcome = reward(self._point(space), deltas, thresholds, space)
        assert outcome.reward == -50.0
        assert outcome.constraint_violated
        assert not outcome.terminate

    def test_good_gains_get_positive_reward(self, reward, space, thresholds):
        deltas = ObjectiveDeltas(accuracy=5.0, power_mw=200.0, time_ns=200.0)
        outcome = reward(self._point(space), deltas, thresholds, space)
        assert outcome.reward == 1.0

    def test_insufficient_gains_get_negative_reward(self, reward, space, thresholds):
        deltas = ObjectiveDeltas(accuracy=5.0, power_mw=10.0, time_ns=200.0)
        outcome = reward(self._point(space), deltas, thresholds, space)
        assert outcome.reward == -1.0

    def test_most_aggressive_feasible_point_terminates(self, reward, space, thresholds):
        deltas = ObjectiveDeltas(accuracy=5.0, power_mw=0.0, time_ns=0.0)
        outcome = reward(self._point(space, aggressive=True), deltas, thresholds, space)
        assert outcome.reward == 50.0
        assert outcome.terminate

    def test_invalid_configuration_raises(self):
        with pytest.raises(ConfigurationError):
            Algorithm1Reward(max_reward=0)
        with pytest.raises(ConfigurationError):
            Algorithm1Reward(positive_reward=-1)
        with pytest.raises(ConfigurationError):
            Algorithm1Reward(negative_reward=1)


class TestScalarizedReward:
    def test_dense_reward_increases_with_gains(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        thresholds = ExplorationThresholds(accuracy=10.0, power_mw=10.0, time_ns=10.0)
        reward = ScalarizedReward()
        small = reward(space.initial_point(),
                       ObjectiveDeltas(accuracy=0.0, power_mw=5.0, time_ns=5.0),
                       thresholds, space)
        large = reward(space.initial_point(),
                       ObjectiveDeltas(accuracy=0.0, power_mw=20.0, time_ns=20.0),
                       thresholds, space)
        assert large.reward > small.reward

    def test_violation_is_negative(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        thresholds = ExplorationThresholds(accuracy=10.0, power_mw=10.0, time_ns=10.0)
        outcome = ScalarizedReward()(
            space.initial_point(),
            ObjectiveDeltas(accuracy=100.0, power_mw=50.0, time_ns=50.0),
            thresholds, space,
        )
        assert outcome.reward < 0
        assert outcome.constraint_violated

    def test_negative_weight_raises(self):
        with pytest.raises(ConfigurationError):
            ScalarizedReward(weight_power=-1.0)
