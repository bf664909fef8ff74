"""Tests for environment / agent combinations beyond the defaults.

Covers the alternative reward function, the threshold-aware state encoder
and the termination paths of the exploration — configuration variants the
ablation benches rely on.
"""

from __future__ import annotations

import numpy as np

from repro.agents import QLearningAgent, ThresholdBucketEncoder
from repro.dse import (
    AxcDseEnv,
    DesignPoint,
    ScalarizedReward,
    explore,
)


class TestScalarizedRewardEnvironment:
    def test_exploration_runs_with_dense_reward(self, small_matmul):
        environment = AxcDseEnv(small_matmul, reward_function=ScalarizedReward())
        agent = QLearningAgent(num_actions=environment.action_space.n, epsilon=0.3, seed=0)
        result = explore(environment, agent, max_steps=60, seed=0)
        assert result.num_steps >= 2
        # The dense reward is continuous, not the +-1/+-R of Algorithm 1.
        rewards = set(np.round(result.reward_series()[1:], 6))
        assert len(rewards) > 4

    def test_dense_reward_terminates_on_cumulative_maximum(self, small_matmul):
        environment = AxcDseEnv(small_matmul, reward_function=ScalarizedReward(),
                                max_cumulative_reward=5.0)
        agent = QLearningAgent(num_actions=environment.action_space.n, epsilon=0.5, seed=0)
        result = explore(environment, agent, max_steps=400, seed=0)
        if result.terminated:
            assert result.records[-1].cumulative_reward >= 5.0


class TestAlgorithm1Termination:
    def test_terminate_flag_at_most_aggressive_feasible_point(self, small_matmul):
        # Force a huge accuracy threshold so the most aggressive point is
        # feasible; stepping onto it must terminate with the maximum reward.
        from repro.dse import ExplorationThresholds

        environment = AxcDseEnv(
            small_matmul,
            thresholds=ExplorationThresholds(accuracy=1e12, power_mw=0.0, time_ns=0.0),
            max_cumulative_reward=100.0,
        )
        environment.reset(options={"design_point": DesignPoint(
            environment.design_space.num_adders,
            environment.design_space.num_multipliers,
            (True, True, False),
        )})
        # Toggle the last variable: the new state is the most aggressive point.
        toggle_last = 4 + environment.design_space.num_variables - 1
        _, reward, terminated, _, info = environment.step(toggle_last)
        assert terminated
        assert reward == 100.0
        assert info["terminate_flag"]

    def test_cumulative_reward_termination(self, small_matmul):
        from repro.dse import ExplorationThresholds

        # Every feasible step earns +1 with these thresholds, so the episode
        # must stop once the cumulative reward reaches the small maximum.
        environment = AxcDseEnv(
            small_matmul,
            thresholds=ExplorationThresholds(accuracy=1e12, power_mw=0.0, time_ns=0.0),
            max_cumulative_reward=5.0,
        )
        agent = QLearningAgent(num_actions=environment.action_space.n, epsilon=1.0, seed=0)
        result = explore(environment, agent, max_steps=200, seed=0)
        assert result.terminated
        assert result.records[-1].cumulative_reward >= 5.0
        assert result.num_steps <= 30


class TestThresholdBucketEncoder:
    def test_agent_with_threshold_encoder_explores(self, small_matmul):
        environment = AxcDseEnv(small_matmul)
        agent = QLearningAgent(
            num_actions=environment.action_space.n,
            epsilon=0.3,
            state_encoder=ThresholdBucketEncoder(environment.thresholds),
            seed=0,
        )
        result = explore(environment, agent, max_steps=80, seed=0)
        assert result.num_steps >= 2
        # The Q-table keys carry the three compliance flags.
        some_state = next(iter(agent.q_table))
        assert len(some_state) == 6
