"""Tests for the AxcDseEnv RL environment and the exploration driver."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import gymlite
from repro.agents import QLearningAgent, RandomAgent
from repro.dse import AxcDseEnv, DesignPoint, Explorer
from repro.errors import ConfigurationError, ExplorationError, InvalidAction, ResetNeeded


class TestEnvironmentContract:
    def test_observation_and_action_spaces(self, matmul_env):
        assert matmul_env.action_space.n == 4 + matmul_env.design_space.num_variables
        observation, info = matmul_env.reset(seed=0)
        assert matmul_env.observation_space.contains(observation)
        assert "design_point" in info and "deltas" in info

    def test_reset_starts_at_initial_point(self, matmul_env):
        observation, _ = matmul_env.reset(seed=0)
        assert observation["adder"] == 1
        assert observation["multiplier"] == 1
        assert observation["variables"].sum() == 0
        np.testing.assert_allclose(observation["deltas"], np.zeros(3))

    def test_reset_with_random_start(self, matmul_env):
        observation, _ = matmul_env.reset(seed=5, options={"random_start": True})
        assert matmul_env.observation_space.contains(observation)

    def test_reset_with_explicit_point(self, matmul_env):
        point = DesignPoint(3, 2, (True, False, True))
        _, info = matmul_env.reset(options={"design_point": point})
        assert info["design_point"] == point

    def test_step_before_reset_raises(self, small_matmul):
        env = AxcDseEnv(small_matmul)
        with pytest.raises(ResetNeeded):
            env.step(0)

    def test_invalid_action_raises(self, matmul_env):
        matmul_env.reset(seed=0)
        with pytest.raises(InvalidAction):
            matmul_env.step(matmul_env.action_space.n)

    def test_step_returns_five_tuple(self, matmul_env):
        matmul_env.reset(seed=0)
        observation, reward, terminated, truncated, info = matmul_env.step(0)
        assert matmul_env.observation_space.contains(observation)
        assert isinstance(reward, float)
        assert isinstance(terminated, bool)
        assert truncated is False
        assert info["cumulative_reward"] == reward

    def test_directional_actions_move_the_knobs(self, matmul_env):
        matmul_env.reset(seed=0)
        observation, *_ = matmul_env.step(0)  # adder up
        assert observation["adder"] == 2
        observation, *_ = matmul_env.step(2)  # multiplier up
        assert observation["multiplier"] == 2
        observation, *_ = matmul_env.step(4)  # toggle first variable
        assert observation["variables"][0] == 1
        observation, *_ = matmul_env.step(4)  # toggle it back
        assert observation["variables"][0] == 0

    def test_knobs_are_clamped_at_boundaries(self, matmul_env):
        matmul_env.reset(seed=0)
        observation, *_ = matmul_env.step(1)  # adder down from 1 stays at 1
        assert observation["adder"] == 1
        observation, *_ = matmul_env.step(3)  # multiplier down from 1 stays at 1
        assert observation["multiplier"] == 1

    def test_cumulative_reward_accumulates(self, matmul_env):
        matmul_env.reset(seed=0)
        total = 0.0
        for action in (0, 2, 4, 5):
            _, reward, *_ , info = matmul_env.step(action)
            total += reward
            assert info["cumulative_reward"] == pytest.approx(total)
        assert matmul_env.cumulative_reward == pytest.approx(total)

    def test_observation_deltas_match_info(self, matmul_env):
        matmul_env.reset(seed=0)
        observation, _, _, _, info = matmul_env.step(4)
        deltas = info["deltas"]
        np.testing.assert_allclose(
            observation["deltas"], [deltas.accuracy, deltas.power_mw, deltas.time_ns]
        )

    def test_compact_action_scheme(self, small_matmul):
        env = AxcDseEnv(small_matmul, action_scheme="compact")
        assert env.action_space.n == 3
        env.reset(seed=0)
        for action in (0, 1, 2):
            observation, *_ = env.step(action)
            assert env.observation_space.contains(observation)

    def test_invalid_action_scheme_raises(self, small_matmul):
        with pytest.raises(ConfigurationError):
            AxcDseEnv(small_matmul, action_scheme="nope")

    def test_invalid_max_reward_raises(self, small_matmul):
        with pytest.raises(ConfigurationError):
            AxcDseEnv(small_matmul, max_cumulative_reward=0)

    def test_render_mentions_the_point(self, matmul_env):
        assert "not reset" in matmul_env.render()
        matmul_env.reset(seed=0)
        assert "adder=1" in matmul_env.render()

    def test_thresholds_follow_the_paper_defaults(self, matmul_env):
        evaluator = matmul_env.evaluator
        assert matmul_env.thresholds.power_mw == pytest.approx(
            0.5 * evaluator.precise_cost.power_mw
        )
        assert matmul_env.thresholds.accuracy == pytest.approx(
            0.4 * float(np.mean(np.abs(evaluator.precise_outputs)))
        )

    def test_is_a_gymlite_env_with_the_gym_signatures(self, matmul_env):
        assert isinstance(matmul_env, gymlite.Env)
        reset = inspect.signature(matmul_env.reset).parameters
        assert [(name, p.kind) for name, p in reset.items()] == [
            ("seed", inspect.Parameter.KEYWORD_ONLY),
            ("options", inspect.Parameter.KEYWORD_ONLY),
        ]
        assert list(inspect.signature(matmul_env.step).parameters) == ["action"]

    def test_observation_space_layout(self, matmul_env):
        space = matmul_env.design_space
        observation_space = matmul_env.observation_space
        assert isinstance(observation_space, gymlite.spaces.Dict)
        assert list(observation_space) == ["adder", "deltas", "multiplier", "variables"]
        assert observation_space["adder"] == gymlite.spaces.Discrete(space.num_adders, start=1)
        assert observation_space["multiplier"] == \
            gymlite.spaces.Discrete(space.num_multipliers, start=1)
        assert observation_space["variables"] == gymlite.spaces.MultiBinary(space.num_variables)
        assert observation_space["deltas"] == \
            gymlite.spaces.Box(low=-np.inf, high=np.inf, shape=(3,))

    @pytest.mark.parametrize("scheme", ["directional", "compact"])
    def test_random_rollout_stays_in_the_spaces(self, small_matmul, scheme):
        env = AxcDseEnv(small_matmul, action_scheme=scheme)
        env.action_space.seed(0)
        observation, _ = env.reset(seed=0)
        assert env.observation_space.contains(observation)
        for _ in range(25):
            action = env.action_space.sample()
            assert env.action_space.contains(action)
            observation, _, terminated, truncated, _ = env.step(action)
            assert env.observation_space.contains(observation)
            if terminated or truncated:
                observation, _ = env.reset()

    def test_reproducible_with_same_seed(self, small_matmul):
        def run(seed):
            env = AxcDseEnv(small_matmul, action_scheme="compact")
            env.reset(seed=seed)
            trace = []
            for _ in range(20):
                _, reward, *_ , info = env.step(2)
                trace.append((info["design_point"].key(), reward))
            return trace

        assert run(11) == run(11)
        assert run(11) != run(12)


class TestExplorer:
    def test_exploration_records_every_step(self, matmul_env, quick_agent):
        result = Explorer(matmul_env, quick_agent, max_steps=50).run(seed=0)
        assert result.num_steps <= 51
        assert result.records[0].step == 0
        assert result.records[0].action is None
        assert all(record.action is not None for record in result.records[1:])
        assert result.benchmark_name == matmul_env.evaluator.benchmark.name
        assert result.agent_name == "q-learning"

    def test_cumulative_reward_is_consistent(self, matmul_env, quick_agent):
        result = Explorer(matmul_env, quick_agent, max_steps=50).run(seed=0)
        partial = np.cumsum(result.reward_series())
        np.testing.assert_allclose(partial, result.cumulative_reward_series())

    def test_random_agent_respects_step_budget(self, matmul_env):
        agent = RandomAgent(num_actions=matmul_env.action_space.n, seed=0)
        result = Explorer(matmul_env, agent, max_steps=20).run(seed=0)
        assert result.num_steps <= 21
        assert result.metadata["max_steps"] == 20

    def test_invalid_max_steps_raises(self, matmul_env, quick_agent):
        with pytest.raises(ExplorationError):
            Explorer(matmul_env, quick_agent, max_steps=0)

    def test_deterministic_given_seeds(self, small_matmul):
        def run():
            env = AxcDseEnv(small_matmul)
            agent = QLearningAgent(num_actions=env.action_space.n, epsilon=0.3, seed=7)
            return Explorer(env, agent, max_steps=60).run(seed=3).cumulative_reward_series()

        np.testing.assert_allclose(run(), run())

    def test_metadata_reports_evaluations(self, matmul_env, quick_agent):
        result = Explorer(matmul_env, quick_agent, max_steps=30).run(seed=0)
        assert result.metadata["evaluations"] == matmul_env.evaluator.cache_size
        assert result.metadata["design_space_size"] == matmul_env.design_space.size
