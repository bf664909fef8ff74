"""Tests for the RL agents, epsilon schedules and the Q-table key."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.agents import (
    ConstantEpsilon,
    LinearDecayEpsilon,
    QLearningAgent,
    RandomAgent,
    SarsaAgent,
)
from repro.agents.base import _state_key
from repro.errors import ConfigurationError


def _observation(adder=1, multiplier=1, variables=(0, 0, 0), deltas=(0.0, 0.0, 0.0)):
    return OrderedDict(
        [
            ("adder", adder),
            ("multiplier", multiplier),
            ("variables", np.array(variables, dtype=np.int8)),
            ("deltas", np.array(deltas, dtype=np.float64)),
        ]
    )


class TestSchedules:
    def test_constant(self):
        schedule = ConstantEpsilon(0.3)
        assert schedule(0) == 0.3
        assert schedule(10_000) == 0.3

    def test_constant_validation(self):
        with pytest.raises(ConfigurationError):
            ConstantEpsilon(1.5)

    def test_linear_decay_endpoints(self):
        schedule = LinearDecayEpsilon(start=1.0, end=0.1, decay_steps=100)
        assert schedule(0) == pytest.approx(1.0)
        assert schedule(50) == pytest.approx(0.55)
        assert schedule(100) == pytest.approx(0.1)
        assert schedule(1000) == pytest.approx(0.1)

    def test_linear_decay_validation(self):
        with pytest.raises(ConfigurationError):
            LinearDecayEpsilon(start=0.1, end=0.5)
        with pytest.raises(ConfigurationError):
            LinearDecayEpsilon(decay_steps=0)

    @pytest.mark.parametrize("schedule", [
        ConstantEpsilon(0.3),
        ConstantEpsilon(0.0),
        LinearDecayEpsilon(),
        LinearDecayEpsilon(start=1.0, end=0.05, decay_steps=3_000),
        LinearDecayEpsilon(start=0.9, end=0.1, decay_steps=7),
        LinearDecayEpsilon(start=0.3, end=0.3, decay_steps=10),
        LinearDecayEpsilon(start=1.0, end=0.0, decay_steps=10),
    ], ids=repr)
    @pytest.mark.parametrize("length", ["below", "at", "above"])
    def test_table_equals_per_step_calls_bit_for_bit(self, schedule, length):
        decay_steps = getattr(schedule, "decay_steps", 5_000)
        num_steps = {"below": decay_steps // 2, "at": decay_steps,
                     "above": decay_steps + 10_001}[length]
        table = schedule.table(num_steps)
        assert all(type(value) is float for value in table)
        assert [value.hex() for value in table] == \
            [schedule(step).hex() for step in range(num_steps)]

    def test_table_of_a_subclass_with_its_own_value_calls_it(self):
        class Stepped(LinearDecayEpsilon):
            def value(self, step):
                return 0.5 if step % 2 else 0.25

        schedule = Stepped(decay_steps=4)
        assert schedule.table(6) == [0.25, 0.5, 0.25, 0.5, 0.25, 0.5]
        assert ConstantEpsilon(0.4).table(0) == []


class TestStateKey:
    def test_key_is_the_configuration(self):
        key = _state_key(_observation(adder=2, multiplier=3, variables=(1, 0, 1)))
        assert key == (2, 3, (1, 0, 1))

    def test_ignores_deltas(self):
        first = _state_key(_observation(deltas=(1.0, 2.0, 3.0)))
        second = _state_key(_observation(deltas=(9.0, 9.0, 9.0)))
        assert first == second

    def test_distinguishes_configurations(self):
        assert _state_key(_observation(adder=1)) != _state_key(_observation(adder=2))
        assert _state_key(_observation(variables=(1, 0, 0))) != _state_key(
            _observation(variables=(0, 0, 0))
        )

    def test_keys_are_hashable(self):
        {_state_key(_observation()): 1}


class TestQLearningAgent:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QLearningAgent(num_actions=0)
        with pytest.raises(ConfigurationError):
            QLearningAgent(num_actions=2, learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            QLearningAgent(num_actions=2, discount=1.5)

    def test_actions_within_range(self):
        agent = QLearningAgent(num_actions=5, epsilon=1.0, seed=0)
        actions = {agent.select_action(_observation()) for _ in range(100)}
        assert actions.issubset(set(range(5)))
        assert len(actions) == 5

    def test_greedy_when_epsilon_zero(self):
        agent = QLearningAgent(num_actions=3, epsilon=0.0, seed=0)
        observation = _observation()
        agent.update(observation, 2, 10.0, _observation(adder=2), False)
        assert agent.select_action(observation) == 2

    def test_update_moves_towards_target(self):
        agent = QLearningAgent(num_actions=2, learning_rate=0.5, discount=0.0, epsilon=0.0)
        observation = _observation()
        agent.update(observation, 0, 10.0, _observation(adder=2), False)
        assert agent.q_values(observation)[0] == pytest.approx(5.0)
        agent.update(observation, 0, 10.0, _observation(adder=2), False)
        assert agent.q_values(observation)[0] == pytest.approx(7.5)

    def test_update_bootstraps_from_next_state_maximum(self):
        agent = QLearningAgent(num_actions=2, learning_rate=1.0, discount=0.9, epsilon=0.0)
        next_observation = _observation(adder=2)
        agent.update(next_observation, 1, 10.0, _observation(adder=3), True)
        agent.update(_observation(), 0, 1.0, next_observation, False)
        assert agent.q_values(_observation())[0] == pytest.approx(1.0 + 0.9 * 10.0)

    def test_terminal_transition_ignores_future(self):
        agent = QLearningAgent(num_actions=2, learning_rate=1.0, discount=0.9, epsilon=0.0)
        next_observation = _observation(adder=2)
        agent.update(next_observation, 1, 100.0, _observation(adder=3), False)
        agent.update(_observation(), 0, 1.0, next_observation, True)
        assert agent.q_values(_observation())[0] == pytest.approx(1.0)

    def test_epsilon_schedule_is_consumed_per_action(self):
        agent = QLearningAgent(
            num_actions=2, epsilon=LinearDecayEpsilon(start=1.0, end=0.0, decay_steps=10)
        )
        assert agent.current_epsilon() == pytest.approx(1.0)
        for _ in range(10):
            agent.select_action(_observation())
        assert agent.current_epsilon() == pytest.approx(0.0)
        assert agent.steps_taken == 10

    def test_same_seed_reproducible(self):
        def run(seed):
            agent = QLearningAgent(num_actions=4, epsilon=0.5, seed=seed)
            return [agent.select_action(_observation()) for _ in range(20)]

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestSarsaAgent:
    def test_update_uses_policy_action(self):
        agent = SarsaAgent(num_actions=2, learning_rate=1.0, discount=1.0, epsilon=0.0, seed=0)
        next_observation = _observation(adder=2)
        # Make action 0 the greedy choice in the next state with value 5.
        agent.update(next_observation, 0, 5.0, _observation(adder=3), True)
        agent.update(_observation(), 1, 1.0, next_observation, False)
        assert agent.q_table[(1, 1, (0, 0, 0))][1] == pytest.approx(6.0)

    def test_actions_within_range(self):
        agent = SarsaAgent(num_actions=6, epsilon=1.0, seed=1)
        actions = {agent.select_action(_observation()) for _ in range(200)}
        assert actions == set(range(6))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SarsaAgent(num_actions=0)


class TestRandomAgent:
    def test_uniform_coverage(self):
        agent = RandomAgent(num_actions=4, seed=0)
        actions = [agent.select_action(_observation()) for _ in range(400)]
        counts = np.bincount(actions, minlength=4)
        assert counts.min() > 50

    def test_update_is_a_no_op(self):
        agent = RandomAgent(num_actions=2, seed=0)
        agent.update(_observation(), 0, 1.0, _observation(), False)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomAgent(num_actions=0)
