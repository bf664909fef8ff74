"""Tests for the gymlite Env base class and seeding."""

from __future__ import annotations

import numpy as np
import pytest

import repro.gymlite as gym
from repro.errors import ConfigurationError
from repro.gymlite import spaces
from repro.gymlite.seeding import np_random


class CountingEnv(gym.Env):
    """A tiny environment that terminates after ``limit`` steps."""

    def __init__(self, limit: int = 5):
        self.limit = limit
        self.count = 0
        self.observation_space = spaces.Discrete(limit + 1)
        self.action_space = spaces.Discrete(2)

    def reset(self, *, seed=None, options=None):
        super().reset(seed=seed)
        self.count = 0
        return self.count, {}

    def step(self, action):
        self.count += 1
        terminated = self.count >= self.limit
        return self.count, float(action), terminated, False, {}


class TestSeeding:
    def test_same_seed_same_stream(self):
        first, _ = np_random(7)
        second, _ = np_random(7)
        assert first.integers(0, 1000, 10).tolist() == second.integers(0, 1000, 10).tolist()

    def test_none_seed_returns_used_seed(self):
        generator, seed = np_random(None)
        assert isinstance(generator, np.random.Generator)
        assert seed >= 0

    def test_negative_seed_raises(self):
        with pytest.raises(ConfigurationError):
            np_random(-1)

    def test_non_integer_seed_raises(self):
        with pytest.raises(ConfigurationError):
            np_random(1.5)


class TestEnv:
    def test_reset_seeds_np_random(self):
        env = CountingEnv()
        env.reset(seed=3)
        first = env.np_random.integers(0, 100, 5).tolist()
        env.reset(seed=3)
        second = env.np_random.integers(0, 100, 5).tolist()
        assert first == second

    def test_step_five_tuple(self):
        env = CountingEnv(limit=2)
        env.reset()
        observation, reward, terminated, truncated, info = env.step(1)
        assert observation == 1
        assert reward == 1.0
        assert terminated is False
        assert truncated is False
        assert info == {}

    def test_context_manager_closes(self):
        with CountingEnv() as env:
            env.reset()
        # close() is a no-op but the protocol must not raise.

    def test_np_random_is_created_lazily_and_kept(self):
        env = CountingEnv()
        generator = env.np_random
        assert isinstance(generator, np.random.Generator)
        assert env.np_random is generator

    def test_reset_without_seed_keeps_the_stream(self):
        env = CountingEnv()
        env.reset(seed=3)
        first = env.np_random.integers(0, 100, 5).tolist()
        env.reset()
        second = env.np_random.integers(0, 100, 5).tolist()
        reference, _ = np_random(3)
        assert first + second == reference.integers(0, 100, 5).tolist() \
            + reference.integers(0, 100, 5).tolist()

    def test_base_step_must_be_overridden(self):
        class ResetOnlyEnv(gym.Env):
            observation_space = spaces.Discrete(1)
            action_space = spaces.Discrete(1)

        env = ResetOnlyEnv()
        assert env.reset(seed=0) == (None, {})
        with pytest.raises(NotImplementedError):
            env.step(0)

    def test_render_defaults_to_nothing(self):
        assert CountingEnv().render() is None

    def test_repr_names_the_class(self):
        assert repr(CountingEnv()) == "<CountingEnv instance>"

