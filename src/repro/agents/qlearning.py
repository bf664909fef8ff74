"""Tabular Q-learning (the agent the paper uses).

Q-learning is a model-free, value-based, off-policy algorithm: the Q-table
stores the expected future reward of every (state, action) pair and is
updated towards the best action of the next state regardless of the action
actually taken.  Action selection is epsilon-greedy over the current
Q-values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Mapping, Optional

import numpy as np

from repro.agents.base import Agent, _state_key
from repro.agents.schedules import ConstantEpsilon, EpsilonSchedule
from repro.errors import ConfigurationError

__all__ = ["QLearningAgent"]


class QLearningAgent(Agent):
    """Epsilon-greedy tabular Q-learning agent.

    Parameters
    ----------
    num_actions:
        Size of the (discrete) action space.
    learning_rate:
        Q-table step size (alpha).
    discount:
        Future-reward discount factor (gamma).
    epsilon:
        Exploration schedule, or a float for a constant rate.
    seed:
        Seed of the agent's private random generator.
    """

    name = "q-learning"

    def __init__(self, num_actions: int, learning_rate: float = 0.1, discount: float = 0.9,
                 epsilon: Any = 0.1, seed: Optional[int] = 0) -> None:
        if num_actions <= 0:
            raise ConfigurationError(f"num_actions must be positive, got {num_actions}")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 <= discount <= 1.0:
            raise ConfigurationError(f"discount must be in [0, 1], got {discount}")

        self.num_actions = int(num_actions)
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon_schedule = self._coerce_epsilon(epsilon)
        self._rng = np.random.default_rng(seed)
        self._q_table: Dict[Hashable, np.ndarray] = defaultdict(
            lambda: np.zeros(self.num_actions, dtype=np.float64)
        )
        self._step = 0
        self._epsilon_values: Optional[list] = None
        # The explorer encodes each observation up to three times per step
        # (select, update-state, update-next-state on the same dict objects);
        # a two-slot identity cache serves the repeats.
        self._encode_cache: list = []

    @staticmethod
    def _coerce_epsilon(epsilon: Any) -> EpsilonSchedule:
        if isinstance(epsilon, EpsilonSchedule):
            return epsilon
        return ConstantEpsilon(float(epsilon))

    def precompute_epsilon(self, max_steps: int) -> None:
        """Tabulate the epsilon schedule for steps ``[0, max_steps]``.

        The schedule is a pure function of the step counter, so with a
        known episode horizon the per-step schedule call collapses to a
        list lookup — bit-identical values, no object dispatch.
        """
        self._epsilon_values = [
            self.epsilon_schedule(step) for step in range(int(max_steps) + 1)
        ]

    def _epsilon_at(self, step: int) -> float:
        values = self._epsilon_values
        if values is not None and step < len(values):
            return values[step]
        return self.epsilon_schedule(step)

    def _encode(self, observation: Mapping[str, Any]) -> Hashable:
        for entry in self._encode_cache:
            if entry[0] is observation:
                return entry[1]
        key = _state_key(observation)
        cache = self._encode_cache
        cache.insert(0, (observation, key))
        del cache[2:]
        return key

    # ------------------------------------------------------------ inspection

    @property
    def q_table(self) -> Dict[Hashable, np.ndarray]:
        """The learned Q-values, keyed by encoded state."""
        return dict(self._q_table)

    @property
    def steps_taken(self) -> int:
        """Number of actions selected so far."""
        return self._step

    def q_values(self, observation: Mapping[str, Any]) -> np.ndarray:
        """Current Q-values of the observation's state (copy)."""
        return self._q_table[_state_key(observation)].copy()

    def current_epsilon(self) -> float:
        """The exploration rate that will be used for the next action."""
        return self._epsilon_at(self._step)

    # --------------------------------------------------------------- policy

    def select_action(self, observation: Mapping[str, Any]) -> int:
        state = self._encode(observation)
        epsilon = self._epsilon_at(self._step)
        self._step += 1
        if self._rng.random() < epsilon:
            return int(self._rng.integers(self.num_actions))
        return self._greedy_action(state)

    def _greedy_action(self, state: Hashable) -> int:
        values = self._q_table[state]
        best = np.flatnonzero(values == values.max())
        return int(self._rng.choice(best))

    # -------------------------------------------------------------- learning

    def update(self, observation: Mapping[str, Any], action: int, reward: float,
               next_observation: Mapping[str, Any], terminated: bool) -> None:
        state = self._encode(observation)
        next_state = self._encode(next_observation)
        future = 0.0 if terminated else float(self._q_table[next_state].max())
        target = reward + self.discount * future
        current = self._q_table[state][action]
        self._q_table[state][action] = current + self.learning_rate * (target - current)

    def __repr__(self) -> str:
        return (
            f"QLearningAgent(num_actions={self.num_actions}, learning_rate={self.learning_rate}, "
            f"discount={self.discount}, epsilon={self.epsilon_schedule!r})"
        )
