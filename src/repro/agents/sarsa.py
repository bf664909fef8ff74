"""Tabular SARSA agent (on-policy counterpart of Q-learning).

SARSA updates the Q-table towards the value of the action the policy will
actually take next, making it the natural on-policy baseline for the
Q-learning-vs-alternatives ablation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, Mapping, Optional

import numpy as np

from repro.agents.base import Agent, _state_key
from repro.agents.schedules import ConstantEpsilon, EpsilonSchedule
from repro.errors import ConfigurationError

__all__ = ["SarsaAgent"]


class SarsaAgent(Agent):
    """Epsilon-greedy tabular SARSA agent."""

    name = "sarsa"

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
        self.epsilon_schedule = (
            epsilon if isinstance(epsilon, EpsilonSchedule) else ConstantEpsilon(float(epsilon))
        )
        self._rng = np.random.default_rng(seed)
        self._q_table: Dict[Hashable, np.ndarray] = defaultdict(
            lambda: np.zeros(self.num_actions, dtype=np.float64)
        )
        self._step = 0
        self._epsilon_values: Optional[list] = None
        # Identity cache over the last two encoded observations (the
        # explorer re-encodes the same dict objects in update()).
        self._encode_cache: list = []

    @property
    def q_table(self) -> Dict[Hashable, np.ndarray]:
        """The learned Q-values, keyed by encoded state."""
        return dict(self._q_table)

    def precompute_epsilon(self, max_steps: int) -> None:
        """Tabulate the epsilon schedule for steps ``[0, max_steps]``.

        SARSA reads the schedule one step past the last selection (the
        on-policy bootstrap), hence the ``max_steps + 1`` entries.
        """
        self._epsilon_values = self.epsilon_schedule.table(int(max_steps) + 1)

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

    def _policy_action(self, state: Hashable, epsilon: float) -> int:
        if self._rng.random() < epsilon:
            return int(self._rng.integers(self.num_actions))
        values = self._q_table[state]
        best = np.flatnonzero(values == values.max())
        return int(self._rng.choice(best))

    def select_action(self, observation: Mapping[str, Any]) -> int:
        state = self._encode(observation)
        epsilon = self._epsilon_at(self._step)
        self._step += 1
        return self._policy_action(state, epsilon)

    def update(self, observation: Mapping[str, Any], action: int, reward: float,
               next_observation: Mapping[str, Any], terminated: bool) -> None:
        state = self._encode(observation)
        next_state = self._encode(next_observation)
        if terminated:
            future = 0.0
        else:
            # On-policy: bootstrap from the action the current policy would take.
            next_action = self._policy_action(next_state, self._epsilon_at(self._step))
            future = float(self._q_table[next_state][next_action])
        target = reward + self.discount * future
        current = self._q_table[state][action]
        self._q_table[state][action] = current + self.learning_rate * (target - current)

    def __repr__(self) -> str:
        return (
            f"SarsaAgent(num_actions={self.num_actions}, learning_rate={self.learning_rate}, "
            f"discount={self.discount}, epsilon={self.epsilon_schedule!r})"
        )
