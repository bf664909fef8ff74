"""Agent interface and the Q-table key of the tabular methods."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Mapping, Tuple

import numpy as np

__all__ = ["Agent"]


def _state_key(observation: Mapping[str, Any]) -> Tuple:
    """The Q-table key of an observation: ``(adder, multiplier, variables)``.

    The observation's continuous deltas are dropped: with a deterministic
    evaluator they are a function of the configuration, so this is the
    smallest lossless tabular state.
    """
    variables = tuple(int(flag) for flag in np.asarray(observation["variables"]).ravel())
    return (int(observation["adder"]), int(observation["multiplier"]), variables)


class Agent(ABC):
    """Common interface of the learning agents driving the exploration."""

    #: Display name used in result metadata and reports.
    name: str = "agent"

    @abstractmethod
    def select_action(self, observation: Mapping[str, Any]) -> int:
        """Choose the next action for the given observation."""

    @abstractmethod
    def update(self, observation: Mapping[str, Any], action: int, reward: float,
               next_observation: Mapping[str, Any], terminated: bool) -> None:
        """Learn from one environment transition."""
