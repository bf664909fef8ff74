"""Reward functions for the exploration (Algorithm 1 of the paper).

:class:`Algorithm1Reward` is the paper's reward: within the tolerable
accuracy loss, a configuration earns +1 when it saves enough power *and*
time, -1 otherwise, the maximum reward ``R`` (with termination) when the
most aggressive configuration is reached, and ``-R`` when the accuracy
constraint is violated.

:class:`ScalarizedReward` is the dense multi-objective alternative used by
the reward-shaping ablation: a weighted sum of the normalised objectives.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.dse.design_space import DesignPoint, DesignSpace
from repro.dse.thresholds import ExplorationThresholds
from repro.errors import ConfigurationError
from repro.metrics.deltas import ObjectiveDeltas

__all__ = ["RewardOutcome", "RewardFunction", "Algorithm1Reward", "ScalarizedReward"]


@dataclass(frozen=True)
class RewardOutcome:
    """Reward for one step, plus the flags Algorithm 1 produces alongside it."""

    reward: float
    terminate: bool = False
    constraint_violated: bool = False


class RewardFunction(ABC):
    """Maps one evaluated design point to a reward.

    A reward function must be a pure function of its arguments: no state,
    no randomness.  The batched engine (:mod:`repro.dse.batched_env`) calls
    it once per workload and design point, when the environment fills its
    context, and replays that outcome on every visit.
    """

    @abstractmethod
    def __call__(self, point: DesignPoint, deltas: ObjectiveDeltas,
                 thresholds: ExplorationThresholds, space: DesignSpace) -> RewardOutcome:
        """Compute the reward outcome of one step."""


class Algorithm1Reward(RewardFunction):
    """The paper's reward rule (Algorithm 1).

    Parameters
    ----------
    max_reward:
        The maximum reward ``R``: granted (with termination) when the most
        aggressive configuration respects the accuracy constraint, and used
        negated when the accuracy constraint is violated.
    positive_reward, negative_reward:
        The small rewards of lines 11 and 14.
    """

    def __init__(self, max_reward: float = 100.0, positive_reward: float = 1.0,
                 negative_reward: float = -1.0) -> None:
        if max_reward <= 0:
            raise ConfigurationError(f"max_reward must be positive, got {max_reward}")
        if positive_reward <= 0:
            raise ConfigurationError(f"positive_reward must be positive, got {positive_reward}")
        if negative_reward >= 0:
            raise ConfigurationError(f"negative_reward must be negative, got {negative_reward}")
        self.max_reward = float(max_reward)
        self.positive_reward = float(positive_reward)
        self.negative_reward = float(negative_reward)

    def __call__(self, point: DesignPoint, deltas: ObjectiveDeltas,
                 thresholds: ExplorationThresholds, space: DesignSpace) -> RewardOutcome:
        if thresholds.accuracy_ok(deltas):
            most_aggressive = (
                point.adder_index == space.num_adders
                and point.multiplier_index == space.num_multipliers
                and point.all_variables_selected
            )
            if most_aggressive:
                return RewardOutcome(reward=self.max_reward, terminate=True)
            if thresholds.gains_ok(deltas):
                return RewardOutcome(reward=self.positive_reward)
            return RewardOutcome(reward=self.negative_reward)
        return RewardOutcome(reward=-self.max_reward, constraint_violated=True)

    def __repr__(self) -> str:
        return (
            f"Algorithm1Reward(max_reward={self.max_reward}, "
            f"positive_reward={self.positive_reward}, negative_reward={self.negative_reward})"
        )


class ScalarizedReward(RewardFunction):
    """Dense weighted-sum reward used by the reward-shaping ablation.

    The reward is ``w_power * Δpower/pth + w_time * Δtime/tth`` when the
    accuracy constraint holds, minus ``w_accuracy * Δacc/accth`` always, so
    the agent receives a gradient toward saving power/time while staying
    accurate instead of the sparse ±1 of Algorithm 1.
    """

    def __init__(self, weight_power: float = 1.0, weight_time: float = 1.0,
                 weight_accuracy: float = 1.0) -> None:
        if weight_power < 0 or weight_time < 0 or weight_accuracy < 0:
            raise ConfigurationError("scalarisation weights must be non-negative")
        self.weight_power = float(weight_power)
        self.weight_time = float(weight_time)
        self.weight_accuracy = float(weight_accuracy)

    def __call__(self, point: DesignPoint, deltas: ObjectiveDeltas,
                 thresholds: ExplorationThresholds, space: DesignSpace) -> RewardOutcome:
        accuracy_scale = thresholds.accuracy if thresholds.accuracy > 0 else 1.0
        power_scale = thresholds.power_mw if thresholds.power_mw > 0 else 1.0
        time_scale = thresholds.time_ns if thresholds.time_ns > 0 else 1.0

        accuracy_penalty = self.weight_accuracy * (deltas.accuracy / accuracy_scale)
        if not thresholds.accuracy_ok(deltas):
            return RewardOutcome(reward=-accuracy_penalty, constraint_violated=True)
        gain = (
            self.weight_power * (deltas.power_mw / power_scale)
            + self.weight_time * (deltas.time_ns / time_scale)
        )
        return RewardOutcome(reward=gain - accuracy_penalty)

    def __repr__(self) -> str:
        return (
            f"ScalarizedReward(weight_power={self.weight_power}, "
            f"weight_time={self.weight_time}, weight_accuracy={self.weight_accuracy})"
        )
