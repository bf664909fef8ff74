"""Exploration-rate (epsilon) schedules for the value-based agents."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["EpsilonSchedule", "ConstantEpsilon", "LinearDecayEpsilon"]


class EpsilonSchedule(ABC):
    """Maps a step counter to the exploration probability used at that step."""

    @abstractmethod
    def value(self, step: int) -> float:
        """Epsilon at ``step`` (0-based)."""

    def __call__(self, step: int) -> float:
        epsilon = self.value(step)
        return float(min(max(epsilon, 0.0), 1.0))

    def table(self, num_steps: int) -> List[float]:
        """``[self(step) for step in range(num_steps)]``, bit for bit.

        Agents with a known horizon read epsilon from this table instead of
        calling the schedule on every step.  The bundled schedules build it
        in bulk; a subclass with its own :meth:`value` gets this loop.
        """
        return [self(step) for step in range(num_steps)]


class ConstantEpsilon(EpsilonSchedule):
    """A fixed exploration rate."""

    def __init__(self, epsilon: float = 0.1) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = float(epsilon)

    def value(self, step: int) -> float:
        return self.epsilon

    def table(self, num_steps: int) -> List[float]:
        if type(self).value is not ConstantEpsilon.value:
            return super().table(num_steps)
        return [self(0)] * num_steps

    def __repr__(self) -> str:
        return f"ConstantEpsilon({self.epsilon})"


class LinearDecayEpsilon(EpsilonSchedule):
    """Linear decay from ``start`` to ``end`` over ``decay_steps`` steps."""

    def __init__(self, start: float = 1.0, end: float = 0.05, decay_steps: int = 5000) -> None:
        if not 0.0 <= end <= start <= 1.0:
            raise ConfigurationError(
                f"epsilon bounds must satisfy 0 <= end <= start <= 1, got start={start} end={end}"
            )
        if decay_steps <= 0:
            raise ConfigurationError(f"decay_steps must be positive, got {decay_steps}")
        self.start = float(start)
        self.end = float(end)
        self.decay_steps = int(decay_steps)

    def value(self, step: int) -> float:
        if step >= self.decay_steps:
            return self.end
        fraction = step / self.decay_steps
        return self.start + fraction * (self.end - self.start)

    def table(self, num_steps: int) -> List[float]:
        if type(self).value is not LinearDecayEpsilon.value:
            return super().table(num_steps)
        # The same float64 operations, in the same order, as value(): an
        # exact quotient of two integers below 2**53, then one multiply and
        # one add, each correctly rounded; the clamp of __call__ follows.
        steps = np.arange(min(num_steps, self.decay_steps), dtype=np.float64)
        ramp = self.start + (steps / self.decay_steps) * (self.end - self.start)
        values: List[float] = np.minimum(np.maximum(ramp, 0.0), 1.0).tolist()
        return values + [self(self.decay_steps)] * (num_steps - len(values))

    def __repr__(self) -> str:
        return (
            f"LinearDecayEpsilon(start={self.start}, end={self.end}, "
            f"decay_steps={self.decay_steps})"
        )
