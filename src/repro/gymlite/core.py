"""The ``Env`` base class, mirroring Gymnasium's step API."""

from __future__ import annotations

from typing import Any, Dict, Generic, Optional, Tuple, TypeVar

import numpy as np

from repro.gymlite.seeding import np_random
from repro.gymlite.spaces import Space

ObsType = TypeVar("ObsType")
ActType = TypeVar("ActType")

__all__ = ["Env"]


class Env(Generic[ObsType, ActType]):
    """Base class for environments, following the Gymnasium step API.

    Subclasses must set :attr:`observation_space` and :attr:`action_space`
    and implement :meth:`reset` and :meth:`step`.  ``step`` returns the
    five-tuple ``(observation, reward, terminated, truncated, info)``.
    """

    metadata: Dict[str, Any] = {"render_modes": []}

    observation_space: Space
    action_space: Space

    _np_random: Optional[np.random.Generator] = None

    @property
    def np_random(self) -> np.random.Generator:
        """Environment-private random generator, lazily created."""
        if self._np_random is None:
            self._np_random, _ = np_random()
        return self._np_random

    def reset(self, *, seed: Optional[int] = None,
              options: Optional[Dict[str, Any]] = None) -> Tuple[ObsType, Dict[str, Any]]:
        """Reset the environment and return ``(observation, info)``.

        Subclasses should call ``super().reset(seed=seed)`` first so the
        environment RNG is re-seeded consistently.
        """
        if seed is not None:
            self._np_random, _ = np_random(seed)
        return None, {}  # type: ignore[return-value]

    def step(self, action: ActType) -> Tuple[ObsType, float, bool, bool, Dict[str, Any]]:
        """Advance the environment by one action."""
        raise NotImplementedError

    def render(self) -> Any:
        """Render the environment (no-op by default)."""
        return None

    def close(self) -> None:
        """Release resources held by the environment (no-op by default)."""

    def __enter__(self) -> "Env[ObsType, ActType]":
        return self

    def __exit__(self, *args: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return f"<{type(self).__name__} instance>"
