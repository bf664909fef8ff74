"""Observation and action spaces mirroring ``gymnasium.spaces``.

Only the spaces the reproduction needs are implemented, but each one follows
the Gymnasium contract: ``sample`` draws a random element, ``contains``
checks membership, ``seed`` re-seeds the space's private RNG, and the space
exposes ``dtype``/``shape`` where meaningful.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict as TDict, Iterable, Optional, Tuple as TTuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gymlite.seeding import np_random

__all__ = ["Space", "Discrete", "MultiBinary", "Box", "Dict"]


class Space:
    """Base class for all spaces.

    A space describes the set of valid observations or actions.  Concrete
    subclasses implement :meth:`sample` and :meth:`contains`.
    """

    def __init__(self, shape: Optional[TTuple[int, ...]] = None, dtype: Any = None,
                 seed: Optional[int] = None) -> None:
        self._shape = None if shape is None else tuple(shape)
        self.dtype = None if dtype is None else np.dtype(dtype)
        self._np_random: Optional[np.random.Generator] = None
        if seed is not None:
            self.seed(seed)

    @property
    def shape(self) -> Optional[TTuple[int, ...]]:
        """Shape of the elements of the space, if they are arrays."""
        return self._shape

    @property
    def np_random(self) -> np.random.Generator:
        """Lazily-initialised random generator used by :meth:`sample`."""
        if self._np_random is None:
            self._np_random, _ = np_random()
        return self._np_random

    def seed(self, seed: Optional[int] = None) -> int:
        """Seed the space's random generator and return the seed used."""
        self._np_random, used = np_random(seed)
        return used

    def sample(self) -> Any:
        """Draw a uniformly random element of the space."""
        raise NotImplementedError

    def contains(self, x: Any) -> bool:
        """Return ``True`` if ``x`` is a valid element of the space."""
        raise NotImplementedError

    def __contains__(self, x: Any) -> bool:
        return self.contains(x)


class Discrete(Space):
    """A finite set of integers ``{start, ..., start + n - 1}``."""

    def __init__(self, n: int, seed: Optional[int] = None, start: int = 0) -> None:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0:
            raise ConfigurationError(f"Discrete space size must be a positive integer, got {n!r}")
        if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
            raise ConfigurationError(f"Discrete space start must be an integer, got {start!r}")
        super().__init__(shape=(), dtype=np.int64, seed=seed)
        self.n = int(n)
        self.start = int(start)

    def sample(self) -> int:
        return int(self.start + self.np_random.integers(self.n))

    def contains(self, x: Any) -> bool:
        if isinstance(x, bool):
            return False
        if isinstance(x, (int, np.integer)):
            value = int(x)
        elif isinstance(x, np.ndarray) and x.shape == () and np.issubdtype(x.dtype, np.integer):
            value = int(x)
        else:
            return False
        return self.start <= value < self.start + self.n

    def __repr__(self) -> str:
        if self.start != 0:
            return f"Discrete({self.n}, start={self.start})"
        return f"Discrete({self.n})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Discrete) and self.n == other.n and self.start == other.start


class MultiBinary(Space):
    """A fixed-length vector of independent binary values."""

    def __init__(self, n: int, seed: Optional[int] = None) -> None:
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n <= 0:
            raise ConfigurationError(f"MultiBinary size must be a positive integer, got {n!r}")
        super().__init__(shape=(int(n),), dtype=np.int8, seed=seed)
        self.n = int(n)

    def sample(self) -> np.ndarray:
        return self.np_random.integers(0, 2, size=(self.n,), dtype=np.int8)

    def contains(self, x: Any) -> bool:
        arr = np.asarray(x)
        if arr.shape != (self.n,):
            return False
        return bool(np.all((arr == 0) | (arr == 1)))

    def __repr__(self) -> str:
        return f"MultiBinary({self.n})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, MultiBinary) and self.n == other.n


class Box(Space):
    """A (possibly unbounded) box in :math:`\\mathbb{R}^n`."""

    def __init__(self, low: Any, high: Any, shape: Optional[TTuple[int, ...]] = None,
                 dtype: Any = np.float64, seed: Optional[int] = None) -> None:
        if shape is None:
            low_arr = np.asarray(low, dtype=np.float64)
            high_arr = np.asarray(high, dtype=np.float64)
            if low_arr.shape != high_arr.shape:
                raise ConfigurationError(
                    f"Box low/high shapes differ: {low_arr.shape} vs {high_arr.shape}"
                )
            shape = low_arr.shape
        shape = tuple(int(dim) for dim in shape)
        super().__init__(shape=shape, dtype=dtype, seed=seed)
        self.low = np.broadcast_to(np.asarray(low, dtype=self.dtype), shape).copy()
        self.high = np.broadcast_to(np.asarray(high, dtype=self.dtype), shape).copy()
        if np.any(self.low > self.high):
            raise ConfigurationError("Box requires low <= high element-wise")

    def sample(self) -> np.ndarray:
        low = np.where(np.isneginf(self.low), np.finfo(np.float64).min / 4, self.low)
        high = np.where(np.isposinf(self.high), np.finfo(np.float64).max / 4, self.high)
        sample = self.np_random.uniform(low=low, high=high, size=self.shape)
        return sample.astype(self.dtype)

    def contains(self, x: Any) -> bool:
        arr = np.asarray(x, dtype=np.float64)
        if arr.shape != self.shape:
            return False
        return bool(np.all(arr >= self.low) and np.all(arr <= self.high))

    def __repr__(self) -> str:
        return f"Box(low={self.low.min()}, high={self.high.max()}, shape={self.shape}, dtype={self.dtype})"

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, Box)
            and self.shape == other.shape
            and np.allclose(self.low, other.low)
            and np.allclose(self.high, other.high)
        )


class Dict(Space):
    """A dictionary of named sub-spaces (used for structured observations)."""

    def __init__(self, spaces: TDict[str, Space], seed: Optional[int] = None) -> None:
        if not spaces:
            raise ConfigurationError("Dict space requires at least one sub-space")
        for key, space in spaces.items():
            if not isinstance(space, Space):
                raise ConfigurationError(f"Dict space value for {key!r} is not a Space: {space!r}")
        super().__init__(seed=None)
        self.spaces: "OrderedDict[str, Space]" = OrderedDict(sorted(spaces.items()))
        if seed is not None:
            self.seed(seed)

    def seed(self, seed: Optional[int] = None) -> int:
        used = super().seed(seed)
        # Derive distinct but deterministic sub-seeds for each sub-space.
        sub_seeds = self.np_random.integers(0, 2**31 - 1, size=len(self.spaces))
        for space, sub_seed in zip(self.spaces.values(), sub_seeds):
            space.seed(int(sub_seed))
        return used

    def sample(self) -> "OrderedDict[str, Any]":
        return OrderedDict((key, space.sample()) for key, space in self.spaces.items())

    def contains(self, x: Any) -> bool:
        if not isinstance(x, dict) or set(x.keys()) != set(self.spaces.keys()):
            return False
        return all(space.contains(x[key]) for key, space in self.spaces.items())

    def __getitem__(self, key: str) -> Space:
        return self.spaces[key]

    def __iter__(self) -> Iterable[str]:
        return iter(self.spaces)

    def __len__(self) -> int:
        return len(self.spaces)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key}: {space!r}" for key, space in self.spaces.items())
        return f"Dict({inner})"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Dict) and self.spaces == other.spaces

