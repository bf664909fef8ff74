"""The design space of approximate versions (Equation 1 of the paper).

A design point is one "approximated version" of the application: the index
of the approximate adder, the index of the approximate multiplier (both
1-based into the catalog, sorted by increasing accuracy degradation) and the
boolean vector saying which program variables are approximated.  The design
space enumerates every such combination for a given benchmark and catalog.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Tuple

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.errors import DesignSpaceError
from repro.operators.catalog import OperatorCatalog

__all__ = ["DesignPoint", "DesignSpace"]


@dataclass(frozen=True)
class DesignPoint:
    """One configuration of the approximation knobs.

    Attributes
    ----------
    adder_index:
        1-based index into the catalog's adders (1 = least degradation).
    multiplier_index:
        1-based index into the catalog's multipliers.
    variables:
        Tuple of booleans, one per benchmark variable, ``True`` meaning the
        variable's operations run on the approximate units.
    """

    adder_index: int
    multiplier_index: int
    variables: Tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.adder_index < 1 or self.multiplier_index < 1:
            raise DesignSpaceError(
                f"operator indices are 1-based, got adder={self.adder_index} "
                f"multiplier={self.multiplier_index}"
            )
        object.__setattr__(self, "variables", tuple(bool(flag) for flag in self.variables))

    # ------------------------------------------------------------- mutations

    def with_adder(self, adder_index: int) -> "DesignPoint":
        """Copy of the point with a different adder."""
        return DesignPoint(adder_index, self.multiplier_index, self.variables)

    def with_multiplier(self, multiplier_index: int) -> "DesignPoint":
        """Copy of the point with a different multiplier."""
        return DesignPoint(self.adder_index, multiplier_index, self.variables)

    def with_variable_toggled(self, position: int) -> "DesignPoint":
        """Copy of the point with one variable added to / removed from the set."""
        if not 0 <= position < len(self.variables):
            raise DesignSpaceError(
                f"variable position {position} out of range [0, {len(self.variables)})"
            )
        toggled = list(self.variables)
        toggled[position] = not toggled[position]
        return DesignPoint(self.adder_index, self.multiplier_index, tuple(toggled))

    # ------------------------------------------------------------ inspection

    @property
    def num_approximated(self) -> int:
        """Number of variables currently selected for approximation."""
        return sum(self.variables)

    @property
    def all_variables_selected(self) -> bool:
        """True when every variable is approximated."""
        return all(self.variables) and bool(self.variables)

    def variable_mask(self) -> np.ndarray:
        """The variable selection as an ``int8`` vector (for observations)."""
        return np.array([1 if flag else 0 for flag in self.variables], dtype=np.int8)

    def key(self) -> Tuple[int, int, Tuple[bool, ...]]:
        """Hashable identity of the configuration (used for caching/Q-tables)."""
        return (self.adder_index, self.multiplier_index, self.variables)

    def __str__(self) -> str:
        mask = "".join("1" if flag else "0" for flag in self.variables)
        return f"(adder={self.adder_index}, multiplier={self.multiplier_index}, variables={mask})"


@lru_cache(maxsize=16)
def _decode(num_adders: int, num_multipliers: int,
            num_variables: int) -> Tuple[DesignPoint, ...]:
    """Every point of one geometry, in enumeration order, decoded once.

    The enumeration index is ``(adder * num_multipliers + multiplier) *
    2**num_variables + mask``, where the mask's most significant bit is the
    first variable.  Points are immutable, so every space of the same
    geometry shares the tuple.
    """
    return tuple(
        DesignPoint(adder, multiplier, mask)
        for adder in range(1, num_adders + 1)
        for multiplier in range(1, num_multipliers + 1)
        for mask in itertools.product((False, True), repeat=num_variables)
    )


class DesignSpace:
    """All approximate versions reachable for one benchmark and catalog."""

    def __init__(self, benchmark: Benchmark, catalog: OperatorCatalog) -> None:
        if benchmark.num_variables == 0:
            raise DesignSpaceError(
                f"benchmark {benchmark.name!r} declares no approximable variables"
            )
        self._benchmark = benchmark
        self._catalog = catalog
        self._enumeration = _decode(catalog.num_adders, catalog.num_multipliers,
                                    benchmark.num_variables)

    # ------------------------------------------------------------ dimensions

    @property
    def benchmark(self) -> Benchmark:
        return self._benchmark

    @property
    def catalog(self) -> OperatorCatalog:
        return self._catalog

    @property
    def num_adders(self) -> int:
        return self._catalog.num_adders

    @property
    def num_multipliers(self) -> int:
        return self._catalog.num_multipliers

    @property
    def num_variables(self) -> int:
        return self._benchmark.num_variables

    @property
    def size(self) -> int:
        """Total number of design points."""
        return len(self._enumeration)

    # -------------------------------------------------------------- creation

    def initial_point(self) -> DesignPoint:
        """The least aggressive configuration: first operators, no variables."""
        return DesignPoint(1, 1, tuple(False for _ in range(self.num_variables)))

    def most_aggressive_point(self) -> DesignPoint:
        """The configuration Algorithm 1 rewards maximally: everything approximated."""
        return DesignPoint(self.num_adders, self.num_multipliers,
                           tuple(True for _ in range(self.num_variables)))

    def random_point(self, rng: np.random.Generator) -> DesignPoint:
        """A uniformly random design point."""
        variables = tuple(bool(flag) for flag in rng.integers(0, 2, size=self.num_variables))
        return DesignPoint(
            adder_index=int(rng.integers(1, self.num_adders + 1)),
            multiplier_index=int(rng.integers(1, self.num_multipliers + 1)),
            variables=variables,
        )

    # ------------------------------------------------------------ validation

    def contains(self, point: DesignPoint) -> bool:
        """True when the point indexes valid operators and variables."""
        return (
            1 <= point.adder_index <= self.num_adders
            and 1 <= point.multiplier_index <= self.num_multipliers
            and len(point.variables) == self.num_variables
        )

    def validate(self, point: DesignPoint) -> DesignPoint:
        """Return the point unchanged, raising if it is outside the space."""
        if not self.contains(point):
            raise DesignSpaceError(f"design point {point} is outside the space")
        return point

    # ----------------------------------------------------------- exploration

    def neighbors(self, point: DesignPoint) -> Iterator[DesignPoint]:
        """Every point reachable with one of the paper's three action kinds."""
        self.validate(point)
        if point.adder_index > 1:
            yield point.with_adder(point.adder_index - 1)
        if point.adder_index < self.num_adders:
            yield point.with_adder(point.adder_index + 1)
        if point.multiplier_index > 1:
            yield point.with_multiplier(point.multiplier_index - 1)
        if point.multiplier_index < self.num_multipliers:
            yield point.with_multiplier(point.multiplier_index + 1)
        for position in range(self.num_variables):
            yield point.with_variable_toggled(position)

    def enumerate(self) -> Iterator[DesignPoint]:
        """Iterate over every design point (exhaustive search support)."""
        return iter(self._enumeration)

    def point_at(self, index: int) -> DesignPoint:
        """The ``index``-th point of :meth:`enumerate`, in O(1).

        Lets sweep jobs and the batched environment address the space by
        enumeration index; every space of one geometry reads the same
        decoded tuple.
        """
        points = self._enumeration
        if not 0 <= index < len(points):
            raise DesignSpaceError(
                f"design-point index {index} out of range [0, {len(points)})"
            )
        return points[index]

    def iter_range(self, start: int, stop: int) -> Iterator[DesignPoint]:
        """Iterate over the enumeration slice ``[start, stop)`` (clamped)."""
        if start < 0:
            raise DesignSpaceError(f"range start must be non-negative, got {start}")
        return iter(self._enumeration[start:max(start, stop)])

    def __repr__(self) -> str:
        return (
            f"DesignSpace(benchmark={self._benchmark.name!r}, adders={self.num_adders}, "
            f"multipliers={self.num_multipliers}, variables={self.num_variables}, "
            f"size={self.size})"
        )
