"""The coverage model: what the store already materializes, by design point.

Every evaluation the runtime performs lands in the
:class:`~repro.runtime.store.EvaluationStore` under a *context* —
``(benchmark_fingerprint, catalog_fingerprint, seed, signed)`` — plus the
design-point key within that context.  The planner's questions are set
questions over those contexts:

* which enumeration indices of a context's design space does the store
  hold (:func:`context_coverage`)?
* is a context *complete* — does the store answer every possible
  evaluation under it, making any exploration over it a pure replay?
* which indices of a sweep chunk's ``[start, stop)`` range are missing?

:class:`BenchmarkResolver` memoizes the expensive part: building a
benchmark instance from its spec and fingerprinting it together with the
width-restricted default catalog (the context every spec-driven evaluator
uses).  :func:`point_index` inverts
:meth:`~repro.dse.design_space.DesignSpace.point_at`, mapping a stored
design-point key back to its enumeration index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.experiments.spec import BenchmarkSpec

if TYPE_CHECKING:  # imported lazily at run time (heavy DSE stack)
    from repro.benchmarks.base import Benchmark
    from repro.runtime.store import EvaluationStore

__all__ = ["ResolvedBenchmark", "BenchmarkResolver", "point_index",
           "context_coverage", "covers"]

#: A store context: (benchmark fingerprint, catalog fingerprint, seed, signed).
Context = Tuple[str, str, int, bool]


@dataclass(frozen=True)
class ResolvedBenchmark:
    """A built benchmark plus the context geometry the planner needs."""

    benchmark: "Benchmark"
    benchmark_fingerprint: str
    catalog_fingerprint: str
    num_adders: int
    num_multipliers: int
    num_variables: int
    space_size: int


class BenchmarkResolver:
    """Memoized ``BenchmarkSpec -> ResolvedBenchmark`` construction.

    Keyed by (registry name, canonical parameter JSON) — *not* by label —
    so differently-labelled spellings of one configuration build and
    fingerprint the benchmark exactly once per plan.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, str], ResolvedBenchmark] = {}

    def resolve(self, spec: BenchmarkSpec) -> ResolvedBenchmark:
        key = (spec.name, json.dumps(dict(spec.params), sort_keys=True,
                                     separators=(",", ":")))
        resolved = self._cache.get(key)
        if resolved is None:
            from repro.dse.design_space import DesignSpace
            from repro.operators.catalog import default_catalog
            from repro.runtime.store import benchmark_fingerprint, catalog_fingerprint

            benchmark = spec.build()
            # The same restriction every spec-driven evaluator applies
            # (AxcDseEnv and SweepJob both default to
            # restrict_to_benchmark_widths=True).
            catalog = default_catalog().restrict_widths(
                benchmark.add_width, benchmark.mul_width
            )
            space = DesignSpace(benchmark, catalog)
            resolved = ResolvedBenchmark(
                benchmark=benchmark,
                benchmark_fingerprint=benchmark_fingerprint(benchmark),
                catalog_fingerprint=catalog_fingerprint(catalog),
                num_adders=space.num_adders,
                num_multipliers=space.num_multipliers,
                num_variables=space.num_variables,
                space_size=space.size,
            )
            self._cache[key] = resolved
        return resolved

    def resolve_unit(self, unit) -> ResolvedBenchmark:
        """Resolve a plan unit's benchmark from its (name, params) identity."""
        return self.resolve(BenchmarkSpec(name=unit.benchmark_name,
                                          params=json.loads(unit.benchmark_params)))


def point_index(point: Tuple[int, int, Tuple[bool, ...]],
                num_multipliers: int, num_variables: int) -> int:
    """Enumeration index of a stored design-point key.

    Inverts :meth:`~repro.dse.design_space.DesignSpace.point_at`: the
    enumeration is adder-major, then multiplier, then the variable mask
    read MSB-first.
    """
    adder, multiplier, variables = point
    mask_value = 0
    for flag in variables:
        mask_value = (mask_value << 1) | (1 if flag else 0)
    combinations = 1 << num_variables
    return ((adder - 1) * num_multipliers + (multiplier - 1)) * combinations + mask_value


def context_coverage(store: "EvaluationStore",
                     geometries: Mapping[Context, ResolvedBenchmark],
                     ) -> Dict[Context, FrozenSet[int]]:
    """Enumeration indices the store holds, per requested context.

    Reads only the requested contexts' keys from the store's per-context
    index; contexts absent from the store map to an empty set.  Never
    touches the store's hit/miss counters.
    """
    return {
        context: frozenset(
            point_index(key.point, geometry.num_multipliers, geometry.num_variables)
            for key in store.context_keys(context)
        )
        for context, geometry in geometries.items()
    }


def covers(indices: Iterable[int], start: int, stop: int) -> bool:
    """Whether ``indices`` contains every enumeration index in ``[start, stop)``."""
    present = indices if isinstance(indices, (set, frozenset)) else set(indices)
    return all(index in present for index in range(start, stop))
