"""The coverage model: how much of each context the store already holds.

Every evaluation the runtime performs lands in the
:class:`~repro.runtime.store.EvaluationStore` under a *context* —
``(benchmark_fingerprint, catalog_fingerprint, seed, signed)`` — plus the
design-point key within that context.  The planner asks one question per
context: is it *complete*, so that the store answers every evaluation
under it and any sweep or exploration over it is a pure replay?  A context
is complete when the count of its stored keys
(:func:`context_coverage`) equals the size of its design space.

:class:`BenchmarkResolver` memoizes the expensive part: building a
benchmark instance from its spec and fingerprinting it together with the
width-restricted default catalog (the context every spec-driven evaluator
uses).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from repro.experiments.spec import BenchmarkSpec

if TYPE_CHECKING:  # imported lazily at run time (heavy DSE stack)
    from repro.benchmarks.base import Benchmark
    from repro.runtime.store import EvaluationStore

__all__ = ["ResolvedBenchmark", "BenchmarkResolver", "context_coverage"]

#: A store context: (benchmark fingerprint, catalog fingerprint, seed, signed).
Context = Tuple[str, str, int, bool]


@dataclass(frozen=True)
class ResolvedBenchmark:
    """A built benchmark plus the context identity the planner needs."""

    benchmark: "Benchmark"
    benchmark_fingerprint: str
    catalog_fingerprint: str
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
            resolved = ResolvedBenchmark(
                benchmark=benchmark,
                benchmark_fingerprint=benchmark_fingerprint(benchmark),
                catalog_fingerprint=catalog_fingerprint(catalog),
                space_size=DesignSpace(benchmark, catalog).size,
            )
            self._cache[key] = resolved
        return resolved

    def resolve_unit(self, unit) -> ResolvedBenchmark:
        """Resolve a plan unit's benchmark from its (name, params) identity."""
        return self.resolve(BenchmarkSpec(name=unit.benchmark_name,
                                          params=json.loads(unit.benchmark_params)))


def context_coverage(store: "EvaluationStore",
                     contexts: Iterable[Context]) -> Dict[Context, int]:
    """The number of keys the store holds, per requested context.

    Reads only the requested contexts' keys from the store's per-context
    index; contexts absent from the store count 0.  Never touches the
    store's hit/miss counters.
    """
    return {context: len(store.context_keys(context)) for context in contexts}
