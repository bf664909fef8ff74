"""The query planner: subsumption-aware planning over the design space.

:class:`QueryPlanner` turns a batch of
:class:`~repro.experiments.spec.ExperimentSpec` documents plus an
:class:`~repro.runtime.store.EvaluationStore` into a minimal, deterministic
:class:`~repro.planner.plan.ExperimentPlan`:

1. specs are deduplicated by exact fingerprint and expanded into shared
   work units (label-free, see :mod:`repro.planner.plan`), so a superset
   campaign automatically subsumes every sub-campaign sharing its
   (benchmark, agent, seed, budget, thresholds) cells;
2. the store's coverage is counted per evaluation context
   (:mod:`repro.planner.coverage`): a context is *complete* when the store
   holds every design point of it;
3. subsumption decides replay vs. evaluate, per unit and by its context:

   * a unit over a complete context replays — a finished exhaustive sweep,
     or any finished exploration (the batched environment fills its whole
     context), therefore answers any sweep, explore, compare or campaign
     over the same benchmark + catalog + seed;
   * a sweep of an incomplete context evaluates; a sweep unit is one
     context, so sweep specs over one context share one unit;
   * an exploration whose context a sweep *in this same batch* will
     complete replays with a dependency edge on the sweeps' evaluate node;
   * everything else evaluates (partially-covered work still wins: the
     store serves every cached point at evaluation time).

The invariant: warm replay equals cold evaluation — replay re-runs the
same deterministic code against the warm store, so a spec's report is
bit-identical whatever the store answered and only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec
from repro.planner.coverage import BenchmarkResolver, Context, context_coverage
from repro.planner.plan import (
    EntryBinding,
    EvaluateJobs,
    ExperimentPlan,
    ExplorationUnit,
    MergeReports,
    PlanNode,
    PlanUnit,
    ReplayFromStore,
    SweepChunkUnit,
    canonical_json,
)

__all__ = ["QueryPlanner", "plan_experiments"]


@dataclass(frozen=True)
class QueryPlanner:
    """Plans experiment batches against an evaluation store.

    ``reuse=False`` disables the subsumption rules (every unit evaluates);
    the plan's shape is otherwise identical, which makes the flag a clean
    baseline for measuring how much the store answers.
    """

    reuse: bool = True

    # ------------------------------------------------------------- expansion

    def plan(self, specs: Sequence[ExperimentSpec],
             store: Optional[object] = None) -> ExperimentPlan:
        """Build the minimal deterministic DAG answering ``specs``."""
        deduped: List[ExperimentSpec] = []
        seen_fingerprints = set()
        for spec in specs:
            if not isinstance(spec, ExperimentSpec):
                raise ConfigurationError(
                    f"plan expects ExperimentSpec items, got {type(spec).__name__}"
                )
            fingerprint = spec.fingerprint()
            if fingerprint not in seen_fingerprints:
                seen_fingerprints.add(fingerprint)
                deduped.append(spec)

        resolver = BenchmarkResolver()
        units: Dict[str, PlanUnit] = {}
        sweep_order: List[str] = []
        explore_order: List[str] = []
        spec_bindings: List[Tuple[ExperimentSpec, List[EntryBinding]]] = []

        for spec in deduped:
            bindings: List[EntryBinding] = []
            if spec.kind == "sweep":
                self._expand_sweep(spec, resolver, units, sweep_order, bindings)
            else:
                self._expand_explorations(spec, resolver, units, explore_order,
                                          bindings)
            spec_bindings.append((spec, bindings))

        contexts = {unit.context for unit in units.values()}
        if store is not None and self.reuse:
            covered = context_coverage(store, contexts)
        else:
            covered = dict.fromkeys(contexts, 0)
        store_records = 0 if store is None else len(store)
        store_path = None if store is None or store.path is None else str(store.path)

        nodes, unit_homes = self._assemble_nodes(units, sweep_order, explore_order,
                                                 covered)
        for spec, bindings in spec_bindings:
            depends_on = sorted(
                {unit_homes[fp] for binding in bindings
                 for fp in binding.unit_fingerprints},
                key=lambda node_id: int(node_id[1:]),
            )
            nodes.append(MergeReports(
                node_id=f"n{len(nodes) + 1}",
                depends_on=tuple(depends_on),
                spec_fingerprint=spec.fingerprint(),
                spec_kind=spec.kind,
                bindings=tuple(bindings),
            ))

        return ExperimentPlan(
            specs=tuple(spec for spec, _ in spec_bindings),
            nodes=tuple(nodes),
            units=units,
            store_records=store_records,
            store_path=store_path,
        )

    def _expand_sweep(self, spec: ExperimentSpec, resolver: BenchmarkResolver,
                      units: Dict[str, PlanUnit], sweep_order: List[str],
                      bindings: List[EntryBinding]) -> None:
        """One binding, and one sweep unit, per benchmark x seed."""
        for bspec in spec.benchmarks:
            resolved = resolver.resolve(bspec)
            params = canonical_json(dict(bspec.params))
            for seed in spec.seeds:
                unit = SweepChunkUnit(
                    benchmark_name=bspec.name,
                    benchmark_params=params,
                    benchmark_fingerprint=resolved.benchmark_fingerprint,
                    catalog_fingerprint=resolved.catalog_fingerprint,
                    space_size=resolved.space_size,
                    seed=seed,
                )
                fingerprint = unit.fingerprint()
                if fingerprint not in units:
                    units[fingerprint] = unit
                    sweep_order.append(fingerprint)
                bindings.append(EntryBinding(
                    kind="sweep",
                    benchmark_label=bspec.label,
                    # The built instance's name (it may encode
                    # parameters), not the registry name.
                    benchmark_name=resolved.benchmark.name,
                    seed=seed,
                    unit_fingerprints=(fingerprint,),
                ))

    def _expand_explorations(self, spec: ExperimentSpec,
                             resolver: BenchmarkResolver,
                             units: Dict[str, PlanUnit],
                             explore_order: List[str],
                             bindings: List[EntryBinding]) -> None:
        """One binding (and one unit) per benchmark x agent x seed."""
        thresholds = canonical_json(spec.thresholds.to_dict())
        for bspec in spec.benchmarks:
            resolved = resolver.resolve(bspec)
            params = canonical_json(dict(bspec.params))
            for aspec in spec.agents:
                options = canonical_json(dict(aspec.hyperparams))
                for seed in spec.seeds:
                    unit = ExplorationUnit(
                        benchmark_name=bspec.name,
                        benchmark_params=params,
                        benchmark_fingerprint=resolved.benchmark_fingerprint,
                        catalog_fingerprint=resolved.catalog_fingerprint,
                        space_size=resolved.space_size,
                        agent_name=aspec.name,
                        agent_options=options,
                        seed=seed,
                        max_steps=spec.max_steps,
                        thresholds=thresholds,
                    )
                    fingerprint = unit.fingerprint()
                    if fingerprint not in units:
                        units[fingerprint] = unit
                        explore_order.append(fingerprint)
                    bindings.append(EntryBinding(
                        kind="exploration",
                        benchmark_label=bspec.label,
                        benchmark_name=resolved.benchmark.name,
                        seed=seed,
                        unit_fingerprints=(fingerprint,),
                        agent_name=aspec.name,
                        agent_label=aspec.label,
                    ))

    # --------------------------------------------------------- node assembly

    def _assemble_nodes(self, units: Dict[str, PlanUnit], sweep_order: List[str],
                        explore_order: List[str], covered: Dict[Context, int],
                        ) -> Tuple[List[PlanNode], Dict[str, str]]:
        """Partition units into evaluate/replay nodes; returns (nodes, homes).

        ``homes`` maps every unit fingerprint to the node executing it.
        Nodes are emitted in a valid topological order: sweeps first, then
        explorations, whose replays over a context this plan sweeps depend
        on the sweeps' evaluate node.
        """
        nodes: List[PlanNode] = []
        unit_homes: Dict[str, str] = {}

        def complete(fingerprint: str) -> bool:
            unit = units[fingerprint]
            return covered[unit.context] == unit.space_size

        def emit(kind, fingerprints: List[str], reason: str,
                 depends_on: Tuple[str, ...] = ()) -> Optional[str]:
            if not fingerprints:
                return None
            node_id = f"n{len(nodes) + 1}"
            nodes.append(kind(node_id=node_id, depends_on=depends_on,
                              units=tuple(units[fp] for fp in fingerprints),
                              reason=reason))
            unit_homes.update(dict.fromkeys(fingerprints, node_id))
            return node_id

        swept = [fp for fp in sweep_order if not complete(fp)]
        sweeper = emit(EvaluateJobs, swept,
                       "sweeps of contexts the store does not complete")
        emit(ReplayFromStore, [fp for fp in sweep_order if complete(fp)],
             "sweeps of store-complete contexts: every design-point "
             "evaluation is a store hit")

        swept_contexts = {units[fp].context for fp in swept}
        evaluate: List[str] = []
        replay_now: List[str] = []
        replay_after: List[str] = []
        for fingerprint in explore_order:
            if complete(fingerprint):
                replay_now.append(fingerprint)
            elif units[fingerprint].context in swept_contexts:
                replay_after.append(fingerprint)
            else:
                evaluate.append(fingerprint)
        emit(EvaluateJobs, evaluate,
             "explorations over contexts the store does not complete")
        emit(ReplayFromStore, replay_now,
             "explorations over store-complete contexts: every design-point "
             "evaluation is a store hit")
        if sweeper is not None:
            emit(ReplayFromStore, replay_after,
                 "explorations over contexts completed by this plan's sweeps",
                 depends_on=(sweeper,))
        return nodes, unit_homes


def plan_experiments(specs: Sequence[ExperimentSpec],
                     store: Optional[object] = None,
                     planner: Optional[QueryPlanner] = None) -> ExperimentPlan:
    """Plan a batch of experiments against a store (the planning facade).

    Returns the :class:`~repro.planner.plan.ExperimentPlan`; execute it
    with :func:`~repro.planner.execute.execute_plan`.
    """
    if planner is None:
        planner = QueryPlanner()
    elif not isinstance(planner, QueryPlanner):
        raise ConfigurationError(
            f"planner must be a QueryPlanner, got {type(planner).__name__}"
        )
    return planner.plan(specs, store=store)
