"""The query planner: subsumption-aware planning over the design space.

:class:`QueryPlanner` turns a batch of
:class:`~repro.experiments.spec.ExperimentSpec` documents plus an
:class:`~repro.runtime.store.EvaluationStore` into a minimal, deterministic
:class:`~repro.planner.plan.ExperimentPlan`:

1. specs are deduplicated by exact fingerprint and expanded into shared
   work units (label-free, see :mod:`repro.planner.plan`), so a superset
   campaign automatically subsumes every sub-campaign sharing its
   (benchmark, agent, seed, budget, thresholds) cells;
2. the store's coverage is computed per evaluation context
   (:mod:`repro.planner.coverage`);
3. subsumption decides replay vs. evaluate:

   * a sweep chunk whose ``[start, stop)`` indices the store materializes
     replays; overlapping sweeps (different chunk grids over one context)
     evaluate the first grid and replay the rest;
   * an exploration over a *complete* context (every design point cached)
     replays — a finished exhaustive sweep, or any finished exploration
     (the batched environment fills its whole context), therefore answers
     any explore/compare/campaign over the same benchmark + catalog + seed;
   * an exploration whose context a sweep *in this same batch* will
     complete replays with a dependency edge on that sweep's evaluate
     node;
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
from repro.planner.coverage import (
    BenchmarkResolver,
    Context,
    ResolvedBenchmark,
    context_coverage,
    covers,
)
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
        geometries: Dict[Context, ResolvedBenchmark] = {}
        #: sweep unit fingerprints per context, in first-seen order
        sweep_by_context: Dict[Context, List[str]] = {}
        explore_order: List[str] = []
        spec_bindings: List[Tuple[ExperimentSpec, List[EntryBinding]]] = []

        for spec in deduped:
            bindings: List[EntryBinding] = []
            if spec.kind == "sweep":
                self._expand_sweep(spec, resolver, units, geometries,
                                   sweep_by_context, bindings)
            else:
                self._expand_explorations(spec, resolver, units, geometries,
                                          explore_order, bindings)
            spec_bindings.append((spec, bindings))

        if store is not None and self.reuse:
            covered = context_coverage(store, geometries)
        else:
            covered = {context: frozenset() for context in geometries}
        store_records = 0 if store is None else len(store)
        store_path = None if store is None or store.path is None else str(store.path)

        nodes, unit_homes = self._assemble_nodes(
            units, geometries, sweep_by_context, explore_order, covered
        )
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
                      units: Dict[str, PlanUnit],
                      geometries: Dict[Context, ResolvedBenchmark],
                      sweep_by_context: Dict[Context, List[str]],
                      bindings: List[EntryBinding]) -> None:
        """One binding per benchmark x seed, one chunk unit per index range."""
        for bspec in spec.benchmarks:
            resolved = resolver.resolve(bspec)
            params = canonical_json(dict(bspec.params))
            for seed in spec.seeds:
                chunk_fingerprints: List[str] = []
                for start in range(0, resolved.space_size, spec.runtime.chunk_size):
                    unit = SweepChunkUnit(
                        benchmark_name=bspec.name,
                        benchmark_params=params,
                        benchmark_fingerprint=resolved.benchmark_fingerprint,
                        catalog_fingerprint=resolved.catalog_fingerprint,
                        space_size=resolved.space_size,
                        seed=seed,
                        start=start,
                        stop=min(start + spec.runtime.chunk_size,
                                 resolved.space_size),
                    )
                    fingerprint = unit.fingerprint()
                    if fingerprint not in units:
                        units[fingerprint] = unit
                        geometries[unit.context] = resolved
                        sweep_by_context.setdefault(unit.context, []).append(fingerprint)
                    chunk_fingerprints.append(fingerprint)
                bindings.append(EntryBinding(
                    kind="sweep",
                    benchmark_label=bspec.label,
                    # The built instance's name (it may encode
                    # parameters), not the registry name.
                    benchmark_name=resolved.benchmark.name,
                    seed=seed,
                    unit_fingerprints=tuple(chunk_fingerprints),
                ))

    def _expand_explorations(self, spec: ExperimentSpec,
                             resolver: BenchmarkResolver,
                             units: Dict[str, PlanUnit],
                             geometries: Dict[Context, ResolvedBenchmark],
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
                        geometries[unit.context] = resolved
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

    def _assemble_nodes(self, units: Dict[str, PlanUnit],
                        geometries: Dict[Context, ResolvedBenchmark],
                        sweep_by_context: Dict[Context, List[str]],
                        explore_order: List[str],
                        covered: Dict[Context, frozenset],
                        ) -> Tuple[List[PlanNode], Dict[str, str]]:
        """Partition units into evaluate/replay nodes; returns (nodes, homes).

        ``homes`` maps every unit fingerprint to the node executing it.
        Nodes are emitted in a valid topological order: per-context sweep
        evaluation first, then sweep replays, then exploration nodes.
        """
        nodes: List[PlanNode] = []
        unit_homes: Dict[str, str] = {}
        #: evaluate-node id completing each context within this plan
        completers: Dict[Context, str] = {}

        def emit(node: PlanNode) -> str:
            nodes.append(node)
            return node.node_id

        def next_id() -> str:
            return f"n{len(nodes) + 1}"

        for context, fingerprints in sweep_by_context.items():
            stored = covered.get(context, frozenset())
            space_size = geometries[context].space_size
            planned = set(stored)
            evaluate: List[str] = []
            replay_now: List[str] = []
            replay_after: List[str] = []
            for fingerprint in fingerprints:
                unit = units[fingerprint]
                if len(stored) >= space_size or covers(stored, unit.start, unit.stop):
                    replay_now.append(fingerprint)
                elif covers(planned, unit.start, unit.stop):
                    replay_after.append(fingerprint)
                else:
                    evaluate.append(fingerprint)
                    planned.update(range(unit.start, unit.stop))
            missing = space_size - len(stored)
            if evaluate:
                node_id = emit(EvaluateJobs(
                    node_id=next_id(), depends_on=(),
                    units=tuple(units[fp] for fp in evaluate),
                    reason=(f"sweep chunks not materialized by the store "
                            f"({missing} of {space_size} point(s) missing)"),
                ))
                completers[context] = node_id
                unit_homes.update({fp: node_id for fp in evaluate})
            if replay_now:
                node_id = emit(ReplayFromStore(
                    node_id=next_id(), depends_on=(),
                    units=tuple(units[fp] for fp in replay_now),
                    reason="sweep chunks fully materialized by the store",
                ))
                unit_homes.update({fp: node_id for fp in replay_now})
            if replay_after:
                node_id = emit(ReplayFromStore(
                    node_id=next_id(), depends_on=(completers[context],),
                    units=tuple(units[fp] for fp in replay_after),
                    reason=("overlapping sweep chunks materialized once this "
                            "plan's sweep of the same context runs"),
                ))
                unit_homes.update({fp: node_id for fp in replay_after})

        evaluate_units: List[str] = []
        replay_now_units: List[str] = []
        replay_after_units: Dict[str, List[str]] = {}
        for fingerprint in explore_order:
            unit = units[fingerprint]
            context = unit.context
            stored = covered.get(context, frozenset())
            if len(stored) >= unit.space_size:
                replay_now_units.append(fingerprint)
            elif context in sweep_by_context:
                completer = completers.get(context)
                if completer is None:  # sweep itself replays: store complete
                    replay_now_units.append(fingerprint)
                else:
                    replay_after_units.setdefault(completer, []).append(fingerprint)
            else:
                evaluate_units.append(fingerprint)
        if evaluate_units:
            node_id = emit(EvaluateJobs(
                node_id=next_id(), depends_on=(),
                units=tuple(units[fp] for fp in evaluate_units),
                reason="explorations over contexts the store does not complete",
            ))
            unit_homes.update({fp: node_id for fp in evaluate_units})
        if replay_now_units:
            node_id = emit(ReplayFromStore(
                node_id=next_id(), depends_on=(),
                units=tuple(units[fp] for fp in replay_now_units),
                reason=("explorations over store-complete contexts: every "
                        "design-point evaluation is a store hit"),
            ))
            unit_homes.update({fp: node_id for fp in replay_now_units})
        for completer, fingerprints in replay_after_units.items():
            node_id = emit(ReplayFromStore(
                node_id=next_id(), depends_on=(completer,),
                units=tuple(units[fp] for fp in fingerprints),
                reason=("explorations over contexts completed by this plan's "
                        "sweeps"),
            ))
            unit_homes.update({fp: node_id for fp in fingerprints})
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
