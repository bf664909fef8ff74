"""Plan execution: the only code that runs the executors.

:func:`execute_plan` runs an :class:`~repro.planner.plan.ExperimentPlan`;
every experiment, planned alone by
:func:`~repro.experiments.runner.run_experiment` or in a batch, goes
through it:

* the units of every :class:`~repro.planner.plan.EvaluateJobs` node run in
  one executor call, against the shared store — this is the paid work, and
  the store receives every new evaluation (merge-back is the executors'
  existing contract).  Evaluate nodes never have dependencies, so one
  dispatch keeps every worker of a process executor busy.  Consecutive
  exploration units of one spec that differ only in seed batch through
  :func:`~repro.runtime.jobs.expand_jobs` at the spec's
  :meth:`~repro.experiments.spec.RuntimeSpec.effective_batch_size`;
* :class:`~repro.planner.plan.ReplayFromStore` nodes then re-run the same
  deterministic job code, one job per unit on the serial executor, against
  the now-warm store, so every design-point evaluation is a store hit: a
  replayed sweep chunk is store lookups, and a replayed exploration runs
  no kernel but still steps its agent, as a one-episode batch on the
  batched engine like any one-seed job.  Every exploration leaves its
  context complete in the store, so a later unit over that context always
  replays; replays therefore consult the checkpoint journal too, and a
  journaled unit is restored instead of re-stepped;
* :class:`~repro.planner.plan.MergeReports` nodes assemble one spec's
  :class:`~repro.experiments.report.ExperimentReport` from the shared unit
  outcomes, re-attaching the spec's own benchmark/agent labels.

Warm replay equals cold evaluation: a report's entries never depend on
which units replayed — see ``tests/test_planner.py``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ExplorationError
from repro.experiments.report import ExperimentEntry, ExperimentReport
from repro.experiments.spec import ExperimentSpec, ThresholdSpec
from repro.planner.coverage import BenchmarkResolver
from repro.planner.plan import (
    EntryBinding,
    EvaluateJobs,
    ExperimentPlan,
    MergeReports,
    PlanUnit,
    ReplayFromStore,
    SweepChunkUnit,
)

__all__ = ["PlanExecution", "execute_plan"]


@dataclass
class PlanExecution:
    """What executing a plan produced: per-spec reports plus reuse counters."""

    plan: ExperimentPlan
    #: One report per planned spec, keyed by the spec's exact fingerprint.
    reports: Dict[str, ExperimentReport] = field(default_factory=dict)
    stats_before: Optional[object] = None  # StoreStats at execution start
    stats_after: Optional[object] = None  # StoreStats at execution end
    wall_clock_s: float = 0.0

    @property
    def new_evaluations(self) -> int:
        """Design points actually evaluated (store misses) by this execution."""
        if self.stats_before is None or self.stats_after is None:
            return 0
        return self.stats_after.misses - self.stats_before.misses


def _build_job(unit: PlanUnit, resolver: BenchmarkResolver,
               label: str, agent_label: str):
    """The runtime job computing ``unit`` under a spec's labels."""
    from repro.runtime.jobs import AgentSpec, ExplorationJob, SweepJob

    resolved = resolver.resolve_unit(unit)
    if isinstance(unit, SweepChunkUnit):
        return SweepJob(
            benchmark_label=label,
            benchmark=resolved.benchmark,
            seed=unit.seed,
            start=unit.start,
            stop=unit.stop,
        )
    thresholds = ThresholdSpec.from_dict(json.loads(unit.thresholds))
    return ExplorationJob(
        benchmark_label=label,
        benchmark=resolved.benchmark,
        seed=unit.seed,
        agent=AgentSpec(unit.agent_name, options=json.loads(unit.agent_options),
                        label=agent_label),
        max_steps=unit.max_steps,
        env_kwargs=thresholds.env_kwargs(),
    )


#: Each unit's first binding, with its spec's index in ``plan.specs``.
FirstBindings = Dict[str, Tuple[int, EntryBinding]]


def _first_bindings(plan: ExperimentPlan) -> FirstBindings:
    """Where each unit is first bound: its jobs run under that spec's labels."""
    positions = {spec.fingerprint(): index for index, spec in enumerate(plan.specs)}
    first: FirstBindings = {}
    for node in plan.merge_nodes:
        for binding in node.bindings:
            for fingerprint in binding.unit_fingerprints:
                first.setdefault(fingerprint,
                                 (positions[node.spec_fingerprint], binding))
    return first


def _job_for(unit: PlanUnit, resolver: BenchmarkResolver, first: FirstBindings):
    """The job computing ``unit`` under its first binding's labels."""
    _, binding = first[unit.fingerprint()]
    return _build_job(unit, resolver, binding.benchmark_label, binding.agent_label)


def _batched_jobs(units: Sequence[PlanUnit], plan: ExperimentPlan,
                  resolver: BenchmarkResolver, first: FirstBindings) -> List[object]:
    """The jobs computing ``units``, in order; seed runs batch per spec.

    Consecutive exploration units of one owning spec that differ only in
    seed expand together through :func:`~repro.runtime.jobs.expand_jobs`
    at that spec's batch size, so a one-spec plan dispatches exactly the
    job list the spec's definition expands to.
    """
    from repro.runtime.jobs import expand_jobs

    def run_key(unit: PlanUnit) -> Tuple[object, ...]:
        if isinstance(unit, SweepChunkUnit):
            return (unit,)  # every chunk is its own job
        return (first[unit.fingerprint()][0], dataclasses.replace(unit, seed=0))

    jobs: List[object] = []
    for _, group in groupby(units, key=run_key):
        run = list(group)
        template = _job_for(run[0], resolver, first)
        if isinstance(run[0], SweepChunkUnit):
            jobs.append(template)
            continue
        runtime = plan.specs[first[run[0].fingerprint()][0]].runtime
        jobs.extend(expand_jobs(
            {template.benchmark_label: template.benchmark}, template.agent,
            seeds=[unit.seed for unit in run], max_steps=template.max_steps,
            env_kwargs=template.env_kwargs,
            batch_size=runtime.effective_batch_size(len(run)),
        ))
    return jobs


def _record(units: Sequence[PlanUnit], results: Sequence[object],
            outcomes: Dict[str, object]) -> None:
    """Key executor outcomes by the units they computed."""
    from repro.runtime.executor import flatten_outcomes

    # Batched jobs cover consecutive units in seed order, so the flattened
    # outcomes line up with the units one to one.
    for unit, outcome in zip(units, flatten_outcomes(results)):
        outcomes[unit.fingerprint()] = outcome


def _explorations_only(on_outcome: Optional[Callable]) -> Optional[Callable]:
    """Forward exploration outcomes only: sweep chunks are not progress events."""
    if on_outcome is None:
        return None
    from repro.runtime.jobs import SweepJob

    def forward(outcome) -> None:
        if not isinstance(outcome.job, SweepJob):
            on_outcome(outcome)

    return forward


def _sweep_entry(binding: EntryBinding, plan: ExperimentPlan,
                 spec: ExperimentSpec, outcomes: Dict[str, object],
                 wall_clock_s: float) -> ExperimentEntry:
    """Assemble one benchmark x seed sweep entry from its chunk outcomes."""
    from repro.dse.frontier import ParetoArchive
    from repro.dse.sweep import SweepResult

    chunks = [outcomes[fingerprint].result
              for fingerprint in binding.unit_fingerprints]
    archive = ParetoArchive()
    for chunk in chunks:  # ascending chunk order
        archive.add_many(chunk.front)
    first = chunks[0]
    result = SweepResult(
        benchmark_label=binding.benchmark_label,
        benchmark_name=binding.benchmark_name,
        seed=binding.seed,
        space_size=first.space_size,
        evaluations=sum(chunk.evaluated for chunk in chunks),
        front=archive.front(),
        thresholds=first.thresholds,
        precise_cost=first.precise_cost,
        duration_s=sum(outcomes[fingerprint].duration_s
                       for fingerprint in binding.unit_fingerprints),
        metadata={"chunks": len(chunks), "chunk_size": spec.runtime.chunk_size,
                  "sweep_wall_clock_s": wall_clock_s},
    )
    return ExperimentEntry.from_sweep(result)


def _check_sweep_failures(node: MergeReports, plan: ExperimentPlan,
                          outcomes: Dict[str, object]) -> None:
    """Raise once every chunk ran if any chunk of the spec failed."""
    failed: List[Tuple[SweepChunkUnit, object, str]] = []
    total = 0
    for binding in node.bindings:
        for fingerprint in binding.unit_fingerprints:
            total += 1
            outcome = outcomes[fingerprint]
            if not outcome.ok:
                unit = plan.units[fingerprint]
                describe = (f"{binding.benchmark_label}"
                            f"[sweep {unit.start}:{unit.stop}, seed={unit.seed}]")
                failed.append((unit, outcome, describe))
    if failed:
        details = "\n".join(
            f"  {describe}:\n{outcome.error}" for _, outcome, describe in failed
        )
        raise ExplorationError(
            f"{len(failed)} of {total} sweep chunk(s) failed:\n{details}"
        )


def _merge_report(node: MergeReports, plan: ExperimentPlan, store, executor,
                  resolver: BenchmarkResolver, outcomes: Dict[str, object],
                  wall_clock_s: float) -> ExperimentReport:
    """Build one spec's report from the shared unit outcomes."""
    from repro.runtime.executor import JobOutcome

    spec = next(s for s in plan.specs if s.fingerprint() == node.spec_fingerprint)
    entries: List[ExperimentEntry] = []
    if node.spec_kind == "sweep":
        _check_sweep_failures(node, plan, outcomes)
        for binding in node.bindings:
            entries.append(_sweep_entry(binding, plan, spec, outcomes,
                                        wall_clock_s))
    else:
        for binding in node.bindings:
            outcome = outcomes[binding.unit_fingerprints[0]]
            # Re-attach the spec's own labels: a shared unit ran under the
            # labels of the first spec binding it.
            labeled_job = _build_job(plan.units[binding.unit_fingerprints[0]],
                                     resolver, binding.benchmark_label,
                                     binding.agent_label)
            entries.append(ExperimentEntry.from_outcome(JobOutcome(
                job=labeled_job, result=outcome.result, error=outcome.error,
                duration_s=outcome.duration_s,
            )))

    import repro

    stats = store.stats
    return ExperimentReport(
        spec=spec,
        entries=tuple(entries),
        wall_clock_s=wall_clock_s,
        store={
            "size": len(store),
            "hits": stats.hits,
            "misses": stats.misses,
            "lookups": stats.lookups,
            "hit_rate": stats.hit_rate,
            "path": None if store.path is None else str(store.path),
        },
        provenance={
            "fingerprint": spec.fingerprint(),
            "repro_version": repro.__version__,
            "executor": type(executor).__name__,
        },
    )


def execute_plan(plan: ExperimentPlan,
                 store: Optional[object] = None,
                 executor: Optional[object] = None,
                 on_outcome: Optional[Callable] = None,
                 checkpoint: Optional[object] = None) -> PlanExecution:
    """Execute a plan and return per-spec reports plus reuse counters.

    Parameters
    ----------
    plan:
        The DAG from :func:`~repro.planner.planner.plan_experiments`.  The
        store passed here should be the one the plan was computed against —
        replay decisions assume its coverage.
    store, executor:
        Runtime pieces; default to an in-memory store and the serial
        executor.  ``executor`` runs the units of every
        :class:`EvaluateJobs` node, in one call; replay always runs on the
        serial executor (it runs no kernel: sweep chunks are store
        lookups, explorations step their agent on the warm store).
    on_outcome:
        Optional progress callback for evaluated exploration outcomes (a
        batched job reports once, with its batched outcome); sweep chunks
        and replays are not reported.
    checkpoint:
        Optional :class:`~repro.runtime.checkpoint.CampaignCheckpoint`
        applied to :class:`EvaluateJobs` and :class:`ReplayFromStore` nodes
        alike: journaled units are restored instead of run, and finished
        ones are journaled.  A replayed exploration runs no kernel but
        still steps its agent, so a journaled one is worth restoring.
    """
    if not isinstance(plan, ExperimentPlan):
        raise ConfigurationError(
            f"execute_plan expects an ExperimentPlan, got {type(plan).__name__}"
        )
    from repro.runtime.executor import SerialExecutor
    from repro.runtime.store import EvaluationStore

    store = store if store is not None else EvaluationStore()
    executor = executor if executor is not None else SerialExecutor()
    replayer = SerialExecutor()
    resolver = BenchmarkResolver()
    first = _first_bindings(plan)

    execution = PlanExecution(plan=plan, stats_before=store.stats)
    outcomes: Dict[str, object] = {}
    started = time.perf_counter()
    # Evaluate nodes never depend on anything, so their units all run
    # first, in one executor call; every later node only reads their
    # outcomes.
    paid = [unit for node in plan.evaluate_nodes for unit in node.units]
    if paid:
        results = executor.run(_batched_jobs(paid, plan, resolver, first),
                               store=store,
                               on_outcome=_explorations_only(on_outcome),
                               checkpoint=checkpoint)
        _record(paid, results, outcomes)
    for node in plan.nodes:
        if isinstance(node, ReplayFromStore):
            jobs = [_job_for(unit, resolver, first) for unit in node.units]
            _record(node.units,
                    replayer.run(jobs, store=store, checkpoint=checkpoint), outcomes)
        elif isinstance(node, MergeReports):
            wall_clock_s = time.perf_counter() - started
            execution.reports[node.spec_fingerprint] = _merge_report(
                node, plan, store, executor, resolver, outcomes, wall_clock_s
            )
        elif not isinstance(node, EvaluateJobs):  # pragma: no cover
            raise ConfigurationError(
                f"plan node {node.node_id} has unknown kind {type(node).__name__}"
            )
    store.flush()
    execution.stats_after = store.stats
    execution.wall_clock_s = time.perf_counter() - started
    return execution
