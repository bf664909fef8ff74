"""The single experiment facade: run any spec as a plan of one.

:func:`run_experiment` is the one entry point behind every CLI subcommand
and the recommended Python API: it takes an
:class:`~repro.experiments.spec.ExperimentSpec`, plans it against the
spec's store (:func:`~repro.planner.plan_experiments`), executes the plan
on the spec's executor (:func:`~repro.planner.execute_plan`, the only
code that drives executors) and returns the spec's serializable
:class:`~repro.experiments.report.ExperimentReport`.

Because expansion is deterministic and every job is deterministic given
(benchmark, catalog, seed), a spec's results depend only on its
fingerprinted fields: running the same spec serially or across processes,
on a cold store or a warm one, yields identical report entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentReport
from repro.experiments.spec import ExperimentSpec

if TYPE_CHECKING:  # imported on first run: planning is not needed to import
    from repro.planner import QueryPlanner

__all__ = ["run_experiment"]


def run_experiment(spec: ExperimentSpec,
                   executor: Optional[object] = None,
                   store: Optional[object] = None,
                   on_outcome: Optional[Callable] = None,
                   planner: Optional["QueryPlanner"] = None,
                   checkpoint: Optional[object] = None) -> ExperimentReport:
    """Run one declarative experiment and return its report.

    Parameters
    ----------
    spec:
        The experiment document (see :class:`ExperimentSpec`).
    executor, store:
        Optional pre-built runtime pieces overriding the spec's
        :class:`~repro.experiments.spec.RuntimeSpec` (the CLI uses this to
        print warm-store information before running).  Results never depend
        on them.
    on_outcome:
        Optional progress callback invoked with every evaluated
        :class:`~repro.runtime.executor.JobOutcome` (exploration kinds
        only; units the store replays are not reported).
    planner:
        Optional configured :class:`~repro.planner.planner.QueryPlanner`
        (``QueryPlanner(reuse=False)`` evaluates everything the store
        would otherwise replay); defaults to the reusing planner.  The
        report is bit-identical either way.
    checkpoint:
        Optional pre-built :class:`~repro.runtime.checkpoint.CampaignCheckpoint`
        overriding the spec's journal (the spec's own
        ``checkpoint_interval``/``resume`` knobs build one by default).
        Restored jobs skip execution; results never depend on it.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ConfigurationError(
            f"run_experiment expects an ExperimentSpec, got {type(spec).__name__}"
        )
    from repro.planner import execute_plan, plan_experiments

    store = store if store is not None else spec.runtime.build_store()
    plan = plan_experiments([spec], store=store, planner=planner)
    execution = execute_plan(
        plan, store=store,
        executor=executor if executor is not None else spec.runtime.build_executor(),
        on_outcome=on_outcome,
        checkpoint=checkpoint if checkpoint is not None else spec.runtime.build_checkpoint(),
    )
    return execution.reports[spec.fingerprint()]
