"""Experiment reports: the serializable result document of one spec run.

:func:`~repro.experiments.runner.run_experiment` returns an
:class:`ExperimentReport` carrying the spec that produced it, one
:class:`ExperimentEntry` per expanded unit of work (an exploration, or one
benchmark x seed sweep), aggregate per-agent summaries, store statistics and
provenance (spec fingerprint + library version).  ``to_dict``/``to_json``
serialize everything needed to audit or re-run the experiment; the
in-memory report additionally keeps the full
:class:`~repro.dse.results.ExplorationResult` /
:class:`~repro.dse.sweep.SweepResult` objects for downstream analysis.

Entry payloads deliberately exclude timings by default: for a fixed spec,
the serial and process executors produce identical ``payload()`` sequences
— parallelism changes wall-clock, never results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["CampaignSummary", "ExperimentEntry", "ExperimentReport", "summarize"]


def _round_trip_float(value) -> float:
    return float(value)


@dataclass(frozen=True)
class ExperimentEntry:
    """One expanded unit of an experiment (exploration or per-seed sweep).

    ``agent`` is ``None`` for sweep entries (a sweep has no agent).  The
    ``metrics`` mapping is plain JSON data; ``result`` / ``sweep_result``
    keep the full in-memory objects and are excluded from equality so
    entries from different executors compare equal when their outcomes are.
    """

    benchmark_label: str
    seed: int
    agent: Optional[str]
    ok: bool
    metrics: Mapping[str, object]
    error: Optional[str] = field(default=None, compare=False)
    duration_s: float = field(default=0.0, compare=False)
    #: The job's canonical ``describe()`` identity (None for sweep entries).
    describe: Optional[str] = field(default=None, compare=False)
    result: Optional[object] = field(default=None, compare=False, repr=False)
    sweep_result: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", dict(self.metrics))

    @classmethod
    def from_outcome(cls, outcome) -> "ExperimentEntry":
        """Build an entry from one executor :class:`JobOutcome`."""
        job = outcome.job
        if not outcome.ok:
            return cls(benchmark_label=job.benchmark_label, seed=job.seed,
                       agent=job.agent.label, ok=False, metrics={},
                       error=outcome.error, duration_s=outcome.duration_s,
                       describe=job.describe())
        result = outcome.result
        best = result.best_feasible()
        front = result.front()
        solution = result.solution.deltas
        metrics = {
            "num_steps": result.num_steps,
            "terminated": bool(result.terminated),
            "truncated": bool(result.truncated),
            "solution": {
                "delta_accuracy": _round_trip_float(solution.accuracy),
                "delta_power_mw": _round_trip_float(solution.power_mw),
                "delta_time_ns": _round_trip_float(solution.time_ns),
            },
            "feasible_fraction": _round_trip_float(result.feasible_fraction()),
            "front_size": len(front),
            "best_feasible_power_mw": (
                None if best is None else _round_trip_float(best.deltas.power_mw)
            ),
        }
        return cls(benchmark_label=job.benchmark_label, seed=job.seed,
                   agent=job.agent.label, ok=True, metrics=metrics,
                   duration_s=outcome.duration_s, describe=job.describe(),
                   result=result)

    @classmethod
    def from_sweep(cls, sweep_result) -> "ExperimentEntry":
        """Build an entry from one :class:`~repro.dse.sweep.SweepResult`."""
        metrics = {
            "benchmark": sweep_result.benchmark_name,
            "benchmark_label": sweep_result.benchmark_label,
            "seed": sweep_result.seed,
            "space_size": sweep_result.space_size,
            "evaluations": sweep_result.evaluations,
            "front_size": sweep_result.front_size,
            "feasible_front_size": len(sweep_result.feasible_front()),
            "hypervolume_proxy": _round_trip_float(sweep_result.hypervolume()),
            "thresholds": {
                "accuracy": _round_trip_float(sweep_result.thresholds.accuracy),
                "power_mw": _round_trip_float(sweep_result.thresholds.power_mw),
                "time_ns": _round_trip_float(sweep_result.thresholds.time_ns),
            },
            "front": [
                {
                    "adder_index": record.point.adder_index,
                    "multiplier_index": record.point.multiplier_index,
                    "variables": list(record.point.variables),
                    "delta_accuracy": _round_trip_float(record.deltas.accuracy),
                    "delta_power_mw": _round_trip_float(record.deltas.power_mw),
                    "delta_time_ns": _round_trip_float(record.deltas.time_ns),
                }
                for record in sweep_result.front
            ],
        }
        return cls(benchmark_label=sweep_result.benchmark_label,
                   seed=sweep_result.seed, agent=None, ok=True, metrics=metrics,
                   duration_s=sweep_result.duration_s, sweep_result=sweep_result)

    def payload(self, include_timing: bool = False) -> Dict[str, object]:
        """The serializable form of this entry (executor-independent)."""
        payload: Dict[str, object] = {
            "benchmark_label": self.benchmark_label,
            "seed": self.seed,
            "agent": self.agent,
            "ok": self.ok,
            "metrics": dict(self.metrics),
        }
        if self.error is not None:
            payload["error"] = self.error
        if include_timing:
            payload["duration_s"] = self.duration_s
        return payload


@dataclass(frozen=True)
class CampaignSummary:
    """Aggregate statistics over the seeds of one benchmark.

    ``mean_front_size`` is the average size of the Pareto front each run
    discovered.  ``mean_front_coverage`` and ``mean_hypervolume_ratio``
    compare those fronts against a reference front (typically the
    ground-truth front of an exhaustive sweep) and stay ``None`` when no
    reference was supplied to :func:`summarize`.
    """

    benchmark_label: str
    runs: int
    mean_solution_power_mw: float
    mean_solution_time_ns: float
    mean_solution_accuracy: float
    mean_feasible_fraction: float
    best_feasible_power_mw: Optional[float]
    mean_front_size: float = 0.0
    mean_front_coverage: Optional[float] = None
    mean_hypervolume_ratio: Optional[float] = None


def summarize(entries: Iterable[ExperimentEntry],
              reference_fronts: Optional[Mapping[str, Sequence]] = None,
              ) -> Dict[str, CampaignSummary]:
    """Aggregate successful exploration entries per benchmark label.

    Returns ``{}`` when there are no entries.  ``reference_fronts``
    optionally maps benchmark labels to reference Pareto fronts (e.g. the
    ``front`` of a sweep report's
    :meth:`~ExperimentReport.sweep_results`); labels present there gain
    ``mean_front_coverage`` and ``mean_hypervolume_ratio`` scoring every
    run's discovered front against the reference.
    """
    import numpy as np

    from repro.dse.frontier import front_quality

    grouped: Dict[str, List[ExperimentEntry]] = {}
    for entry in entries:
        grouped.setdefault(entry.benchmark_label, []).append(entry)

    summaries: Dict[str, CampaignSummary] = {}
    for label, group in grouped.items():
        results = [entry.result for entry in group]
        solutions = [result.solution.deltas for result in results]
        best_records = (result.best_feasible() for result in results)
        best_values = [
            record.deltas.power_mw for record in best_records if record is not None
        ]
        fronts = [result.front() for result in results]
        coverage = hypervolume_ratio = None
        reference = (reference_fronts or {}).get(label)
        if reference is not None:
            qualities = [front_quality(front, reference) for front in fronts]
            coverage = float(np.mean([quality.coverage for quality in qualities]))
            hypervolume_ratio = float(
                np.mean([quality.hypervolume_ratio for quality in qualities])
            )
        summaries[label] = CampaignSummary(
            benchmark_label=label,
            runs=len(group),
            mean_solution_power_mw=float(np.mean([d.power_mw for d in solutions])),
            mean_solution_time_ns=float(np.mean([d.time_ns for d in solutions])),
            mean_solution_accuracy=float(np.mean([d.accuracy for d in solutions])),
            mean_feasible_fraction=float(
                np.mean([result.feasible_fraction() for result in results])
            ),
            best_feasible_power_mw=max(best_values) if best_values else None,
            mean_front_size=float(np.mean([len(front) for front in fronts])),
            mean_front_coverage=coverage,
            mean_hypervolume_ratio=hypervolume_ratio,
        )
    return summaries


@dataclass(frozen=True)
class ExperimentReport:
    """The full result document of one :func:`run_experiment` call."""

    spec: object  # ExperimentSpec (kept untyped to avoid an import cycle)
    entries: Tuple[ExperimentEntry, ...]
    wall_clock_s: float
    store: Mapping[str, object]
    provenance: Mapping[str, object]
    #: Memoized default summaries — rendering a report and serializing it
    #: both call :meth:`summarize`, and each summary re-extracts every
    #: trace's Pareto front; the frozen report's entries never change, so
    #: the no-reference result is computed once.
    _summaries: Optional[Dict[str, Dict[str, CampaignSummary]]] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "store", dict(self.store))
        object.__setattr__(self, "provenance", dict(self.provenance))

    # --------------------------------------------------------------- status

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def failures(self) -> Tuple[ExperimentEntry, ...]:
        return tuple(entry for entry in self.entries if not entry.ok)

    # -------------------------------------------------------------- results

    def results(self) -> List[object]:
        """The in-memory :class:`ExplorationResult`s, in expansion order."""
        return [entry.result for entry in self.entries if entry.result is not None]

    def sweep_results(self) -> List[object]:
        """The in-memory :class:`SweepResult`s, in expansion order."""
        return [entry.sweep_result for entry in self.entries
                if entry.sweep_result is not None]

    def entries_by_agent(self) -> Dict[str, List[ExperimentEntry]]:
        """Successful entries grouped by agent, in expansion order."""
        grouped: Dict[str, List[ExperimentEntry]] = {}
        for entry in self.entries:
            if entry.ok and entry.agent is not None:
                grouped.setdefault(entry.agent, []).append(entry)
        return grouped

    def summarize(self, reference_fronts: Optional[Mapping[str, Sequence]] = None,
                  ) -> Dict[str, Dict[str, CampaignSummary]]:
        """Per-agent, per-benchmark :class:`CampaignSummary` aggregates.

        ``reference_fronts`` optionally maps benchmark labels to ground
        truth fronts (see :func:`summarize`).
        """
        if reference_fronts is None and self._summaries is not None:
            return self._summaries
        summaries = {
            agent: summarize(entries, reference_fronts=reference_fronts)
            for agent, entries in self.entries_by_agent().items()
        }
        if reference_fronts is None:
            object.__setattr__(self, "_summaries", summaries)
        return summaries

    # ------------------------------------------------------------ documents

    def to_dict(self, include_timings: bool = True) -> Dict[str, object]:
        """The serializable report (timings included unless disabled)."""
        from dataclasses import asdict

        summaries = {
            agent: {label: asdict(summary) for label, summary in per_label.items()}
            for agent, per_label in self.summarize().items()
        }
        payload: Dict[str, object] = {
            "spec": self.spec.to_dict(),
            "provenance": dict(self.provenance),
            "ok": self.ok,
            "entries": [entry.payload(include_timing=include_timings)
                        for entry in self.entries],
            "summaries": summaries,
            "store": dict(self.store),
        }
        if include_timings:
            payload["wall_clock_s"] = self.wall_clock_s
        return payload

    def to_json(self, indent: int = 2, include_timings: bool = True) -> str:
        import json

        return json.dumps(self.to_dict(include_timings=include_timings),
                          indent=indent, sort_keys=True)

    def canonical_dict(self) -> Dict[str, object]:
        """The run-independent core of the report: results, nothing else.

        Two runs of the same spec produce byte-identical
        :meth:`canonical_json` documents regardless of executor, wall
        clock, retries, store traffic, or whether one of them was killed
        and resumed — which is exactly the comparison the resume and chaos
        tests make.  Everything environmental is excluded: timings, store
        statistics, provenance, and the spec's (fingerprint-neutral)
        runtime section; the spec itself is represented by its
        fingerprint, which covers every result-determining field.
        """
        from dataclasses import asdict

        summaries = {
            agent: {label: asdict(summary) for label, summary in per_label.items()}
            for agent, per_label in self.summarize().items()
        }
        return {
            "spec_fingerprint": self.spec.fingerprint(),
            "ok": self.ok,
            "entries": [entry.payload(include_timing=False)
                        for entry in self.entries],
            "summaries": summaries,
        }

    def canonical_json(self) -> str:
        """:meth:`canonical_dict` as deterministic (sorted, indented) JSON."""
        import json

        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True)
