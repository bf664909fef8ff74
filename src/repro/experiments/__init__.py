"""Declarative experiment API: serializable specs, one registry, one runner.

The paper's evaluation is a matrix — benchmarks x agents x seeds x
thresholds — and this package makes that matrix a *document*:

* :mod:`~repro.experiments.spec` — frozen, JSON-round-trippable
  specifications (:class:`BenchmarkSpec`, :class:`ExperimentAgentSpec`,
  :class:`ThresholdSpec`, :class:`RuntimeSpec`, composed into one
  :class:`ExperimentSpec`) with validation, dotted ``key=value`` overrides
  and a stable content :meth:`~ExperimentSpec.fingerprint`;
* :mod:`~repro.experiments.registry` — the unified agent registry: RL
  agents *and* the metaheuristic baselines addressable by name, shared by
  :class:`~repro.runtime.jobs.AgentSpec`, the CLI and the specs;
* :mod:`~repro.experiments.runner` — :func:`run_experiment`, the single
  facade running any spec as a plan of one on the jobs/executor/store
  runtime;
* :mod:`~repro.experiments.report` — :class:`ExperimentReport`, the
  serializable result document (spec + provenance + per-entry results +
  aggregate :class:`CampaignSummary` statistics).

A serialized spec fully reconstructs the experiment: what you queue, shard,
cache-key and audit is the document, not a pile of keyword arguments.

This ``__init__`` resolves its exports lazily (PEP 562) so that light
submodules (the agent registry, consulted by :mod:`repro.runtime.jobs`)
can be imported without dragging in the whole DSE stack mid-bootstrap.
"""

from __future__ import annotations

from typing import Tuple

_EXPORTS = {
    "BenchmarkSpec": "repro.experiments.spec",
    "ExperimentAgentSpec": "repro.experiments.spec",
    "ThresholdSpec": "repro.experiments.spec",
    "RuntimeSpec": "repro.experiments.spec",
    "ExperimentSpec": "repro.experiments.spec",
    "EXPERIMENT_KINDS": "repro.experiments.spec",
    "apply_overrides": "repro.experiments.spec",
    "AgentFamily": "repro.experiments.registry",
    "register_agent": "repro.experiments.registry",
    "agent_family": "repro.experiments.registry",
    "agent_names": "repro.experiments.registry",
    "rl_agent_names": "repro.experiments.registry",
    "baseline_agent_names": "repro.experiments.registry",
    "run_experiment": "repro.experiments.runner",
    "ExperimentEntry": "repro.experiments.report",
    "ExperimentReport": "repro.experiments.report",
    "CampaignSummary": "repro.experiments.report",
}

__all__: Tuple[str, ...] = tuple(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
