"""The paper's core contribution: RL-based multi-objective design-space exploration.

The package decomposes the methodology of Section II into:

* :mod:`~repro.dse.design_space` — the space of approximate versions
  (Equation 1): adder index, multiplier index, approximated-variable set;
* :mod:`~repro.dse.evaluator` — executes approximate versions and measures
  (Δacc, Δpower, Δtime) against the precise baseline;
* :mod:`~repro.dse.thresholds` — derives ``accth``, ``pth`` and ``tth`` from
  the precise run;
* :mod:`~repro.dse.reward` — Algorithm 1 plus the dense ablation variant;
* :mod:`~repro.dse.environment` — the Gym-style environment of Figure 1;
* :mod:`~repro.dse.explorer` — the exploration driver;
* :mod:`~repro.dse.results` — step traces and Table-III summaries;
* :mod:`~repro.dse.frontier` — the vectorized Pareto-frontier engine
  (:class:`ParetoArchive`) plus front-quality metrics;
* :mod:`~repro.dse.sweep` — exhaustive design-space sweeps yielding the
  ground-truth front per benchmark.
"""

from repro.dse.design_space import DesignPoint, DesignSpace
from repro.dse.environment import ACTION_SCHEMES, AxcDseEnv
from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.explorer import Explorer
from repro.dse.frontier import (
    FrontQuality,
    ParetoArchive,
    front_coverage,
    front_quality,
    hypervolume_proxy,
)
from repro.dse.results import ExplorationResult, ObjectiveSummary, StepRecord
from repro.dse.reward import Algorithm1Reward, RewardFunction, RewardOutcome, ScalarizedReward
from repro.dse.sweep import SweepChunk, SweepResult
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "Evaluator",
    "EvaluationRecord",
    "ExplorationThresholds",
    "derive_thresholds",
    "RewardFunction",
    "RewardOutcome",
    "Algorithm1Reward",
    "ScalarizedReward",
    "AxcDseEnv",
    "ACTION_SCHEMES",
    "Explorer",
    "ExplorationResult",
    "ObjectiveSummary",
    "StepRecord",
    "ParetoArchive",
    "FrontQuality",
    "front_coverage",
    "front_quality",
    "hypervolume_proxy",
    "SweepChunk",
    "SweepResult",
]
