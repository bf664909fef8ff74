"""Reproduction of "Design Space Exploration of Approximate Computing
Techniques with a Reinforcement Learning Approach" (Saeedi, Savino,
Di Carlo — DSN 2023 / arXiv:2312.17525).

The package provides everything the paper's methodology needs, implemented
from scratch:

* :mod:`repro.operators` — behavioural models and characterisation of the
  approximate adders / multipliers (the EvoApproxLib stand-in, Tables I-II);
* :mod:`repro.instrumentation` — the execution context that redirects the
  arithmetic of selected variables to the approximate units and counts
  operations;
* :mod:`repro.benchmarks` — Matrix Multiplication, FIR and further
  approximable kernels;
* :mod:`repro.gymlite` — the Gymnasium-compatible ``Env`` base class and
  spaces the exploration environment is built on;
* :mod:`repro.dse` — the multi-objective design space, thresholds,
  Algorithm-1 reward, environment and exploration driver, plus the
  vectorized Pareto-frontier engine and exhaustive design-space sweeps;
* :mod:`repro.agents` — tabular Q-learning (the paper's agent), SARSA,
  random search, and metaheuristic baselines;
* :mod:`repro.runtime` — the campaign runtime: picklable exploration jobs,
  serial / multi-process executors, and the shared evaluation store that
  lets sweeps reuse design-point measurements across seeds and agents;
* :mod:`repro.experiments` — the declarative experiment API: serializable
  :class:`ExperimentSpec` documents (benchmarks x agents x seeds x
  thresholds x runtime), the unified agent registry naming RL agents and
  metaheuristic baselines alike, and the single :func:`run_experiment`
  facade returning a serializable :class:`ExperimentReport`;
* :mod:`repro.analysis` — trend lines, reward curves and table rendering
  used to regenerate the paper's figures and tables;
* :mod:`repro.reporting` — the paper-artifact pipeline: frozen
  :class:`ArtifactSpec` declarations bind experiment specs to typed
  renderers, and :class:`PaperPipeline` regenerates every table and figure
  incrementally into a fingerprint-keyed manifest (the ``repro-axc paper``
  command).

Quickstart::

    from repro import AxcDseEnv, QLearningAgent, explore
    from repro.benchmarks import MatMulBenchmark

    env = AxcDseEnv(MatMulBenchmark(rows=10, inner=10, cols=10))
    agent = QLearningAgent(num_actions=env.action_space.n)
    result = explore(env, agent, max_steps=2000, seed=0)
    print(result.table3_row(env.evaluator.catalog))

Declarative quickstart (the same experiment as a shareable document)::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec.from_dict({
        "kind": "campaign",
        "benchmarks": ["matmul_10x10"],
        "agents": ["q-learning", "hill-climbing"],
        "seeds": [0, 1],
        "max_steps": 2000,
    })
    report = run_experiment(spec)
    print(report.to_json())
"""

from repro.agents import QLearningAgent, RandomAgent, SarsaAgent
from repro.benchmarks import Benchmark, FirBenchmark, MatMulBenchmark
from repro.dse import (
    Algorithm1Reward,
    AxcDseEnv,
    DesignPoint,
    DesignSpace,
    ExplorationResult,
    ExplorationThresholds,
    Explorer,
    Evaluator,
    FrontQuality,
    ParetoArchive,
    SweepResult,
    explore,
    front_quality,
)
from repro.experiments import (
    BenchmarkSpec,
    CampaignSummary,
    ExperimentAgentSpec,
    ExperimentEntry,
    ExperimentReport,
    ExperimentSpec,
    RuntimeSpec,
    ThresholdSpec,
    agent_names,
    register_agent,
    run_experiment,
)
from repro.operators import OperatorCatalog, default_catalog
from repro.reporting import (
    Artifact,
    ArtifactSpec,
    PaperPipeline,
    PipelineResult,
    paper_artifacts,
)
from repro.runtime import (
    AgentSpec,
    EvaluationStore,
    ExplorationJob,
    JobOutcome,
    ProcessExecutor,
    SerialExecutor,
    SweepJob,
    execute_job,
    expand_jobs,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "AxcDseEnv",
    "Explorer",
    "explore",
    "Evaluator",
    "DesignPoint",
    "DesignSpace",
    "ExplorationResult",
    "ExplorationThresholds",
    "Algorithm1Reward",
    "QLearningAgent",
    "SarsaAgent",
    "RandomAgent",
    "Benchmark",
    "MatMulBenchmark",
    "FirBenchmark",
    "OperatorCatalog",
    "default_catalog",
    "CampaignSummary",
    "ParetoArchive",
    "FrontQuality",
    "front_quality",
    "SweepResult",
    "AgentSpec",
    "ExplorationJob",
    "SweepJob",
    "expand_jobs",
    "execute_job",
    "JobOutcome",
    "SerialExecutor",
    "ProcessExecutor",
    "EvaluationStore",
    "BenchmarkSpec",
    "ExperimentAgentSpec",
    "ThresholdSpec",
    "RuntimeSpec",
    "ExperimentSpec",
    "ExperimentEntry",
    "ExperimentReport",
    "run_experiment",
    "register_agent",
    "agent_names",
    "Artifact",
    "ArtifactSpec",
    "PaperPipeline",
    "PipelineResult",
    "paper_artifacts",
]
