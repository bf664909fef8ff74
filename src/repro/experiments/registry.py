"""Unified agent registry: RL agents and metaheuristic baselines by name.

The benchmark layer has had a string registry since the seed
(:mod:`repro.benchmarks.registry`); this module generalizes the pattern to
agents so every surface that names an agent — :class:`~repro.runtime.jobs.
AgentSpec`, the campaign CLI, declarative :class:`~repro.experiments.spec.
ExperimentSpec` documents — resolves through one table instead of a
hardcoded tuple.

A registered family is the only way an agent reaches the engine: every
front door names agents by family with JSON options.  Two kinds exist,
distinguished by how an exploration drives them:

* ``"rl"`` — step-loop agents (:class:`QLearningAgent`, SARSA, random).
  Each carries two builders: the serial one receives ``(environment, seed,
  max_steps, options)`` and returns the agent that
  :class:`~repro.dse.explorer.Explorer` drives through the environment;
  the vectorized one receives ``(batched_environment, seeds, max_steps,
  options)`` and returns the batched agent of
  :mod:`repro.agents.vectorized`, so every RL spec can run batched.
* ``"baseline"`` — self-driving metaheuristic explorers (hill climbing,
  simulated annealing, genetic, exhaustive) that own their search loop;
  their builder receives ``(evaluator, thresholds, seed, budget, options)``
  and returns an object whose ``run()`` yields an
  :class:`~repro.dse.results.ExplorationResult`.

Builders import their agent classes lazily, keeping this module cheap to
import from :mod:`repro.runtime.jobs` (which consults the registry for name
validation) without circular-import hazards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "RL",
    "BASELINE",
    "AgentFamily",
    "register_agent",
    "agent_family",
    "agent_names",
    "rl_agent_names",
    "baseline_agent_names",
]

#: Family kinds (see module docstring for the builder contracts).
RL = "rl"
BASELINE = "baseline"
_KINDS = (RL, BASELINE)


@dataclass(frozen=True)
class AgentFamily:
    """One registered agent family: a name, its kind, and its builder."""

    name: str
    kind: str
    builder: Callable[..., object]
    description: str = ""
    #: Hyperparameter names the builder fills with defaults when omitted
    #: (documentation for spec authors; unknown keys still surface as
    #: precise ``TypeError``-derived configuration errors at build time).
    defaults: Mapping[str, object] = field(default_factory=dict)
    #: Batched builder, required for RL families and refused for baselines:
    #: receives ``(batched_environment, seeds, max_steps, options)`` and
    #: returns a vectorized agent (:mod:`repro.agents.vectorized`) driving
    #: one episode per seed, bit-identical to the serial builder's agents.
    vectorized: Optional[Callable[..., object]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "defaults", dict(self.defaults))
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"agent family kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if (self.vectorized is not None) != (self.kind == RL):
            need = "requires" if self.kind == RL else "cannot carry"
            raise ConfigurationError(
                f"{self.kind} agent family {self.name!r} {need} a vectorized builder"
            )


_FAMILIES: Dict[str, AgentFamily] = {}


def register_agent(name: str, kind: str, builder: Callable[..., object],
                   description: str = "",
                   defaults: Mapping[str, object] = (),
                   vectorized: Optional[Callable[..., object]] = None) -> None:
    """Register an agent family under ``name`` (see module docstring).

    Parameters
    ----------
    name:
        Registry name users write in specs and ``--agents`` flags.
    kind:
        ``"rl"`` (environment step-loop agents) or ``"baseline"``
        (self-driving metaheuristics).
    builder:
        Callable constructing the agent; receives the family defaults
        merged with per-spec hyperparameter overrides.
    description:
        One-liner shown by ``repro-axc list-agents``.
    defaults:
        Hyperparameter defaults merged under any overrides.
    vectorized:
        Batched builder, required for ``"rl"`` families (see
        :class:`AgentFamily.vectorized`).
    """
    if not name:
        raise ConfigurationError("agent name must be non-empty")
    if name in _FAMILIES:
        raise ConfigurationError(f"agent {name!r} is already registered")
    _FAMILIES[name] = AgentFamily(name=name, kind=kind, builder=builder,
                                  description=description,
                                  defaults=dict(defaults) if defaults else {},
                                  vectorized=vectorized)


def agent_family(name: str) -> AgentFamily:
    """Resolve a registered agent family, with an actionable error."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown agent {name!r}; registered agents: {', '.join(_FAMILIES)}"
        ) from None


def agent_names() -> Tuple[str, ...]:
    """Every registered agent name, in registration order (RL families first)."""
    return tuple(_FAMILIES)


def rl_agent_names() -> Tuple[str, ...]:
    """Names of the step-loop (environment-driven) agent families."""
    return tuple(name for name, fam in _FAMILIES.items() if fam.kind == RL)


def baseline_agent_names() -> Tuple[str, ...]:
    """Names of the self-driving metaheuristic baseline families."""
    return tuple(name for name, fam in _FAMILIES.items() if fam.kind == BASELINE)


# ------------------------------------------------------------- RL builders


def _rl_options(environment, seed: int, options: Mapping[str, object]) -> Dict[str, object]:
    resolved = dict(options)
    resolved.setdefault("num_actions", environment.action_space.n)
    resolved.setdefault("seed", seed)
    return resolved


def _default_epsilon(max_steps: int):
    from repro.agents.schedules import LinearDecayEpsilon

    return LinearDecayEpsilon(start=1.0, end=0.05, decay_steps=max(max_steps // 2, 1))


def _build_q_learning(environment, seed: int, max_steps: int,
                      options: Mapping[str, object]):
    from repro.agents import QLearningAgent

    resolved = _rl_options(environment, seed, options)
    resolved.setdefault("epsilon", _default_epsilon(max_steps))
    agent = QLearningAgent(**resolved)
    agent.precompute_epsilon(max_steps)
    return agent


def _build_sarsa(environment, seed: int, max_steps: int,
                 options: Mapping[str, object]):
    from repro.agents import SarsaAgent

    resolved = _rl_options(environment, seed, options)
    resolved.setdefault("epsilon", _default_epsilon(max_steps))
    agent = SarsaAgent(**resolved)
    agent.precompute_epsilon(max_steps)
    return agent


def _build_random(environment, seed: int, max_steps: int,
                  options: Mapping[str, object]):
    from repro.agents import RandomAgent

    return RandomAgent(**_rl_options(environment, seed, options))


# ----------------------------------------------------- vectorized builders
#
# Batched counterparts of the RL builders: one agent driving one episode
# per seed, resolving options exactly like the serial builders so the
# per-episode RNG streams and hyperparameters match bit for bit.  The
# ``environment`` is a :class:`~repro.dse.batched_env.BatchedAxcDseEnv`.


def _vectorized_options(environment, seeds, options: Mapping[str, object]):
    resolved = dict(options)
    resolved.setdefault("num_actions", environment.num_actions)
    # The serial builder seeds every job's agent with options["seed"] when
    # given, else with the job's own seed — mirror that per episode.
    if "seed" in resolved:
        agent_seeds = [resolved.pop("seed")] * len(seeds)
    else:
        agent_seeds = list(seeds)
    return resolved, agent_seeds


def _vectorize_q_learning(environment, seeds, max_steps: int,
                          options: Mapping[str, object]):
    from repro.agents.vectorized import VectorizedQLearningAgent

    resolved, agent_seeds = _vectorized_options(environment, seeds, options)
    resolved.setdefault("epsilon", _default_epsilon(max_steps))
    return VectorizedQLearningAgent(
        num_states=environment.design_space.size, seeds=agent_seeds,
        max_steps=max_steps, **resolved,
    )


def _vectorize_sarsa(environment, seeds, max_steps: int,
                     options: Mapping[str, object]):
    from repro.agents.vectorized import VectorizedSarsaAgent

    resolved, agent_seeds = _vectorized_options(environment, seeds, options)
    resolved.setdefault("epsilon", _default_epsilon(max_steps))
    return VectorizedSarsaAgent(
        num_states=environment.design_space.size, seeds=agent_seeds,
        max_steps=max_steps, **resolved,
    )


def _vectorize_random(environment, seeds, max_steps: int,
                      options: Mapping[str, object]):
    from repro.agents.vectorized import VectorizedRandomAgent

    resolved, agent_seeds = _vectorized_options(environment, seeds, options)
    return VectorizedRandomAgent(seeds=agent_seeds, **resolved)


# ------------------------------------------------------- baseline builders


def _build_hill_climbing(evaluator, thresholds, seed: int, budget: int,
                         options: Mapping[str, object]):
    from repro.agents import HillClimbingExplorer

    resolved = dict(options)
    resolved.setdefault("max_evaluations", budget)
    resolved.setdefault("seed", seed)
    return HillClimbingExplorer(evaluator, thresholds, **resolved)


def _build_simulated_annealing(evaluator, thresholds, seed: int, budget: int,
                               options: Mapping[str, object]):
    from repro.agents import SimulatedAnnealingExplorer

    resolved = dict(options)
    resolved.setdefault("max_evaluations", budget)
    resolved.setdefault("seed", seed)
    return SimulatedAnnealingExplorer(evaluator, thresholds, **resolved)


def _build_genetic(evaluator, thresholds, seed: int, budget: int,
                   options: Mapping[str, object]):
    # The GA's budget is population_size x generations (its own defaults),
    # matching the historical ``compare`` invocation; ``max_steps`` does not
    # override it so legacy results stay bit-identical.
    from repro.agents import GeneticExplorer

    resolved = dict(options)
    resolved.setdefault("seed", seed)
    return GeneticExplorer(evaluator, thresholds, **resolved)


def _build_exhaustive(evaluator, thresholds, seed: int, budget: int,
                      options: Mapping[str, object]):
    # Exhaustive search is deterministic: the seed only affects the workload
    # (already baked into the evaluator), so it is not forwarded.
    from repro.agents import ExhaustiveExplorer

    resolved = dict(options)
    resolved.setdefault("max_evaluations", budget)
    return ExhaustiveExplorer(evaluator, thresholds, **resolved)


register_agent("q-learning", RL, _build_q_learning,
               "tabular Q-learning (the paper's agent)",
               defaults={"epsilon": "linear decay 1.0 -> 0.05 over max_steps/2"},
               vectorized=_vectorize_q_learning)
register_agent("sarsa", RL, _build_sarsa,
               "on-policy SARSA variant",
               defaults={"epsilon": "linear decay 1.0 -> 0.05 over max_steps/2"},
               vectorized=_vectorize_sarsa)
register_agent("random", RL, _build_random, "uniform random action baseline",
               vectorized=_vectorize_random)
register_agent("hill-climbing", BASELINE, _build_hill_climbing,
               "steepest-ascent hill climbing with random restarts",
               defaults={"max_evaluations": "the exploration step budget"})
register_agent("simulated-annealing", BASELINE, _build_simulated_annealing,
               "single-chain simulated annealing",
               defaults={"max_evaluations": "the exploration step budget"})
register_agent("genetic", BASELINE, _build_genetic,
               "generational genetic algorithm",
               defaults={"population_size": 16, "generations": 20})
register_agent("exhaustive", BASELINE, _build_exhaustive,
               "full design-space enumeration (ground truth on small spaces)",
               defaults={"max_evaluations": "the exploration step budget"})
