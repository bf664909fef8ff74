"""The exploration driver: one agent, one environment, one trace.

The explorer runs the agent against the environment for up to
``max_steps`` steps (10,000 in the paper), recording every step so the
analysis layer can regenerate the paper's tables and figures from the trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.dse.environment import AxcDseEnv
from repro.dse.results import ExplorationResult, TraceBuilder
from repro.errors import ExplorationError

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.agents
    from repro.agents.base import Agent

__all__ = ["Explorer", "explore"]


class Explorer:
    """Drives one agent through one environment and records the trace."""

    def __init__(self, environment: AxcDseEnv, agent: "Agent",
                 max_steps: int = 10_000) -> None:
        if max_steps <= 0:
            raise ExplorationError(f"max_steps must be positive, got {max_steps}")
        self._environment = environment
        self._agent = agent
        self._max_steps = int(max_steps)

    @property
    def environment(self) -> AxcDseEnv:
        return self._environment

    @property
    def agent(self) -> "Agent":
        return self._agent

    @property
    def max_steps(self) -> int:
        return self._max_steps

    def run(self, seed: Optional[int] = None, random_start: bool = False) -> ExplorationResult:
        """Run one exploration episode and return its full trace."""
        environment = self._environment
        agent = self._agent

        observation, info = environment.reset(
            seed=seed, options={"random_start": random_start}
        )
        agent.start_episode(observation)

        trace = TraceBuilder()
        trace.append(info["design_point"], info["deltas"], baseline=True)
        append = trace.append

        terminated = False
        truncated = False
        for _ in range(self._max_steps):
            action = agent.select_action(observation)
            next_observation, reward, terminated, truncated, info = environment.step(action)
            agent.update(observation, action, reward, next_observation, terminated)
            observation = next_observation

            append(info["design_point"], info["deltas"], int(action), float(reward),
                   bool(info["constraint_violated"]))
            if terminated or truncated:
                break

        return trace.build(
            benchmark_name=environment.evaluator.benchmark.name,
            thresholds=environment.thresholds,
            precise_cost=environment.evaluator.precise_cost,
            agent_name=agent.name,
            terminated=terminated,
            truncated=truncated,
            metadata={
                "max_steps": self._max_steps,
                "action_scheme": environment.action_scheme,
                "design_space_size": environment.design_space.size,
                "evaluations": trace.num_points,
            },
        )


def explore(environment: AxcDseEnv, agent: "Agent", max_steps: int = 10_000,
            seed: Optional[int] = None, random_start: bool = False) -> ExplorationResult:
    """Convenience wrapper: build an :class:`Explorer` and run one episode.

    Parameters
    ----------
    environment:
        The :class:`AxcDseEnv` to explore.
    agent:
        Any agent implementing the ``select_action`` / ``observe`` protocol
        (RL agents and :mod:`repro.agents.baselines` alike).
    max_steps:
        Episode budget; exploration stops earlier on termination.
    seed:
        Seed forwarded to the environment reset (None = unseeded).
    random_start:
        Start from a random design point instead of the precise baseline.

    Returns
    -------
    The :class:`~repro.dse.results.ExplorationResult` trace of the episode.
    """
    return Explorer(environment, agent, max_steps=max_steps).run(
        seed=seed, random_start=random_start
    )
