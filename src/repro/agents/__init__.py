"""Learning agents and baseline explorers for the design-space exploration."""

from repro.agents.base import Agent
from repro.agents.baselines import (
    ExhaustiveExplorer,
    GeneticExplorer,
    HillClimbingExplorer,
    SimulatedAnnealingExplorer,
)
from repro.agents.qlearning import QLearningAgent
from repro.agents.random_agent import RandomAgent
from repro.agents.sarsa import SarsaAgent
from repro.agents.schedules import (
    ConstantEpsilon,
    EpsilonSchedule,
    LinearDecayEpsilon,
)

__all__ = [
    "Agent",
    "QLearningAgent",
    "SarsaAgent",
    "RandomAgent",
    "EpsilonSchedule",
    "ConstantEpsilon",
    "LinearDecayEpsilon",
    "SimulatedAnnealingExplorer",
    "GeneticExplorer",
    "HillClimbingExplorer",
    "ExhaustiveExplorer",
]
