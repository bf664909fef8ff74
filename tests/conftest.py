"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import QLearningAgent
from repro.agents.schedules import LinearDecayEpsilon
from repro.benchmarks import DotProductBenchmark, FirBenchmark, MatMulBenchmark
from repro.dse import AxcDseEnv, Evaluator
from repro.experiments.registry import _FAMILIES, RL, AgentFamily
from repro.operators import default_catalog
from repro.runtime import AgentSpec


@pytest.fixture(scope="session")
def catalog():
    """The paper's operator catalog (Tables I and II)."""
    return default_catalog()


@pytest.fixture(scope="session")
def rng():
    """A seeded random generator for reproducible test data."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_matmul():
    """A small matrix-multiplication benchmark that keeps tests fast."""
    return MatMulBenchmark(rows=4, inner=4, cols=4)


@pytest.fixture
def small_fir():
    """A small FIR benchmark that keeps tests fast."""
    return FirBenchmark(num_samples=20, num_taps=4)


@pytest.fixture
def dot_benchmark():
    """The smallest benchmark: a 16-element dot product."""
    return DotProductBenchmark(length=16)


@pytest.fixture
def matmul_evaluator(small_matmul):
    """Evaluator over the small matmul benchmark, width-restricted as in the paper."""
    return Evaluator(small_matmul, seed=0)


@pytest.fixture
def matmul_env(small_matmul):
    """Environment over the small matmul benchmark."""
    return AxcDseEnv(small_matmul, evaluation_seed=0)


def _crash(*args):
    raise RuntimeError("boom")


@pytest.fixture
def crash_agent(monkeypatch):
    """An RL agent family whose serial and batched builders raise ``boom``.

    Registered for one test only.  Fork-started pool workers inherit the
    registry, so the process executor sees the family too.
    """
    monkeypatch.setitem(_FAMILIES, "crash", AgentFamily("crash", RL, _crash, vectorized=_crash))
    return AgentSpec("crash")


@pytest.fixture
def quick_agent(matmul_env):
    """A Q-learning agent sized for the small matmul environment."""
    return QLearningAgent(
        num_actions=matmul_env.action_space.n,
        epsilon=LinearDecayEpsilon(start=1.0, end=0.1, decay_steps=100),
        seed=0,
    )
