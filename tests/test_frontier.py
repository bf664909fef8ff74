"""Tests for the vectorized frontier engine and front-quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import RandomAgent
from repro.benchmarks import available, create
from repro.dse import (
    AxcDseEnv,
    Explorer,
    FrontQuality,
    ParetoArchive,
    front_coverage,
    front_quality,
    hypervolume_proxy,
)
from repro.dse.design_space import DesignPoint
from repro.dse.results import StepRecord
from repro.metrics import ObjectiveDeltas

from _frontier_oracle import pareto_front_bruteforce


def _record(step, accuracy, power, time, adder=None, multiplier=1):
    return StepRecord(
        step=step,
        action=None,
        point=DesignPoint(adder if adder is not None else step + 1, multiplier, ()),
        deltas=ObjectiveDeltas(accuracy=accuracy, power_mw=power, time_ns=time),
        reward=0.0,
        cumulative_reward=0.0,
    )


def _random_trace(rng, num_steps, key_space=None, decimals=None):
    """Random records; small key spaces force duplicates, rounding forces ties."""
    records = []
    for step in range(num_steps):
        accuracy, power, time = rng.random(3)
        if decimals is not None:
            accuracy, power, time = (
                round(accuracy, decimals), round(power, decimals), round(time, decimals)
            )
        key = step if key_space is None else int(rng.integers(0, key_space))
        records.append(_record(step, accuracy, power, time, adder=key + 1))
    return records


class TestParetoArchive:
    @pytest.mark.parametrize("num_steps,key_space,decimals", [
        (1, None, None),
        (40, None, None),
        (200, 60, None),      # duplicate design points
        (200, None, 1),       # duplicate objective vectors (exact ties)
        (300, 40, 1),         # both at once
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force_bit_identically(self, seed, num_steps, key_space, decimals):
        rng = np.random.default_rng(seed)
        records = _random_trace(rng, num_steps, key_space=key_space, decimals=decimals)
        expected = pareto_front_bruteforce(records)
        batch = ParetoArchive(records).front()
        incremental = ParetoArchive()
        for record in records:
            incremental.add(record)
        # Same record objects, same (first-occurrence) order — not just equal.
        assert [id(r) for r in batch] == [id(r) for r in expected]
        assert [id(r) for r in incremental.front()] == [id(r) for r in expected]

    def test_empty_archive(self):
        archive = ParetoArchive()
        assert len(archive) == 0
        assert archive.front() == []
        assert archive.front_points() == []
        assert archive.matrix().shape == (0, 3)

    def test_dominated_insert_is_rejected(self):
        archive = ParetoArchive([_record(0, 1.0, 10.0, 10.0)])
        assert not archive.add(_record(1, 2.0, 5.0, 5.0))
        assert len(archive) == 1

    def test_dominating_insert_evicts(self):
        archive = ParetoArchive([_record(0, 2.0, 5.0, 5.0), _record(1, 1.0, 4.0, 4.0)])
        assert archive.add(_record(2, 0.5, 20.0, 20.0))
        assert [record.step for record in archive.front()] == [2]

    def test_exact_ties_all_stay(self):
        tied = [_record(0, 1.0, 5.0, 5.0), _record(1, 1.0, 5.0, 5.0)]
        archive = ParetoArchive(tied)
        assert len(archive) == 2

    def test_duplicate_design_point_first_occurrence_wins(self):
        first = _record(0, 1.0, 5.0, 5.0, adder=3)
        shadow = _record(1, 0.0, 50.0, 50.0, adder=3)  # same point, better values
        archive = ParetoArchive([first, shadow])
        assert archive.front() == [first]
        assert archive.seen == 1

    def test_add_many_returns_front_growth(self):
        archive = ParetoArchive()
        assert archive.add_many([_record(0, 1.0, 5.0, 5.0), _record(1, 2.0, 1.0, 1.0)]) == 1
        assert archive.add_many([_record(2, 0.5, 9.0, 9.0)]) == 1
        assert len(archive) == 1  # the new point evicted the old front

    def test_streaming_equals_batch_on_exploration_trace(self, matmul_env):
        agent = RandomAgent(num_actions=matmul_env.action_space.n, seed=0)
        result = Explorer(matmul_env, agent, max_steps=60).run(seed=0)
        streamed = ParetoArchive()
        for record in result.records:
            streamed.add(record)
        assert streamed.front() == ParetoArchive(result.records).front()

    @pytest.mark.parametrize("name", sorted(available()))
    def test_bit_identical_on_every_benchmark_trace(self, name):
        environment = AxcDseEnv(create(name), evaluation_seed=0)
        agent = RandomAgent(num_actions=environment.action_space.n, seed=0)
        result = Explorer(environment, agent, max_steps=50).run(seed=0)
        expected = pareto_front_bruteforce(result.records)
        actual = ParetoArchive(result.records).front()
        assert [id(r) for r in actual] == [id(r) for r in expected]
        # result.front() scores only the agent's own steps (baseline excluded).
        assert result.front() == pareto_front_bruteforce(result.scored_records())
        assert result.front(include_baseline=True) == expected


class TestFrontQuality:
    def test_hypervolume_empty_front_is_zero(self):
        assert hypervolume_proxy([]) == 0.0

    def test_hypervolume_grows_with_new_nondominated_point(self):
        front = [_record(0, 1.0, 5.0, 5.0), _record(1, 3.0, 9.0, 9.0)]
        reference = (5.0, 0.0, 0.0)
        base = hypervolume_proxy(front, reference=reference)
        extended = hypervolume_proxy(front + [_record(2, 0.5, 2.0, 2.0)],
                                     reference=reference)
        assert extended > base

    def test_coverage_of_itself_is_one(self):
        front = [_record(0, 1.0, 5.0, 5.0), _record(1, 3.0, 9.0, 9.0)]
        assert front_coverage(front, front) == 1.0

    def test_coverage_of_dominating_reference_is_zero(self):
        weak = [_record(0, 2.0, 5.0, 5.0)]
        strong = [_record(1, 1.0, 10.0, 10.0)]
        assert front_coverage(weak, strong) == 0.0
        assert front_coverage(strong, weak) == 1.0

    def test_empty_fronts(self):
        front = [_record(0, 1.0, 5.0, 5.0)]
        assert front_coverage(front, []) == 1.0
        assert front_coverage([], front) == 0.0

    def test_front_quality_against_itself(self):
        front = [_record(0, 1.0, 5.0, 5.0), _record(1, 3.0, 9.0, 9.0)]
        quality = front_quality(front, front)
        assert isinstance(quality, FrontQuality)
        assert quality.coverage == 1.0
        assert quality.hypervolume_ratio == pytest.approx(1.0)
        assert quality.front_size == quality.reference_size == 2

    def test_partial_front_scores_below_reference(self):
        reference = [
            _record(0, 0.5, 2.0, 2.0),
            _record(1, 1.0, 5.0, 5.0),
            _record(2, 3.0, 9.0, 9.0),
        ]
        partial = reference[:1]
        quality = front_quality(partial, reference)
        assert quality.coverage == pytest.approx(1 / 3)
        assert quality.hypervolume_ratio < 1.0
