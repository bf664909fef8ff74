"""Columnar exploration results against the record-walking reference.

An :class:`~repro.dse.results.ExplorationResult` keeps its trace as
columns over a table of distinct points, and computes its summaries on
that table.  The reference below is the per-record code those summaries
replaced: it walks :attr:`ExplorationResult.records` step by step.  Every
producer's traces — the serial explorer, the batched engine and the
baseline recorder — must give the same answers both ways, record for
record and float for float.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.agents import RandomAgent
from repro.agents.baselines import HillClimbingExplorer
from repro.benchmarks import create
from repro.dse import AxcDseEnv, Explorer
from repro.dse.evaluator import Evaluator
from repro.dse.frontier import ParetoArchive
from repro.dse.results import ExplorationResult
from repro.runtime import (
    AgentSpec,
    BatchedExplorationJob,
    EvaluationStore,
    ExplorationJob,
    execute_job,
)

from _serial_reference import serial_result

# ------------------------------------------------------------ the reference


def _reference_scored(result, include_baseline):
    if include_baseline:
        return list(result.records)
    return [record for record in result.records if not record.is_baseline]


def _reference_best_feasible(result, include_baseline):
    feasible = [
        record for record in _reference_scored(result, include_baseline)
        if record.deltas.accuracy <= result.thresholds.accuracy
    ]
    if not feasible:
        return None
    return max(feasible, key=lambda record: record.deltas.power_mw + record.deltas.time_ns)


def _reference_feasible_fraction(result, include_baseline):
    records = _reference_scored(result, include_baseline)
    if not records:
        return 0.0
    within = sum(
        1 for record in records if record.deltas.accuracy <= result.thresholds.accuracy
    )
    return within / len(records)


def _reference_front(result, include_baseline):
    return ParetoArchive(_reference_scored(result, include_baseline)).front()


def _reference_cumulative(result):
    totals, total = [], 0.0
    for record in result.records:
        total += record.reward
        totals.append(total)
    return totals


def _assert_matches_reference(result):
    records = result.records
    assert [record.step for record in records] == list(range(result.num_steps))
    assert result.accuracy_series().tolist() == [r.deltas.accuracy for r in records]
    assert result.power_series().tolist() == [r.deltas.power_mw for r in records]
    assert result.time_series().tolist() == [r.deltas.time_ns for r in records]
    assert result.reward_series().tolist() == [r.reward for r in records]
    assert result.cumulative_reward_series().tolist() == _reference_cumulative(result)
    assert result.solution == records[-1]
    for include_baseline in (False, True):
        assert result.scored_records(include_baseline) == \
            _reference_scored(result, include_baseline)
        assert result.front(include_baseline) == _reference_front(result, include_baseline)
        assert result.best_feasible(include_baseline) == \
            _reference_best_feasible(result, include_baseline)
        assert result.feasible_fraction(include_baseline) == \
            _reference_feasible_fraction(result, include_baseline)
    fields = dict(benchmark_name=result.benchmark_name, thresholds=result.thresholds,
                  precise_cost=result.precise_cost, agent_name=result.agent_name,
                  terminated=result.terminated, truncated=result.truncated,
                  metadata=result.metadata)
    assert ExplorationResult.from_records(records, **fields) == result


def _revisits(result, step):
    """Whether the point of ``step`` comes up again at a later step."""
    return int(result.point_ids[step]) in result.point_ids[step + 1:].tolist()


# ----------------------------------------------------------------- producers


class TestProducersMatchTheReference:
    @pytest.mark.parametrize("seed", [1, 3, 6])
    def test_serial_random_walk_revisiting_its_start(self, seed):
        environment = AxcDseEnv(create("dotproduct", length=8), evaluation_seed=seed)
        agent = RandomAgent(num_actions=environment.action_space.n, seed=seed)
        result = Explorer(environment, agent, max_steps=300).run(seed=seed)
        # The start point comes up again, so its first *scored* step is not
        # step 0 — the case where dropping the baseline moves a front record.
        assert _revisits(result, 0)
        assert result.cumulative_reward_series()[-1] == environment.cumulative_reward
        _assert_matches_reference(result)

    @pytest.mark.parametrize("agent", ["q-learning", "sarsa"])
    def test_serial_learning_agents(self, agent):
        job = ExplorationJob(benchmark_label="fir", seed=1, agent=AgentSpec(agent),
                             benchmark=create("fir", num_samples=12, num_taps=4),
                             max_steps=400)
        result = serial_result(job, store=EvaluationStore())
        assert len(result.points) < result.num_steps
        _assert_matches_reference(result)

    def test_batched_traces(self):
        job = BatchedExplorationJob(
            benchmark_label="dot", benchmark=create("dotproduct", length=8),
            seeds=(0, 1, 2), agent=AgentSpec("q-learning"), max_steps=300,
        )
        results = execute_job(job, store=EvaluationStore())
        assert any(_revisits(result, 0) for result in results)
        for result in results:
            assert result.metadata["evaluations"] == len(result.points)
            _assert_matches_reference(result)

    @pytest.mark.parametrize("agent", ["hill-climbing", "genetic"])
    def test_baseline_traces(self, agent):
        job = ExplorationJob(benchmark_label="dot", seed=0, agent=AgentSpec(agent),
                             benchmark=create("dotproduct", length=8), max_steps=120)
        result = execute_job(job, store=EvaluationStore())
        assert len(result.points) < result.num_steps  # repeated points
        if agent == "hill-climbing":
            assert result.baseline[0] and not result.baseline[1:].any()
        _assert_matches_reference(result)


class TestEvaluationsMetadata:
    """``metadata["evaluations"]`` counts the trace's own distinct points."""

    def test_second_run_on_one_environment(self):
        environment = AxcDseEnv(create("dotproduct"))
        agent = RandomAgent(num_actions=environment.action_space.n, seed=0)
        explorer = Explorer(environment, agent, max_steps=100)
        results = [explorer.run(seed=0), explorer.run(seed=1)]
        # The evaluator has served both episodes' points by now.
        assert environment.evaluator.cache_size > len(results[1].points)
        for result in results:
            assert result.metadata["evaluations"] == len(result.points)

    def test_baseline_recorders_sharing_an_evaluator(self):
        evaluator = Evaluator(create("dotproduct", length=8))
        results = [HillClimbingExplorer(evaluator, max_evaluations=60, seed=seed).run()
                   for seed in (0, 1)]
        assert evaluator.cache_size > len(results[1].points)
        for result in results:
            assert result.metadata["evaluations"] == len(result.points)


# ------------------------------------------------------------------ equality


def _trace():
    environment = AxcDseEnv(create("dotproduct", length=8), evaluation_seed=0)
    agent = RandomAgent(num_actions=environment.action_space.n, seed=0)
    return Explorer(environment, agent, max_steps=40).run(seed=0)


class TestEquality:
    def test_equal_traces_compare_equal(self):
        assert _trace() == _trace()

    @pytest.mark.parametrize("column", ["point_ids", "actions", "rewards",
                                        "violated", "baseline"])
    def test_one_changed_step_of_any_column_breaks_equality(self, column):
        result = _trace()
        changed = getattr(result, column).copy()
        changed[7] = not changed[7] if changed.dtype == bool else changed[7] + 1
        assert result != dataclasses.replace(result, **{column: changed})

    def test_a_changed_table_entry_breaks_equality(self):
        result = _trace()
        deltas = list(result.deltas)
        deltas[-1] = dataclasses.replace(deltas[-1], time_ns=deltas[-1].time_ns + 1.0)
        assert result != dataclasses.replace(result, deltas=tuple(deltas))
        points = list(result.points)
        points[0], points[1] = points[1], points[0]
        assert result != dataclasses.replace(result, points=tuple(points))

    def test_a_changed_field_breaks_equality(self):
        result = _trace()
        assert result != dataclasses.replace(result, terminated=not result.terminated)
        assert result != dataclasses.replace(result, metadata={})


# -------------------------------------------------------------------- pickle


class TestPickledState:
    def test_reading_records_does_not_grow_the_pickle(self):
        job = BatchedExplorationJob(
            benchmark_label="dot", benchmark=create("dotproduct", length=8),
            seeds=(0, 1), agent=AgentSpec("random"), max_steps=10_000,
        )
        result = execute_job(job, store=EvaluationStore())[0]
        assert result.num_steps == 10_001
        before = pickle.dumps(result)
        assert len(result.records) == 10_001
        result.front()
        after = pickle.dumps(result)
        assert len(after) == len(before)
        # Five small columns per step plus a table of a few distinct points.
        assert len(after) < 20 * result.num_steps
        restored = pickle.loads(after)
        assert restored == result
        assert restored.records == result.records
