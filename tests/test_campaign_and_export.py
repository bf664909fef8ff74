"""Tests for exploration campaigns and the CSV / JSON export helpers."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.agents import RandomAgent
from repro.analysis import result_to_dict, trace_rows, write_result_json, write_trace_csv
from repro.benchmarks import DotProductBenchmark
from repro.dse import Explorer
from repro.errors import AnalysisError, ExplorationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.report import summarize
from repro.runtime import AgentSpec, ExplorationJob, expand_jobs


def _campaign_spec(**overrides) -> ExperimentSpec:
    payload = {
        "kind": "campaign",
        "benchmarks": [
            {"name": "dotproduct", "params": {"length": 16}, "label": "dot"},
            {"name": "matmul", "params": {"rows": 3, "inner": 3, "cols": 3},
             "label": "matmul"},
        ],
        "agents": [{"name": "q-learning", "hyperparams": {"epsilon": 0.3}}],
        "seeds": [0, 1],
        "max_steps": 40,
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


@pytest.fixture(scope="module")
def small_campaign_entries():
    return run_experiment(_campaign_spec()).entries


@pytest.fixture
def exploration_result(matmul_env):
    agent = RandomAgent(num_actions=matmul_env.action_space.n, seed=0)
    return Explorer(matmul_env, agent, max_steps=30).run(seed=0)


class TestCampaign:
    def test_runs_every_benchmark_and_seed(self, small_campaign_entries):
        labels = {(entry.benchmark_label, entry.seed) for entry in small_campaign_entries}
        assert labels == {("dot", 0), ("dot", 1), ("matmul", 0), ("matmul", 1)}

    def test_entries_carry_full_results(self, small_campaign_entries):
        for entry in small_campaign_entries:
            assert entry.result.num_steps >= 1
            assert entry.result.agent_name == "q-learning"

    def test_summary_aggregates_per_benchmark(self, small_campaign_entries):
        summaries = summarize(small_campaign_entries)
        assert set(summaries) == {"dot", "matmul"}
        for summary in summaries.values():
            assert summary.runs == 2
            assert 0.0 <= summary.mean_feasible_fraction <= 1.0
            assert np.isfinite(summary.mean_solution_power_mw)

    def test_validation(self):
        with pytest.raises(ExplorationError):
            expand_jobs({}, AgentSpec("q-learning"))
        with pytest.raises(ExplorationError):
            expand_jobs({"dot": DotProductBenchmark(8)}, AgentSpec("q-learning"),
                        seeds=())
        with pytest.raises(ExplorationError):
            ExplorationJob("dot", DotProductBenchmark(8), seed=0,
                           agent=AgentSpec("q-learning"), max_steps=0)

    def test_env_kwargs_forwarded(self):
        spec = _campaign_spec(benchmarks=["dotproduct:length=8"], seeds=[0],
                              max_steps=10,
                              thresholds={"accuracy_factor": 0.1})
        default = _campaign_spec(benchmarks=["dotproduct:length=8"], seeds=[0],
                                 max_steps=10)
        scaled = run_experiment(spec).entries[0].result.thresholds
        # accth = 0.1 x mean output instead of the default 0.4 x.
        assert scaled.accuracy > 0
        assert scaled.accuracy == pytest.approx(
            run_experiment(default).entries[0].result.thresholds.accuracy / 4)


class TestExport:
    def test_trace_rows_match_records(self, exploration_result):
        rows = trace_rows(exploration_result)
        assert len(rows) == exploration_result.num_steps
        assert rows[0]["step"] == 0
        assert rows[0]["action"] is None
        assert set(rows[0]) >= {"delta_power_mw", "delta_time_ns", "delta_accuracy", "reward"}

    def test_write_trace_csv_round_trip(self, exploration_result, tmp_path):
        path = write_trace_csv(exploration_result, tmp_path / "trace.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == exploration_result.num_steps
        assert float(rows[-1]["cumulative_reward"]) == pytest.approx(
            exploration_result.records[-1].cumulative_reward
        )

    def test_result_to_dict_is_json_serialisable(self, exploration_result):
        payload = result_to_dict(exploration_result)
        encoded = json.dumps(payload)
        decoded = json.loads(encoded)
        assert decoded["steps"] == exploration_result.num_steps
        assert decoded["benchmark"] == exploration_result.benchmark_name
        assert "power_mw" in decoded and "solution" in decoded["power_mw"]

    def test_write_result_json(self, exploration_result, tmp_path):
        path = write_result_json(exploration_result, tmp_path / "result.json")
        decoded = json.loads(path.read_text())
        assert decoded["agent"] == "random"
        assert decoded["thresholds"]["power_mw"] == pytest.approx(
            exploration_result.thresholds.power_mw
        )

    def test_write_result_json_negative_indent_raises(self, exploration_result, tmp_path):
        with pytest.raises(AnalysisError):
            write_result_json(exploration_result, tmp_path / "result.json", indent=-1)
