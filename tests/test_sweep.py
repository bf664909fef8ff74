"""Tests for exhaustive design-space sweeps and batched evaluation."""

from __future__ import annotations

import pytest

from repro.benchmarks import DotProductBenchmark, MatMulBenchmark
from repro.benchmarks.base import Benchmark
from repro.dse import Evaluator, ParetoArchive
from repro.dse.sweep import SweepChunk, execute_sweep_job
from repro.errors import (ConfigurationError, DesignSpaceError, ExplorationError,
                          OperatorError)
from repro.experiments import ExperimentSpec, run_experiment
from repro.operators.base import Operator
from repro.runtime import EvaluationStore, SerialExecutor, SweepJob


@pytest.fixture
def tiny_benchmarks():
    return {"dot": DotProductBenchmark(length=8)}


def _sweep_spec(seeds=(0,), **runtime):
    """An exhaustive sweep of ``tiny_benchmarks`` under the label ``dot``."""
    return ExperimentSpec.from_dict({
        "kind": "sweep",
        "benchmarks": [{"name": "dotproduct", "params": {"length": 8},
                        "label": "dot"}],
        "seeds": list(seeds),
        "runtime": runtime,
    })


def _sweep_results(store=None, seeds=(0,), **runtime):
    """The per-seed sweep results of ``_sweep_spec`` run on ``store``."""
    report = run_experiment(_sweep_spec(seeds, **runtime),
                            store=store if store is not None else EvaluationStore())
    return report.sweep_results()


def _front_identity(front):
    return [(record.point.key(), record.deltas) for record in front]


class TestDesignSpaceIndexing:
    def test_point_at_matches_enumerate(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        assert [space.point_at(i) for i in range(space.size)] == list(space.enumerate())

    def test_point_at_bounds(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        with pytest.raises(DesignSpaceError):
            space.point_at(-1)
        with pytest.raises(DesignSpaceError):
            space.point_at(space.size)

    def test_iter_range_clamps_to_space(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        tail = list(space.iter_range(space.size - 3, space.size + 100))
        assert tail == list(space.enumerate())[-3:]
        with pytest.raises(DesignSpaceError):
            list(space.iter_range(-1, 5))


class TestEvaluateMany:
    def test_matches_single_evaluations(self, matmul_evaluator):
        space = matmul_evaluator.design_space
        points = [space.point_at(i) for i in (0, 5, 11)]
        batch = matmul_evaluator.evaluate_many(points)
        assert [record is matmul_evaluator.evaluate(point)
                for record, point in zip(batch, points)] == [True] * 3

    def test_index_range_covers_the_slice(self, matmul_evaluator):
        records = matmul_evaluator.evaluate_index_range(3, 7)
        space = matmul_evaluator.design_space
        assert [record.point for record in records] == [space.point_at(i) for i in range(3, 7)]


class TestEvaluatorReuse:
    def test_use_store_redirects_evaluations(self, small_matmul):
        first, second = EvaluationStore(), EvaluationStore()
        evaluator = Evaluator(small_matmul, seed=0, store=first)
        evaluator.evaluate(evaluator.design_space.initial_point())
        evaluator.use_store(second)
        assert evaluator.cache_size == 0  # served tracking is per-store
        evaluator.evaluate(evaluator.design_space.most_aggressive_point())
        assert len(first) == 1 and len(second) == 1


class TestSweepJobs:
    def test_expansion_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"kind": "sweep", "benchmarks": [],
                                      "seeds": [0]})
        with pytest.raises(ConfigurationError):
            _sweep_spec(seeds=())
        with pytest.raises(ConfigurationError, match="chunk_size"):
            _sweep_spec(chunk_size=0)

    def test_chunk_execution_returns_local_front(self, tiny_benchmarks):
        job = SweepJob("dot", tiny_benchmarks["dot"], seed=0)
        store = EvaluationStore()
        chunk = execute_sweep_job(job, store=store)
        assert isinstance(chunk, SweepChunk)
        assert chunk.evaluated == chunk.space_size == 288 == len(store)
        evaluator = Evaluator(tiny_benchmarks["dot"], seed=0, store=store)
        expected = ParetoArchive(evaluator.evaluate_index_range(0, 288)).front()
        assert _front_identity(chunk.front) == _front_identity(expected)

    def test_cold_context_runs_the_precise_version_and_one_pass(self, monkeypatch):
        # Row-axis kernels: the precise run, then every behaviour class of
        # the context as the rows of one stacked pass, whatever other
        # contexts the sweep holds.
        runs = []
        execute = Benchmark.execute

        def spy(self, context, inputs):
            runs.append(self.name)
            return execute(self, context, inputs)

        monkeypatch.setattr(Benchmark, "execute", spy)
        spec = ExperimentSpec.from_dict({
            "kind": "sweep", "benchmarks": ["dotproduct:length=8", "matmul", "sobel"],
            "seeds": [0, 1],
        })
        benchmarks = [bspec.build() for bspec in spec.benchmarks]
        assert all(benchmark.row_axis for benchmark in benchmarks)
        assert run_experiment(spec, store=EvaluationStore()).ok
        # Two seeds, so two contexts per benchmark, two runs each.
        assert sorted(runs) == sorted(benchmark.name for benchmark in benchmarks
                                      for _ in range(2 * 2))


class TestRunSweep:
    def test_true_front_matches_exhaustive_archive(self, tiny_benchmarks):
        store = EvaluationStore()
        (result,) = _sweep_results(store=store)
        assert result.evaluations == result.space_size == 288 == len(store)
        evaluator = Evaluator(tiny_benchmarks["dot"], seed=0, store=store)
        expected = ParetoArchive(
            evaluator.evaluate_index_range(0, evaluator.design_space.size)
        ).front()
        assert _front_identity(result.front) == _front_identity(expected)
        assert result.front_size == len(expected)
        assert 0 < len(result.feasible_front()) <= result.front_size
        assert result.hypervolume() > 0.0

    def test_serial_and_process_executors_are_identical(self, tiny_benchmarks):
        # Two seeds: two contexts, so the jobs reach the 2-worker pool (a
        # one-job list runs in-process).
        serial_store = EvaluationStore()
        serial_results = _sweep_results(store=serial_store, seeds=(0, 1))
        process_store = EvaluationStore()
        process_results = _sweep_results(store=process_store, seeds=(0, 1),
                                         executor="process", jobs=2)
        assert len(serial_results) == len(process_results) == 2
        for serial, process in zip(serial_results, process_results):
            assert _front_identity(serial.front) == _front_identity(process.front)
            assert serial.evaluations == process.evaluations
        assert sorted(serial_store.keys()) == sorted(process_store.keys())
        for key in serial_store.keys():
            left, right = serial_store.get(key), process_store.get(key)
            assert left.deltas == right.deltas
            assert left.approx_cost == right.approx_cost

    def test_store_round_trip_warm_starts_the_next_sweep(self, tiny_benchmarks, tmp_path):
        path = tmp_path / "sweep.sqlite"
        with EvaluationStore(path=path) as store:
            (cold,) = _sweep_results(store=store)
        reloaded = EvaluationStore(path=path)
        assert len(reloaded) == cold.space_size
        (warm,) = _sweep_results(store=reloaded)
        assert _front_identity(warm.front) == _front_identity(cold.front)
        stats = reloaded.stats
        assert stats.hits == cold.space_size  # everything served from disk
        assert stats.misses == 0

    def test_failed_chunk_reports_and_raises(self, tiny_benchmarks, monkeypatch):
        # A 32-bit multiplier of the dot product's catalog refuses every
        # call; the matrix product's 8-bit units never reach it.
        dot = tiny_benchmarks["dot"]
        name = Evaluator(dot, seed=0).catalog.multipliers[3].name
        apply_trusted = Operator.apply_trusted

        def refusing(self, a, b):
            if self.name == name:
                raise OperatorError(f"{name} refuses these operands")
            return apply_trusted(self, a, b)

        monkeypatch.setattr(Operator, "apply_trusted", refusing)
        jobs = [SweepJob("matmul", MatMulBenchmark(rows=3, inner=3, cols=3), seed=0),
                SweepJob("dot", dot, seed=0)]
        outcomes = SerialExecutor().run(jobs, store=EvaluationStore())
        assert [outcome.ok for outcome in outcomes] == [True, False]
        assert f"{name} refuses these operands" in outcomes[-1].error
        with pytest.raises(ExplorationError, match=r"2 of 2 sweep\(s\) failed"):
            _sweep_results(seeds=(0, 1))

    def test_multiple_seeds_produce_one_result_each(self):
        results = _sweep_results(seeds=(0, 1))
        assert [(r.benchmark_label, r.seed) for r in results] == [("dot", 0), ("dot", 1)]


def _campaign_spec(max_steps, seeds):
    """A q-learning campaign over the same ``dot`` benchmark as the sweeps."""
    return ExperimentSpec.from_dict({
        "kind": "campaign",
        "benchmarks": [{"name": "dotproduct", "params": {"length": 8},
                        "label": "dot"}],
        "agents": ["q-learning"], "seeds": list(seeds), "max_steps": max_steps,
    })


class TestFrontQualityIntegration:
    def test_judge_scores_agent_trace_against_true_front(self):
        store = EvaluationStore()
        (truth,) = _sweep_results(store=store)
        report = run_experiment(_campaign_spec(60, (0,)), store=store)
        quality = truth.judge(report.entries[0].result.records)
        assert 0.0 <= quality.coverage <= 1.0
        assert quality.reference_size == truth.front_size
        # The exhaustive front is the ground truth: its own judgement is perfect.
        assert truth.judge(truth.front).coverage == 1.0

    def test_campaign_summarize_with_reference_fronts(self):
        store = EvaluationStore()
        (truth,) = _sweep_results(store=store)
        report = run_experiment(_campaign_spec(50, (0, 1)), store=store)
        plain = report.summarize()["q-learning"]["dot"]
        assert plain.runs == 2
        assert plain.mean_front_size >= 1.0
        assert plain.mean_front_coverage is None
        assert plain.mean_hypervolume_ratio is None
        scored = report.summarize(
            reference_fronts={"dot": truth.front})["q-learning"]["dot"]
        assert scored.mean_front_coverage is not None
        assert 0.0 <= scored.mean_front_coverage <= 1.0
        assert scored.mean_hypervolume_ratio is not None
