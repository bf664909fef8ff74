"""Tests for exhaustive design-space sweeps and batched evaluation."""

from __future__ import annotations

import pytest

from repro.benchmarks import DotProductBenchmark
from repro.dse import Evaluator, ParetoArchive
from repro.dse.sweep import SweepChunk, execute_sweep_job
from repro.errors import ConfigurationError, DesignSpaceError, ExplorationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.planner import SweepChunkUnit, plan_experiments
from repro.runtime import EvaluationStore, SerialExecutor, SweepJob


@pytest.fixture
def tiny_benchmarks():
    return {"dot": DotProductBenchmark(length=8)}


def _sweep_spec(chunk_size, seeds=(0,), **runtime):
    """An exhaustive sweep of ``tiny_benchmarks`` under the label ``dot``."""
    return ExperimentSpec.from_dict({
        "kind": "sweep",
        "benchmarks": [{"name": "dotproduct", "params": {"length": 8},
                        "label": "dot"}],
        "seeds": list(seeds),
        "runtime": {"chunk_size": chunk_size, **runtime},
    })


def _sweep_results(chunk_size, store=None, seeds=(0,), **runtime):
    """The per-seed sweep results of ``_sweep_spec`` run on ``store``."""
    report = run_experiment(_sweep_spec(chunk_size, seeds, **runtime),
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

    def test_chunks_share_one_evaluator_per_context(self, tiny_benchmarks):
        from repro.dse import sweep as sweep_module

        sweep_module._EVALUATOR_CACHE.clear()
        _sweep_results(48)
        assert len(sweep_module._EVALUATOR_CACHE) == 1  # six chunks, one baseline
        # A second sweep of the same context reuses the cached baseline and
        # still lands its evaluations in the new store.
        store = EvaluationStore()
        (result,) = _sweep_results(96, store=store)
        assert len(sweep_module._EVALUATOR_CACHE) == 1
        assert len(store) == result.space_size


class TestSweepJobs:
    def test_expansion_chunks_cover_the_space(self):
        plan = plan_experiments([_sweep_spec(100, seeds=(0, 1))])
        units = [unit for node in plan.evaluate_nodes for unit in node.units]
        assert all(isinstance(unit, SweepChunkUnit) for unit in units)
        by_seed = {}
        for unit in units:
            by_seed.setdefault(unit.seed, []).append((unit.start, unit.stop))
        assert set(by_seed) == {0, 1}
        for ranges in by_seed.values():
            assert ranges[0][0] == 0
            assert all(prev[1] == nxt[0] for prev, nxt in zip(ranges, ranges[1:]))
            assert ranges[-1][1] == 288  # restricted dotproduct space

    def test_expansion_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec.from_dict({"kind": "sweep", "benchmarks": [],
                                      "seeds": [0]})
        with pytest.raises(ConfigurationError):
            _sweep_spec(64, seeds=())
        with pytest.raises(ConfigurationError):
            _sweep_spec(0)
        with pytest.raises(ConfigurationError):
            SweepJob("dot", DotProductBenchmark(8), seed=0, start=5, stop=5)

    def test_chunk_execution_returns_local_front(self, tiny_benchmarks):
        job = SweepJob("dot", tiny_benchmarks["dot"], seed=0, start=0, stop=64)
        store = EvaluationStore()
        chunk = execute_sweep_job(job, store=store)
        assert isinstance(chunk, SweepChunk)
        assert chunk.evaluated == 64 == len(store)
        evaluator = Evaluator(tiny_benchmarks["dot"], seed=0, store=store)
        expected = ParetoArchive(evaluator.evaluate_index_range(0, 64)).front()
        assert _front_identity(chunk.front) == _front_identity(expected)

    def test_chunk_beyond_space_raises(self, tiny_benchmarks):
        job = SweepJob("dot", tiny_benchmarks["dot"], seed=0, start=10_000, stop=10_001)
        with pytest.raises(ExplorationError):
            execute_sweep_job(job)


class TestRunSweep:
    def test_true_front_matches_exhaustive_archive(self, tiny_benchmarks):
        store = EvaluationStore()
        (result,) = _sweep_results(50, store=store)
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
        serial_store = EvaluationStore()
        (serial,) = _sweep_results(48, store=serial_store)
        process_store = EvaluationStore()
        (process,) = _sweep_results(48, store=process_store, executor="process", jobs=2)
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
            (cold,) = _sweep_results(96, store=store)
        reloaded = EvaluationStore(path=path)
        assert len(reloaded) == cold.space_size
        (warm,) = _sweep_results(96, store=reloaded)
        assert _front_identity(warm.front) == _front_identity(cold.front)
        stats = reloaded.stats
        assert stats.hits == cold.space_size  # everything served from disk
        assert stats.misses == 0

    def test_failed_chunk_reports_and_raises(self, tiny_benchmarks):
        jobs = [SweepJob("dot", tiny_benchmarks["dot"], seed=0, start=0, stop=288)]
        bad = SweepJob("dot", tiny_benchmarks["dot"], seed=0, start=10_000, stop=10_100)
        outcomes = SerialExecutor().run(jobs + [bad], store=EvaluationStore())
        assert [outcome.ok for outcome in outcomes] == [True, False]
        assert "starts beyond the space" in outcomes[-1].error

    def test_multiple_seeds_produce_one_result_each(self):
        results = _sweep_results(150, seeds=(0, 1))
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
        (truth,) = _sweep_results(288, store=store)
        report = run_experiment(_campaign_spec(60, (0,)), store=store)
        quality = truth.judge(report.entries[0].result.records)
        assert 0.0 <= quality.coverage <= 1.0
        assert quality.reference_size == truth.front_size
        # The exhaustive front is the ground truth: its own judgement is perfect.
        assert truth.judge(truth.front).coverage == 1.0

    def test_campaign_summarize_with_reference_fronts(self):
        store = EvaluationStore()
        (truth,) = _sweep_results(288, store=store)
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
