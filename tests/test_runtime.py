"""Tests for the campaign runtime: jobs, executors and the evaluation store.

The load-bearing guarantees:

* a ``ProcessExecutor`` campaign is entry-for-entry identical to a
  ``SerialExecutor`` campaign on the same definition;
* an ``EvaluationStore`` hit is bit-identical to a fresh evaluation;
* one failing exploration does not kill the sweep;
* a pool job receives only its own benchmark x seeds slice of the store,
  and its outcome streams back as soon as it finishes.
"""

from __future__ import annotations

import logging
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runtime.executor as executor_module
from repro.agents import QLearningAgent
from repro.benchmarks import DotProductBenchmark, FirBenchmark, MatMulBenchmark
from repro.dse import Evaluator
from repro.errors import ConfigurationError, ExplorationError
from repro.experiments.report import summarize
from repro.runtime import (
    FAULT_PLAN_ENV,
    AgentSpec,
    EvaluationKey,
    EvaluationStore,
    ExplorationJob,
    FaultPlan,
    FaultRule,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    SweepJob,
    benchmark_fingerprint,
    catalog_fingerprint,
    execute_job,
    expand_jobs,
    flatten_outcomes,
)


def _qlearning_factory(environment, seed):
    """Module-level factory: picklable, usable with the process executor."""
    return QLearningAgent(num_actions=environment.action_space.n, epsilon=0.3, seed=seed)


def _crashing_factory(environment, seed):
    raise RuntimeError("boom")


def _small_benchmarks():
    return {
        "dot": DotProductBenchmark(length=12),
        "matmul": MatMulBenchmark(rows=3, inner=3, cols=3),
    }


# ---------------------------------------------------------------- fingerprints


class TestFingerprints:
    def test_benchmark_fingerprint_is_content_addressed(self):
        first = benchmark_fingerprint(DotProductBenchmark(length=12))
        second = benchmark_fingerprint(DotProductBenchmark(length=12))
        other = benchmark_fingerprint(DotProductBenchmark(length=13))
        assert first == second
        assert first != other

    def test_benchmark_fingerprint_distinguishes_kernels(self):
        matmul = benchmark_fingerprint(MatMulBenchmark(rows=3, inner=3, cols=3))
        fir = benchmark_fingerprint(FirBenchmark(num_samples=20, num_taps=4))
        assert matmul != fir

    def test_catalog_fingerprint_tracks_restriction(self, catalog):
        full = catalog_fingerprint(catalog)
        restricted = catalog_fingerprint(catalog.restrict_widths(adder_width=8,
                                                                 multiplier_width=8))
        assert full != restricted
        assert catalog_fingerprint(catalog) == full


# ----------------------------------------------------------------------- store


class TestEvaluationStore:
    def test_get_put_and_stats(self, matmul_evaluator):
        store = EvaluationStore()
        point = matmul_evaluator.design_space.most_aggressive_point()
        key = EvaluationKey(*matmul_evaluator.store_context, point=point.key())
        assert store.get(key) is None
        record = matmul_evaluator.evaluate(point)
        store.put(key, record)
        assert store.get(key) is record
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.hit_rate == pytest.approx(0.5)

    def test_store_hit_is_bit_identical_to_fresh_evaluation(self, small_matmul):
        store = EvaluationStore()
        warm_source = Evaluator(small_matmul, seed=0, store=store)
        fresh = Evaluator(MatMulBenchmark(rows=4, inner=4, cols=4), seed=0)
        for point in (fresh.design_space.most_aggressive_point(),
                      fresh.design_space.initial_point()):
            warmed = Evaluator(MatMulBenchmark(rows=4, inner=4, cols=4), seed=0, store=store)
            expected = fresh.evaluate(point)
            warm_source.evaluate(point)
            served = warmed.evaluate(point)
            # The record comes out of the store (same object as the sibling's),
            # and every measured quantity is bit-identical to a fresh evaluation.
            assert served is warm_source.evaluate(point)
            assert served.deltas == expected.deltas
            assert served.approx_cost == expected.approx_cost

    def test_different_seed_or_benchmark_never_shares_entries(self, small_matmul):
        store = EvaluationStore()
        point = Evaluator(small_matmul, seed=0, store=store).design_space.initial_point()
        Evaluator(small_matmul, seed=0, store=store).evaluate(point)
        other_seed = Evaluator(MatMulBenchmark(rows=4, inner=4, cols=4), seed=1, store=store)
        other_seed.evaluate(point)
        assert len(store) == 2  # distinct contexts, no collision

    def test_merge_keeps_incumbent_and_counts_new(self, matmul_evaluator):
        store = EvaluationStore()
        point = matmul_evaluator.design_space.initial_point()
        key = matmul_evaluator.store_key(point)
        record = matmul_evaluator.evaluate(point)
        store.put(key, record)
        other = EvaluationStore()
        other.put(key, matmul_evaluator.evaluate(point))
        assert store.merge(other) == 0
        assert store.get(key) is record

    def test_sqlite_round_trip(self, tmp_path, small_matmul):
        path = tmp_path / "evaluations.sqlite"
        store = EvaluationStore(path=path)
        evaluator = Evaluator(small_matmul, seed=0, store=store)
        expected = evaluator.evaluate(evaluator.design_space.most_aggressive_point())
        assert store.flush() == 1

        reloaded = EvaluationStore(path=path)
        assert len(reloaded) == 1
        warmed = Evaluator(MatMulBenchmark(rows=4, inner=4, cols=4), seed=0, store=reloaded)
        served = warmed.evaluate(warmed.design_space.most_aggressive_point())
        assert served == expected
        assert (reloaded.stats.hits, reloaded.stats.misses) == (1, 0)

    def test_cache_size_counts_only_own_lookups(self, small_matmul):
        store = EvaluationStore()
        first = Evaluator(small_matmul, seed=0, store=store)
        first.evaluate(first.design_space.initial_point())
        first.evaluate(first.design_space.most_aggressive_point())
        sibling = Evaluator(small_matmul, seed=0, store=store)
        sibling.evaluate(sibling.design_space.initial_point())
        assert first.cache_size == 2
        assert sibling.cache_size == 1  # warm entries don't inflate the count


class TestRecordsHoldMeasurementsOnly:
    """A record is what the explorer consumes; no layer keeps raw outputs."""

    @pytest.mark.parametrize("owner", [
        "repro.dse.evaluator:Evaluator",
        "repro.dse.evaluator:Evaluator.use_store",
        "repro.dse.environment:AxcDseEnv",
        "repro.dse.batched_env:BatchedAxcDseEnv",
        "repro.runtime.jobs:execute_job",
        "repro.runtime.jobs:_execute_batched_job",
        "repro.dse.sweep:execute_sweep_job",
        "repro.dse.sweep:_evaluator_for",
        "repro.runtime.executor:SerialExecutor.run",
        "repro.runtime.executor:SerialExecutor._run_one",
        "repro.runtime.executor:ProcessExecutor.run",
        "repro.runtime.executor:ProcessExecutor._submit",
        "repro.runtime.executor:_run_job_in_worker",
        "repro.runtime.store:EvaluationStore.lookup",
        "repro.runtime.store:EvaluationStore.record_external_lookups",
        "repro.experiments.spec:RuntimeSpec",
        "repro.planner.plan:ExplorationUnit",
    ], ids=lambda owner: owner.split(":")[1])
    def test_no_layer_takes_an_outputs_knob(self, owner):
        import importlib
        import inspect

        module_name, path = owner.split(":")
        target = importlib.import_module(module_name)
        for name in path.split("."):
            target = getattr(target, name)
        parameters = inspect.signature(target).parameters
        assert not {"store_outputs", "require_outputs", "upgrades"} & set(parameters)

    def test_record_and_counters_hold_measurements_only(self):
        import dataclasses

        from repro.dse import EvaluationRecord
        from repro.runtime import StoreStats

        fields = tuple(field.name for field in dataclasses.fields(EvaluationRecord))
        assert fields == ("point", "deltas", "approx_cost")
        assert StoreStats._fields == ("hits", "misses")

    def test_store_is_append_only(self):
        assert not hasattr(EvaluationStore, "clear")
        assert not hasattr(EvaluationStore, "clear_context")
        assert not hasattr(Evaluator, "clear_cache")


# ------------------------------------------------------------------------ jobs


class TestJobs:
    def test_expand_jobs_order_and_determinism(self):
        jobs = expand_jobs(_small_benchmarks(),
                           [AgentSpec("q-learning"), AgentSpec("random")],
                           seeds=(0, 1), max_steps=10)
        identity = [(job.benchmark_label, job.agent.name, job.seed) for job in jobs]
        assert identity == [
            ("dot", "q-learning", 0), ("dot", "q-learning", 1),
            ("dot", "random", 0), ("dot", "random", 1),
            ("matmul", "q-learning", 0), ("matmul", "q-learning", 1),
            ("matmul", "random", 0), ("matmul", "random", 1),
        ]

    def test_jobs_are_picklable(self):
        jobs = expand_jobs(_small_benchmarks(), AgentSpec("sarsa"), seeds=(0,), max_steps=10)
        restored = pickle.loads(pickle.dumps(jobs))
        assert [job.describe() for job in restored] == [job.describe() for job in jobs]

    def test_factory_spec_is_picklable_when_module_level(self):
        spec = AgentSpec.from_factory(_qlearning_factory)
        assert pickle.loads(pickle.dumps(spec)).factory is _qlearning_factory

    def test_unknown_agent_name_raises(self):
        with pytest.raises(ConfigurationError):
            AgentSpec("annealing")

    def test_empty_expansion_raises(self):
        with pytest.raises(ExplorationError):
            expand_jobs({}, AgentSpec("random"))
        with pytest.raises(ExplorationError):
            expand_jobs(_small_benchmarks(), AgentSpec("random"), seeds=())
        with pytest.raises(ExplorationError):
            expand_jobs(_small_benchmarks(), [], seeds=(0,))

    def test_execute_job_matches_direct_exploration(self, dot_benchmark):
        from repro.dse import AxcDseEnv, Explorer

        job = ExplorationJob(benchmark_label="dot", benchmark=dot_benchmark, seed=3,
                             agent=AgentSpec.from_factory(_qlearning_factory), max_steps=25)
        via_job = execute_job(job)
        environment = AxcDseEnv(dot_benchmark, evaluation_seed=3)
        direct = Explorer(environment, _qlearning_factory(environment, 3),
                          max_steps=25).run(seed=3)
        assert [r.point for r in via_job.records] == [r.point for r in direct.records]
        assert [r.deltas for r in via_job.records] == [r.deltas for r in direct.records]


# ------------------------------------------------------------------- executors


class TestExecutors:
    def test_serial_executor_captures_per_job_errors(self, dot_benchmark):
        jobs = [
            ExplorationJob(benchmark_label="bad", benchmark=dot_benchmark, seed=0,
                           agent=AgentSpec.from_factory(_crashing_factory), max_steps=10),
            ExplorationJob(benchmark_label="good", benchmark=dot_benchmark, seed=0,
                           agent=AgentSpec("random"), max_steps=10),
        ]
        outcomes = SerialExecutor().run(jobs)
        assert not outcomes[0].ok and "boom" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result.num_steps == 11

    def test_captured_errors_carry_job_identity_and_full_traceback(self, dot_benchmark):
        # A failed shard must be debuggable from the report alone: the
        # outcome error names the job and keeps the whole traceback, not
        # just the exception repr.
        job = ExplorationJob(benchmark_label="bad", benchmark=dot_benchmark, seed=7,
                             agent=AgentSpec.from_factory(_crashing_factory),
                             max_steps=10)
        for executor in (SerialExecutor(), ProcessExecutor(n_jobs=2)):
            outcome = executor.run([job, job])[0]
            assert not outcome.ok
            assert job.describe() in outcome.error
            assert "Traceback (most recent call last)" in outcome.error
            assert "RuntimeError" in outcome.error and "boom" in outcome.error

    def test_process_executor_matches_serial_entry_for_entry(self):
        jobs = expand_jobs(_small_benchmarks(), AgentSpec("q-learning"),
                           seeds=(0, 1, 2), max_steps=30)
        batched = expand_jobs(_small_benchmarks(), AgentSpec("q-learning"),
                              seeds=(0, 1, 2), max_steps=30, batch_size=2)
        serial = flatten_outcomes(SerialExecutor().run(jobs))
        parallel = flatten_outcomes(ProcessExecutor(n_jobs=2).run(batched))
        assert len(serial) == len(parallel) == 6
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok
            assert (left.job.benchmark_label, left.job.seed) == \
                (right.job.benchmark_label, right.job.seed)
            assert [r.deltas for r in left.result.records] == \
                [r.deltas for r in right.result.records]
            assert [r.point for r in left.result.records] == \
                [r.point for r in right.result.records]
            assert left.result.solution.point == right.result.solution.point

    def test_process_executor_captures_errors_without_killing_sweep(self, dot_benchmark):
        jobs = [
            ExplorationJob(benchmark_label="bad", benchmark=dot_benchmark, seed=0,
                           agent=AgentSpec.from_factory(_crashing_factory), max_steps=10),
            ExplorationJob(benchmark_label="good", benchmark=dot_benchmark, seed=0,
                           agent=AgentSpec("random"), max_steps=10),
        ]
        outcomes = ProcessExecutor(n_jobs=2).run(jobs)
        assert not outcomes[0].ok and "boom" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result.num_steps == 11

    def test_process_executor_merges_worker_evaluations(self):
        store = EvaluationStore()
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)}, AgentSpec("random"),
                           seeds=(0, 1), max_steps=20)
        ProcessExecutor(n_jobs=2).run(jobs, store=store)
        assert len(store) > 0

    def test_warm_store_produces_hits_across_runs(self):
        store = EvaluationStore()
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)}, AgentSpec("random"),
                           seeds=(0,), max_steps=20)
        SerialExecutor().run(jobs, store=store)
        size_after_first = len(store)
        before = store.stats
        outcomes = ProcessExecutor(n_jobs=2).run(
            expand_jobs({"dot": DotProductBenchmark(length=12)}, AgentSpec("q-learning"),
                        seeds=(0,), max_steps=20),
            store=store,
        )
        assert outcomes[0].ok
        assert store.stats.hits > before.hits  # cross-run reuse actually happened
        assert len(store) >= size_after_first

    def test_invalid_n_jobs_raises(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(n_jobs=0)
        with pytest.raises(ConfigurationError):
            ProcessExecutor(mp_context="not-a-method")


# ---------------------------------------------------------- process data plane


def _spy_on_submissions(monkeypatch):
    """Count, per submitted job, the store records its submission carries."""
    shipped = {}

    class SpyPool(ProcessPoolExecutor):
        def submit(self, fn, job, records, *args, **kwargs):
            shipped[job.describe()] = len(records)
            return super().submit(fn, job, records, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
    return shipped


def _install_faults(plan, tmp_path, monkeypatch):
    env = plan.install(tmp_path / "faults")
    monkeypatch.setenv(FAULT_PLAN_ENV, env[FAULT_PLAN_ENV])


class TestProcessDataPlane:
    def test_submissions_carry_only_the_jobs_own_records(self, monkeypatch):
        dot = DotProductBenchmark(length=12)
        store = EvaluationStore()
        SerialExecutor().run([SweepJob("dot", dot, seed=0, start=0, stop=24)],
                             store=store)
        warm = len(store)
        template = next(iter(store.snapshot().values()))
        for index in range(10_000):  # another benchmark fingerprint
            store.put(EvaluationKey("f" * 16, "c" * 16, 0, False, (index, 0, ())),
                      template)
        shipped = _spy_on_submissions(monkeypatch)
        jobs = [
            SweepJob("dot", dot, seed=0, start=24, stop=48),  # warm context
            SweepJob("dot", dot, seed=1, start=0, stop=24),
            SweepJob("matmul", MatMulBenchmark(rows=3, inner=3, cols=3), seed=0,
                     start=0, stop=24),
        ]
        outcomes = ProcessExecutor(n_jobs=2).run(jobs, store=store)
        assert all(outcome.ok for outcome in outcomes)
        assert shipped == {jobs[0].describe(): warm, jobs[1].describe(): 0,
                           jobs[2].describe(): 0}
        assert len(store) == 10_000 + warm + 3 * 24

    def test_outcomes_stream_back_without_a_barrier(self, tmp_path, monkeypatch):
        jobs = [ExplorationJob(benchmark_label="dot",
                               benchmark=DotProductBenchmark(length=12), seed=seed,
                               agent=AgentSpec("random"), max_steps=10)
                for seed in range(4)]
        _install_faults(FaultPlan(rules=(
            FaultRule(action="delay", delay_s=1.5, match="dot[seed=0,"),
        )), tmp_path, monkeypatch)
        seen = []
        outcomes = ProcessExecutor(n_jobs=2).run(
            jobs, on_outcome=lambda outcome: seen.append(outcome.job.seed))
        # The slow job 0 holds one worker; the other runs 1, 2 and 3.
        assert seen == [1, 2, 3, 0]
        assert [outcome.job for outcome in outcomes] == jobs
        assert all(outcome.ok for outcome in outcomes)

    @pytest.mark.parametrize("make_executor", [
        SerialExecutor, lambda: ProcessExecutor(n_jobs=2),
    ], ids=["serial", "process"])
    def test_second_run_is_served_entirely_from_the_merged_store(self,
                                                                 make_executor):
        dot = DotProductBenchmark(length=12)
        jobs = [SweepJob("dot", dot, seed=0, start=start, stop=start + 8)
                for start in (0, 8)]
        store = EvaluationStore()
        executor = make_executor()
        executor.run(jobs, store=store)
        assert len(store) == 16
        first = store.snapshot()

        # Every record the first run merged back serves the second.
        before = store.stats
        executor.run(jobs, store=store)
        assert store.snapshot() == first
        assert store.stats.misses == before.misses
        assert store.stats.hits == before.hits + 16

    def test_more_workers_than_cores_survive_a_kill(self, tmp_path, monkeypatch,
                                                   caplog):
        # 16 per-seed jobs in which agents share contexts, on four workers
        # (more than the cores of a small host), one of them killed: the
        # outcomes and the merged store must equal a serial run's.
        jobs = expand_jobs(
            {"dot12": DotProductBenchmark(length=12),
             "dot16": DotProductBenchmark(length=16)},
            [AgentSpec("q-learning"), AgentSpec("sarsa")],
            seeds=(0, 1, 2, 3), max_steps=50)
        assert len(jobs) == 16
        serial_store = EvaluationStore()
        serial = SerialExecutor().run(jobs, store=serial_store)

        _install_faults(FaultPlan(rules=(FaultRule(action="kill", after=5),)),
                        tmp_path, monkeypatch)
        store = EvaluationStore()
        executor = ProcessExecutor(n_jobs=4,
                                   retry_policy=RetryPolicy(job_timeout_s=60))
        with caplog.at_level(logging.WARNING, logger="repro.runtime.executor"):
            parallel = executor.run(jobs, store=store)
        assert "lost a worker" in caplog.text
        assert len(parallel) == 16
        for left, right in zip(serial, parallel):
            assert left.ok and right.ok and right.attempts == 1
            assert left.job == right.job
            assert [r.point for r in left.result.records] == \
                [r.point for r in right.result.records]
            assert [r.deltas for r in left.result.records] == \
                [r.deltas for r in right.result.records]
        assert set(store.keys()) == set(serial_store.keys())


# -------------------------------------------------------------------- campaign


class TestCampaignRuntime:
    def test_campaign_run_reports_all_failures_after_running_everything(self):
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)},
                           [AgentSpec.from_factory(_crashing_factory),
                            AgentSpec("random")],
                           seeds=(0, 1), max_steps=10)
        outcomes = SerialExecutor().run(jobs)
        assert [outcome.ok for outcome in outcomes] == [False, False, True, True]
        assert all("boom" in outcome.error for outcome in outcomes[:2])

    def test_summarize_empty_entries_returns_empty_dict(self):
        assert summarize([]) == {}


# ------------------------------------------------------------------------- cli


class TestCampaignCli:
    def test_campaign_subcommand_serial(self, capsys):
        from repro.cli import main

        exit_code = main(["campaign", "--benchmarks", "dotproduct", "--seeds", "0",
                          "--agents", "random", "--steps", "15"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Agent random" in captured
        assert "Evaluation store" in captured

    def test_campaign_subcommand_persists_store(self, tmp_path, capsys):
        from repro.cli import main

        store_path = str(tmp_path / "store.sqlite")
        assert main(["campaign", "--benchmarks", "dotproduct", "--seeds", "0",
                     "--agents", "random", "--steps", "15", "--store", store_path]) == 0
        capsys.readouterr()
        assert main(["campaign", "--benchmarks", "dotproduct", "--seeds", "0",
                     "--agents", "random", "--steps", "15", "--store", store_path]) == 0
        captured = capsys.readouterr().out
        assert "store warm with" in captured
        assert "(100 % hit rate)" in captured


class TestBaselineJobs:
    """Baseline explorers run as first-class jobs through both executors."""

    def test_expand_jobs_accepts_baseline_specs(self):
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)},
                           [AgentSpec("q-learning"), AgentSpec("simulated-annealing"),
                            AgentSpec("exhaustive")],
                           seeds=(0,), max_steps=15)
        assert [job.agent.name for job in jobs] == \
            ["q-learning", "simulated-annealing", "exhaustive"]

    def test_baseline_jobs_identical_across_executors(self):
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)},
                           [AgentSpec("hill-climbing"), AgentSpec("genetic")],
                           seeds=(0, 1), max_steps=20)
        serial = SerialExecutor().run(jobs, store=EvaluationStore())
        process = ProcessExecutor(n_jobs=2).run(jobs, store=EvaluationStore())
        assert all(outcome.ok for outcome in serial + process)
        for left, right in zip(serial, process):
            assert left.result.agent_name == right.result.agent_name
            assert [r.deltas for r in left.result.records] == \
                [r.deltas for r in right.result.records]

    def test_baseline_rejects_random_start(self):
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)},
                           AgentSpec("hill-climbing"), seeds=(0,), max_steps=15,
                           random_start=True)
        with pytest.raises(ConfigurationError, match="random_start"):
            execute_job(jobs[0])

    def test_baseline_evaluations_populate_the_shared_store(self):
        store = EvaluationStore()
        jobs = expand_jobs({"dot": DotProductBenchmark(length=12)},
                           AgentSpec("hill-climbing"), seeds=(0,), max_steps=15)
        SerialExecutor().run(jobs, store=store)
        assert len(store) > 0
        # A second run over the same definition is served from the store.
        SerialExecutor().run(jobs, store=store)
        assert store.stats.hits > 0
