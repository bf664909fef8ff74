"""Batched vectorized exploration: bit-identity and the batching policy.

The load-bearing contract of :mod:`repro.dse.batched_env` is that stepping
many episodes in lockstep is an implementation detail: every per-seed
:class:`~repro.dse.results.ExplorationResult` coming out of a batched job
must equal — field for field, float for float — the result of running the
corresponding :class:`~repro.runtime.jobs.ExplorationJob` on the serial
engine (:class:`~repro.dse.explorer.Explorer`, driven directly by
``tests/_serial_reference.py``, since ``execute_job`` itself runs one-seed
jobs as one-episode batches).  These tests pin that contract for every
registered RL agent on every registered benchmark, for mid-batch
termination, and for the RNG stream shortcuts and the exact bulk word
stream the vectorized agents rely on.  A spy test checks that no RL job
and no replay steps the serial engine; the rest covers the batching
policy of ``expand_jobs`` and the campaign/spec/CLI wire-through.
"""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.agents import vectorized
from repro.agents.vectorized import _BLOCK_WORDS, _WordStream
from repro.benchmarks.registry import available, create
from repro.cli import main
from repro.dse import AxcDseEnv, Evaluator, Explorer
from repro.dse.reward import ScalarizedReward
from repro.dse.thresholds import ExplorationThresholds
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.registry import rl_agent_names
from repro.experiments.spec import RuntimeSpec
from repro.planner import execute_plan, plan_experiments
from repro.runtime import (
    AgentSpec,
    BatchedExplorationJob,
    EvaluationStore,
    ExplorationJob,
    SerialExecutor,
    execute_job,
    expand_jobs,
    flatten_outcomes,
)

from _serial_reference import serial_engine, serial_result

#: Small instances of every registered benchmark — large enough to have a
#: non-trivial design space, small enough to keep kernel runs cheap.
SMALL_BENCHMARKS = {
    "matmul": {"rows": 3, "inner": 3, "cols": 3},
    "fir": {"num_samples": 12, "num_taps": 4},
    "conv2d": {"height": 6, "width": 6},
    "dct": {"block_size": 4, "num_blocks": 1},
    "sobel": {"height": 6, "width": 6},
    "dotproduct": {"length": 8},
    "kmeans": {"num_points": 8, "num_centroids": 2},
}

SEEDS = (0, 3)


def _serial_result(benchmark, seed, agent="q-learning", steps=50, env_kwargs=None):
    job = ExplorationJob(
        benchmark_label="bench", benchmark=benchmark, seed=seed,
        agent=AgentSpec(agent), max_steps=steps, env_kwargs=env_kwargs or {},
    )
    return serial_result(job, store=EvaluationStore())


def _batched_results(benchmark, seeds, agent="q-learning", steps=50, env_kwargs=None):
    job = BatchedExplorationJob(
        benchmark_label="bench", benchmark=benchmark, seeds=seeds,
        agent=AgentSpec(agent), max_steps=steps, env_kwargs=env_kwargs or {},
    )
    return execute_job(job, store=EvaluationStore())


# ----------------------------------------------------------- bit-identity


class TestBitIdentity:
    def test_registry_covers_every_benchmark(self):
        # If a new benchmark is registered, it must join the identity matrix.
        assert set(SMALL_BENCHMARKS) == set(available())

    @pytest.mark.parametrize("name", sorted(SMALL_BENCHMARKS))
    def test_batched_equals_serial_per_benchmark(self, name):
        benchmark = create(name, **SMALL_BENCHMARKS[name])
        batched = _batched_results(benchmark, SEEDS)
        assert len(batched) == len(SEEDS)
        for seed, result in zip(SEEDS, batched):
            assert result == _serial_result(benchmark, seed)

    @pytest.mark.parametrize("agent", ["q-learning", "sarsa", "random"])
    @pytest.mark.parametrize("scheme", ["directional", "compact"])
    def test_batched_equals_serial_per_agent_and_scheme(self, agent, scheme):
        benchmark = create("dotproduct", length=8)
        env_kwargs = {"action_scheme": scheme}
        batched = _batched_results(benchmark, SEEDS, agent=agent,
                                   env_kwargs=env_kwargs)
        for seed, result in zip(SEEDS, batched):
            assert result == _serial_result(benchmark, seed, agent=agent,
                                            env_kwargs=env_kwargs)

    def test_mid_batch_termination_keeps_survivors_identical(self):
        # With these thresholds seed 1 hits the cumulative-reward ceiling
        # mid-batch while the other episodes run out their full budget —
        # the survivors must keep stepping exactly as they would serially.
        benchmark = create("dotproduct", length=8)
        env_kwargs = {
            "thresholds": ExplorationThresholds(
                accuracy=2.0, power_mw=0.0, time_ns=0.0
            ),
            "max_cumulative_reward": 20.0,
        }
        seeds = (0, 1, 2, 3)
        batched = _batched_results(benchmark, seeds, steps=120,
                                   env_kwargs=env_kwargs)
        assert any(result.terminated for result in batched)
        assert not all(result.terminated for result in batched)
        lengths = {result.num_steps for result in batched}
        assert len(lengths) > 1, "expected episodes to stop at different steps"
        for seed, result in zip(seeds, batched):
            assert result == _serial_result(benchmark, seed, steps=120,
                                            env_kwargs=env_kwargs)

    def test_sarsa_mid_batch_termination_keeps_survivors_identical(self):
        # SARSA bootstraps from a drawn next action: episodes that stop must
        # drop out of the gathered draws without shifting anyone's stream.
        benchmark = create("dotproduct", length=8)
        env_kwargs = {
            "thresholds": ExplorationThresholds(
                accuracy=2.0, power_mw=0.0, time_ns=0.0
            ),
            "max_cumulative_reward": 20.0,
        }
        seeds = (0, 1, 2, 3)
        batched = _batched_results(benchmark, seeds, agent="sarsa", steps=120,
                                   env_kwargs=env_kwargs)
        assert any(result.terminated for result in batched)
        assert not all(result.terminated for result in batched)
        for seed, result in zip(seeds, batched):
            assert result == _serial_result(benchmark, seed, agent="sarsa", steps=120,
                                            env_kwargs=env_kwargs)

    @pytest.mark.parametrize("agent", ["q-learning", "sarsa", "random"])
    @pytest.mark.parametrize("scheme", ["directional", "compact"])
    def test_batched_equals_serial_under_a_custom_reward(self, agent, scheme):
        # A reward function other than Algorithm 1 fills the same
        # per-(workload, point) outcome tables, one call per point.
        benchmark = create("dotproduct", length=8)
        env_kwargs = {"reward_function": ScalarizedReward(weight_accuracy=0.5),
                      "action_scheme": scheme}
        batched = _batched_results(benchmark, SEEDS, agent=agent, steps=80,
                                   env_kwargs=env_kwargs)
        for seed, result in zip(SEEDS, batched):
            assert not set(result.rewards.tolist()) <= {0.0, 1.0, -1.0, 100.0, -100.0}
            assert result == _serial_result(benchmark, seed, agent=agent, steps=80,
                                            env_kwargs=env_kwargs)

    def test_random_start_matches_serial(self):
        benchmark = create("dotproduct", length=8)
        job = BatchedExplorationJob(
            benchmark_label="bench", benchmark=benchmark, seeds=SEEDS,
            agent=AgentSpec("q-learning"), max_steps=40, random_start=True,
        )
        batched = execute_job(job, store=EvaluationStore())
        for seed, result in zip(SEEDS, batched):
            serial = ExplorationJob(
                benchmark_label="bench", benchmark=benchmark, seed=seed,
                agent=AgentSpec("q-learning"), max_steps=40, random_start=True,
            )
            assert result == serial_result(serial, store=EvaluationStore())


# ---------------------------------------------------- RNG stream shortcuts


class TestStreamShortcuts:
    def test_singleton_choice_is_stream_neutral(self):
        # The vectorized agents skip ``rng.choice`` for unique argmaxes;
        # that is only sound because a one-element choice never advances
        # the bit generator.
        for seed in range(20):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            assert int(a.choice(np.array([7]))) == 7
            assert a.random() == b.random()

    def test_choice_draws_exactly_integers(self):
        # The vectorized tie-break replaces ``rng.choice(best)`` with
        # ``best[rng.integers(0, len(best))]`` — same value, same stream.
        for n in (2, 3, 5, 8):
            for seed in range(20):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed)
                candidates = np.arange(100, 100 + n)
                assert int(a.choice(candidates)) == \
                    int(candidates[int(b.integers(0, n))])
                assert a.random() == b.random()


# ---------------------------------------------------- exact bulk word stream

#: ``integers(n)`` bounds: trivial, small, powers of two, and bounds where
#: Lemire's rejection fires often (3e9) or never (2**31).
STREAM_BOUNDS = (1, 2, 3, 7, 8, 14, 2**31, 3_000_000_000, 2**32 - 1)


def _assert_stream_equals_generator(seed, calls, min_words):
    """Repeat ``calls`` until at least ``min_words`` words are drawn.

    ``None`` stands for ``random()``, which draws a whole word;
    ``integers(n > 1)`` draws at least half of one.
    """
    reference = np.random.default_rng(seed)
    stream = _WordStream(seed)
    words = 0.0
    for n in itertools.cycle(calls):
        if words > min_words:
            return
        if n is None:
            assert stream.random() == reference.random()
            words += 1
        else:
            assert stream.integers(n) == int(reference.integers(n))
            words += 0.5 if n > 1 else 0.0


_CALLS = st.lists(st.sampled_from((None,) + STREAM_BOUNDS), min_size=1, max_size=8)


class TestWordStream:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=_CALLS)
    def test_equals_the_generator_call_for_call_across_refills(self, seed, calls):
        assume(any(n != 1 for n in calls))
        _assert_stream_equals_generator(seed, calls, min_words=1.5 * _BLOCK_WORDS)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), calls=_CALLS)
    def test_every_refill_boundary_keeps_the_sequence(self, seed, calls):
        # Three-word blocks put a refill at every alignment of the draws,
        # including a kept 32-bit half pending across the refill.
        assume(any(n != 1 for n in calls))
        with mock.patch.object(vectorized, "_BLOCK_WORDS", 3):
            _assert_stream_equals_generator(seed, calls, min_words=60)


class TestBatchedEdgeCases:
    @pytest.mark.parametrize("agent", ["q-learning", "sarsa", "random"])
    def test_one_seed_batch_equals_its_serial_job(self, agent):
        benchmark = create("dotproduct", length=8)
        (result,) = _batched_results(benchmark, (5,), agent=agent, steps=200)
        assert result == _serial_result(benchmark, 5, agent=agent, steps=200)

    def test_episodes_crossing_several_refills_equal_serial(self):
        # Every SARSA step draws at least two words (the epsilon tests of the
        # selection and of the bootstrap), so 3,000 steps span several
        # refill blocks of each episode's stream.
        benchmark = create("dotproduct", length=8)
        batched = _batched_results(benchmark, SEEDS, agent="sarsa", steps=3000)
        for seed, result in zip(SEEDS, batched):
            words_drawn = 2 * (result.num_steps - 1)
            assert words_drawn > 2 * _BLOCK_WORDS
            assert result == _serial_result(benchmark, seed, agent="sarsa", steps=3000)


# ------------------------------------------- routing: one engine for RL jobs


def _refuse_the_serial_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an exploration stepped on the serial engine")

    monkeypatch.setattr(Explorer, "run", refuse)
    monkeypatch.setattr(AxcDseEnv, "step", refuse)


class TestNoJobReachesTheSerialEngine:
    """``execute_job`` steps every RL job and every replay on the batched engine."""

    @pytest.mark.parametrize("random_start", [False, True])
    @pytest.mark.parametrize("scheme", ["directional", "compact"])
    @pytest.mark.parametrize("agent", rl_agent_names())
    def test_rl_job_runs_as_a_one_episode_batch(self, agent, scheme, random_start,
                                                monkeypatch):
        job = ExplorationJob(
            benchmark_label="bench", benchmark=create("dotproduct", length=8), seed=3,
            agent=AgentSpec(agent), max_steps=80,
            env_kwargs={"action_scheme": scheme}, random_start=random_start,
        )
        reference = serial_result(job, store=EvaluationStore())
        _refuse_the_serial_engine(monkeypatch)
        assert execute_job(job, store=EvaluationStore()) == reference

    def test_replayed_exploration_runs_batched(self, monkeypatch):
        _refuse_the_serial_engine(monkeypatch)
        # 5,000 random steps visit every point of this design space, so the
        # second plan replays the exploration from the complete store.
        spec = ExperimentSpec.from_dict({
            "kind": "explore", "benchmarks": ["dotproduct:length=8"],
            "agents": ["random"], "seeds": [0], "max_steps": 5000,
        })
        store = EvaluationStore()
        first = run_experiment(spec, store=store)
        plan = plan_experiments([spec], store=store)
        assert plan.replay_nodes and not plan.evaluate_nodes
        second = execute_plan(plan, store=store).reports[spec.fingerprint()]
        assert first.ok and second.ok
        assert second.entries == first.entries

    def test_baseline_job_still_runs(self, monkeypatch):
        job = ExplorationJob(
            benchmark_label="bench", benchmark=create("dotproduct", length=8), seed=3,
            agent=AgentSpec("hill-climbing"), max_steps=60,
        )
        reference = execute_job(job, store=EvaluationStore())
        _refuse_the_serial_engine(monkeypatch)
        assert execute_job(job, store=EvaluationStore()) == reference


# ------------------------------------------------- design-point equivalence


class TestEquivalenceSharing:
    def test_sharing_is_bit_identical_and_saves_kernel_runs(self, monkeypatch):
        benchmark = create("dotproduct", length=8)
        calls = {"n": 0}
        original = type(benchmark).execute

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(benchmark), "execute", counting)

        shared = Evaluator(benchmark, seed=0, store=EvaluationStore(),
                           share_equivalent=True)
        points = [shared.design_space.point_at(i) for i in range(40)]
        calls["n"] = 0
        shared_records = shared.evaluate_many(points)
        shared_runs = calls["n"]

        unshared = Evaluator(benchmark, seed=0, store=EvaluationStore(),
                             share_equivalent=False)
        calls["n"] = 0
        unshared_records = unshared.evaluate_many(points)
        unshared_runs = calls["n"]

        assert shared_runs < unshared_runs
        for left, right in zip(shared_records, unshared_records):
            assert left.point == right.point
            assert left.deltas == right.deltas
            assert left.approx_cost == right.approx_cost


# --------------------------------------------------------- batching policy


class TestExpandJobsBatching:
    def _benchmarks(self):
        return {"dot": create("dotproduct", length=8)}

    def test_default_stays_per_seed(self):
        jobs = expand_jobs(self._benchmarks(), AgentSpec("q-learning"),
                           seeds=(0, 1, 2))
        assert all(isinstance(job, ExplorationJob) for job in jobs)

    def test_auto_batches_all_seeds_into_one_job(self):
        jobs = expand_jobs(self._benchmarks(), AgentSpec("q-learning"),
                           seeds=(0, 1, 2, 3), batch_size=0)
        assert len(jobs) == 1
        assert isinstance(jobs[0], BatchedExplorationJob)
        assert jobs[0].seeds == (0, 1, 2, 3)

    def test_explicit_batch_size_chunks_consecutively(self):
        jobs = expand_jobs(self._benchmarks(), AgentSpec("q-learning"),
                           seeds=(0, 1, 2, 3, 4), batch_size=2)
        seed_groups = [
            job.seeds if isinstance(job, BatchedExplorationJob) else (job.seed,)
            for job in jobs
        ]
        assert seed_groups == [(0, 1), (2, 3), (4,)]
        # A single-seed remainder chunk degenerates to a plain serial job.
        assert isinstance(jobs[-1], ExplorationJob)
        assert all(isinstance(job, BatchedExplorationJob) for job in jobs[:-1])

    def test_batch_size_one_disables_batching(self):
        jobs = expand_jobs(self._benchmarks(), AgentSpec("q-learning"),
                           seeds=(0, 1, 2), batch_size=1)
        assert all(isinstance(job, ExplorationJob) for job in jobs)

    def test_baseline_agents_never_batch(self):
        jobs = expand_jobs(self._benchmarks(), AgentSpec("hill-climbing"),
                           seeds=(0, 1, 2), batch_size=0)
        assert all(isinstance(job, ExplorationJob) for job in jobs)

    @pytest.mark.parametrize("agent", rl_agent_names())
    def test_every_registered_rl_family_batches(self, agent):
        jobs = expand_jobs(self._benchmarks(), AgentSpec(agent), seeds=(0, 1), batch_size=0)
        assert len(jobs) == 1
        assert isinstance(jobs[0], BatchedExplorationJob)
        assert jobs[0].seeds == (0, 1)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_jobs(self._benchmarks(), AgentSpec("q-learning"),
                        seeds=(0, 1), batch_size=-1)

    def test_batched_job_rejects_non_batchable_agent(self):
        with pytest.raises(ConfigurationError):
            BatchedExplorationJob(
                benchmark_label="dot", benchmark=create("dotproduct", length=8),
                seeds=(0, 1), agent=AgentSpec("hill-climbing"),
            )


# ------------------------------------------------------ campaign/executors


class TestCampaignBatching:
    SEEDS = (0, 1, 2, 3)

    def _spec(self, **runtime):
        return ExperimentSpec.from_dict({
            "kind": "campaign",
            "benchmarks": [{"name": "dotproduct", "params": {"length": 8},
                            "label": "dot"}],
            "agents": ["q-learning"], "seeds": list(self.SEEDS),
            "max_steps": 40, "runtime": runtime,
        })

    def _dispatched(self, spec):
        """The job lists ``run_experiment`` hands the executor for ``spec``."""
        calls = []

        class Spy:
            def run(self, jobs, **kwargs):
                calls.append(list(jobs))
                return SerialExecutor().run(jobs, **kwargs)

        run_experiment(spec, executor=Spy(), store=EvaluationStore())
        return calls

    def test_auto_batching_spreads_seeds_over_workers(self):
        (serial_jobs,) = self._dispatched(self._spec())
        assert [job.seeds for job in serial_jobs] == [(0, 1, 2, 3)]
        (process_jobs,) = self._dispatched(self._spec(executor="process", jobs=2))
        assert [job.seeds for job in process_jobs] == [(0, 1), (2, 3)]

    def test_batched_campaign_matches_per_seed_campaign(self):
        with serial_engine() as serial_jobs:
            reference = run_experiment(self._spec(batch_size=1))
        assert [job.seed for job in serial_jobs] == list(self.SEEDS)
        batched = run_experiment(self._spec(batch_size=4))
        assert [(e.benchmark_label, e.seed) for e in batched.entries] == \
            [(e.benchmark_label, e.seed) for e in reference.entries]
        for left, right in zip(reference.entries, batched.entries):
            assert left.result == right.result

    def test_process_executor_runs_batched_jobs_and_merges_store(self):
        store = EvaluationStore()
        report = run_experiment(
            self._spec(executor="process", jobs=2, batch_size=2), store=store)
        with serial_engine() as serial_jobs:
            reference = run_experiment(self._spec(batch_size=1))
        assert [job.seed for job in serial_jobs] == list(self.SEEDS)
        for left, right in zip(reference.entries, report.entries):
            assert left.result == right.result
        assert len(store) > 0  # batched workers merged evaluations back

    def test_flatten_outcomes_splits_batched_outcomes(self):
        jobs = expand_jobs({"dot": create("dotproduct", length=8)},
                           AgentSpec("q-learning"), seeds=self.SEEDS,
                           max_steps=40, batch_size=4)
        outcomes = SerialExecutor().run(jobs)
        assert len(outcomes) == 1  # one batched job ran ...
        flat = flatten_outcomes(outcomes)
        assert [outcome.job.seed for outcome in flat] == [0, 1, 2, 3]
        assert all(outcome.ok for outcome in flat)
        shares = [outcome.duration_s for outcome in flat]
        assert shares == pytest.approx([outcomes[0].duration_s / 4] * 4)

    def test_negative_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_jobs({"dot": create("dotproduct", length=8)},
                        AgentSpec("q-learning"), seeds=self.SEEDS, batch_size=-2)
        with pytest.raises(ConfigurationError):
            self._spec(batch_size=-2)


# ------------------------------------------------------------ spec and CLI


class TestRuntimeSpecBatching:
    def test_round_trip_preserves_batch_size(self):
        spec = RuntimeSpec(batch_size=8)
        assert RuntimeSpec.from_dict(spec.to_dict()).batch_size == 8

    def test_validation_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            RuntimeSpec(batch_size=-1)
        with pytest.raises(ConfigurationError):
            RuntimeSpec(batch_size="many")

    def test_effective_batch_size_policy(self):
        assert RuntimeSpec(batch_size=16).effective_batch_size(4) == 16
        assert RuntimeSpec().effective_batch_size(1) == 1
        assert RuntimeSpec(executor="process", jobs=2).effective_batch_size(8) == 4
        assert RuntimeSpec().effective_batch_size(6) == 6


class TestCliBatching:
    def test_campaign_reports_batched_execution(self, capsys):
        assert main(["campaign", "--benchmarks", "dotproduct:length=8",
                     "--seeds", "0", "1", "--steps", "25",
                     "--batch-size", "2"]) == 0
        assert "batched 2 seeds/job" in capsys.readouterr().out

    def test_campaign_batch_size_one_stays_serial(self, capsys):
        assert main(["campaign", "--benchmarks", "dotproduct:length=8",
                     "--seeds", "0", "1", "--steps", "25",
                     "--batch-size", "1"]) == 0
        assert "batched" not in capsys.readouterr().out
