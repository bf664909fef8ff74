"""Fault tolerance: retries, timeouts, crash recovery and checkpointed resume.

The load-bearing guarantees:

* retryable failures spend attempts, deterministic failures never do, and
  both executors classify an over-budget job as ``timed_out``;
* a worker killed mid-wave never sinks the run — completed outcomes are
  salvaged, the pool is rebuilt, and only unfinished jobs re-dispatch
  (without consuming retry budget);
* a campaign killed mid-run and resumed with ``resume=True`` produces a
  report *byte-identical* to an uninterrupted run, re-executing only the
  unfinished tail;
* every fault is injected deterministically through the env-guarded
  :mod:`repro.runtime.faults` harness — no real crashes required.
"""

from __future__ import annotations

import base64
import concurrent.futures
import dataclasses
import json
import logging
import os
import pickle
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.benchmarks import DotProductBenchmark, MatMulBenchmark
from repro.dse.results import ExplorationResult
from repro.errors import ConfigurationError, TransientError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.spec import RuntimeSpec
from repro.runtime import (
    FAULT_PLAN_ENV,
    AgentSpec,
    BatchedExplorationJob,
    CampaignCheckpoint,
    EvaluationStore,
    ExplorationJob,
    FaultPlan,
    FaultRule,
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    inject_faults,
    is_retryable,
    job_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A fast retry policy for tests: no real sleeping between attempts.
FAST = {"backoff_base_s": 0.0}


def _job(seed=0, max_steps=10, label="dot", agent=None):
    return ExplorationJob(
        benchmark_label=label,
        benchmark=DotProductBenchmark(length=12),
        seed=seed,
        agent=agent if agent is not None else AgentSpec("random"),
        max_steps=max_steps,
    )


def _jobs(count, **kwargs):
    return [_job(seed=seed, **kwargs) for seed in range(count)]


def _install(plan, tmp_path, monkeypatch):
    env = plan.install(tmp_path / "faults")
    monkeypatch.setenv(FAULT_PLAN_ENV, env[FAULT_PLAN_ENV])


def _record_list_layout(result):
    """``result`` as the one-record-per-step layout it pickled to before columns."""
    legacy = object.__new__(ExplorationResult)
    legacy.__dict__.update(
        benchmark_name=result.benchmark_name,
        records=list(result.records),
        thresholds=result.thresholds,
        precise_cost=result.precise_cost,
        agent_name=result.agent_name,
        terminated=result.terminated,
        truncated=result.truncated,
        metadata=result.metadata,
        _cache={},
    )
    return legacy


def _result_signature(outcome):
    """The result-determining content of one ok outcome."""
    return [record.deltas for record in outcome.result.records]


# --------------------------------------------------------------- retry policy


class TestRetryPolicy:
    def test_default_policy_is_run_once(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.job_timeout_s is None
        assert not policy.enabled

    def test_enabled_by_attempts_or_timeout(self):
        assert RetryPolicy(max_attempts=2).enabled
        assert RetryPolicy(job_timeout_s=1.0).enabled
        assert not RetryPolicy(max_attempts=1).enabled

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"max_attempts": -1},
        {"max_attempts": True},
        {"job_timeout_s": 0},
        {"job_timeout_s": -2.0},
        {"backoff_base_s": -0.1},
        {"backoff_factor": -1.0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_is_deterministic_per_fingerprint(self):
        policy = RetryPolicy(max_attempts=3)
        fingerprint = job_fingerprint(_job())
        assert policy.backoff_s(fingerprint, 1) == policy.backoff_s(fingerprint, 1)
        # Jitter scales the raw exponential delay into [0.5, 1.0] * raw.
        for attempt, raw in ((1, 0.05), (2, 0.10), (3, 0.20)):
            delay = policy.backoff_s(fingerprint, attempt)
            assert 0.5 * raw <= delay <= raw

    def test_backoff_decorrelates_jobs_and_respects_cap(self):
        policy = RetryPolicy(max_attempts=2, backoff_max_s=0.1)
        first = job_fingerprint(_job(seed=0))
        second = job_fingerprint(_job(seed=1))
        assert policy.backoff_s(first, 1) != policy.backoff_s(second, 1)
        assert policy.backoff_s(first, 50) <= 0.1


class TestIsRetryable:
    def test_transient_error_is_retryable(self):
        assert is_retryable(TransientError("lost a worker"))

    def test_repro_errors_are_deterministic(self):
        assert not is_retryable(ConfigurationError("bad spec"))

    @pytest.mark.parametrize("error", [
        ConnectionError("gone"),
        TimeoutError("late"),
        sqlite3.OperationalError("database is locked"),
        # Distinct from builtin TimeoutError before Python 3.11.
        concurrent.futures.TimeoutError(),
    ])
    def test_infrastructure_conditions_are_retryable(self, error):
        assert is_retryable(error)

    @pytest.mark.parametrize("error", [ValueError("bad"), RuntimeError("boom")])
    def test_arbitrary_exceptions_default_to_deterministic(self, error):
        assert not is_retryable(error)


class TestJobFingerprint:
    def test_stable_for_equal_jobs(self):
        assert job_fingerprint(_job(seed=3)) == job_fingerprint(_job(seed=3))

    def test_labels_are_presentation_not_content(self):
        # Neither the benchmark label nor the agent label shifts the
        # fingerprint: a relabeled campaign may reuse its checkpoint.
        assert (job_fingerprint(_job(label="dot"))
                == job_fingerprint(_job(label="renamed")))
        assert (job_fingerprint(_job(agent=AgentSpec("random")))
                == job_fingerprint(_job(agent=AgentSpec("random", label="alias"))))

    def test_result_determining_fields_shift_it(self):
        base = job_fingerprint(_job())
        assert job_fingerprint(_job(seed=1)) != base
        assert job_fingerprint(_job(max_steps=11)) != base
        assert (job_fingerprint(_job(agent=AgentSpec("hill-climbing")))
                != base)

    def test_non_jobs_are_rejected(self):
        with pytest.raises(ConfigurationError, match="job_fingerprint"):
            job_fingerprint("not a job")

    def test_fingerprints_keep_their_recorded_bytes(self):
        # Fingerprints key checkpoint journals; these values were recorded
        # by an earlier release, whose journals must keep resuming.
        job = ExplorationJob(
            benchmark_label="m", benchmark=MatMulBenchmark(rows=4, inner=4, cols=4),
            seed=3, agent=AgentSpec("q-learning", options={"epsilon": 0.2,
                                                           "learning_rate": 0.5}),
            max_steps=50,
        )
        batched = BatchedExplorationJob(
            benchmark_label="d", benchmark=DotProductBenchmark(length=16),
            seeds=(0, 1), agent=AgentSpec("sarsa"), max_steps=40,
        )
        assert job_fingerprint(job) == "ad539c04ebb34481"
        assert job_fingerprint(batched) == "04e7252d6f724468"


# ------------------------------------------------------------ fault injection


class TestFaultPlan:
    @pytest.mark.parametrize("kwargs", [
        {"action": "explode"},
        {"action": "kill", "times": -1},
        {"action": "kill", "after": -2},
        {"action": "kill", "exit_code": 300},
        {"action": "delay", "delay_s": -0.5},
        {"action": "transient", "match": ""},
    ])
    def test_invalid_rules_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultRule(**kwargs)

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(rules=(
            FaultRule(action="kill", match="dot", after=2, exit_code=42),
            FaultRule(action="delay", delay_s=0.5, times=3),
        ), seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_keys_and_missing_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault rule key"):
            FaultRule.from_dict({"action": "kill", "blast_radius": 9})
        with pytest.raises(ConfigurationError, match="requires an 'action'"):
            FaultRule.from_dict({"match": "*"})
        with pytest.raises(ConfigurationError, match="unknown fault plan key"):
            FaultPlan.from_dict({"rules": [], "chaos": True})

    def test_no_plan_installed_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        inject_faults(_job())  # nothing raised, nothing injected

    def test_transient_rule_fires_exactly_times(self, tmp_path, monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient", times=1),)),
                 tmp_path, monkeypatch)
        with pytest.raises(TransientError, match="injected transient fault"):
            inject_faults(_job())
        inject_faults(_job())  # the rule is spent

    def test_after_window_skips_leading_executions(self, tmp_path, monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient", after=1,
                                            times=1),)),
                 tmp_path, monkeypatch)
        inject_faults(_job())  # occurrence 0: skipped
        with pytest.raises(TransientError):
            inject_faults(_job())  # occurrence 1: fires
        inject_faults(_job())  # window exhausted

    def test_match_selects_jobs_by_identity(self, tmp_path, monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient",
                                            match="matmul"),)),
                 tmp_path, monkeypatch)
        inject_faults(_job(label="dot"))  # no match, no fault
        with pytest.raises(TransientError):
            inject_faults(_job(label="matmul_small"))

    def test_reinstall_rearms_spent_rules(self, tmp_path, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(action="transient", times=1),))
        _install(plan, tmp_path, monkeypatch)
        with pytest.raises(TransientError):
            inject_faults(_job())
        inject_faults(_job())
        _install(plan, tmp_path, monkeypatch)  # resets the firing state
        with pytest.raises(TransientError):
            inject_faults(_job())


# ------------------------------------------------------------- serial retries


class TestSerialRetries:
    def test_transient_fault_is_retried_to_success(self, tmp_path, monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient", times=1),)),
                 tmp_path, monkeypatch)
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=2, **FAST))
        [outcome] = executor.run([_job()])
        assert outcome.ok
        assert outcome.attempts == 2 and outcome.retried

    def test_without_budget_the_transient_fault_is_final(self, tmp_path,
                                                         monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient", times=1),)),
                 tmp_path, monkeypatch)
        [outcome] = SerialExecutor().run([_job()])
        assert not outcome.ok
        assert outcome.attempts == 1
        assert "injected transient fault" in outcome.error

    def test_deterministic_errors_never_spend_retries(self, crash_agent):
        executor = SerialExecutor(retry_policy=RetryPolicy(max_attempts=3, **FAST))
        job = _job(agent=crash_agent)
        [outcome] = executor.run([job])
        assert not outcome.ok
        assert outcome.attempts == 1  # RuntimeError is not retryable
        assert "RuntimeError: boom" in outcome.error

    def test_cooperative_timeout_spends_a_retry(self, tmp_path, monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="delay", delay_s=0.4,
                                            times=1),)),
                 tmp_path, monkeypatch)
        executor = SerialExecutor(retry_policy=RetryPolicy(
            max_attempts=2, job_timeout_s=0.1, **FAST))
        [outcome] = executor.run([_job()])
        # Attempt 1 blew the budget and was discarded; attempt 2 (fault
        # spent) came in under it.
        assert outcome.ok
        assert outcome.attempts == 2 and not outcome.timed_out

    def test_cooperative_timeout_is_final_without_budget(self, tmp_path,
                                                         monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="delay", delay_s=0.4,
                                            times=1),)),
                 tmp_path, monkeypatch)
        executor = SerialExecutor(retry_policy=RetryPolicy(job_timeout_s=0.1))
        [outcome] = executor.run([_job()])
        assert not outcome.ok and outcome.timed_out
        assert "timed out" in outcome.error and "0.1 s" in outcome.error

    def test_executor_rejects_non_policy(self):
        with pytest.raises(ConfigurationError, match="RetryPolicy"):
            SerialExecutor(retry_policy="twice")


# ----------------------------------------------------- process fault recovery


class TestProcessFaultRecovery:
    def test_worker_kill_is_salvaged_and_redispatched(self, tmp_path,
                                                      monkeypatch):
        jobs = _jobs(4)
        clean = [
            _result_signature(outcome)
            for outcome in SerialExecutor().run(_jobs(4))
        ]
        _install(FaultPlan(rules=(FaultRule(action="kill", times=1),)),
                 tmp_path, monkeypatch)
        outcomes = ProcessExecutor(n_jobs=2).run(jobs)
        assert len(outcomes) == 4 and all(outcome.ok for outcome in outcomes)
        # A dead worker is a pool failure, not a job failure: re-dispatch
        # consumes max_pool_rebuilds, never the jobs' attempt budget.
        assert all(outcome.attempts == 1 for outcome in outcomes)
        # Recovery is invisible in the results.
        assert [_result_signature(outcome) for outcome in outcomes] == clean

    def test_transient_worker_failure_retries_in_place(self, tmp_path,
                                                       monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="transient", times=1),)),
                 tmp_path, monkeypatch)
        executor = ProcessExecutor(n_jobs=2, retry_policy=RetryPolicy(
            max_attempts=2, **FAST))
        outcomes = executor.run(_jobs(4))
        assert all(outcome.ok for outcome in outcomes)
        # Exactly one execution claimed the injected fault and re-ran.
        assert sum(outcome.attempts for outcome in outcomes) == 5

    def test_wedged_worker_is_abandoned_and_job_retried(self, tmp_path,
                                                        monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="delay", delay_s=2.0,
                                            times=1),)),
                 tmp_path, monkeypatch)
        executor = ProcessExecutor(n_jobs=2, retry_policy=RetryPolicy(
            max_attempts=2, job_timeout_s=0.5, **FAST))
        outcomes = executor.run(_jobs(2))
        assert all(outcome.ok for outcome in outcomes)
        assert any(outcome.attempts == 2 for outcome in outcomes)
        assert not any(outcome.timed_out for outcome in outcomes)

    def test_wedged_worker_times_out_without_budget(self, tmp_path,
                                                    monkeypatch):
        _install(FaultPlan(rules=(FaultRule(action="delay", delay_s=2.0,
                                            times=1),)),
                 tmp_path, monkeypatch)
        executor = ProcessExecutor(n_jobs=2,
                                   retry_policy=RetryPolicy(job_timeout_s=0.5))
        outcomes = executor.run(_jobs(2))
        timed_out = [outcome for outcome in outcomes if outcome.timed_out]
        assert len(timed_out) >= 1
        assert all("timed out" in outcome.error for outcome in timed_out)
        assert all(outcome.ok for outcome in outcomes
                   if not outcome.timed_out)

    def test_repeated_pool_failure_degrades_to_serial(self, tmp_path,
                                                      monkeypatch, caplog):
        _install(FaultPlan(rules=(FaultRule(action="kill", times=1),)),
                 tmp_path, monkeypatch)
        executor = ProcessExecutor(n_jobs=2, max_pool_rebuilds=0)
        with caplog.at_level(logging.WARNING, logger="repro.runtime.executor"):
            outcomes = executor.run(_jobs(4))
        assert len(outcomes) == 4 and all(outcome.ok for outcome in outcomes)
        assert "degrading to serial execution" in caplog.text

    def test_executor_validation(self):
        with pytest.raises(ConfigurationError, match="RetryPolicy"):
            ProcessExecutor(retry_policy=0.5)
        with pytest.raises(ConfigurationError, match="max_pool_rebuilds"):
            ProcessExecutor(max_pool_rebuilds=-1)


# --------------------------------------------------------------- checkpoints


class TestCampaignCheckpoint:
    def _journal(self, tmp_path) -> Path:
        return tmp_path / "store.sqlite.checkpoint.jsonl"

    def test_flush_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError, match="flush_interval"):
            CampaignCheckpoint(self._journal(tmp_path), flush_interval=0)

    def test_round_trip_restores_identical_results(self, tmp_path):
        journal = self._journal(tmp_path)
        first = SerialExecutor().run(
            _jobs(3), checkpoint=CampaignCheckpoint(journal))
        assert journal.exists()

        resumed_checkpoint = CampaignCheckpoint(journal)
        assert len(resumed_checkpoint) == 3
        resumed = SerialExecutor().run(_jobs(3),
                                       checkpoint=resumed_checkpoint)
        assert resumed_checkpoint.restored == 3
        # Restored outcomes carry the journaled results, not re-executions.
        assert all(outcome.duration_s == 0.0 for outcome in resumed)
        assert ([_result_signature(outcome) for outcome in resumed]
                == [_result_signature(outcome) for outcome in first])

    def test_relabeled_jobs_reuse_the_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        SerialExecutor().run(_jobs(2, label="dot"),
                             checkpoint=CampaignCheckpoint(journal))
        checkpoint = CampaignCheckpoint(journal)
        SerialExecutor().run(_jobs(2, label="renamed"), checkpoint=checkpoint)
        assert checkpoint.restored == 2

    def test_failed_outcomes_are_never_journaled(self, tmp_path, crash_agent):
        journal = self._journal(tmp_path)
        job = _job(agent=crash_agent)
        [outcome] = SerialExecutor().run([job],
                                         checkpoint=CampaignCheckpoint(journal))
        assert not outcome.ok
        assert not journal.exists()  # the failed job must re-run on resume

    def test_buffering_respects_flush_interval(self, tmp_path):
        journal = self._journal(tmp_path)
        checkpoint = CampaignCheckpoint(journal, flush_interval=2)
        [outcome] = SerialExecutor().run([_job(seed=0)])
        checkpoint.record(outcome)
        assert not journal.exists()  # one entry buffered, interval is 2
        [other] = SerialExecutor().run([_job(seed=1)])
        checkpoint.record(other)
        assert journal.exists()
        assert len(CampaignCheckpoint(journal)) == 2

    def test_corrupt_journal_lines_fall_back_to_reevaluation(self, tmp_path):
        journal = self._journal(tmp_path)
        SerialExecutor().run(_jobs(2), checkpoint=CampaignCheckpoint(journal))
        valid_lines = journal.read_text(encoding="utf-8").splitlines()
        journal.write_text(
            "\n".join(valid_lines
                      + ["not json at all",
                         json.dumps({"v": 99, "job": "aa", "result": "bb"}),
                         valid_lines[0][: len(valid_lines[0]) // 2]])
            + "\n",
            encoding="utf-8",
        )
        # Only the intact, current-version lines survive the reload.
        assert len(CampaignCheckpoint(journal)) == 2

    def test_corrupt_payload_drops_entry_and_reruns(self, tmp_path):
        journal = self._journal(tmp_path)
        SerialExecutor().run([_job()], checkpoint=CampaignCheckpoint(journal))
        entry = json.loads(journal.read_text(encoding="utf-8"))
        entry["result"] = base64.b64encode(b"junk, not a pickle").decode("ascii")
        journal.write_text(json.dumps(entry) + "\n", encoding="utf-8")

        checkpoint = CampaignCheckpoint(journal)
        assert len(checkpoint) == 1
        assert checkpoint.result_for(_job()) is None  # falls back, never lies
        assert len(checkpoint) == 0 and checkpoint.restored == 0

    def test_version_1_lines_rerun_their_jobs(self, tmp_path):
        # A journal written while exploration results were one record per
        # step: its payloads unpickle into that layout, with no columns.
        # Such lines are foreign, so their jobs re-run and the report keeps
        # its bytes.
        store_path = str(tmp_path / "evals.sqlite")

        def spec(resume):
            return ExperimentSpec.from_dict({
                "kind": "campaign", "benchmarks": ["dotproduct:length=12"],
                "agents": ["random"], "seeds": [0, 1], "max_steps": 10,
                "runtime": {"executor": "serial", "batch_size": 1,
                            "store_path": store_path, "checkpoint_interval": 1,
                            "resume": resume},
            })

        reference = run_experiment(spec(False)).canonical_json()
        journal = Path(store_path + ".checkpoint.jsonl")
        lines = []
        for line in journal.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            result = pickle.loads(base64.b64decode(entry["result"]))
            entry["v"] = 1
            entry["result"] = base64.b64encode(
                pickle.dumps(_record_list_layout(result))).decode("ascii")
            lines.append(json.dumps(entry, sort_keys=True))
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(lines) == 2
        assert len(CampaignCheckpoint(journal)) == 0

        assert run_experiment(spec(True)).canonical_json() == reference
        assert len(CampaignCheckpoint(journal)) == 2  # re-run and re-journaled

    def test_clear_discards_the_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        checkpoint = CampaignCheckpoint(journal)
        SerialExecutor().run([_job()], checkpoint=checkpoint)
        assert journal.exists()
        checkpoint.clear()
        assert not journal.exists() and len(checkpoint) == 0

    def test_process_executor_restores_from_journal(self, tmp_path):
        journal = self._journal(tmp_path)
        SerialExecutor().run(_jobs(4), checkpoint=CampaignCheckpoint(journal))
        checkpoint = CampaignCheckpoint(journal)
        outcomes = ProcessExecutor(n_jobs=2).run(_jobs(4),
                                                 checkpoint=checkpoint)
        assert checkpoint.restored == 4
        assert all(outcome.ok for outcome in outcomes)


class TestRuntimeSpecResilience:
    def test_checkpoint_knobs_require_a_store(self):
        with pytest.raises(ConfigurationError, match="store_path"):
            RuntimeSpec(resume=True)
        with pytest.raises(ConfigurationError, match="store_path"):
            RuntimeSpec(checkpoint_interval=2)

    def test_checkpoint_path_sits_next_to_the_store(self, tmp_path):
        store_path = str(tmp_path / "evals.sqlite")
        runtime = RuntimeSpec(store_path=store_path, checkpoint_interval=1)
        assert runtime.checkpoint_path == store_path + ".checkpoint.jsonl"
        assert RuntimeSpec(store_path=store_path).checkpoint_path is None

    def test_retry_policy_reflects_the_spec(self):
        policy = RuntimeSpec(retries=3, job_timeout_s=4.5).retry_policy()
        assert policy.max_attempts == 3 and policy.job_timeout_s == 4.5

    def test_fresh_runs_clear_stale_journals_resume_keeps_them(self, tmp_path):
        store_path = str(tmp_path / "evals.sqlite")
        runtime = RuntimeSpec(store_path=store_path, checkpoint_interval=1)
        SerialExecutor().run(_jobs(2), store=EvaluationStore(path=store_path),
                             checkpoint=runtime.build_checkpoint())
        resumed = dataclasses.replace(runtime, resume=True).build_checkpoint()
        assert len(resumed) == 2
        fresh = runtime.build_checkpoint()  # resume=False: explicit fresh run
        assert len(fresh) == 0


# ------------------------------------------------------ interrupted campaigns


class TestKeyboardInterrupt:
    @pytest.mark.parametrize("journaled", [True, False],
                             ids=["checkpoint", "no-checkpoint"])
    @pytest.mark.parametrize("make_executor", [
        SerialExecutor, lambda: ProcessExecutor(n_jobs=2),
    ], ids=["serial", "process"])
    def test_interrupt_flushes_completed_work_before_reraising(self, tmp_path,
                                                               make_executor,
                                                               journaled):
        store_path = tmp_path / "evals.sqlite"
        journal = tmp_path / "evals.sqlite.checkpoint.jsonl"
        store = EvaluationStore(path=str(store_path))
        seen = []

        def interrupt_after_two(outcome):
            seen.append(outcome)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            make_executor().run(
                _jobs(6), store=store,
                on_outcome=interrupt_after_two,
                checkpoint=CampaignCheckpoint(journal) if journaled else None)
        # Ctrl-C lost the jobs in flight, not the campaign: the persisted
        # store holds every evaluation the run completed or merged, and
        # the journal (when there is one) the completed jobs.
        assert len(store) > 0
        assert len(EvaluationStore(path=str(store_path))) == len(store)
        if journaled:
            assert len(CampaignCheckpoint(journal)) >= 2


#: Driver for kill-and-resume tests: runs a tiny campaign through
#: ``run_experiment`` and writes the report's canonical (timing-free) JSON.
#: Executed as a subprocess so an injected ``kill`` fault can take the whole
#: campaign down, exactly like a crashed host.
_RESUME_DRIVER = textwrap.dedent("""
    import sys

    from repro.experiments import ExperimentSpec, run_experiment

    mode, store, out = sys.argv[1], sys.argv[2], sys.argv[3]
    spec = ExperimentSpec.from_dict({
        "kind": "campaign",
        "benchmarks": ["dotproduct:length=12"],
        "agents": ["random"],
        "seeds": [0, 1, 2, 3],
        "max_steps": 10,
        "runtime": {
            "executor": "serial",
            "batch_size": 1,  # one job per seed: kill mid-campaign
            "store_path": store,
            "checkpoint_interval": 1,
            "resume": mode == "resume",
        },
    })
    report = run_experiment(spec)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(report.canonical_json())
""")


class TestKillAndResume:
    """The PR's acceptance criterion, in-tree: kill, resume, compare bytes."""

    def _run_driver(self, tmp_path, mode, store, out, extra_env=None):
        env = dict(os.environ)
        env.pop(FAULT_PLAN_ENV, None)
        env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        env.update(extra_env or {})
        driver = tmp_path / "driver.py"
        driver.write_text(_RESUME_DRIVER, encoding="utf-8")
        return subprocess.run(
            [sys.executable, str(driver), mode, str(store), str(out)],
            env=env, capture_output=True, text=True, timeout=120)

    def test_killed_campaign_resumes_bit_identical(self, tmp_path):
        store = tmp_path / "evals.sqlite"
        journal = tmp_path / "evals.sqlite.checkpoint.jsonl"
        out = tmp_path / "report.json"

        # Kill the campaign on its 3rd job, like a crashed host would.
        fault_env = FaultPlan(rules=(
            FaultRule(action="kill", after=2, times=1, exit_code=23),
        )).install(tmp_path / "faults")
        killed = self._run_driver(tmp_path, "fresh", store, out,
                                  extra_env=fault_env)
        assert killed.returncode == 23, killed.stderr
        assert not out.exists()
        journaled = len(CampaignCheckpoint(journal))
        assert journaled == 2  # the two finished jobs survived the kill

        # Resume: only the unfinished tail re-executes.
        resumed = self._run_driver(tmp_path, "resume", store, out)
        assert resumed.returncode == 0, resumed.stderr
        assert len(CampaignCheckpoint(journal)) == 4

        # An uninterrupted fresh run, for the byte comparison.
        reference_out = tmp_path / "reference.json"
        reference = self._run_driver(tmp_path, "fresh",
                                     tmp_path / "reference.sqlite",
                                     reference_out)
        assert reference.returncode == 0, reference.stderr
        assert out.read_bytes() == reference_out.read_bytes()
