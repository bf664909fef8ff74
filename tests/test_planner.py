"""Tests for the subsumption-aware experiment planner (`repro.planner`).

Covers the contracts the planner makes:

1. **Bit-identity** — warm replay equals cold evaluation: a plan executed
   against a warm store produces report entries equal to running each spec
   on its own on a cold store, for every experiment kind on both
   executors.
2. **Subsumption** — a store-complete (or in-plan) exhaustive sweep
   answers explorations without new evaluations; superset campaigns share
   units with their sub-campaigns; overlapping sweep grids evaluate the
   design space once.
3. **Fingerprint hygiene** — no `RuntimeSpec` field may ever shift
   `ExperimentSpec.fingerprint()` (enumerated per field, so a future
   field cannot leak in silently).
4. **One front door** — `run_experiment` dispatches, through the plan,
   exactly the job list the spec's definition expands to (batched per the
   runtime's batch size), and every evaluate node runs in one executor
   call.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec, RuntimeSpec, run_experiment
from repro.planner import (
    EvaluateJobs,
    MergeReports,
    QueryPlanner,
    ReplayFromStore,
    execute_plan,
    normalize_spec,
    plan_experiments,
    semantic_fingerprint,
)
from repro.planner.coverage import BenchmarkResolver
from repro.runtime import (
    BatchedExplorationJob,
    ProcessExecutor,
    SerialExecutor,
    SweepJob,
    expand_jobs,
)
from repro.runtime.store import EvaluationStore

BENCH = "dotproduct:length=4"  # design space of 288 points, fast to sweep


def _spec(kind: str, **overrides) -> ExperimentSpec:
    payload = {
        "kind": kind,
        "benchmarks": [BENCH],
        "seeds": [0],
        "max_steps": 12,
        "runtime": {"chunk_size": 64},
    }
    if kind == "explore":
        payload["agents"] = ["q-learning"]
    elif kind != "sweep":
        payload["agents"] = ["q-learning", "random"]
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


def _warmed_store() -> EvaluationStore:
    """A store materializing the full `BENCH` seed-0 context."""
    store = EvaluationStore()
    run_experiment(_spec("sweep"), store=store)
    return store


# --------------------------------------------------------------------------
# Satellite: RuntimeSpec fields must never shift the spec fingerprint.
# --------------------------------------------------------------------------

#: One non-default value per RuntimeSpec field.  When RuntimeSpec grows a
#: field this mapping goes stale and the enumeration test below fails,
#: forcing the new field to be covered here (and therefore proven
#: fingerprint-neutral) before it can ship.
ALTERNATE_RUNTIME_VALUES = {
    "executor": "process",
    "jobs": 4,
    "store_path": "elsewhere.sqlite",
    "chunk_size": 7,
    "batch_size": 3,
    "retries": 3,
    "job_timeout_s": 12.5,
    "checkpoint_interval": 5,
    "resume": True,
    "remote": "/tmp/evald.sock",
}


class TestRuntimeFingerprintInvariance:
    def test_alternate_values_enumerate_every_runtime_field(self):
        fields = {f.name for f in dataclasses.fields(RuntimeSpec)}
        assert fields == set(ALTERNATE_RUNTIME_VALUES), (
            "RuntimeSpec's fields changed; update ALTERNATE_RUNTIME_VALUES "
            "and confirm the new field cannot shift ExperimentSpec.fingerprint()"
        )

    @pytest.mark.parametrize("field_name", sorted(ALTERNATE_RUNTIME_VALUES))
    def test_field_never_shifts_spec_fingerprint(self, field_name):
        spec = _spec("campaign", seeds=[0, 1])
        kwargs = {field_name: ALTERNATE_RUNTIME_VALUES[field_name]}
        if field_name == "jobs":
            kwargs["executor"] = "process"  # serial requires jobs=1
        if field_name in ("checkpoint_interval", "resume"):
            kwargs["store_path"] = "elsewhere.sqlite"  # checkpoints need a store
        assert spec.with_runtime(RuntimeSpec(**kwargs)).fingerprint() \
            == spec.fingerprint()

    def test_runtime_is_fingerprint_neutral_all_fields_at_once(self):
        spec = _spec("sweep")
        runtime = RuntimeSpec(**ALTERNATE_RUNTIME_VALUES)
        assert spec.with_runtime(runtime).fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("key, kept", [("compiled", True), ("store_outputs", False)],
                             ids=["compiled", "store_outputs"])
    def test_legacy_key_never_shifts_unit_fingerprints(self, key, kept):
        def unit_fingerprints(runtime):
            specs = [_spec(kind, runtime=runtime) for kind in ("sweep", "campaign")]
            plan = plan_experiments(specs, store=EvaluationStore())
            return sorted(unit.fingerprint() for node in plan.evaluate_nodes
                          for unit in node.units)

        current = unit_fingerprints({"chunk_size": 64})
        assert current
        assert unit_fingerprints({"chunk_size": 64, key: kept}) == current


# --------------------------------------------------------------------------
# Normalization
# --------------------------------------------------------------------------

class TestNormalization:
    def test_ordering_and_runtime_are_semantically_neutral(self):
        a = _spec("campaign", benchmarks=["dotproduct:length=4", "fir:num_samples=8"],
                  agents=["q-learning", "random"], seeds=[1, 0],
                  description="one way")
        b = _spec("campaign", benchmarks=["fir:num_samples=8", "dotproduct:length=4"],
                  agents=["random", "q-learning"], seeds=[0, 1],
                  runtime={"executor": "process", "jobs": 2},
                  description="another way")
        assert a.fingerprint() != b.fingerprint()  # orderings differ...
        assert semantic_fingerprint(a) == semantic_fingerprint(b)  # ...not meaning
        assert normalize_spec(a) == normalize_spec(b)

    def test_result_determining_fields_stay_significant(self):
        assert semantic_fingerprint(_spec("campaign", seeds=[0])) \
            != semantic_fingerprint(_spec("campaign", seeds=[1]))
        assert semantic_fingerprint(_spec("campaign", max_steps=12)) \
            != semantic_fingerprint(_spec("campaign", max_steps=13))


# --------------------------------------------------------------------------
# Satellite: bit-identity of planned execution, every kind x both executors.
# --------------------------------------------------------------------------

def _runtime_for(executor: str) -> dict:
    if executor == "process":
        return {"executor": "process", "jobs": 2, "chunk_size": 64}
    return {"chunk_size": 64}


class TestBitIdentity:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("kind", ["explore", "compare", "campaign", "sweep"])
    def test_planned_equals_direct(self, kind, executor):
        spec = _spec(kind, runtime=_runtime_for(executor))
        direct = run_experiment(spec, store=EvaluationStore())

        store = _warmed_store()
        plan = plan_experiments([spec], store=store)
        execution = execute_plan(plan, store=store,
                                 executor=spec.runtime.build_executor())
        planned = execution.reports[spec.fingerprint()]

        assert planned.entries == direct.entries
        assert planned.provenance["fingerprint"] == direct.provenance["fingerprint"]
        assert not planned.failures

    def test_planned_explore_replays_entirely_from_warm_store(self):
        spec = _spec("explore")
        store = _warmed_store()
        plan = plan_experiments([spec], store=store)
        assert plan.evaluate_nodes == ()
        execution = execute_plan(plan, store=store)
        assert execution.new_evaluations == 0


# --------------------------------------------------------------------------
# Acceptance: a finished sweep answers overlapping explore/compare batches.
# --------------------------------------------------------------------------

class TestSubsumption:
    def test_sweep_warmed_store_answers_batch_with_zero_evaluations(self):
        store = _warmed_store()
        explore, compare = _spec("explore"), _spec("compare")
        plan = plan_experiments([explore, compare], store=store)

        assert plan.evaluate_nodes == ()
        assert plan.replay_nodes != ()
        execution = execute_plan(plan, store=store)
        assert execution.new_evaluations == 0

        for spec in (explore, compare):
            direct = run_experiment(spec, store=EvaluationStore())
            assert execution.reports[spec.fingerprint()].entries == direct.entries

    def test_in_batch_sweep_answers_explorations_with_a_dep_edge(self):
        # Cold store: the sweep must evaluate, and the explorations replay
        # *after* it (dependency edge), not independently re-evaluate.
        plan = plan_experiments([_spec("sweep"), _spec("compare")],
                                store=EvaluationStore())
        evaluates = plan.evaluate_nodes
        assert len(evaluates) == 1
        assert all(isinstance(u.start, int) for u in evaluates[0].units)
        replays = plan.replay_nodes
        assert len(replays) == 1
        assert replays[0].depends_on == (evaluates[0].node_id,)
        assert len(replays[0].units) == 2  # one per compared agent

        store = EvaluationStore()
        execution = execute_plan(plan, store=store)
        assert execution.new_evaluations == 288  # the space, exactly once
        for spec in plan.specs:
            direct = run_experiment(spec, store=EvaluationStore())
            assert execution.reports[spec.fingerprint()].entries == direct.entries

    def test_overlapping_sweep_grids_evaluate_the_space_once(self):
        # Two sweeps over the same benchmark with different chunk grids and
        # overlapping seed sets: the seed the grids share is evaluated by
        # the first grid and replayed by the second.
        first = _spec("sweep", seeds=[0], runtime={"chunk_size": 64})
        second = _spec("sweep", seeds=[0, 1], runtime={"chunk_size": 96})
        plan = plan_experiments([first, second], store=EvaluationStore())

        contexts = {unit.context for unit in plan.units.values()}
        assert len(contexts) == 2  # seeds 0 and 1
        assert len(plan.evaluate_nodes) == 2  # grid-64 seed 0, grid-96 seed 1
        overlap_replays = [node for node in plan.replay_nodes if node.depends_on]
        assert len(overlap_replays) == 1  # grid-96 seed 0 waits on grid-64

        store = EvaluationStore()
        execution = execute_plan(plan, store=store)
        assert execution.new_evaluations == 2 * 288  # once per seed, not per grid
        for spec in plan.specs:
            direct = run_experiment(spec, store=EvaluationStore())
            assert execution.reports[spec.fingerprint()].entries == direct.entries

    def test_superset_campaign_subsumes_sub_campaign(self):
        superset = _spec("campaign", agents=["q-learning", "random"], seeds=[0, 1])
        subset = _spec("campaign", agents=["q-learning"], seeds=[0])
        plan = plan_experiments([superset, subset], store=EvaluationStore())

        assert len([u for u in plan.units.values() if hasattr(u, "agent_name")]) == 4
        sub_merge = [node for node in plan.nodes
                     if isinstance(node, MergeReports)
                     and node.spec_fingerprint == subset.fingerprint()][0]
        super_fps = {fp for node in plan.nodes
                     if isinstance(node, MergeReports)
                     and node.spec_fingerprint == superset.fingerprint()
                     for binding in node.bindings
                     for fp in binding.unit_fingerprints}
        for binding in sub_merge.bindings:
            assert set(binding.unit_fingerprints) <= super_fps

    def test_exact_duplicate_specs_are_planned_once(self):
        spec = _spec("explore")
        plan = plan_experiments([spec, _spec("explore")], store=EvaluationStore())
        assert len(plan.specs) == 1
        assert len([n for n in plan.nodes if isinstance(n, MergeReports)]) == 1

    def test_reuse_false_plans_everything_as_evaluation(self):
        store = _warmed_store()
        plan = plan_experiments([_spec("explore")], store=store,
                                planner=QueryPlanner(reuse=False))
        assert plan.replay_nodes == ()
        assert len(plan.evaluate_nodes) == 1


# --------------------------------------------------------------------------
# Plan IR hygiene
# --------------------------------------------------------------------------

class TestPlanStructure:
    def test_plan_is_deterministic(self):
        store = _warmed_store()
        specs = [_spec("compare"), _spec("sweep", seeds=[0, 1])]
        first = plan_experiments(specs, store=store)
        second = plan_experiments(specs, store=store)
        assert first.fingerprint() == second.fingerprint()
        assert first.to_dict() == second.to_dict()

    def test_nodes_are_topologically_ordered(self):
        plan = plan_experiments([_spec("sweep"), _spec("compare")],
                                store=EvaluationStore())
        seen = set()
        for node in plan.nodes:
            assert all(dep in seen for dep in node.depends_on)
            seen.add(node.node_id)

    def test_explain_and_summary_render(self):
        store = _warmed_store()
        plan = plan_experiments([_spec("compare")], store=store)
        text = plan.explain()
        assert plan.summary() in text
        assert "store" in text
        for node in plan.nodes:
            assert node.node_id in text
        assert plan.replayed_units > 0
        for node in plan.replay_nodes:
            for unit in node.units:
                assert unit.describe() in text

    def test_non_spec_input_rejected(self):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            plan_experiments(["not a spec"])

    def test_node_kinds_partition_units(self):
        plan = plan_experiments([_spec("sweep"), _spec("explore")],
                                store=EvaluationStore())
        homes = {}
        for node in plan.nodes:
            if isinstance(node, (EvaluateJobs, ReplayFromStore)):
                for unit in node.units:
                    assert unit.fingerprint() not in homes
                    homes[unit.fingerprint()] = node.node_id
        assert set(homes) == set(plan.units)


# --------------------------------------------------------------------------
# run_experiment wiring: every run is a plan
# --------------------------------------------------------------------------

class TestRunnerIntegration:
    def test_run_experiment_with_planner_matches_direct(self):
        spec = _spec("compare")
        direct = run_experiment(spec, store=EvaluationStore())
        store = _warmed_store()
        before = store.stats
        planned = run_experiment(spec, store=store)
        assert planned.entries == direct.entries
        assert store.stats.hits > before.hits  # it really replayed
        assert store.stats.misses == before.misses  # ... and evaluated nothing

    @pytest.mark.parametrize("planner", [True, False, "reuse"])
    def test_run_experiment_rejects_non_planner_values(self, planner):
        with pytest.raises(ConfigurationError, match="QueryPlanner"):
            run_experiment(_spec("explore"), planner=planner)

    def test_run_experiment_accepts_configured_planner(self):
        spec = _spec("explore")
        report = run_experiment(spec, store=_warmed_store(),
                                planner=QueryPlanner(reuse=False))
        direct = run_experiment(spec, store=EvaluationStore())
        assert report.entries == direct.entries


# --------------------------------------------------------------------------
# One front door: the jobs run_experiment hands the executor
# --------------------------------------------------------------------------

class SpyExecutor:
    """Records every ``run`` call's job list, then runs it serially."""

    def __init__(self):
        self.calls = []

    def run(self, jobs, **kwargs):
        self.calls.append(list(jobs))
        return SerialExecutor().run(jobs, **kwargs)


class SpyProcessExecutor(ProcessExecutor):
    """A real process executor that records every ``run`` call's jobs."""

    def __init__(self, n_jobs):
        super().__init__(n_jobs=n_jobs)
        self.calls = []

    def run(self, jobs, **kwargs):
        self.calls.append(list(jobs))
        return super().run(jobs, **kwargs)


def _job_shape(job):
    """Everything that identifies a dispatched job except the benchmark object."""
    seeds = job.seeds if isinstance(job, BatchedExplorationJob) else job.seed
    return (type(job).__name__, job.benchmark_label, seeds, job.agent,
            job.max_steps, job.env_kwargs)


class TestOneFrontDoor:
    @pytest.mark.parametrize("planner", [None, QueryPlanner(),
                                         QueryPlanner(reuse=False)],
                             ids=["default", "reuse", "no-reuse"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("batch_size", [0, 1, 2])
    def test_dispatched_jobs_equal_the_expanded_definition(self, batch_size,
                                                           jobs, planner):
        runtime = {"batch_size": batch_size}
        if jobs > 1:
            runtime.update(executor="process", jobs=jobs)
        spec = _spec("campaign", seeds=[0, 1, 2, 3, 4], runtime=runtime)
        spy = SpyExecutor()
        report = run_experiment(spec, executor=spy, store=EvaluationStore(),
                                planner=planner)

        expected = expand_jobs(
            {bspec.label: bspec.build() for bspec in spec.benchmarks},
            [aspec.to_agent_spec() for aspec in spec.agents],
            seeds=spec.seeds, max_steps=spec.max_steps,
            env_kwargs=spec.thresholds.env_kwargs(),
            batch_size=spec.runtime.effective_batch_size(5),
        )
        assert len(spy.calls) == 1
        assert [_job_shape(job) for job in spy.calls[0]] == \
            [_job_shape(job) for job in expected]
        assert report.ok and len(report.entries) == 10

    def test_progress_sees_batched_outcomes_not_replays(self):
        spec = _spec("campaign", seeds=[0, 1, 2, 3], runtime={"batch_size": 2})
        seen = []
        run_experiment(spec, store=EvaluationStore(), on_outcome=seen.append)
        assert [outcome.job.seeds for outcome in seen] == \
            [(0, 1), (2, 3), (0, 1), (2, 3)]
        seen.clear()
        run_experiment(_spec("explore"), store=_warmed_store(),
                       on_outcome=seen.append)
        assert seen == []  # replayed from the store: nothing was evaluated

    @pytest.mark.parametrize("planner", [None, QueryPlanner()],
                             ids=["default", "reuse"])
    def test_sweep_runs_in_one_dispatch(self, planner):
        spec = _spec("sweep", benchmarks=[BENCH, "fir:num_samples=8"],
                     seeds=[0, 1], runtime={"chunk_size": 100})
        spy = SpyProcessExecutor(n_jobs=2)
        report = run_experiment(spec, executor=spy, store=EvaluationStore(),
                                planner=planner)

        sizes = {bspec.label: BenchmarkResolver().resolve(bspec).space_size
                 for bspec in spec.benchmarks}
        assert all(size > 100 for size in sizes.values())  # >= 2 chunks each
        assert len(spy.calls) == 1
        assert all(isinstance(job, SweepJob) for job in spy.calls[0])
        assert [(job.benchmark_label, job.seed, job.start)
                for job in spy.calls[0]] == [
            (bspec.label, seed, start) for bspec in spec.benchmarks
            for seed in spec.seeds
            for start in range(0, sizes[bspec.label], 100)
        ]
        assert report.ok
        assert [entry.metrics["evaluations"] for entry in report.entries] == \
            [entry.metrics["space_size"] for entry in report.entries]

    def test_mixed_plan_evaluates_in_one_dispatch(self):
        sweep = _spec("sweep")
        campaign = _spec("campaign", benchmarks=["fir:num_samples=8"],
                         seeds=[0, 1])
        plan = plan_experiments([sweep, campaign], store=EvaluationStore())
        assert len(plan.evaluate_nodes) == 2  # one per kind
        spy = SpyExecutor()
        execution = execute_plan(plan, store=EvaluationStore(), executor=spy)
        assert len(spy.calls) == 1
        kinds = [type(job).__name__ for job in spy.calls[0]]
        assert kinds == ["SweepJob"] * 5 + ["BatchedExplorationJob"] * 2
        for spec in (sweep, campaign):
            direct = run_experiment(spec, store=EvaluationStore())
            assert execution.reports[spec.fingerprint()].entries == direct.entries

    def test_daemon_batches_at_its_batch_size(self, tmp_path):
        from _service_utils import running_daemon

        from repro.service import ServiceClient

        spec = _spec("campaign", agents=["q-learning"], seeds=[0, 1, 2, 3])
        socket_path = str(tmp_path / "evald.sock")
        with running_daemon("--socket", socket_path,
                            "--batch-size", "2") as (_daemon, address):
            client = ServiceClient(address)
            ticket = client.submit(spec)["ticket"]
            events = list(client.stream(ticket))
        outcomes = [event for event in events if event.get("event") == "outcome"]
        assert len(outcomes) == 2
        assert all(event["ok"] for event in outcomes)
        assert events[-1]["state"] == "done"
