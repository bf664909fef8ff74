"""The context fill: a batched environment holds its workloads' whole contexts.

``BatchedAxcDseEnv`` evaluates every design point of each workload's
context when it is built, with one ``Evaluator.evaluate_index_range(0,
size)`` call per workload, and then steps by list lookups alone.  These
tests pin that stepping makes no evaluator or store call, that an
exploration leaves its context complete in the store with the records of a
cold whole-context evaluation, that a later exploration over that context
replays with the bytes of a cold run, and the one behaviour change: a unit
that raises surfaces when the environment is built, even at a point the
agent would never reach.
"""

from __future__ import annotations

import pytest
from test_stacked_pass import _bits, _raising_unit

from _serial_reference import serial_result
from repro.benchmarks import MatMulBenchmark
from repro.benchmarks.registry import create
from repro.dse import Evaluator
from repro.dse.batched_env import BatchedAxcDseEnv, BatchedExplorer
from repro.errors import OperatorError
from repro.experiments import ExperimentSpec, run_experiment
from repro.experiments.registry import agent_family, rl_agent_names
from repro.planner import execute_plan, plan_experiments
from repro.runtime import AgentSpec, EvaluationStore, ExplorationJob, execute_job

SEEDS = (0, 3)


def _explorer(agent, scheme, steps=80):
    environment = BatchedAxcDseEnv(create("dotproduct", length=8), seeds=SEEDS,
                                   action_scheme=scheme, store=EvaluationStore())
    vectorized = agent_family(agent).vectorized(environment, SEEDS, steps, {})
    return BatchedExplorer(environment, vectorized, max_steps=steps)


def _refuse_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a step reached the evaluator or the store")

    for name in ("evaluate", "evaluate_many", "evaluate_index_range"):
        monkeypatch.setattr(Evaluator, name, refuse)
    for name in ("lookup", "put"):
        monkeypatch.setattr(EvaluationStore, name, refuse)


@pytest.mark.parametrize("random_start", [False, True])
@pytest.mark.parametrize("scheme", ["directional", "compact"])
@pytest.mark.parametrize("agent", rl_agent_names())
def test_stepping_makes_no_evaluator_or_store_call(agent, scheme, random_start,
                                                   monkeypatch):
    reference = _explorer(agent, scheme).run(random_start=random_start)
    explorer = _explorer(agent, scheme)
    _refuse_evaluation(monkeypatch)
    assert explorer.run(random_start=random_start) == reference


def _explore(agent, seed=1, steps=300):
    return ExperimentSpec.from_dict({
        "kind": "explore", "benchmarks": ["dotproduct:length=8"],
        "agents": [agent], "seeds": [seed], "max_steps": steps,
    })


def test_an_exploration_leaves_its_whole_context_stored():
    store = EvaluationStore()
    report = run_experiment(_explore("q-learning"), store=store)
    assert report.ok
    (entry,) = report.entries
    cold = Evaluator(create("dotproduct", length=8), seed=1)
    records = cold.evaluate_index_range(0, cold.design_space.size)
    # A 300-step run visits far fewer points than the context holds.
    assert entry.result.metadata["evaluations"] < len(records) == len(store)
    assert [_bits(store.get(cold.store_key(record.point))) for record in records] == \
        [_bits(record) for record in records]


def test_a_later_exploration_of_a_filled_context_replays():
    store = EvaluationStore()
    run_experiment(_explore("q-learning"), store=store)
    spec = _explore("sarsa")
    plan = plan_experiments([spec], store=store)
    assert plan.replay_nodes and not plan.evaluate_nodes
    replayed = execute_plan(plan, store=store).reports[spec.fingerprint()]
    assert replayed.canonical_json() == run_experiment(spec).canonical_json()


def test_a_refusing_unit_surfaces_when_the_environment_is_built(monkeypatch):
    # One step from the initial point reaches multipliers 1 and 2 at most,
    # so the lazy serial engine never runs the refusing fourth multiplier.
    benchmark = MatMulBenchmark(rows=4, inner=4, cols=4)
    multiplier = Evaluator(benchmark, seed=2).catalog.multipliers[3].name
    job = ExplorationJob(benchmark_label="bench", benchmark=benchmark, seed=2,
                         agent=AgentSpec("q-learning"), max_steps=1)
    _raising_unit(monkeypatch, multiplier, lambda a, b: True)
    assert serial_result(job, store=EvaluationStore()).num_steps == 2
    with pytest.raises(OperatorError, match="refuses these operands"):
        BatchedAxcDseEnv(benchmark, seeds=[2])
    with pytest.raises(OperatorError, match="refuses these operands"):
        execute_job(job, store=EvaluationStore())


def test_spaces_of_one_geometry_share_one_decode():
    left = Evaluator(create("dotproduct", length=8), seed=0).design_space
    right = Evaluator(MatMulBenchmark(rows=4, inner=4, cols=4), seed=5).design_space
    assert left.size == right.size == 288
    points = list(left.enumerate())
    assert all(right.point_at(index) is point for index, point in enumerate(points))
    assert all(a is b for a, b in zip(left.iter_range(5, 400), points[5:]))
