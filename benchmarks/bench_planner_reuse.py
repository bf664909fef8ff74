"""Planner reuse — evaluations avoided and wall-clock vs cold runs.

A batch of overlapping experiment specs over one benchmark — an explore,
a compare, a two-seed campaign, and a second exhaustive sweep on a
different chunk grid — is answered twice:

1. **cold** — each spec alone on a cold store: ``run_experiment`` with
   its own fresh store (no cross-spec sharing, nothing to replay), the
   behaviour of invoking ``repro-axc run`` once per spec without a
   store;
2. **planned** — the whole batch goes through
   :func:`~repro.planner.plan_experiments` /
   :func:`~repro.planner.execute_plan` against the warm store, where the
   subsumption rules recognise that the finished sweep answers every
   spec: the plan contains no evaluate node and execution performs
   **zero** new design-point evaluations.

Both paths must produce entry-for-entry identical reports — planning
changes wall-clock, never results.  Full-scale runs use ``matmul_50x50``
and must show at least a 5x wall-clock reduction; the trajectory lands in
``BENCH_planner_reuse.json`` at the repository root.  ``--smoke`` shrinks
the batch to ``dotproduct_4``, still asserts bit-identity and the
zero-new-evaluations guarantee (both are deterministic), skips the
wall-clock floor, and writes to a temp file so CI never clobbers the
record.
"""

from __future__ import annotations

import gc
import json
import tempfile
import time
from pathlib import Path

from repro.experiments import ExperimentSpec, run_experiment
from repro.planner import execute_plan, plan_experiments
from repro.runtime import EvaluationStore

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner_reuse.json"


def _batch_specs(bench: str, max_steps: int, chunk_size: int):
    """The overlapping batch: every spec is answerable by one full sweep."""
    base = {"benchmarks": [bench], "max_steps": max_steps,
            "runtime": {"chunk_size": chunk_size}}
    return [
        ExperimentSpec.from_dict({**base, "kind": "explore",
                                  "agents": ["q-learning"], "seeds": [0]}),
        ExperimentSpec.from_dict({**base, "kind": "compare",
                                  "agents": ["q-learning", "random"],
                                  "seeds": [0]}),
        ExperimentSpec.from_dict({**base, "kind": "campaign",
                                  "agents": ["q-learning", "random"],
                                  "seeds": [0, 1]}),
        # Same sweep on a different chunk grid: subsumed chunk-for-chunk.
        ExperimentSpec.from_dict({**base, "kind": "sweep", "seeds": [0, 1],
                                  "runtime": {"chunk_size": chunk_size + 32}}),
    ]


def _warming_sweep(bench: str, chunk_size: int) -> ExperimentSpec:
    return ExperimentSpec.from_dict({
        "kind": "sweep", "benchmarks": [bench], "seeds": [0, 1],
        "runtime": {"chunk_size": chunk_size},
    })


def _assert_identical(reference, candidate):
    # ExperimentEntry equality covers (label, seed, agent, ok, metrics) —
    # exactly the result-determining fields.
    assert reference.entries == candidate.entries
    assert not candidate.failures


def test_planner_reuse_speedup(benchmark, smoke):
    if smoke:
        bench, max_steps, chunk_size, floor = "dotproduct:length=4", 60, 64, None
    else:
        bench, max_steps, chunk_size, floor = \
            "matmul:rows=50,inner=50,cols=50", 400, 64, 5.0
    specs = _batch_specs(bench, max_steps, chunk_size)

    def run_all():
        # Materialize the design space once.  The cold baseline ignores
        # this store, spec by spec; the record keeps its historical
        # "unplanned" key for it.
        warm_store = EvaluationStore()
        started = time.perf_counter()
        run_experiment(_warming_sweep(bench, chunk_size), store=warm_store)
        warm_s = time.perf_counter() - started
        materialized = warm_store.stats.misses

        gc.collect()
        gc.disable()
        try:
            cold = []
            started = time.perf_counter()
            for spec in specs:
                store = EvaluationStore()
                report = run_experiment(spec, store=store)
                cold.append((report, store.stats.misses))
            cold_s = time.perf_counter() - started

            started = time.perf_counter()
            plan = plan_experiments(specs, store=warm_store)
            execution = execute_plan(plan, store=warm_store)
            planned_s = time.perf_counter() - started
        finally:
            gc.enable()

        return {
            "warm": (warm_s, materialized),
            "cold": cold,
            "cold_s": cold_s,
            "plan": plan,
            "execution": execution,
            "planned_s": planned_s,
        }

    measured = benchmark.pedantic(run_all, iterations=1, rounds=1)
    warm_s, materialized = measured["warm"]
    plan, execution = measured["plan"], measured["execution"]
    cold_s, planned_s = measured["cold_s"], measured["planned_s"]

    # The sweep answers the whole batch: nothing left to evaluate.
    assert plan.evaluate_nodes == ()
    assert execution.new_evaluations == 0
    # Planning changes wall-clock, never results.
    for spec, (report, _) in zip(specs, measured["cold"]):
        _assert_identical(report, execution.reports[spec.fingerprint()])

    avoided = sum(misses for _, misses in measured["cold"])
    speedup = cold_s / planned_s
    rows = [
        {
            "kind": spec.kind,
            "wall_clock_s": round(report.wall_clock_s, 3),
            "evaluations": misses,
        }
        for spec, (report, misses) in zip(specs, measured["cold"])
    ]

    report = {
        "benchmark": "bench_planner_reuse",
        "smoke": smoke,
        "batch": {
            "benchmark": bench,
            "specs": [spec.kind for spec in specs],
            "max_steps": max_steps,
            "chunk_size": chunk_size,
        },
        "warming_sweep": {
            "wall_clock_s": round(warm_s, 3),
            "evaluations": materialized,
        },
        "unplanned": {"wall_clock_s": round(cold_s, 3), "rows": rows},
        "planned": {
            "wall_clock_s": round(planned_s, 3),
            "new_evaluations": execution.new_evaluations,
            "replayed_units": plan.replayed_units,
        },
        "evaluations_avoided": avoided,
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    # Only full-scale runs refresh the checked-in perf-trajectory file; a
    # CI/local smoke run lands in a temp file instead.
    json_path = _JSON_PATH if not smoke else \
        Path(tempfile.gettempdir()) / "BENCH_planner_reuse.smoke.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")

    benchmark.extra_info.update({
        "smoke": smoke,
        "evaluations_avoided": avoided,
        "speedup": round(speedup, 2),
        "json_path": str(json_path),
    })

    print(f"\nPlanner reuse ({bench}, {len(specs)} overlapping specs, "
          f"{max_steps} steps each)")
    print(f"  warming sweep  {warm_s:8.2f} s   ({materialized} evaluations)")
    print(f"  each spec cold {cold_s:8.2f} s   ({avoided} evaluations)")
    print(f"  planned        {planned_s:8.2f} s   (0 evaluations, "
          f"{plan.replayed_units} replayed units, {speedup:.2f}x)")

    assert avoided > 0
    if floor is not None:
        assert speedup >= floor, (
            f"planned batch speedup {speedup:.2f}x < {floor}x over running "
            f"each spec alone on a cold store"
        )
