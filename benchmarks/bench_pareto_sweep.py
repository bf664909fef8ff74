"""Frontier engine and exhaustive sweep — old-vs-new and serial-vs-parallel.

Two measurements, both asserting correctness before speed:

1. **Frontier extraction** — the vectorized :class:`ParetoArchive` against
   the original O(n²) brute-force scan on a synthetic 10,000-step trace.
   The fronts must be bit-identical (same record objects, same order) and
   the vectorized engine at least 10x faster.
2. **Exhaustive sweep** — the full design space of a benchmark evaluated
   by a sweep spec through :func:`run_experiment` (chunked
   :class:`SweepJob`\\ s): cold serial, cold parallel (``ProcessExecutor``),
   and warm parallel (re-sweeping against the serial run's store).  All
   three must produce identical true fronts and evaluate identical design
   points; the cold parallel sweep must beat the serial wall-clock on
   multi-core machines, the warm one everywhere.

``--smoke`` shrinks both problems and drops the wall-clock assertions so
CI exercises every code path (chunking, fan-out, merge-back, front
assembly) in seconds; results are still asserted identical.  All timings
land in ``benchmark.extra_info`` for the perf trajectory.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.dse.design_space import DesignPoint
from repro.dse.frontier import ParetoArchive, pareto_front_bruteforce
from repro.dse.results import StepRecord
from repro.experiments import ExperimentSpec, RuntimeSpec, run_experiment
from repro.metrics.deltas import ObjectiveDeltas
from repro.runtime import EvaluationStore


def _synthetic_trace(num_steps: int, seed: int = 7):
    """A trace of distinct design points with random objective values."""
    rng = np.random.default_rng(seed)
    objectives = rng.random((num_steps, 3))
    return [
        StepRecord(
            step=index,
            action=None,
            point=DesignPoint(index + 1, 1, ()),
            deltas=ObjectiveDeltas(
                accuracy=float(objectives[index, 0]),
                power_mw=float(objectives[index, 1]),
                time_ns=float(objectives[index, 2]),
            ),
            reward=0.0,
            cumulative_reward=0.0,
        )
        for index in range(num_steps)
    ]


def _front_identity(front):
    return [(record.point.key(), record.deltas) for record in front]


def test_pareto_sweep_speedup(benchmark, smoke):
    trace_steps = 2_000 if smoke else 10_000
    chunk_size = 48
    n_jobs = max(2, min(4, os.cpu_count() or 1))
    serial_spec = ExperimentSpec.from_dict({
        "kind": "sweep",
        "benchmarks": [{"name": "dotproduct",
                        "params": {"length": 16 if smoke else 2048},
                        "label": "dotproduct"}],
        "seeds": [0],
        "runtime": {"chunk_size": chunk_size},
    })
    parallel_spec = serial_spec.with_runtime(
        RuntimeSpec(executor="process", jobs=n_jobs, chunk_size=chunk_size))

    def sweep_results(spec, store):
        return run_experiment(spec, store=store).sweep_results()

    def run_all():
        # -- frontier: brute force vs vectorized on one long trace --------
        trace = _synthetic_trace(trace_steps)
        started = time.perf_counter()
        brute_front = pareto_front_bruteforce(trace)
        brute_s = time.perf_counter() - started

        started = time.perf_counter()
        vectorized_front = ParetoArchive(trace).front()
        vectorized_s = time.perf_counter() - started

        # -- sweep: serial vs process fan-out over chunk jobs -------------
        serial_store = EvaluationStore()
        started = time.perf_counter()
        serial_results = sweep_results(serial_spec, serial_store)
        serial_s = time.perf_counter() - started

        parallel_store = EvaluationStore()
        started = time.perf_counter()
        parallel_results = sweep_results(parallel_spec, parallel_store)
        parallel_s = time.perf_counter() - started

        # Warm parallel re-sweep: every design point is already in the
        # store, so this measures pure reuse (wins even on one core).
        warm_store = EvaluationStore(records=serial_store.snapshot())
        started = time.perf_counter()
        warm_results = sweep_results(parallel_spec, warm_store)
        warm_s = time.perf_counter() - started

        return {
            "brute": (brute_front, brute_s),
            "vectorized": (vectorized_front, vectorized_s),
            "serial": (serial_results, serial_s, serial_store),
            "parallel": (parallel_results, parallel_s, parallel_store),
            "warm": (warm_results, warm_s, warm_store),
        }

    measured = benchmark.pedantic(run_all, iterations=1, rounds=1)
    brute_front, brute_s = measured["brute"]
    vectorized_front, vectorized_s = measured["vectorized"]
    serial_results, serial_s, serial_store = measured["serial"]
    parallel_results, parallel_s, parallel_store = measured["parallel"]
    warm_results, warm_s, warm_store = measured["warm"]

    frontier_speedup = brute_s / vectorized_s if vectorized_s else float("inf")
    sweep_speedup = serial_s / parallel_s
    warm_speedup = serial_s / warm_s
    serial_sweep = serial_results[0]

    benchmark.extra_info["smoke"] = smoke
    benchmark.extra_info["trace_steps"] = trace_steps
    benchmark.extra_info["front_size"] = len(brute_front)
    benchmark.extra_info["brute_s"] = round(brute_s, 4)
    benchmark.extra_info["vectorized_s"] = round(vectorized_s, 4)
    benchmark.extra_info["frontier_speedup"] = round(frontier_speedup, 1)
    benchmark.extra_info["space_size"] = serial_sweep.space_size
    benchmark.extra_info["n_jobs"] = n_jobs
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_sweep_s"] = round(serial_s, 3)
    benchmark.extra_info["parallel_sweep_s"] = round(parallel_s, 3)
    benchmark.extra_info["parallel_sweep_speedup"] = round(sweep_speedup, 2)
    benchmark.extra_info["warm_sweep_s"] = round(warm_s, 3)
    benchmark.extra_info["warm_sweep_speedup"] = round(warm_speedup, 2)
    benchmark.extra_info["warm_hit_rate"] = round(warm_store.stats.hit_rate, 3)
    benchmark.extra_info["true_front_size"] = serial_sweep.front_size

    print(f"\nFrontier extraction ({trace_steps} steps, front {len(brute_front)})")
    print(f"  brute force   {brute_s * 1000:9.1f} ms   (baseline)")
    print(f"  vectorized    {vectorized_s * 1000:9.1f} ms   ({frontier_speedup:.0f}x)")
    print(f"Exhaustive sweep ({serial_sweep.space_size} design points, "
          f"chunks of {chunk_size}, n_jobs={n_jobs}, cpus={os.cpu_count()})")
    print(f"  serial        {serial_s:9.2f} s    (baseline)")
    print(f"  parallel      {parallel_s:9.2f} s    ({sweep_speedup:.2f}x)")
    print(f"  warm parallel {warm_s:9.2f} s    ({warm_speedup:.2f}x, "
          f"hit rate {100 * warm_store.stats.hit_rate:.0f} %)")

    # The vectorized front is bit-identical to the brute-force reference:
    # same record objects, same (first-occurrence) order.
    assert brute_front == vectorized_front
    assert all(left is right for left, right in zip(brute_front, vectorized_front))

    # Fan-out changes wall-clock, never results: identical true fronts and
    # identical evaluated design points either way, cold or warm.
    assert len(serial_results) == len(parallel_results) == len(warm_results) == 1
    parallel_sweep = parallel_results[0]
    assert serial_sweep.evaluations == parallel_sweep.evaluations == serial_sweep.space_size
    assert _front_identity(serial_sweep.front) == _front_identity(parallel_sweep.front)
    assert _front_identity(serial_sweep.front) == _front_identity(warm_results[0].front)
    assert sorted(serial_store.keys()) == sorted(parallel_store.keys())

    # The warm re-sweep served everything from the store: no lookup missed.
    assert warm_store.stats.hits >= serial_sweep.space_size
    assert warm_store.stats.misses == 0

    if not smoke:
        assert frontier_speedup >= 10.0
        assert warm_speedup > 1.0
        if (os.cpu_count() or 1) >= 2:
            # Cold fan-out only wins wall-clock when cores actually exist.
            assert sweep_speedup > 1.0
