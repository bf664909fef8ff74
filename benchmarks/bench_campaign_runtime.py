"""Campaign runtime — serial vs parallel wall-clock and store hit-rate.

Runs the paper's 4-benchmark suite over 3 seeds through the campaign
runtime three times:

1. **cold serial** — ``SerialExecutor`` with a fresh evaluation store (the
   timing baseline);
2. **cold parallel** — ``ProcessExecutor(n_jobs>=2)`` with a fresh store,
   to measure pure fan-out (only wins wall-clock on multi-core machines);
3. **warm parallel** — ``ProcessExecutor`` re-running the same campaign
   against the store populated by the serial run, to measure cross-run
   reuse (wins everywhere: a store hit replaces a full kernel execution).

The three runs must be entry-for-entry identical — the runtime changes
wall-clock, never results — and the warm run must be at least 1.5x faster
than the cold serial baseline with a nonzero cross-run hit-rate.  All
timings and rates land in ``benchmark.extra_info`` for the perf trajectory.

A second measurement, **batched vs serial exploration**, runs a Table-III
style campaign (``matmul_10x10``, q-learning, 10,000 steps, 256 seeds)
once per batch size in ``(1, 32, 256)`` — the same seed set every time, so
wall-clock ratios are steps/sec ratios.  Both measurements time the
runtime primitives directly — ``flatten_outcomes(executor.run(
expand_jobs(...)))``, the job list a campaign spec dispatches — so no
planning or report assembly is in the timed region.  Batch size 1 is the
per-seed serial engine (:class:`~repro.dse.explorer.Explorer` stepping an
:class:`~repro.dse.environment.AxcDseEnv`), driven directly, one seed after
another on one shared store as the serial executor passes it:
``execute_job`` runs one-seed jobs as one-episode batches, so the job list
no longer reaches that engine.  Larger sizes step that many episodes in
lockstep through the vectorized engine (:mod:`repro.dse.batched_env`).
The same session also times the batch-1 job list itself (one-episode
batches) and records it next to the rows, as ``one_episode_batched``.
Every run must be entry-for-entry identical to the serial baseline —
batching changes wall-clock, never results — and batch size 256 must be
at least 5x faster.  Full-scale runs record the trajectory in
``BENCH_campaign_runtime.json`` at the repository root; ``--smoke`` shrinks
the campaign (32 seeds, 4,000 steps), asserts a 2x floor, and writes to a
temp file so CI never clobbers the record.
"""

from __future__ import annotations

import gc
import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.conftest import paper_benchmark_suite
from repro.benchmarks import MatMulBenchmark
from repro.dse import AxcDseEnv, Explorer
from repro.experiments import RuntimeSpec
from repro.runtime import (
    AgentSpec,
    EvaluationStore,
    ProcessExecutor,
    SerialExecutor,
    expand_jobs,
    flatten_outcomes,
)

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign_runtime.json"

#: Batch sizes of the full-scale batched-vs-serial measurement (1 = the
#: per-seed serial engine, the baseline the others are scored against).
#: The one-episode batched run is timed beside them, outside the rows.
_FULL_BATCH_SIZES = (1, 32, 256)
_SMOKE_BATCH_SIZES = (1, 32)


def _run_jobs(executor, store, benchmarks, seeds, max_steps, batch_size):
    """Time one q-learning campaign's jobs; returns (per-seed outcomes, s)."""
    started = time.perf_counter()
    jobs = expand_jobs(benchmarks, AgentSpec("q-learning"), seeds=seeds,
                       max_steps=max_steps, batch_size=batch_size)
    outcomes = flatten_outcomes(executor.run(jobs, store=store))
    elapsed = time.perf_counter() - started
    assert all(outcome.ok for outcome in outcomes)
    return outcomes, elapsed


def _run_campaign(executor, store, paper_scale, max_steps):
    seeds = (0, 1, 2)
    # The batch size a campaign spec on this many workers would use.
    workers = getattr(executor, "n_jobs", 1)
    batch_size = RuntimeSpec(jobs=workers).effective_batch_size(len(seeds))
    return _run_jobs(executor, store, paper_benchmark_suite(paper_scale), seeds,
                     max_steps, batch_size)


def _assert_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for left, right in zip(reference, candidate):
        assert (left.job.benchmark_label, left.job.seed) == \
            (right.job.benchmark_label, right.job.seed)
        assert [r.deltas for r in left.result.records] == \
            [r.deltas for r in right.result.records]
        assert left.result.solution.point == right.result.solution.point


def test_campaign_runtime_speedup(benchmark, paper_scale, exploration_budget):
    max_steps = exploration_budget if paper_scale else 600
    n_jobs = max(2, min(4, os.cpu_count() or 1))

    def run_all():
        serial_store = EvaluationStore()
        serial_entries, serial_s = _run_campaign(
            SerialExecutor(), serial_store, paper_scale, max_steps
        )

        cold_entries, cold_parallel_s = _run_campaign(
            ProcessExecutor(n_jobs=n_jobs), EvaluationStore(), paper_scale, max_steps
        )

        warm_store = EvaluationStore(records=serial_store.snapshot())
        warm_entries, warm_parallel_s = _run_campaign(
            ProcessExecutor(n_jobs=n_jobs), warm_store, paper_scale, max_steps
        )

        return {
            "serial": (serial_entries, serial_s),
            "cold_parallel": (cold_entries, cold_parallel_s),
            "warm_parallel": (warm_entries, warm_parallel_s),
            "warm_stats": warm_store.stats,
            "store_size": len(serial_store),
        }

    measured = benchmark.pedantic(run_all, iterations=1, rounds=1)
    serial_entries, serial_s = measured["serial"]
    cold_entries, cold_parallel_s = measured["cold_parallel"]
    warm_entries, warm_parallel_s = measured["warm_parallel"]
    warm_stats = measured["warm_stats"]

    cold_speedup = serial_s / cold_parallel_s
    warm_speedup = serial_s / warm_parallel_s
    benchmark.extra_info["n_jobs"] = n_jobs
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["max_steps"] = max_steps
    benchmark.extra_info["explorations"] = len(serial_entries)
    benchmark.extra_info["store_size"] = measured["store_size"]
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["cold_parallel_s"] = round(cold_parallel_s, 3)
    benchmark.extra_info["warm_parallel_s"] = round(warm_parallel_s, 3)
    benchmark.extra_info["cold_parallel_speedup"] = round(cold_speedup, 2)
    benchmark.extra_info["warm_parallel_speedup"] = round(warm_speedup, 2)
    benchmark.extra_info["warm_hit_rate"] = round(warm_stats.hit_rate, 3)

    print(f"\nCampaign runtime ({len(serial_entries)} explorations x {max_steps} steps, "
          f"n_jobs={n_jobs}, cpus={os.cpu_count()})")
    print(f"  cold serial    {serial_s:8.2f} s   (baseline)")
    print(f"  cold parallel  {cold_parallel_s:8.2f} s   ({cold_speedup:.2f}x)")
    print(f"  warm parallel  {warm_parallel_s:8.2f} s   ({warm_speedup:.2f}x, "
          f"hit rate {100 * warm_stats.hit_rate:.0f} %)")

    # Parallelism and reuse change wall-clock, never results.
    _assert_identical(serial_entries, cold_entries)
    _assert_identical(serial_entries, warm_entries)

    # Cross-run reuse actually happened and pays for itself: the warm re-run
    # of the same sweep must be at least 1.5x faster than the cold baseline.
    assert warm_stats.hits > 0
    assert warm_stats.hit_rate > 0.0
    assert warm_speedup >= 1.5


# ------------------------------------------------- batched vs serial engine


_MATMUL_10X10 = {"matmul_10x10": MatMulBenchmark(rows=10, inner=10, cols=10)}


def _trace_fingerprint(entries):
    """Everything the bit-identity check needs, per per-seed outcome.

    ``(benchmark_label, seed, result)`` triples.  A result is a few flat
    columns over a table of its distinct points, and result equality
    compares every column and field.  Nothing builds per-step records,
    which would pin about a million objects between timed runs and
    distort the memory behaviour of the next.
    """
    return [(entry.job.benchmark_label, entry.job.seed, entry.result)
            for entry in entries]


def _run_at_batch_size(seeds, max_steps, batch_size):
    """One matmul_10x10 q-learning campaign's job list at the given batch size."""
    outcomes, elapsed = _run_jobs(SerialExecutor(), EvaluationStore(), _MATMUL_10X10,
                                  seeds, max_steps, batch_size)
    return _trace_fingerprint(outcomes), elapsed


def _run_serial_engine(seeds, max_steps):
    """The same campaign on the per-seed serial engine, driven directly.

    One ``AxcDseEnv`` and ``Explorer`` per seed, on one shared store, as the
    serial executor ran each per-seed job before one-seed jobs became
    one-episode batches.
    """
    started = time.perf_counter()
    store = EvaluationStore()
    agent = AgentSpec("q-learning")
    traces = []
    for label, benchmark in _MATMUL_10X10.items():
        for seed in seeds:
            environment = AxcDseEnv(benchmark, evaluation_seed=seed, store=store)
            explorer = Explorer(environment, agent.build(environment, seed, max_steps),
                                max_steps=max_steps)
            traces.append((label, seed, explorer.run(seed=seed)))
    return traces, time.perf_counter() - started


def _timed(run, *args):
    """``run(*args)`` with the cyclic collector off; returns what it returns.

    Collections triggered by a run's allocations would rescan the whole
    growing heap — charging every run for its own (and any surviving)
    objects.  Refcounting still frees everything promptly.
    """
    gc.collect()
    gc.disable()
    try:
        return run(*args)
    finally:
        gc.enable()


def test_batched_exploration_speedup(benchmark, smoke):
    if smoke:
        num_seeds, max_steps, batch_sizes = 32, 4_000, _SMOKE_BATCH_SIZES
        floor = 2.0
    else:
        num_seeds, max_steps, batch_sizes = 256, 10_000, _FULL_BATCH_SIZES
        floor = 5.0
    seeds = tuple(range(num_seeds))

    def run_all():
        reference, serial_s = _timed(_run_serial_engine, seeds, max_steps)
        steps = sum(trace[2].num_steps for trace in reference)
        timings = {}
        # The row of batch size 1 is the serial engine above; the batch-1
        # job list (one-episode batches) is timed here, beside the rows.
        for batch_size in batch_sizes:
            fingerprint, elapsed = _timed(_run_at_batch_size, seeds, max_steps,
                                          batch_size)
            # Batching changes wall-clock, never results.
            assert len(fingerprint) == len(reference)
            for left, right in zip(reference, fingerprint):
                assert left[:2] == right[:2]  # (benchmark_label, seed)
                assert left[2] == right[2]  # every trace column and field
            del fingerprint  # free the outcomes before the next timed run
            timings[batch_size] = elapsed
        return serial_s, timings, steps

    serial_s, timings, total_steps = benchmark.pedantic(run_all, iterations=1, rounds=1)

    def measured(batch_size, wall_clock_s):
        return {
            "batch_size": batch_size,
            "wall_clock_s": round(wall_clock_s, 3),
            "steps_per_s": round(total_steps / wall_clock_s, 1),
            "speedup": round(serial_s / wall_clock_s, 2),
        }

    rows = [measured(batch_size, serial_s if batch_size == 1 else timings[batch_size])
            for batch_size in batch_sizes]
    one_episode_batched = measured(1, timings[1])

    report = {
        "benchmark": "bench_campaign_runtime",
        "mode": "batched_vs_serial",
        "smoke": smoke,
        "campaign": {
            "benchmark": "matmul_10x10",
            "agent": "q-learning",
            "seeds": num_seeds,
            "max_steps": max_steps,
        },
        "total_steps": total_steps,
        "batch_sizes": list(batch_sizes),
        "rows": rows,
        "one_episode_batched": one_episode_batched,
        "bit_identical": True,
    }
    # Only full-scale runs refresh the checked-in perf-trajectory file; a
    # CI/local smoke run lands in a temp file instead.
    json_path = _JSON_PATH if not smoke else \
        Path(tempfile.gettempdir()) / "BENCH_campaign_runtime.smoke.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")

    benchmark.extra_info.update({
        "smoke": smoke,
        "seeds": num_seeds,
        "max_steps": max_steps,
        "total_steps": total_steps,
        "speedups": {row["batch_size"]: row["speedup"] for row in rows},
        "json_path": str(json_path),
    })

    print(f"\nBatched exploration (matmul_10x10 q-learning, {num_seeds} seeds "
          f"x {max_steps} steps = {total_steps} total steps)")
    printed = [(f"batch {row['batch_size']:>4}", row) for row in rows]
    printed.append(("1 episode, batched", one_episode_batched))
    for label, row in printed:
        print(f"  {label:<18}  {row['wall_clock_s']:8.2f} s   "
              f"{row['steps_per_s']:>10,.0f} steps/s   ({row['speedup']:.2f}x)")

    largest = rows[-1]
    assert largest["speedup"] >= floor, (
        f"batch size {largest['batch_size']} speedup {largest['speedup']:.2f}x "
        f"< {floor}x over the serial engine"
    )
