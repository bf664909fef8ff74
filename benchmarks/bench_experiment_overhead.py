"""Declarative experiment facade — overhead vs. direct executor calls.

The spec layer adds work around an experiment: parsing/validating the
document, planning it and expanding the plan onto the runtime, and
assembling the serializable report.  This micro-benchmark shows that work
is negligible:

1. **End-to-end** — the same campaign (benchmark x agents x seeds) run
   directly on the runtime primitives (``expand_jobs`` +
   ``SerialExecutor.run``) and through :func:`run_experiment` on a fresh
   store each; the results must be bit-identical and the facade's
   wall-clock within a small factor of the direct call.
2. **Document plumbing alone** — ``from_dict(to_dict(spec))`` +
   ``fingerprint()`` + ``report.to_dict()`` timed over many repetitions;
   microseconds against explorations that take milliseconds each.

``--smoke`` shrinks the problem and drops the wall-clock assertion so CI
exercises the spec -> runner -> report path in seconds; results are still
asserted identical.  All timings land in ``benchmark.extra_info``.
"""

from __future__ import annotations

import time

from repro.experiments import ExperimentSpec, run_experiment
from repro.runtime import (
    AgentSpec,
    EvaluationStore,
    SerialExecutor,
    expand_jobs,
    flatten_outcomes,
)


def _front_identity(result):
    return [(record.point.key(), record.deltas) for record in result.front()]


def _entry_identity(benchmark_label, seed, result):
    return (
        benchmark_label,
        seed,
        result.num_steps,
        result.solution.deltas,
        _front_identity(result),
    )


def test_experiment_facade_overhead(benchmark, smoke):
    length = 12 if smoke else 24
    max_steps = 40 if smoke else 300
    seeds = (0,) if smoke else (0, 1)
    agents = ("q-learning", "hill-climbing")
    plumbing_repetitions = 200 if smoke else 1000

    spec = ExperimentSpec.from_dict({
        "kind": "campaign",
        "benchmarks": [f"dotproduct:length={length}"],
        "agents": list(agents),
        "seeds": list(seeds),
        "max_steps": max_steps,
    })

    def run_all():
        # -- the runtime primitives directly: expand, run, flatten ---------
        started = time.perf_counter()
        jobs = expand_jobs(
            {spec.benchmarks[0].label: spec.benchmarks[0].build()},
            [AgentSpec(agent) for agent in agents],
            seeds=seeds,
            max_steps=max_steps,
            env_kwargs=spec.thresholds.env_kwargs(),
            batch_size=spec.runtime.effective_batch_size(len(seeds)),
        )
        direct_entries = flatten_outcomes(
            SerialExecutor().run(jobs, store=EvaluationStore()))
        direct_s = time.perf_counter() - started

        # -- the same experiment through the declarative facade ------------
        started = time.perf_counter()
        report = run_experiment(spec, store=EvaluationStore())
        facade_s = time.perf_counter() - started

        # -- document plumbing alone (parse + fingerprint + report dict) ---
        started = time.perf_counter()
        for _ in range(plumbing_repetitions):
            round_tripped = ExperimentSpec.from_dict(spec.to_dict())
            round_tripped.fingerprint()
            report.to_dict(include_timings=False)
        plumbing_s = (time.perf_counter() - started) / plumbing_repetitions

        return direct_entries, direct_s, report, facade_s, plumbing_s

    direct_entries, direct_s, report, facade_s, plumbing_s = benchmark.pedantic(
        run_all, iterations=1, rounds=1
    )

    overhead = facade_s / direct_s if direct_s else float("inf")
    benchmark.extra_info["smoke"] = smoke
    benchmark.extra_info["explorations"] = len(report.entries)
    benchmark.extra_info["direct_executor_s"] = round(direct_s, 4)
    benchmark.extra_info["facade_s"] = round(facade_s, 4)
    benchmark.extra_info["facade_overhead_x"] = round(overhead, 3)
    benchmark.extra_info["plumbing_per_spec_ms"] = round(plumbing_s * 1000, 4)

    print(f"\nExperiment facade overhead ({len(report.entries)} explorations, "
          f"{max_steps} steps each)")
    print(f"  direct executor  {direct_s * 1000:9.1f} ms   (baseline)")
    print(f"  run_experiment   {facade_s * 1000:9.1f} ms   ({overhead:.2f}x)")
    print(f"  spec+report plumbing {plumbing_s * 1e6:9.1f} us per round trip")

    # The facade changes packaging, never results: same (benchmark, seed,
    # agent) explorations in the same benchmark x agent x seed order,
    # bit-identical traces and fronts.
    facade_identities = [
        _entry_identity(entry.benchmark_label, entry.seed, entry.result)
        for entry in report.entries
    ]
    direct_identities = [
        _entry_identity(outcome.job.benchmark_label, outcome.job.seed,
                        outcome.result)
        for outcome in direct_entries
    ]
    assert report.ok
    assert facade_identities == direct_identities

    # Spec expansion + report assembly are microseconds; the experiment
    # itself is what costs.  Only asserted at full size where the direct
    # runtime dominates noise.
    if not smoke:
        assert overhead < 1.25, f"facade overhead {overhead:.2f}x vs direct executor"
        assert plumbing_s < 0.05
