"""Multi-seed exploration campaign with parallel execution and CSV/JSON export.

Run with::

    python examples/campaign_sweep.py [--seeds 3] [--steps 1500] [--jobs 4] \
        [--store evaluations.sqlite] [--out results/]

A single exploration is noisy (one -R constraint violation changes a whole
reward window), so a practical evaluation repeats the exploration over
several seeds.  This example declares the paper's two benchmark families
over a seed sweep as a campaign :class:`repro.ExperimentSpec` and runs it
through :func:`repro.run_experiment`: ``--jobs N`` fans the explorations
out over N worker processes, and ``--store PATH`` persists the shared
evaluation store so a re-run (or a different agent) starts warm instead of
re-measuring design points.  Serial and parallel execution produce
identical results — only the wall-clock changes.

The per-benchmark aggregates are printed, and every trace is exported to
CSV plus a JSON summary — ready to be plotted into Figures 2-4 with any
external tool.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro import ExperimentSpec, RuntimeSpec, run_experiment
from repro.analysis import write_result_json, write_trace_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="number of seeds per benchmark")
    parser.add_argument("--steps", type=int, default=1500, help="exploration steps per run")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial execution)")
    parser.add_argument("--store", type=Path, default=None,
                        help="sqlite file persisting the evaluation store across runs")
    parser.add_argument("--out", type=Path, default=Path("campaign_results"),
                        help="directory for the exported CSV/JSON files")
    args = parser.parse_args()

    spec = ExperimentSpec.from_dict({
        "kind": "campaign",
        "benchmarks": ["matmul_10x10", "fir_100"],
        "agents": ["q-learning"],
        "seeds": list(range(args.seeds)),
        "max_steps": args.steps,
    }).with_runtime(RuntimeSpec(
        jobs=args.jobs, store_path=None if args.store is None else str(args.store)))
    store = spec.runtime.build_store()

    print(f"Running {len(spec.benchmarks)} benchmarks x {args.seeds} seeds "
          f"x {args.steps} steps on {spec.runtime.jobs} process(es)"
          + (f", store warm with {len(store)} evaluations" if len(store) else "") + " ...")
    report = run_experiment(spec, store=store)

    print("\nPer-benchmark aggregates over seeds")
    for label, summary in report.summarize()["q-learning"].items():
        best = "-" if summary.best_feasible_power_mw is None else \
            f"{summary.best_feasible_power_mw:.1f} mW"
        print(f"  {label:14s} runs={summary.runs}  "
              f"mean solution Δpower={summary.mean_solution_power_mw:.1f} mW  "
              f"Δtime={summary.mean_solution_time_ns:.1f} ns  "
              f"Δacc={summary.mean_solution_accuracy:.1f}  "
              f"feasible={100 * summary.mean_feasible_fraction:.0f} %  "
              f"best feasible Δpower={best}")

    print(f"\nWall-clock: {report.wall_clock_s:.1f} s — evaluation store: "
          f"{report.store['size']} design points, "
          f"{report.store['hits']} hits / {report.store['lookups']} lookups")

    args.out.mkdir(parents=True, exist_ok=True)
    for entry in report.entries:
        stem = f"{entry.benchmark_label}_seed{entry.seed}"
        write_trace_csv(entry.result, args.out / f"{stem}_trace.csv")
        write_result_json(entry.result, args.out / f"{stem}_summary.json")
    print(f"Exported {2 * len(report.entries)} files to {args.out}/")


if __name__ == "__main__":
    main()
