"""Command-line interface.

``repro-axc`` (or ``python -m repro.cli``) exposes the main workflows:

* ``characterize`` — print the reproduced Tables I and II;
* ``run`` — execute a declarative experiment spec (a JSON document, see
  :mod:`repro.experiments`), with dotted ``--set key=value`` overrides;
  ``--explain`` prints the planner's reuse decisions, ``--store`` plans
  against an existing evaluation store;
* ``plan`` — plan a batch of experiment specs against an evaluation store
  without running them: the subsumption-aware planner
  (:mod:`repro.planner`) reports what the store already answers vs. what
  would actually evaluate (``--explain`` for per-unit detail, ``--format
  json`` for the full plan document);
* ``store stats`` — inspect a persistent evaluation store read-only:
  per-context record counts, file size and lifetime hit/miss counters;
* ``serve`` — run the long-lived evaluation daemon (:mod:`repro.service`):
  one shared store, executor and checkpoint journal behind a unix socket
  or localhost TCP port; ``run --remote ADDR`` submits specs to it;
* ``explore`` — run one exploration on a benchmark and print its
  Table-III style summary;
* ``compare`` — run the RL agent and the baselines on the same benchmark;
* ``campaign`` — sweep benchmarks x seeds x agents through the campaign
  runtime, optionally in parallel (``--jobs``) and with a persistent
  evaluation store (``--store``);
* ``sweep`` — exhaustively evaluate whole design spaces (chunked, same
  runtime) and print each benchmark's ground-truth Pareto front;
* ``paper`` — regenerate every table and figure of the paper through the
  artifact pipeline (incremental, fingerprinted, parallel; see
  :mod:`repro.reporting`);
* ``lint`` — statically check the repo's invariants (determinism,
  fingerprint purity, job picklability, error hygiene; see
  :mod:`repro.devtools`);
* ``list-benchmarks`` / ``list-agents`` — show the registries.

``run``, ``serve``, ``campaign``, ``sweep`` and ``paper`` take the same
runtime flags: one per flagged row of
:class:`~repro.experiments.spec.RuntimeSpec`'s field table.

``explore``, ``compare``, ``campaign`` and ``sweep`` are thin builders:
each constructs an :class:`~repro.experiments.spec.ExperimentSpec` and
calls the same :func:`~repro.experiments.runner.run_experiment` facade
that ``run`` uses, so a flag invocation and its equivalent spec document
produce identical results.

Benchmarks are named by registry name (``matmul``), by a parameterized
form (``matmul:rows=50,inner=50,cols=50``) or by a paper label
(``matmul_50x50``).  Configuration mistakes — unknown benchmarks or
agents, malformed specs — print a one-line error and exit with status 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from repro.analysis import (
    render_comparison,
    render_operator_table,
    render_table3,
    reward_curve,
    trace_trends,
)
from repro.benchmarks import available
from repro.benchmarks.registry import PAPER_BENCHMARK_PARAMS
from repro.errors import (
    ConfigurationError,
    ReportingError,
    ReproError,
    ServiceError,
    UnknownBenchmarkError,
)
from repro.experiments import (
    BenchmarkSpec,
    ExperimentAgentSpec,
    ExperimentReport,
    ExperimentSpec,
    RuntimeSpec,
    agent_names,
    apply_overrides,
    run_experiment,
)
from repro.experiments.registry import agent_family
from repro.operators import default_catalog

__all__ = ["main", "build_parser", "DEFAULT_COMPARE_AGENTS"]

#: The explorer line-up of the ``compare`` subcommand (the paper's RL
#: agents followed by the classic metaheuristic baselines).
DEFAULT_COMPARE_AGENTS = (
    "q-learning",
    "sarsa",
    "random",
    "simulated-annealing",
    "hill-climbing",
    "genetic",
)


def _benchmark_choices() -> str:
    return (
        f"registered: {', '.join(sorted(available()))}; parameterized form: "
        f"'name:key=value,...' (e.g. matmul:rows=50,inner=50,cols=50); "
        f"paper labels: {', '.join(PAPER_BENCHMARK_PARAMS)}"
    )


def _benchmark_argument(text: str) -> str:
    """Argparse type validating a benchmark reference (returned verbatim)."""
    try:
        BenchmarkSpec.parse(text)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(f"{exc} ({_benchmark_choices()})")
    return text


def _runtime_flags() -> List[dataclasses.Field]:
    """The :class:`RuntimeSpec` fields whose table row declares a CLI flag."""
    return [item for item in dataclasses.fields(RuntimeSpec)
            if item.metadata["flag"] is not None]


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The runtime flags of every executing subcommand, one per flagged row."""
    for item in _runtime_flags():
        row = item.metadata
        if isinstance(item.default, bool):
            parser.add_argument(row["flag"], dest=item.name, action="store_true",
                                help=row["help"])
            continue
        kind = float if row["number"] else str if item.default is None else type(item.default)
        parser.add_argument(row["flag"], dest=item.name, default=item.default,
                            type=kind, metavar=row["metavar"], help=row["help"])


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line definition (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-axc",
        description="RL-based design-space exploration of approximate computing techniques",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    characterize = subparsers.add_parser(
        "characterize", help="print the reproduced operator tables (Tables I and II)"
    )
    characterize.add_argument("--samples", type=int, default=20000,
                              help="operand pairs per operator for the measured MRED")
    characterize.add_argument("--no-measure", action="store_true",
                              help="print only the published characterisation")

    run_cmd = subparsers.add_parser(
        "run", help="execute a declarative experiment spec (JSON document)"
    )
    run_cmd.add_argument("spec", metavar="SPEC.json",
                         help="path to the experiment spec document")
    run_cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="dotted override applied to the spec before running "
                              "(e.g. --set runtime.jobs=4 --set max_steps=500 "
                              "--set benchmarks.0.params.rows=20); repeatable")
    run_cmd.add_argument("--out", default=None, metavar="PATH",
                         help="write the full experiment report as JSON")
    run_cmd.add_argument("--explain", action="store_true",
                         help="print the execution plan (what the store answers "
                              "vs. what evaluates) before running")
    run_cmd.add_argument("--remote", default=None, metavar="ADDR",
                         help="submit the spec to a running evaluation daemon "
                              "(unix-socket path or host:port; see 'serve') "
                              "instead of executing locally; the report is "
                              "byte-identical to a local run")
    _add_runtime_arguments(run_cmd)

    plan_cmd = subparsers.add_parser(
        "plan",
        help="plan a batch of experiment specs against an evaluation store "
             "without running them",
    )
    plan_cmd.add_argument("specs", nargs="+", metavar="SPEC.json",
                          help="experiment spec documents planned as one batch "
                               "(shared work is deduplicated across them)")
    plan_cmd.add_argument("--store", default=None, metavar="PATH",
                          help="existing evaluation store to plan reuse against "
                               "(default: plan against an empty store)")
    plan_cmd.add_argument("--explain", action="store_true",
                          help="print the full per-node, per-unit rendering")
    plan_cmd.add_argument("--format", choices=("human", "json"), default="human",
                          dest="format_", metavar="FORMAT",
                          help="output format: human (default) or json")

    store_cmd = subparsers.add_parser(
        "store", help="inspect persistent evaluation stores"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats",
        help="report per-context record counts, file size and lifetime "
             "hit/miss counters of a store file (read-only)",
    )
    store_stats.add_argument("path", metavar="PATH", help="sqlite store file")
    store_stats.add_argument("--format", choices=("human", "json"), default="human",
                             dest="format_", metavar="FORMAT",
                             help="output format: human (default) or json")

    serve = subparsers.add_parser(
        "serve",
        help="run the long-lived evaluation daemon: a shared store, warm "
             "compiled kernels and in-flight dedup behind a unix socket or "
             "localhost TCP port",
    )
    endpoint = serve.add_mutually_exclusive_group(required=True)
    endpoint.add_argument("--socket", default=None, metavar="PATH",
                          help="listen on a unix domain socket at PATH")
    endpoint.add_argument("--port", type=int, default=None, metavar="N",
                          help="listen on localhost TCP port N (0 = pick a "
                               "free port; the chosen port is printed on the "
                               "ready line)")
    _add_runtime_arguments(serve)

    explore_cmd = subparsers.add_parser(
        "explore", help="run one exploration and print its Table-III summary"
    )
    explore_cmd.add_argument("--benchmark", default="matmul", type=_benchmark_argument,
                             help=f"benchmark to explore ({_benchmark_choices()})")
    explore_cmd.add_argument("--steps", type=int, default=2000, help="maximum exploration steps")
    explore_cmd.add_argument("--seed", type=int, default=0, help="exploration seed")
    explore_cmd.add_argument("--agent", default="q-learning",
                             choices=list(agent_names()), help="agent to use")
    explore_cmd.add_argument("--figures", action="store_true",
                             help="also print trend lines (Figs 2-3) and the reward curve (Fig 4)")

    compare = subparsers.add_parser(
        "compare", help="compare the RL agent against the baseline explorers"
    )
    compare.add_argument("--benchmark", default="matmul", type=_benchmark_argument,
                         help=f"benchmark to compare on ({_benchmark_choices()})")
    compare.add_argument("--steps", type=int, default=1000,
                         help="RL steps / baseline evaluation budget")
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--agents", nargs="+", default=list(DEFAULT_COMPARE_AGENTS),
                         choices=list(agent_names()),
                         help="explorers to score against each other")

    campaign = subparsers.add_parser(
        "campaign",
        help="sweep benchmarks x seeds x agents through the campaign runtime",
    )
    campaign.add_argument("--benchmarks", nargs="+", default=["matmul"],
                          type=_benchmark_argument,
                          help=f"benchmarks to sweep ({_benchmark_choices()})")
    campaign.add_argument("--seeds", nargs="+", type=int, default=[0],
                          help="explicit workload/exploration seeds")
    campaign.add_argument("--agents", nargs="+", default=["q-learning"],
                          choices=list(agent_names()), help="agent families to run")
    campaign.add_argument("--steps", type=int, default=1000,
                          help="exploration steps per run")
    _add_runtime_arguments(campaign)

    sweep = subparsers.add_parser(
        "sweep",
        help="exhaustively evaluate design spaces and print the ground-truth Pareto fronts",
    )
    sweep.add_argument("--benchmarks", nargs="+", default=["dotproduct"],
                       type=_benchmark_argument,
                       help=f"benchmarks to sweep exhaustively ({_benchmark_choices()})")
    sweep.add_argument("--seeds", nargs="+", type=int, default=[0],
                       help="workload seeds to sweep each benchmark under")
    sweep.add_argument("--out", default=None, metavar="PATH",
                       help="write the true fronts as JSON")
    _add_runtime_arguments(sweep)

    paper = subparsers.add_parser(
        "paper",
        help="regenerate the paper's tables and figures (incremental pipeline)",
    )
    paper.add_argument("--artifacts", nargs="+", default=None, metavar="NAME",
                       help="artifact subset to regenerate (default: all; "
                            "see --list for the declared names)")
    scale = paper.add_mutually_exclusive_group()
    scale.add_argument("--paper-scale", action="store_true",
                       help="the paper's full protocol (50x50 matrix, "
                            "10000-step explorations)")
    scale.add_argument("--smoke", action="store_true",
                       help="CI-sized artifacts: tiny benchmarks, tens of steps")
    paper.add_argument("--out", default="artifacts", metavar="DIR",
                       help="output directory for the rendered artifacts and "
                            "manifest.json (default: artifacts/)")
    paper.add_argument("--force", action="store_true",
                       help="rebuild even artifacts whose manifest entries are "
                            "up to date")
    paper.add_argument("--list", action="store_true", dest="list_artifacts",
                       help="list the declared artifacts and exit")
    _add_runtime_arguments(paper)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo's AST-based invariant checks (determinism, "
             "fingerprint purity, job picklability, error hygiene)",
    )
    lint.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                      help="files or directories to check (default: src)")
    lint.add_argument("--format", choices=("human", "json"), default="human",
                      dest="format_", metavar="FORMAT",
                      help="output format: human (default) or json")
    lint.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                      help="rule subset to run (default: all registered rules)")

    subparsers.add_parser("list-benchmarks", help="list the registered benchmarks")
    subparsers.add_parser("list-agents", help="list the registered agent families")
    return parser


# ------------------------------------------------------------ output writing


def _write_output(path: Path, text: str, what: str) -> None:
    """Write a report file atomically, creating missing parent directories.

    The text lands in a same-directory temporary file that is renamed over
    the destination, so a failure mid-write (a full disk, a kill) never
    leaves a truncated report behind: the destination either keeps its old
    contents or receives the new ones whole, and the partial temporary is
    cleaned up.  Unwritable destinations (permission problems, a file where
    a directory is needed, ...) surface as :class:`ConfigurationError` —
    one line on stderr and exit status 2, never a traceback.
    """
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp_path.write_text(text, encoding="utf-8")
        os.replace(tmp_path, path)
    except OSError as exc:
        try:
            tmp_path.unlink()
        except OSError:
            pass  # nothing partial was written (or it is already gone)
        raise ConfigurationError(f"cannot write {what} to {path}: {exc}") from exc


# ------------------------------------------------------------ shared printers


def _print_failures(report: ExperimentReport) -> None:
    for entry in report.failures:
        identity = entry.describe or f"{entry.benchmark_label}[seed={entry.seed}]"
        print(f"\nFAILED {identity}:\n{entry.error}")


def _print_store_line(report: ExperimentReport) -> None:
    store = report.store
    print(f"\nEvaluation store: {store['size']} cached design points, "
          f"{store['hits']} hits / {store['lookups']} lookups "
          f"({100 * store['hit_rate']:.0f} % hit rate)"
          + (f", persisted to {store['path']}" if store["path"] else ""))


def _print_explore(report: ExperimentReport, figures: bool = False) -> int:
    if report.failures:
        _print_failures(report)
        return 1
    result = report.entries[0].result
    print(f"Exploration of {result.benchmark_name} with {result.agent_name} "
          f"({result.num_steps} steps, thresholds: {result.thresholds})")
    print(render_table3({result.benchmark_name: result}, default_catalog()))

    if figures:
        trends = trace_trends(result)
        print("\nTrend lines (Figures 2-3):")
        for objective, trend in trends.items():
            print(f"  {objective}: slope={trend.slope:.6f} intercept={trend.intercept:.3f}")
        curve = reward_curve(result)
        print("\nAverage reward per 100 steps (Figure 4):")
        print("  " + ", ".join(f"{value:.2f}" for value in curve.averages))
    return 0


def _print_compare(report: ExperimentReport) -> int:
    _print_failures(report)
    results = report.results()
    if results:
        first = results[0]
        print(f"Explorer comparison on {first.benchmark_name} "
              f"(thresholds: {first.thresholds})")
        print(render_comparison(results))
    return 1 if report.failures else 0


def _print_campaign_summaries(report: ExperimentReport) -> None:
    for agent_name, summaries in report.summarize().items():
        print(f"\nAgent {agent_name} — per-benchmark aggregates over seeds")
        for label, summary in summaries.items():
            best = ("-" if summary.best_feasible_power_mw is None
                    else f"{summary.best_feasible_power_mw:.1f} mW")
            print(f"  {label:14s} runs={summary.runs}  "
                  f"mean solution Δpower={summary.mean_solution_power_mw:.1f} mW  "
                  f"Δtime={summary.mean_solution_time_ns:.1f} ns  "
                  f"Δacc={summary.mean_solution_accuracy:.1f}  "
                  f"feasible={100 * summary.mean_feasible_fraction:.0f} %  "
                  f"front={summary.mean_front_size:.1f} pts  "
                  f"best feasible Δpower={best}")


def _print_campaign(report: ExperimentReport) -> int:
    _print_failures(report)
    _print_campaign_summaries(report)
    _print_store_line(report)
    return 1 if report.failures else 0


def _print_sweep_fronts(report: ExperimentReport) -> None:
    for result in report.sweep_results():
        feasible = len(result.feasible_front())
        print(f"\n{result.benchmark_label} (seed {result.seed}) — "
              f"space {result.space_size} points, {result.evaluations} evaluated")
        print(f"  true front: {result.front_size} point(s), {feasible} feasible, "
              f"hypervolume proxy {result.hypervolume():.3g}")
        # Ties (distinct configurations with identical objectives) collapse
        # to one printed line with a multiplicity.
        counts = Counter(result.front_points())
        for (accuracy, power, time_ns), multiplicity in sorted(counts.items()):
            suffix = f"   x{multiplicity} configs" if multiplicity > 1 else ""
            print(f"    Δacc={accuracy:10.3f}  Δpower={power:10.1f} mW  "
                  f"Δtime={time_ns:10.1f} ns{suffix}")

    sweep_results = report.sweep_results()
    wall_clock = (sweep_results[0].metadata.get("sweep_wall_clock_s")
                  if sweep_results else None)
    if wall_clock is not None:
        print(f"\nSweep wall-clock: {wall_clock:.2f} s")


def _print_report(report: ExperimentReport) -> int:
    """Kind-appropriate rendering shared by ``run`` and the legacy builders."""
    kind = report.spec.kind
    if kind == "explore":
        status = _print_explore(report)
        _print_store_line(report)
        return status
    if kind == "compare":
        status = _print_compare(report)
        _print_store_line(report)
        return status
    if kind == "sweep":
        _print_sweep_fronts(report)
        _print_store_line(report)
        return 0
    return _print_campaign(report)


def _execution_mode(runtime: RuntimeSpec) -> str:
    if runtime.executor == "serial":
        return "serially"
    return f"on {runtime.jobs} worker processes"


def _warm_suffix(store) -> str:
    return f" (store warm with {len(store)} evaluations)" if len(store) else ""


def _expansion_summary(spec: ExperimentSpec, store) -> str:
    """The one-line expansion header shared by `run` and the legacy builders."""
    if spec.kind == "sweep":
        return (f"{len(spec.benchmarks)} benchmark(s) x {len(spec.seeds)} seed(s), "
                f"chunks of {spec.runtime.chunk_size} design points, running "
                f"{_execution_mode(spec.runtime)}{_warm_suffix(store)}")
    runs = len(spec.benchmarks) * len(spec.agents) * len(spec.seeds)
    batch = spec.runtime.effective_batch_size(len(spec.seeds))
    batch_suffix = f" batched {batch} seeds/job" if batch > 1 else ""
    return (f"{len(spec.benchmarks)} benchmark(s) x {len(spec.agents)} agent(s) x "
            f"{len(spec.seeds)} seed(s) = {runs} exploration(s), "
            f"{spec.max_steps} steps each, running "
            f"{_execution_mode(spec.runtime)}{batch_suffix}{_warm_suffix(store)}")


# -------------------------------------------------------------------- commands


def _command_characterize(args: argparse.Namespace) -> int:
    catalog = default_catalog()
    measure = not args.no_measure
    print("Table I — selected adders")
    print(render_operator_table(catalog, kind="adder", measure=measure, samples=args.samples))
    print()
    print("Table II — selected multipliers")
    print(render_operator_table(catalog, kind="multiplier", measure=measure,
                                samples=args.samples))
    return 0


def _load_spec(path_text: str, overrides: Optional[List[str]] = None) -> ExperimentSpec:
    """Load (and optionally override) one experiment spec document."""
    spec_path = Path(path_text)
    if not spec_path.exists():
        raise ConfigurationError(f"experiment spec file {spec_path} does not exist")
    try:
        payload = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"experiment spec {spec_path} is not valid JSON: {exc}"
        ) from exc
    if overrides:
        payload = apply_overrides(payload, overrides)
    return ExperimentSpec.from_dict(payload)


def _open_existing_store(path_text: str):
    """Open an existing on-disk store; missing or corrupt files exit 2.

    The planner's ``--store`` names a store to *reuse*, so a path that does
    not exist is a configuration mistake, and a file the store backend
    cannot load raises :class:`ConfigurationError` (one line, exit 2)
    rather than a raw sqlite/pickle traceback.
    """
    from repro.runtime.store import EvaluationStore

    store_path = Path(path_text)
    if not store_path.exists():
        raise ConfigurationError(
            f"evaluation store {store_path} does not exist (create one with "
            f"'sweep --store' or 'campaign --store')"
        )
    return EvaluationStore(path=store_path)


def _runtime_from_args(args: argparse.Namespace,
                       base: RuntimeSpec = RuntimeSpec()) -> RuntimeSpec:
    """``base`` with every runtime flag given off its default applied.

    A flag at its default keeps the base's value (``run``'s spec document).
    """
    changes = {item.name: getattr(args, item.name) for item in _runtime_flags()
               if getattr(args, item.name) != item.default}
    return dataclasses.replace(base, **changes)


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import EvaluationDaemon

    daemon = EvaluationDaemon(runtime=_runtime_from_args(args),
                              socket_path=args.socket, port=args.port)
    return daemon.serve()


def _command_run_remote(args: argparse.Namespace, spec: ExperimentSpec,
                        address: str) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(address)
    spec_path = Path(args.spec)
    header = f"Experiment {spec.kind} {spec.fingerprint()} from {spec_path}"
    if spec.description:
        header += f" — {spec.description}"
    print(header)
    print(f"  submitting to the evaluation daemon at {client.address}")
    report = client.run(spec)
    suffix = " (coalesced onto an in-flight submission)" if report.coalesced else ""
    print(f"  ticket {report.ticket}{suffix}")

    entries = report.payload.get("entries", [])
    failed = [entry for entry in entries if not entry.get("ok")]
    for entry in failed:
        print(f"\nFAILED {entry.get('benchmark_label')}"
              f"[seed={entry.get('seed')}]:\n{entry.get('error')}")
    print(f"\n{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
          f"{'all ok' if not failed else f'{len(failed)} failed'}")
    _print_store_line(report)

    if args.out is not None:
        out_path = Path(args.out)
        _write_output(out_path, report.to_json(), "experiment report")
        print(f"Report written to {out_path}")
    return 0 if report.ok else 1


def _command_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec, args.overrides)
    # Checked before the remote branch too, where the daemon's runtime
    # governs the ticket and the flags are not applied.
    runtime = _runtime_from_args(args, spec.runtime)
    remote = args.remote if args.remote is not None else spec.runtime.remote
    if remote is not None:
        return _command_run_remote(args, spec, remote)
    spec = spec.with_runtime(runtime)
    spec_path = Path(args.spec)

    if args.store_path is not None:
        store = _open_existing_store(args.store_path)
    else:
        store = spec.runtime.build_store()
    header = f"Experiment {spec.kind} {spec.fingerprint()} from {spec_path}"
    if spec.description:
        header += f" — {spec.description}"
    print(header)
    print(f"  {_expansion_summary(spec, store)}")

    if args.explain:
        from repro.planner import plan_experiments

        print()
        print(plan_experiments([spec], store=store).explain())
        print()
    report = run_experiment(spec, store=store)
    status = _print_report(report)
    print(f"\nWall-clock: {report.wall_clock_s:.2f} s")

    if args.out is not None:
        out_path = Path(args.out)
        _write_output(out_path, report.to_json(), "experiment report")
        print(f"Report written to {out_path}")
    return status


def _command_plan(args: argparse.Namespace) -> int:
    from repro.planner import plan_experiments

    specs = [_load_spec(path) for path in args.specs]
    store = _open_existing_store(args.store) if args.store is not None else None
    plan = plan_experiments(specs, store=store)

    if args.format_ == "json":
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    elif args.explain:
        print(plan.explain())
    else:
        print(plan.summary())
        for node in plan.merge_nodes:
            print(f"  {node.describe()}")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    from repro.runtime.store import inspect_store

    info = inspect_store(args.path)
    if args.format_ == "json":
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"Evaluation store {info['path']}: {info['records']} record(s), "
          f"{info['size_bytes'] / 1024:.1f} KiB")
    lifetime = info["lifetime"]
    print(f"  lifetime: {lifetime['hits']} hit(s) / {lifetime['lookups']} "
          f"lookup(s) ({100 * lifetime['hit_rate']:.0f} % hit rate)")
    for context in info["contexts"]:
        signed = "signed" if context["signed"] else "unsigned"
        print(f"  context {context['benchmark']}/{context['catalog']} "
              f"seed={context['seed']} {signed}: {context['records']} record(s)")
    return 0


def _command_explore(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="explore",
        benchmarks=(BenchmarkSpec.parse(args.benchmark),),
        agents=(ExperimentAgentSpec(args.agent),),
        seeds=(args.seed,),
        max_steps=args.steps,
    )
    return _print_explore(run_experiment(spec), figures=args.figures)


def _command_compare(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="compare",
        benchmarks=(BenchmarkSpec.parse(args.benchmark),),
        agents=tuple(ExperimentAgentSpec(name) for name in dict.fromkeys(args.agents)),
        seeds=(args.seed,),
        max_steps=args.steps,
    )
    return _print_compare(run_experiment(spec))


def _command_campaign(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="campaign",
        benchmarks=tuple(BenchmarkSpec.parse(text)
                         for text in dict.fromkeys(args.benchmarks)),
        agents=tuple(ExperimentAgentSpec(name) for name in dict.fromkeys(args.agents)),
        seeds=tuple(dict.fromkeys(args.seeds)),
        max_steps=args.steps,
        runtime=_runtime_from_args(args),
    )
    store = spec.runtime.build_store()
    print(f"Campaign: {_expansion_summary(spec, store)}")
    return _print_campaign(run_experiment(spec, store=store))


def _command_sweep(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        kind="sweep",
        benchmarks=tuple(BenchmarkSpec.parse(text)
                         for text in dict.fromkeys(args.benchmarks)),
        seeds=tuple(dict.fromkeys(args.seeds)),
        runtime=_runtime_from_args(args),
    )
    store = spec.runtime.build_store()
    print(f"Exhaustive sweep: {_expansion_summary(spec, store)}")
    report = run_experiment(spec, store=store)
    _print_sweep_fronts(report)

    if args.out is not None:
        payload = [entry.metrics for entry in report.entries]
        out_path = Path(args.out)
        _write_output(out_path, json.dumps(payload, indent=2, sort_keys=True),
                      "sweep fronts")
        print(f"\nFronts written to {out_path}")

    _print_store_line(report)
    return 0


def _command_paper(args: argparse.Namespace) -> int:
    from repro.reporting import PaperPipeline, paper_artifacts
    from repro.reporting.pipeline import select_artifacts

    scale = "paper" if args.paper_scale else ("smoke" if args.smoke else "default")
    artifacts = select_artifacts(paper_artifacts(scale), args.artifacts)

    if args.list_artifacts:
        for spec in artifacts:
            experiments = ", ".join(sorted(spec.experiment_fingerprints()))
            print(f"{spec.name:8s} [{spec.kind:6s}] {spec.title}"
                  + (f"  (experiments: {experiments})" if experiments else ""))
        return 0

    out_dir = Path(args.out)
    try:  # fail early with exit 2 when the destination is unwritable
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create artifact directory {out_dir}: {exc}"
        ) from exc

    runtime = _runtime_from_args(args)
    pipeline = PaperPipeline(artifacts, out_dir=out_dir, runtime=runtime,
                             force=args.force)
    print(f"Paper artifacts at {scale} scale -> {out_dir}"
          + (f" ({runtime.jobs} worker processes)" if runtime.jobs > 1 else ""))
    result = pipeline.run()

    for status in result.statuses:
        print(f"  {status.name:8s} {status.state:6s} {' '.join(status.files)}")
    if result.reports:
        store = result.store
        print(f"\nEvaluation store: {store['size']} cached design points, "
              f"{store['hits']} hits / {store['lookups']} lookups"
              + (f", persisted to {store['path']}" if store["path"] else ""))
    print(f"Manifest: {pipeline.manifest_path}")
    print(f"Wall-clock: {result.wall_clock_s:.2f} s")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the lint engine is developer tooling, and the other
    # subcommands should not pay its import cost.
    from repro.devtools import lint_paths, render_human, render_json

    report = lint_paths(args.paths, rules=args.rules or ())
    rendered = render_human(report) if args.format_ == "human" else render_json(report)
    print(rendered)
    return 0 if report.ok else 1


def _command_list_benchmarks(_: argparse.Namespace) -> int:
    for name in sorted(available()):
        print(name)
    for label in PAPER_BENCHMARK_PARAMS:
        name, params = PAPER_BENCHMARK_PARAMS[label]
        print(f"{label}  (= {BenchmarkSpec.default_label(name, params)})")
    return 0


def _command_list_agents(_: argparse.Namespace) -> int:
    for name in agent_names():
        family = agent_family(name)
        print(f"{name:20s} [{family.kind}] {family.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Configuration mistakes (unknown benchmarks/agents, invalid specs —
    :class:`UnknownBenchmarkError` / :class:`ConfigurationError`, including
    unwritable ``--out`` destinations) print a one-line error to stderr and
    exit with status 2 instead of a raw traceback; execution failures inside
    a campaign or the artifact pipeline (:class:`ReportingError`) and
    evaluation-service failures (:class:`ServiceError`, including protocol
    violations) are reported with exit status 1.  Other runtime errors
    propagate with their traceback — they indicate bugs, not configuration.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "characterize": _command_characterize,
        "run": _command_run,
        "plan": _command_plan,
        "store": _command_store,
        "serve": _command_serve,
        "explore": _command_explore,
        "compare": _command_compare,
        "campaign": _command_campaign,
        "sweep": _command_sweep,
        "paper": _command_paper,
        "lint": _command_lint,
        "list-benchmarks": _command_list_benchmarks,
        "list-agents": _command_list_agents,
    }
    try:
        return commands[args.command](args)
    except UnknownBenchmarkError as exc:
        print(f"error: {exc}; {_benchmark_choices()}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReportingError as exc:
        # Artifact-pipeline execution failures: one line, exit 1 (the
        # configuration was fine; something failed while running it).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ServiceError as exc:
        # Daemon/client failures (unreachable daemon, failed ticket,
        # protocol violation): one line, exit 1 — never a socket traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
