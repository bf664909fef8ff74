"""The layers the traced run measures: hook targets and per-layer metrics.

Each hook names its target by module and qualified name, so a refactor
that deletes a target (``Explorer``, ``Campaign`` ...) leaves that layer
absent instead of breaking the benchmark.  ``PER_LAYER`` lists every
metric the traced run reports, in the order ``BENCHMARK.json`` does.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from tracer import AGGREGATE, EVENT, Hook, Tracer, attribute, merged_counters


def _spec_fingerprint(args, kwargs):
    spec = args[0] if args else kwargs.get("spec")
    return spec.fingerprint() if hasattr(spec, "fingerprint") else None


def _report_fingerprint(args, kwargs):
    spec = getattr(args[0], "spec", None)
    return spec.fingerprint() if hasattr(spec, "fingerprint") else None


def _count(name):
    def on_exit(tracer, args, kwargs, result):
        tracer.count(name)
    return on_exit


def _explorer_done(tracer, args, kwargs, result):
    tracer.count("explorer.steps", result.num_steps)


def _batched_done(tracer, args, kwargs, result):
    tracer.count("batched.steps", sum(item.num_steps for item in result))


def _kernel_done(tracer, args, kwargs, result):
    context = args[1] if len(args) > 1 else kwargs.get("context")
    tracer.count("evaluator.kernel_runs")
    tracer.count("evaluator.kernel_ops", context.profile.total_operations)


def _executor_enter(tracer, frame, args, kwargs):
    parent = frame.parent
    if parent is not None and parent.anchor.layer in ("executor.run", "executor.pool"):
        return  # a process executor delegating to the serial one
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs", ())
    tracer.count("executor.jobs", len(jobs))
    n_jobs = getattr(args[0], "n_jobs", 1)
    if n_jobs > 1 and len(jobs) > 1:
        tracer.counters["executor.workers"] = min(n_jobs, len(jobs))


def _job_enter(tracer, frame, args, kwargs):
    if tracer.is_worker:
        store = kwargs.get("store")
        tracer.count("executor.records_shipped", len(store) if store is not None else 0)


def _lookup_done(tracer, args, kwargs, result):
    tracer.count("store.lookups")
    if result is not None:
        tracer.count("store.hits")


def _load_done(tracer, args, kwargs, result):
    tracer.count("store.load_records", len(args[0]))


def _flush_done(tracer, args, kwargs, result):
    store = args[0]
    if store.path is not None:
        tracer.count("store.flushes")
        tracer.count("store.rows_written", result)
    if not tracer.is_worker:
        tracer.counters["store.records_end"] = len(store)


def _snapshot_done(tracer, args, kwargs, result):
    if not tracer.is_worker:
        tracer.count("executor.waves")


def _checkpoint_record_done(tracer, args, kwargs, result):
    outcome = args[1] if len(args) > 1 else kwargs.get("outcome")
    if outcome.ok:
        tracer.count("checkpoint.records")


def _restore_done(tracer, args, kwargs, result):
    if result is not None:
        tracer.count("checkpoint.restored")


def _plan_done(tracer, args, kwargs, result):
    tracer.count("planner.plans")
    tracer.count("planner.units", len(result.units))
    tracer.count("planner.replayed_units", result.replayed_units)


def _bytes_done(tracer, args, kwargs, result):
    tracer.count("report.bytes", len(result))


def _submit_request(args, kwargs, result):
    return result.get("fingerprint")


def _submit_done(tracer, args, kwargs, result):
    ticket = result.get("ticket")
    fingerprint = result.get("fingerprint")
    if ticket is not None and fingerprint is not None:
        tracer.tickets[ticket] = fingerprint
    if result.get("coalesced"):
        tracer.count("daemon.coalesced")
    tracer.event("submit", ticket, bool(result.get("coalesced")))


def _ticket_event(name):
    def on_exit(tracer, args, kwargs, result):
        tracer.event(name, args[1].id)
    return on_exit


def _drain_begun(tracer, args, kwargs, result):
    tracer.default_request = "drain"


def _frame_request(tracer: Tracer, frame) -> str:
    """The request a wire frame belongs to: its spec, ticket or op."""
    if not isinstance(frame, dict):
        return "control"
    if frame.get("fingerprint"):
        return frame["fingerprint"]
    spec = frame.get("spec")
    if isinstance(spec, dict):
        from repro.experiments.spec import ExperimentSpec

        return ExperimentSpec.from_dict(spec).fingerprint()
    ticket = frame.get("ticket")
    if ticket in tracer.tickets:
        return tracer.tickets[ticket]
    return f"control:{frame.get('op', 'reply')}"


def _codec_done(tracer, args, kwargs, result):
    data = result if isinstance(result, bytes) else args[0]
    tracer.count("protocol.frames")
    tracer.count("protocol.bytes", len(data))


def build_hooks(tracer: Tracer) -> List[Hook]:
    """The hook table; request ids of wire frames need the tracer's ticket map."""
    encode_request = lambda args, kwargs: _frame_request(tracer, args[0])  # noqa: E731
    decode_request = lambda args, kwargs, result: _frame_request(tracer, result)  # noqa: E731
    agents = [
        ("repro.agents.qlearning:QLearningAgent", "select_action", "update"),
        ("repro.agents.sarsa:SarsaAgent", "select_action", "update"),
        ("repro.agents.random_agent:RandomAgent", "select_action", "update"),
    ]
    vectorized = [
        "repro.agents.vectorized:_VectorizedValueAgent.select_actions",
        "repro.agents.vectorized:VectorizedQLearningAgent.update",
        "repro.agents.vectorized:VectorizedSarsaAgent.update",
        "repro.agents.vectorized:VectorizedRandomAgent.select_actions",
        "repro.agents.vectorized:VectorizedRandomAgent.update",
    ]
    hooks = [
        # experiments.runner: the front door, looked up where callers find it.
        Hook("repro.experiments.runner:run_experiment", "runner.run",
             request=_spec_fingerprint, on_exit=_count("runner.requests")),
        Hook("repro.service.daemon:run_experiment", "runner.run",
             request=_spec_fingerprint, on_exit=_count("runner.requests")),
        # planner
        Hook("repro.planner.planner:QueryPlanner.plan", "planner.plan",
             on_exit=_plan_done),
        Hook("repro.planner:execute_plan", "planner.execute"),
        Hook("repro.planner.execute:execute_plan", "planner.execute"),
        # runtime.executor, runtime.jobs
        Hook("repro.runtime.executor:SerialExecutor.run", "executor.run",
             on_enter=_executor_enter),
        Hook("repro.runtime.executor:ProcessExecutor.run", "executor.pool",
             on_enter=_executor_enter),
        Hook("repro.runtime.executor:execute_job", "jobs.execute",
             on_enter=_job_enter),
        Hook("repro.runtime.store:EvaluationStore.merge", "executor.merge"),
        # dse.explorer, dse.environment, agents
        Hook("repro.dse.explorer:Explorer.run", "explorer.run",
             on_exit=_explorer_done),
        Hook("repro.dse.environment:AxcDseEnv.step", "env.step", AGGREGATE),
        Hook("repro.dse.environment:AxcDseEnv.reset", "env.step", AGGREGATE),
    ]
    for owner, act, learn in agents:
        hooks.append(Hook(f"{owner}.{act}", "agent.act", AGGREGATE))
        hooks.append(Hook(f"{owner}.{learn}", "agent.learn", AGGREGATE))
    hooks += [
        # dse.batched_env, agents.vectorized
        Hook("repro.dse.batched_env:BatchedExplorer.run", "batched.run",
             on_exit=_batched_done),
        Hook("repro.dse.batched_env:BatchedAxcDseEnv.step_batch", "batched.env",
             AGGREGATE),
        Hook("repro.dse.batched_env:BatchedAxcDseEnv.reset_batch", "batched.env",
             AGGREGATE),
    ]
    hooks += [Hook(target, "batched.agent", AGGREGATE) for target in vectorized]
    hooks += [
        # dse.evaluator, benchmarks, operators
        Hook("repro.dse.evaluator:Evaluator.__init__", "evaluator.build",
             on_exit=_count("evaluator.builds")),
        Hook("repro.dse.evaluator:Evaluator.evaluate", "evaluator.evaluate",
             AGGREGATE, on_exit=_count("evaluator.evaluations")),
        Hook("repro.benchmarks.base:Benchmark.execute", "evaluator.kernel",
             on_exit=_kernel_done),
        Hook("repro.operators.compiled:_adder_tables", "operators.lut_build",
             on_exit=_count("operators.lut_builds")),
        Hook("repro.operators.compiled:_multiplier_tables", "operators.lut_build",
             on_exit=_count("operators.lut_builds")),
        # runtime.store
        Hook("repro.runtime.store:EvaluationStore.lookup", "store.lookup",
             AGGREGATE, on_exit=_lookup_done),
        Hook("repro.runtime.store:EvaluationStore._load", "store.load",
             on_exit=_load_done),
        Hook("repro.runtime.store:EvaluationStore.flush", "store.flush",
             on_exit=_flush_done),
        Hook("repro.runtime.store:EvaluationStore.snapshot", "store.snapshot",
             AGGREGATE, on_exit=_snapshot_done),
        # runtime.checkpoint
        Hook("repro.runtime.checkpoint:CampaignCheckpoint.record",
             "checkpoint.record", on_exit=_checkpoint_record_done),
        Hook("repro.runtime.checkpoint:CampaignCheckpoint.flush",
             "checkpoint.flush"),
        Hook("repro.runtime.checkpoint:CampaignCheckpoint.result_for",
             "checkpoint.restore", AGGREGATE, on_exit=_restore_done),
        # experiments.report, dse.frontier
        Hook("repro.experiments.report:ExperimentReport.summarize",
             "report.summarize", request=_report_fingerprint),
        Hook("repro.experiments.report:ExperimentEntry.from_outcome",
             "report.summarize", AGGREGATE),
        Hook("repro.experiments.report:ExperimentEntry.from_sweep",
             "report.summarize", AGGREGATE),
        Hook("repro.experiments.report:ExperimentReport.to_dict", "report.encode",
             request=_report_fingerprint),
        Hook("repro.experiments.report:ExperimentReport.canonical_json",
             "report.encode", request=_report_fingerprint, on_exit=_bytes_done),
        Hook("repro.dse.frontier:ParetoArchive.add", "frontier.archive", AGGREGATE),
        Hook("repro.dse.frontier:ParetoArchive.add_many", "frontier.archive",
             AGGREGATE),
        # service.daemon, service.protocol (daemon side)
        Hook("repro.service.daemon:EvaluationDaemon._op_submit", "daemon.submit",
             request_out=_submit_request, on_exit=_submit_done),
        Hook("repro.service.daemon:EvaluationDaemon._note_running", "daemon.ticket",
             EVENT, on_exit=_ticket_event("running")),
        Hook("repro.service.daemon:EvaluationDaemon._note_done", "daemon.ticket",
             EVENT, on_exit=_ticket_event("done")),
        Hook("repro.service.daemon:EvaluationDaemon._note_failed", "daemon.ticket",
             EVENT, on_exit=_ticket_event("failed")),
        Hook("repro.service.daemon:EvaluationDaemon._begin_drain", "daemon.drain",
             EVENT, on_exit=_drain_begun),
        Hook("repro.service.daemon:encode_frame", "protocol.codec",
             request=encode_request, on_exit=_codec_done),
        Hook("repro.service.daemon:decode_frame", "protocol.codec",
             request_out=decode_request, on_exit=_codec_done),
    ]
    return hooks


def install_tracer(export_dir: Optional[str] = None) -> Tracer:
    tracer = Tracer()
    tracer.export_dir = export_dir
    tracer.install(build_hooks(tracer))
    return tracer


# -------------------------------------------------------------- the metrics

#: Self-time metrics and the span layers whose attributed time they sum.
TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "runner.run_s": ("runner.run",),
    "planner.plan_s": ("planner.plan",),
    "planner.execute_s": ("planner.execute",),
    "executor.run_s": ("executor.run", "executor.pool"),
    "executor.merge_s": ("executor.merge",),
    "jobs.execute_s": ("jobs.execute",),
    "explorer.run_s": ("explorer.run",),
    "env.step_s": ("env.step",),
    "agent.act_s": ("agent.act",),
    "agent.learn_s": ("agent.learn",),
    "batched.run_s": ("batched.run",),
    "batched.env_s": ("batched.env",),
    "batched.agent_s": ("batched.agent",),
    "evaluator.build_s": ("evaluator.build",),
    "evaluator.evaluate_s": ("evaluator.evaluate",),
    "evaluator.kernel_s": ("evaluator.kernel",),
    "operators.lut_build_s": ("operators.lut_build",),
    "store.lookup_s": ("store.lookup",),
    "store.load_s": ("store.load",),
    "store.flush_s": ("store.flush",),
    "store.snapshot_s": ("store.snapshot",),
    "checkpoint.record_s": ("checkpoint.record",),
    "checkpoint.flush_s": ("checkpoint.flush",),
    "checkpoint.restore_s": ("checkpoint.restore",),
    "report.summarize_s": ("report.summarize",),
    "report.encode_s": ("report.encode",),
    "frontier.archive_s": ("frontier.archive",),
    "daemon.submit_s": ("daemon.submit",),
    "protocol.codec_s": ("protocol.codec",),
}

#: Exact counters, reported as counted.
COUNT_METRICS = (
    "runner.requests", "planner.plans", "planner.units", "planner.replayed_units",
    "executor.jobs", "executor.waves", "executor.records_shipped",
    "explorer.steps", "batched.steps",
    "evaluator.builds", "evaluator.evaluations", "evaluator.kernel_runs",
    "evaluator.kernel_ops", "operators.lut_builds",
    "store.lookups", "store.load_records", "store.flushes", "store.rows_written",
    "store.records_end", "checkpoint.records", "checkpoint.restored",
    "report.bytes", "daemon.coalesced", "protocol.frames", "protocol.bytes",
)

RATIO_METRICS = ("evaluator.kernel_share", "store.hit_rate",
                 "executor.worker_busy_share")

DAEMON_P50_METRICS = ("daemon.queue_wait_ms", "daemon.serve_ms", "daemon.reply_ms")

WALL_METRICS = ("other_s", "trace.wall_s")

PER_LAYER: Tuple[str, ...] = (tuple(TIME_METRICS) + COUNT_METRICS + RATIO_METRICS
                              + DAEMON_P50_METRICS + WALL_METRICS)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name in RATIO_METRICS:
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def _worker_busy_share(records: Sequence[Dict[str, object]],
                       counters: Dict[str, float]) -> float:
    """Worker ``execute_job`` time over workers x wall of pool-using runs."""
    pool_ns = 0
    busy_ns = 0
    owners = {record["pid"] for record in records if record.get("root")}
    for record in records:
        for span in record["spans"]:
            if span is None:
                continue
            if record["pid"] in owners and span[0] == "executor.pool":
                pool_ns += span[2] - span[1]
            elif record["pid"] not in owners and span[3] is not None \
                    and span[3][0] != record["pid"]:
                busy_ns += span[2] - span[1]
    workers = counters.get("executor.workers", 0)
    if not busy_ns or not workers or not pool_ns:
        return 0.0
    return busy_ns / (workers * pool_ns)


def daemon_ticket_p50s(records: Sequence[Dict[str, object]],
                       received: Dict[str, int]) -> Dict[str, float]:
    """Per-ticket queue wait, serve and reply times (p50, ms).

    ``received`` maps each ticket a client created to the monotonic time
    its canonical bytes arrived at that client.
    """
    times: Dict[Tuple[str, str], int] = {}
    for record in records:
        for event in record["events"]:
            name, instant, ticket = event[0], event[1], event[2]
            if name == "submit" and event[3]:
                continue  # coalesced: no ticket of its own
            times.setdefault((name, ticket), instant)
    queue, serve, reply = [], [], []
    for (name, ticket), submitted in times.items():
        if name != "submit":
            continue
        running = times.get(("running", ticket))
        done = times.get(("done", ticket), times.get(("failed", ticket)))
        if running is None or done is None:
            continue
        queue.append(running - submitted)
        serve.append(done - running)
        if ticket in received:
            reply.append(received[ticket] - done)

    def p50(values):
        return statistics.median(values) / 1e6 if values else 0.0

    return {"daemon.queue_wait_ms": p50(queue), "daemon.serve_ms": p50(serve),
            "daemon.reply_ms": p50(reply)}


def ledger(records: Sequence[Dict[str, object]], windows: Sequence[Tuple[int, int]],
           absent_layers: Sequence[str] = (),
           received: Optional[Dict[str, int]] = None) -> Dict[str, Optional[float]]:
    """Every per-layer metric from the merged tracer records.

    ``records`` carry a ``root`` flag for the process that ran the
    workload (the daemon, for ``service``).  Metrics of absent layers are
    ``None``; their time, if any was traced, stays inside ``other_s``.
    """
    layers, wall_ns = attribute(records, windows)
    counters = merged_counters(records)
    values: Dict[str, Optional[float]] = {}
    covered = 0.0
    for metric, span_layers in TIME_METRICS.items():
        seconds = sum(layers.get(layer, 0.0) for layer in span_layers) / 1e9
        covered += seconds
        values[metric] = seconds
    for metric in COUNT_METRICS:
        values[metric] = counters.get(metric, 0)
    evaluations = counters.get("evaluator.evaluations", 0)
    values["evaluator.kernel_share"] = (
        counters.get("evaluator.kernel_runs", 0) / evaluations if evaluations else 0.0)
    lookups = counters.get("store.lookups", 0)
    values["store.hit_rate"] = counters.get("store.hits", 0) / lookups if lookups else 0.0
    values["executor.worker_busy_share"] = _worker_busy_share(records, counters)
    values.update(daemon_ticket_p50s(records, received or {}))
    values["trace.wall_s"] = wall_ns / 1e9
    values["other_s"] = wall_ns / 1e9 - covered
    for metric in list(values):
        if metric.split(".")[0] in absent_layers:
            values[metric] = None
    return values
