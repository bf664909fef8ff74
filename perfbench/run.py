"""Repository benchmark: four workloads, end-to-end metrics and a layer ledger.

    python3 perfbench/run.py --workload paper|campaign|sweep|service \
        [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from the root of a checkout.  The work is fixed by the
seed and by ``--seconds`` (the run length the work is sized for), so two
commits measured with the same arguments do the same work.  With
``--trace 0`` it reports the end-to-end metrics, its timings scaled to a
reference host speed by ``speed_probe.py`` (raw figures on the notes
line); with ``--trace 1`` it installs the layer hooks (``layers.py``) and
reports the per-layer ledger.
The last line of standard output is the result as one JSON object;
earlier lines carry the record header, the digests and, when traced, the
ledger.  ``--record-digests`` re-records the reference digests of the
default seed in ``digests.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper", "campaign", "sweep", "service")
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's digests in digests.json")
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem(path: Path) -> str:
    """The type of the filesystem holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 3 and (target == fields[1]
                                         or target.startswith(fields[1].rstrip("/") + "/")):
                    if len(fields[1]) > len(best):
                        best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
    return found.stdout.strip() if found.returncode == 0 else None


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return float(cuts[round(fraction * 100) - 1])


def _header(args, size, run_dir: Path, workloads) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "source_digest": workloads.source_digest(),
        "temp_dir": str(run_dir.relative_to(ROOT)),
        "temp_fs": _filesystem(run_dir),
        "size": dataclasses.asdict(size),
    }


def _timed_seconds(outcome) -> float:
    return sum(end - start for start, end in outcome.windows) / 1e9


def _latency_scales(outcome, scaled: bool):
    """Each request's host-speed scale (all 1.0 for raw figures)."""
    if not scaled:
        return [1.0] * len(outcome.latencies_ns)
    if len(outcome.scales) == len(outcome.latencies_ns):
        return outcome.scales
    return [outcome.scales[0]] * len(outcome.latencies_ns)


def _throughput(outcome, scaled: bool = True) -> float:
    """Work per second: the median over requests timed one at a time
    (in-process), or completed requests over the load window (service)."""
    scales = _latency_scales(outcome, scaled)
    if outcome.work_per_request:
        return statistics.median(
            work / (latency * scale / 1e9) for work, latency, scale
            in zip(outcome.work_per_request, outcome.latencies_ns, scales))
    return outcome.work / (_timed_seconds(outcome) * (scales[0] if scales else 1.0))


def _end_to_end(outcome, scaled: bool = True) -> dict:
    """The end-to-end metrics, at the reference host speed unless ``scaled``
    is off (the raw figures are printed on the notes line)."""
    latencies_ms = [latency * scale / 1e6 for latency, scale
                    in zip(outcome.latencies_ns, _latency_scales(outcome, scaled))]
    setup_scale = outcome.setup_scale if scaled else 1.0
    return {
        "setup_s": statistics.median(outcome.setup_samples) * setup_scale,
        "throughput_per_s": _throughput(outcome, scaled),
        "request_p50_ms": _percentile(latencies_ms, 0.5),
        "request_p90_ms": _percentile(latencies_ms, 0.9),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def _record(args, size, workloads, outcome) -> None:
    """Store the default seed's digests, from in-process ``run_experiment``."""
    digests = list(outcome.digests)
    if args.workload == "service":
        from repro.experiments import runner

        digests = [workloads.digest(runner.run_experiment(request.spec).canonical_json())
                   for request in workloads.service_requests(args.seed, size)]
    document = {"seed": workloads.DEFAULT_SEED, "seconds": args.seconds,
                "digests": {}}
    if workloads.DIGESTS_FILE.exists():
        document = json.loads(workloads.DIGESTS_FILE.read_text())
    document["digests"][args.workload] = digests
    workloads.DIGESTS_FILE.write_text(json.dumps(document, indent=1, sort_keys=True)
                                      + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != 0:
        print("error: digests are recorded for the default seed (0)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import layers
    import workloads

    size = workloads.Size.for_seconds(args.seconds)
    run_dir = workloads.WORK_DIR / f"run-{os.getpid()}-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    try:
        print("perfbench header:", json.dumps(_header(args, size, run_dir, workloads),
                                              sort_keys=True), flush=True)
        traced = bool(args.trace)
        if args.workload == "service":
            outcome = workloads.run_service(args.seed, size, run_dir, traced=traced,
                                            setup=not traced)
        else:
            factory = layers.install_tracer if traced else None
            outcome = workloads.run_in_process(args.workload, args.seed, size, run_dir,
                                               tracer_factory=factory,
                                               setup=not traced)
        if args.record_digests:
            _record(args, size, workloads, outcome)
        recorded = workloads.load_recorded_for(args.seconds)
        workloads.check_digests(outcome, args.workload, args.seed, recorded)

        digest_dir = workloads.WORK_DIR / "digests"
        digest_dir.mkdir(parents=True, exist_ok=True)
        (digest_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(outcome.digests, indent=1) + "\n")
        print("perfbench digests:", json.dumps({
            "requests": len(outcome.digests),
            "digest_of_digests": hashlib.sha256(
                "\n".join(outcome.digests).encode()).hexdigest(),
            "checked_against_recorded": recorded is not None
            and args.seed == workloads.DEFAULT_SEED,
        }), flush=True)
        for problem in outcome.problems[:20]:
            print("perfbench problem:", problem, file=sys.stderr)
        if not traced:
            outcome.notes["raw"] = _end_to_end(outcome, scaled=False)
        outcome.notes["speed_scales"] = [outcome.setup_scale] + outcome.scales
        print("perfbench notes:", json.dumps(outcome.notes, sort_keys=True), flush=True)

        if traced:
            values = layers.ledger(outcome.records, outcome.ledger_windows,
                                   absent_layers=outcome.notes.get("absent_layers", ()),
                                   received=outcome.received)
            print("perfbench ledger:", json.dumps({
                "traced_window_s": values["trace.wall_s"],
                "traced_throughput_per_s": _throughput(outcome),
                "absent_layers": outcome.notes.get("absent_layers", []),
                "metrics": values}, sort_keys=True), flush=True)
            metrics = {}
            for name in layers.PER_LAYER:
                entry = {"value": values[name], "unit": layers.unit_of(name)}
                if values[name] is None:
                    entry["absent"] = True
                metrics[name] = entry
        else:
            metrics = {name: {"value": value, "unit": END_TO_END[name]}
                       for name, value in _end_to_end(outcome).items()}
        result = {
            "correct": outcome.failed == 0 and not outcome.problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
