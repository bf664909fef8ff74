"""The four benchmark workloads and the correctness gate they share.

Every workload drives the program only through its front doors —
``ExperimentSpec`` + ``run_experiment``, ``repro-axc serve`` and
``ServiceClient`` — with default runtime knobs, and runs a fixed amount of
work derived from the workload seed and the run size, never a fixed
duration.  Why each workload exists is recorded in ``README.md`` next to
this file.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
DIGESTS_FILE = BENCH_DIR / "digests.json"

#: The seed whose request digests are recorded with the benchmark.
DEFAULT_SEED = 0

#: The run length the sizes below are calibrated for (2-vCPU host).
REFERENCE_SECONDS = 20

PAPER_BENCHMARKS = ("matmul_10x10", "matmul_50x50", "fir_100", "fir_200")

#: CPU seconds of the ``speed_probe.py`` kernel at the reference speed.
#: Timings are reported scaled to this speed (see ``SpeedProbe``).
REFERENCE_CALIBRATION_S = 0.010

#: Seeds of the store the ``service`` daemon starts with; the request
#: stream draws its seeds below 1000, so it never asks for these contexts.
SERVICE_STORE_SEEDS = (10_000, 10_001)

@dataclasses.dataclass(frozen=True)
class Size:
    """How much fixed work one run does."""

    paper_requests: int = 12
    campaign_seeds: int = 8
    sweep_seeds: int = 6
    service_requests: int = 100
    service_explore_steps: Tuple[int, ...] = (300, 500, 700, 1000)
    setup_samples: int = 5
    service_setup_samples: int = 3

    @classmethod
    def for_seconds(cls, seconds: float) -> "Size":
        scale = max(seconds, 1) / REFERENCE_SECONDS
        base = cls()
        return cls(
            paper_requests=max(1, round(base.paper_requests * scale)),
            campaign_seeds=max(2, round(base.campaign_seeds * scale)),
            sweep_seeds=max(1, round(base.sweep_seeds * scale)),
            service_requests=max(8, round(base.service_requests * scale)),
        )


@dataclasses.dataclass
class Outcome:
    """What one run measured and whether its answers were right."""

    attempted: int = 0
    failed: int = 0
    digests: List[str] = dataclasses.field(default_factory=list)
    latencies_ns: List[int] = dataclasses.field(default_factory=list)
    work: float = 0.0
    work_per_request: List[float] = dataclasses.field(default_factory=list)
    #: The timed intervals: one per request in-process, the whole load on
    #: ``service`` (where requests overlap).
    windows: List[Tuple[int, int]] = dataclasses.field(default_factory=list)
    #: What the ledger accounts for: the timed intervals, plus the daemon's
    #: start-up (which pays the store load) on ``service``.
    ledger_windows: List[Tuple[int, int]] = dataclasses.field(default_factory=list)
    setup_samples: List[float] = dataclasses.field(default_factory=list)
    #: Host-speed scale factors (``SpeedProbe.scale``): one per in-process
    #: request, one for the whole ``service`` load, one for set-up.
    scales: List[float] = dataclasses.field(default_factory=list)
    setup_scale: float = 1.0
    peak_rss_mb: float = 0.0
    notes: Dict[str, object] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    records: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    received: Dict[str, int] = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class SpeedProbe:
    """``speed_probe.py`` running beside a workload, and what it has printed."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, float]] = []
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "speed_probe.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            instant, cpu_s = line.split()
            self.samples.append((int(instant), float(cpu_s)))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """The factor that takes a timing over ``[start_ns, end_ns]`` to the
        reference speed: the median kernel time inside the interval (or the
        sample nearest to it) against ``REFERENCE_CALIBRATION_S``."""
        samples = list(self.samples)
        inside = [cpu_s for instant, cpu_s in samples if start_ns <= instant <= end_ns]
        if not inside and samples:
            middle = (start_ns + end_ns) / 2
            inside = [min(samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return REFERENCE_CALIBRATION_S / statistics.median(inside) if inside else 1.0

    def stop(self) -> None:
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join(10)
        self.process.stdout.close()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def derived_seeds(workload: str, seed: int, count: int,
                  upper: int = 1_000_000) -> List[int]:
    return random.Random(f"{workload}:{seed}").sample(range(upper), count)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def self_peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak, children) / 1024.0


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every process this one started has ended."""
    import multiprocessing

    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


# ------------------------------------------------------------------ requests


def paper_specs(seed: int, size: Size) -> List[object]:
    """The Table-III protocol as ``reporting/paper.py`` declares it, re-seeded."""
    from repro.reporting.paper import paper_artifacts

    table3 = {artifact.name: artifact for artifact in paper_artifacts("paper")}["table3"]
    spec = table3.experiments["explorations"]
    return [dataclasses.replace(spec, seeds=(item,))
            for item in derived_seeds("paper", seed, size.paper_requests)]


def campaign_specs(seed: int, size: Size) -> List[object]:
    from repro.experiments.spec import ExperimentAgentSpec, ExperimentSpec

    return [ExperimentSpec(
        kind="campaign", benchmarks=PAPER_BENCHMARKS,
        agents=(ExperimentAgentSpec("q-learning"), ExperimentAgentSpec("sarsa")),
        seeds=tuple(derived_seeds("campaign", seed, size.campaign_seeds)),
        max_steps=10_000, description="perfbench campaign")]


def sweep_specs(seed: int, size: Size, store_path: str) -> List[object]:
    from repro.benchmarks.registry import available
    from repro.experiments.spec import ExperimentSpec, RuntimeSpec

    return [ExperimentSpec(
        kind="sweep", benchmarks=tuple(sorted(available())),
        seeds=tuple(derived_seeds("sweep", seed, size.sweep_seeds)),
        runtime=RuntimeSpec(executor="process", jobs=2, store_path=store_path),
        description="perfbench sweep")]


@dataclasses.dataclass(frozen=True)
class ServiceRequest:
    index: int
    kind: str            # explore | compare | resubmit | respell
    spec: object
    original: Optional[int] = None


#: One period of the request mix: explore, compare, exact resubmission,
#: agent-reordered respelling.  Shares 1/2, 1/4, 1/8, 1/8 keep every class
#: boundary away from the 50th and 90th latency percentiles.
SERVICE_PATTERN = ("explore", "compare", "explore", "explore",
                   "resubmit", "compare", "explore", "respell")


def service_requests(seed: int, size: Size) -> List[ServiceRequest]:
    from repro.benchmarks.registry import available
    from repro.experiments.spec import ExperimentAgentSpec, ExperimentSpec

    rng = random.Random(f"service:{seed}")
    pool = rng.sample(range(1000), 1)
    benchmarks = sorted(available())
    steps = size.service_explore_steps
    explores = [(bench, item, agent, budget) for bench in benchmarks for item in pool
                for agent in ("q-learning", "sarsa") for budget in steps]
    compares = [(bench, item, budget) for bench in benchmarks for item in pool
                for budget in steps]
    rng.shuffle(explores)
    rng.shuffle(compares)
    requests: List[ServiceRequest] = []
    respelled: set = set()
    for index in range(size.service_requests):
        kind = SERVICE_PATTERN[index % len(SERVICE_PATTERN)]
        # Originals are at least two requests back, so they are done when
        # the resubmission or respelling arrives.
        earlier = [request for request in requests[:max(0, index - 1)]
                   if request.kind in ("explore", "compare")]
        if kind == "respell":
            candidates = [request for request in earlier
                          if request.kind == "compare" and request.index not in respelled]
            if not candidates:
                kind = "explore"
            else:
                original = rng.choice(candidates)
                respelled.add(original.index)
                spec = original.spec
                reordered = dataclasses.replace(spec, agents=tuple(reversed(spec.agents)))
                requests.append(ServiceRequest(index, kind, reordered, original.index))
                continue
        if kind == "resubmit":
            if not earlier:
                kind = "explore"
            else:
                original = rng.choice(earlier)
                requests.append(ServiceRequest(index, kind, original.spec, original.index))
                continue
        if kind == "explore":
            bench, item, agent, budget = explores.pop()
            spec = ExperimentSpec(kind="explore", benchmarks=(bench,),
                                  agents=(ExperimentAgentSpec(agent),), seeds=(item,),
                                  max_steps=budget)
        else:
            bench, item, budget = compares.pop()
            spec = ExperimentSpec(kind="compare", benchmarks=(bench,),
                                  agents=(ExperimentAgentSpec("q-learning"),
                                          ExperimentAgentSpec("sarsa")),
                                  seeds=(item,), max_steps=budget)
        requests.append(ServiceRequest(index, kind, spec))
    return requests


def first_spec(workload: str, seed: int, size: Size, store_path: str) -> object:
    """The first request of a workload (what the set-up probe prepares)."""
    if workload == "paper":
        return paper_specs(seed, dataclasses.replace(size, paper_requests=1))[0]
    if workload == "campaign":
        return campaign_specs(seed, size)[0]
    return sweep_specs(seed, size, store_path)[0]


# ------------------------------------------------------------------- set-up


def measure_probe_setup(workload: str, seed: int, size: Size, run_dir: Path,
                        samples: int) -> List[float]:
    """Fresh interpreter -> ready for the first request, ``samples`` times."""
    seconds = []
    for sample in range(samples):
        store_path = run_dir / f"probe-{sample}.sqlite"
        started = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed),
             str(store_path)],
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
        try:
            line = process.stdout.readline()
            ready = time.monotonic()
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        seconds.append(ready - started)
    return seconds


# --------------------------------------------------------- in-process runs


def run_in_process(workload: str, seed: int, size: Size, run_dir: Path,
                   tracer_factory: Optional[Callable] = None,
                   setup: bool = True) -> Outcome:
    """``paper``, ``campaign`` or ``sweep``: requests through ``run_experiment``."""
    probe = SpeedProbe()
    try:
        return _run_in_process(workload, seed, size, run_dir, tracer_factory, setup,
                               probe)
    finally:
        probe.stop()


def _run_in_process(workload: str, seed: int, size: Size, run_dir: Path,
                    tracer_factory: Optional[Callable], setup: bool,
                    probe: SpeedProbe) -> Outcome:
    outcome = Outcome()
    if setup:
        started = time.monotonic_ns()
        outcome.setup_samples = measure_probe_setup(
            workload, seed, size, run_dir, size.setup_samples)
        outcome.setup_scale = probe.scale(started, time.monotonic_ns())
    if workload == "paper":
        specs = paper_specs(seed, size)
    elif workload == "campaign":
        specs = campaign_specs(seed, size)
    else:
        specs = sweep_specs(seed, size, str(run_dir / "sweep.sqlite"))

    tracer = None
    if tracer_factory is not None:
        export_dir = run_dir / "trace"
        export_dir.mkdir(exist_ok=True)
        tracer = tracer_factory(str(export_dir))
    from repro.experiments import runner

    for spec in specs:
        # Each request starts from a collected heap, so garbage one request
        # left behind is not charged to the next.
        gc.collect()
        started = time.monotonic_ns()
        report = runner.run_experiment(spec)
        canonical = report.canonical_json()
        finished = time.monotonic_ns()
        outcome.windows.append((started, finished))
        outcome.latencies_ns.append(finished - started)
        outcome.attempted += 1
        outcome.digests.append(digest(canonical))
        outcome.work_per_request.append(_check_report(outcome, workload, spec, report))
        del report
        outcome.scales.append(probe.scale(started, finished))
    outcome.ledger_windows = list(outcome.windows)
    reap_children()
    if tracer is not None:
        tracer.uninstall()
        record = tracer.snapshot()
        record["root"] = True
        from tracer import load_worker_exports

        outcome.records = [record] + load_worker_exports(str(run_dir / "trace"))
        outcome.notes["absent_layers"] = sorted(tracer.absent_layers)
    outcome.peak_rss_mb = self_peak_rss_mb()
    return outcome


def _check_report(outcome: Outcome, workload: str, spec, report) -> float:
    """Structural checks on one report; returns its units of work."""
    if not report.ok:
        outcome.fail(f"{spec.fingerprint()}: {len(report.failures)} failed entries")
        return 0.0
    if workload == "sweep":
        points = 0
        for entry in report.entries:
            metrics = entry.metrics
            if metrics["evaluations"] != metrics["space_size"]:
                outcome.fail(f"{entry.benchmark_label}/{entry.seed}: "
                             f"{metrics['evaluations']} of {metrics['space_size']} points")
            points += metrics["evaluations"]
        return float(points)
    expected = len(spec.benchmarks) * len(spec.agents) * len(spec.seeds)
    if len(report.entries) != expected:
        outcome.fail(f"{spec.fingerprint()}: {len(report.entries)} entries, "
                     f"expected {expected}")
    steps = sum(entry.metrics["num_steps"] for entry in report.entries)
    outcome.notes["rl_steps"] = outcome.notes.get("rl_steps", 0) + steps
    if workload == "campaign":
        # A batch keeps stepping until its last episode ends, so its time
        # follows the step budget, not the steps an early-terminating seed
        # happens to take: the unit of work is one budgeted exploration.
        return float(len(report.entries))
    return float(steps)


# -------------------------------------------------------------- the service


def source_digest() -> str:
    """Content hash of the program's sources (keys the store cache)."""
    digest_ = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest_.update(str(path.relative_to(SRC)).encode())
        digest_.update(path.read_bytes())
    return digest_.hexdigest()[:16]


def grown_store() -> Path:
    """A store pre-grown by the code under test, built once per checkout."""
    cache = WORK_DIR / "cache"
    cache.mkdir(parents=True, exist_ok=True)
    seeds = "-".join(str(seed) for seed in SERVICE_STORE_SEEDS)
    path = cache / f"service-store-{source_digest()}-{seeds}.sqlite"
    if path.exists():
        return path
    from repro.benchmarks.registry import available
    from repro.experiments import runner
    from repro.experiments.spec import ExperimentSpec, RuntimeSpec

    building = cache / f"building-{os.getpid()}.sqlite"
    spec = ExperimentSpec(kind="sweep", benchmarks=tuple(sorted(available())),
                          seeds=SERVICE_STORE_SEEDS,
                          runtime=RuntimeSpec(store_path=str(building)))
    report = runner.run_experiment(spec)
    if not report.ok:
        raise RuntimeError("growing the service store failed")
    for suffix in ("-wal", "-shm"):
        Path(str(building) + suffix).unlink(missing_ok=True)
    os.replace(building, path)
    return path


class Daemon:
    """One ``repro-axc serve`` process on a fresh copy of the grown store."""

    def __init__(self, run_dir: Path, store: Path, name: str,
                 trace_dump: Optional[Path] = None) -> None:
        self.dir = run_dir / name
        self.dir.mkdir()
        self.store = self.dir / "store.sqlite"
        shutil.copyfile(store, self.store)
        # A short relative socket path: unix socket paths are length-limited.
        self.socket = os.path.relpath(self.dir / "s.sock", ROOT)
        serve = ["serve", "--socket", self.socket, "--store",
                 os.path.relpath(self.store, ROOT)]
        if trace_dump is None:
            command = [sys.executable, "-m", "repro.cli"] + serve
        else:
            command = [sys.executable, str(BENCH_DIR / "daemon_driver.py"),
                       str(trace_dump)] + serve
        self.started_ns = time.monotonic_ns()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        env=child_env(), cwd=ROOT, text=True)
        self.lines: List[str] = []
        self.ready_ns: Optional[int] = None
        self.peak_rss_mb = 0.0
        self.exit_code: Optional[int] = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._ready.wait(120) or self.ready_ns is None:
            self.stop()
            raise RuntimeError(f"daemon never became ready: {self.lines}")

    def _read(self) -> None:
        for line in self.process.stdout:
            if self.ready_ns is None and "ready on" in line:
                self.ready_ns = time.monotonic_ns()
                self._ready.set()
            self.lines.append(line.rstrip("\n"))
        self._ready.set()

    @property
    def setup_s(self) -> float:
        return (self.ready_ns - self.started_ns) / 1e9

    def stop(self) -> int:
        """Drain through the client's shutdown op, then reap the process."""
        if self.exit_code is not None:
            return self.exit_code
        from repro.errors import ReproError
        from repro.service import ServiceClient

        if self.process.poll() is None:
            try:
                ServiceClient(self.socket).shutdown()
            except ReproError:
                self.process.terminate()
            # Reap with wait4, which also reports the daemon's own peak RSS.
            deadline = time.monotonic() + 30
            while True:
                pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    self.process.kill()
                    pid, status, usage = os.wait4(self.process.pid, 0)
                    break
                time.sleep(0.01)
            self.process.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.exit_code = self.process.returncode
        self._reader.join(10)
        self.process.stdout.close()
        return self.exit_code


class _Sequencer:
    """Requests are submitted in sequence order; replies are awaited freely."""

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._next = 0

    def wait_turn(self, index: int, timeout_s: float) -> bool:
        with self._condition:
            return self._condition.wait_for(lambda: self._next >= index, timeout_s)

    def submitted(self, index: int) -> None:
        with self._condition:
            self._next = max(self._next, index + 1)
            self._condition.notify_all()


def _client_loop(address: str, requests: Sequence[ServiceRequest],
                 sequencer: _Sequencer, results: Dict[int, Dict[str, object]],
                 deadline: float) -> None:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    client = ServiceClient(address)
    for request in requests:
        record: Dict[str, object] = {"ok": False}
        results[request.index] = record
        if not sequencer.wait_turn(request.index, max(0.0, deadline - time.monotonic())):
            record["error"] = "timed out waiting for the previous submit"
            sequencer.submitted(request.index)
            continue
        started = time.monotonic_ns()
        try:
            ticket = client.submit(request.spec)
        except ReproError as exc:
            sequencer.submitted(request.index)
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        sequencer.submitted(request.index)
        try:
            while True:
                status = client.poll(ticket["ticket"],
                                     wait=max(0.1, min(30.0, deadline - time.monotonic())))
                if status["state"] in ("done", "failed"):
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError("request did not finish before the deadline")
        except (ReproError, TimeoutError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            continue
        received = time.monotonic_ns()
        record.update(started=started, received=received, ticket=ticket["ticket"],
                      coalesced=bool(ticket.get("coalesced")), state=status["state"])
        if status["state"] == "done":
            record["ok"] = True
            record["canonical"] = status["canonical"]
            record["report_ok"] = bool(status["report"].get("ok"))
        else:
            record["error"] = str(status.get("error"))


def run_service(seed: int, size: Size, run_dir: Path, traced: bool = False,
                setup: bool = True, verify_samples: int = 4) -> Outcome:
    """Two closed-loop clients against one daemon on a grown store."""
    store = grown_store()
    probe = SpeedProbe()
    try:
        return _run_service(seed, size, run_dir, traced, setup, verify_samples,
                            store, probe)
    finally:
        probe.stop()


def _run_service(seed: int, size: Size, run_dir: Path, traced: bool, setup: bool,
                 verify_samples: int, store: Path, probe: SpeedProbe) -> Outcome:
    outcome = Outcome()
    if setup:
        started = time.monotonic_ns()
        for sample in range(size.service_setup_samples):
            daemon = Daemon(run_dir, store, f"setup-{sample}")
            outcome.setup_samples.append(daemon.setup_s)
            daemon.stop()
        outcome.setup_scale = probe.scale(started, time.monotonic_ns())
    requests = service_requests(seed, size)
    dump = run_dir / "daemon-trace.json" if traced else None
    daemon = Daemon(run_dir, store, "main", trace_dump=dump)
    results: Dict[int, Dict[str, object]] = {}
    try:
        sequencer = _Sequencer()
        deadline = time.monotonic() + 120.0
        clients = [threading.Thread(target=_client_loop,
                                    args=(daemon.socket, requests[offset::2], sequencer,
                                          results, deadline))
                   for offset in range(2)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
    finally:
        exit_code = daemon.stop()
    if exit_code != 0:
        outcome.problems.append(f"daemon exited with {exit_code}")
    outcome.peak_rss_mb = max(daemon.peak_rss_mb, self_peak_rss_mb())

    finished = [record for record in results.values() if "received" in record]
    first = min((record["started"] for record in finished), default=0)
    last = max((record["received"] for record in finished), default=0)
    outcome.windows = [(first, last)]
    outcome.ledger_windows = [(daemon.started_ns, last)]
    outcome.scales.append(probe.scale(first, last))
    outcome.work = float(len(finished))
    canonical_of: Dict[int, str] = {}
    for request in requests:
        record = results.get(request.index, {})
        outcome.attempted += 1
        if not record.get("ok"):
            outcome.fail(f"request {request.index} ({request.kind}): "
                         f"{record.get('error', 'no reply')}")
            outcome.digests.append("")
            continue
        outcome.latencies_ns.append(record["received"] - record["started"])
        canonical_of[request.index] = record["canonical"]
        outcome.digests.append(digest(record["canonical"]))
        if not record["report_ok"]:
            outcome.fail(f"request {request.index}: report has failed entries")
        if not record["coalesced"]:
            outcome.received[record["ticket"]] = record["received"]
        if request.kind == "resubmit" and not record["coalesced"]:
            outcome.fail(f"request {request.index}: resubmission was not coalesced")
    for request in requests:
        if request.kind == "resubmit" and request.index in canonical_of \
                and request.original in canonical_of \
                and canonical_of[request.index] != canonical_of[request.original]:
            outcome.fail(f"request {request.index}: bytes differ from request "
                         f"{request.original}")
    if exit_code != 0:
        outcome.failed = max(outcome.failed, 1)

    # The daemon's bytes must equal an in-process run of the same spec.
    from repro.experiments import runner

    fresh = [request for request in requests
             if request.kind != "resubmit" and request.index in canonical_of]
    picks = random.Random(f"verify:{seed}").sample(fresh, min(verify_samples, len(fresh)))
    for request in picks:
        local = runner.run_experiment(request.spec).canonical_json()
        if local != canonical_of[request.index]:
            outcome.fail(f"request {request.index}: daemon bytes differ from "
                         f"in-process run_experiment")
    outcome.notes.update(
        daemon_exit=exit_code,
        coalesced=sum(1 for record in finished if record.get("coalesced")),
        classes={kind: sum(1 for request in requests if request.kind == kind)
                 for kind in dict.fromkeys(SERVICE_PATTERN)},
        verified_in_process=len(picks),
    )
    if traced and dump is not None and dump.exists():
        record = json.loads(dump.read_text())
        record["root"] = True
        outcome.records = [record]
        outcome.notes["absent_layers"] = record["absent"]
    return outcome


def load_recorded_for(seconds: int) -> Optional[Dict[str, List[str]]]:
    """The recorded default-seed digests, if recorded for this run size."""
    if not DIGESTS_FILE.exists():
        return None
    document = json.loads(DIGESTS_FILE.read_text())
    if document.get("seconds") != seconds:
        return None
    return document["digests"]


def check_digests(outcome: Outcome, workload: str, seed: int,
                  recorded: Optional[Dict[str, List[str]]]) -> None:
    """Every request's digest must equal the recorded one (default seed)."""
    if recorded is None or seed != DEFAULT_SEED:
        return
    expected = recorded.get(workload)
    if expected is None:
        outcome.fail(f"no recorded digests for {workload}")
        return
    for index, (got, want) in enumerate(zip(outcome.digests, expected)):
        if got != want:
            outcome.fail(f"request {index}: digest {got[:12]} != recorded {want[:12]}")
    if len(outcome.digests) != len(expected):
        outcome.fail(f"{len(outcome.digests)} digests, {len(expected)} recorded")
