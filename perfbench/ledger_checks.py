"""Self-checks of the benchmark's ledger and hooks (tiny traced runs).

Not part of the repository's test suite; run them explicitly:

    python3 -m pytest perfbench/ledger_checks.py -q

Each workload is traced twice at its smallest size with one seed.  The
ledger must account for the traced wall time exactly, no self time may be
negative, every span must carry a request id, and the exact counters must
repeat.  A last check removes one hook target and expects the run to go on
with that layer flagged absent.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import span_requests  # noqa: E402

TINY = workloads.Size(paper_requests=1, campaign_seeds=2, sweep_seeds=1,
                      service_requests=8, setup_samples=1)

#: Counters that must repeat exactly across two runs of one seed.
EXACT = ("explorer.steps", "batched.steps", "evaluator.kernel_runs",
         "store.rows_written", "executor.records_shipped", "daemon.coalesced")

SEED = 5


@pytest.fixture
def run_dir():
    path = workloads.WORK_DIR / f"check-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _traced(workload: str, run_dir: Path):
    if workload == "service":
        outcome = workloads.run_service(SEED, TINY, run_dir, traced=True, setup=False,
                                        verify_samples=1)
    else:
        outcome = workloads.run_in_process(workload, SEED, TINY, run_dir,
                                           tracer_factory=layers.install_tracer,
                                           setup=False)
    assert outcome.failed == 0 and not outcome.problems, outcome.problems
    values = layers.ledger(outcome.records, outcome.ledger_windows,
                           received=outcome.received)
    return outcome, values


@pytest.mark.parametrize("workload", ["paper", "campaign", "sweep", "service"])
def test_ledger_accounts_for_the_traced_wall_time(workload, run_dir):
    first, values = _traced(workload, run_dir)
    second_dir = run_dir / "again"
    second_dir.mkdir()
    second, again = _traced(workload, second_dir)

    self_times = [values[name] for name in layers.TIME_METRICS]
    assert all(value >= 0.0 for value in self_times)
    assert values["other_s"] >= -1e-9
    assert sum(self_times) + values["other_s"] == pytest.approx(
        values["trace.wall_s"], abs=1e-6)

    requests = span_requests(first.records)
    assert requests and all(isinstance(item, str) and item for item in requests)

    for name in EXACT:
        assert values[name] == again[name], name


def test_single_thread_ledger_matches_root_spans(run_dir):
    """On one thread, ``other_s`` is the window time outside the root spans."""
    outcome, values = _traced("paper", run_dir)
    (record,) = outcome.records
    roots = [span for span in record["spans"] if span is not None and span[3] is None]
    wall = covered = 0
    for lo, hi in outcome.ledger_windows:
        wall += hi - lo
        covered += sum(max(0, min(span[2], hi) - max(span[1], lo)) for span in roots)
    assert values["other_s"] == pytest.approx((wall - covered) / 1e9, abs=1e-6)
    assert values["explorer.steps"] == values["evaluator.evaluations"]


def test_sweep_ships_more_records_than_it_produces(run_dir):
    _, values = _traced("sweep", run_dir)
    assert values["executor.records_shipped"] > values["store.records_end"]


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_missing_hook_target_makes_the_layer_absent(monkeypatch, capsys):
    import repro.dse.explorer

    # The campaign runs on the batched engine, so the program does not need
    # the serial Explorer; only the benchmark's hook for it goes missing.
    monkeypatch.delattr(repro.dse.explorer, "Explorer")
    assert run.main(["--workload", "campaign", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "0"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(isinstance(entry["value"], (int, float))
               for entry in result["metrics"].values())

    assert run.main(["--workload", "campaign", "--seed", str(SEED),
                     "--seconds", "1", "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(layers.PER_LAYER)
    for name in ("explorer.steps", "explorer.run_s"):
        assert metrics[name]["value"] is None and metrics[name]["absent"]
    assert metrics["batched.steps"]["value"] > 0
