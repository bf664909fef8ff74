"""Concurrency stress tests: many client processes, one daemon, one truth.

The correctness bar for the evaluation service: concurrent clients
sharing one daemon must observe a single consistent evaluation history —

* identical submissions coalesce onto one ticket and are evaluated once
  (zero duplicate evaluations for identical fingerprints);
* every client's report is byte-identical to a serial
  :func:`~repro.experiments.runner.run_experiment` of its spec;
* overlapping (not identical) specs dedup at the evaluation level: the
  store performs exactly the union's worth of evaluations;
* the lifetime store counters stay consistent
  (hits + misses == lookups) and survive the drain flush.

Clients are real subprocesses hammering a real daemon subprocess over a
unix socket — genuine multi-process contention, not threads.
"""

from __future__ import annotations

import json

from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.runtime.store import inspect_store

from _service_utils import daemon_stats, run_clients, running_daemon


def _spec_payload(seeds):
    return {
        "kind": "campaign",
        "benchmarks": ["dotproduct:length=12"],
        "agents": ["random"],
        "seeds": list(seeds),
        "max_steps": 15,
    }


def _write_spec(tmp_path, name, seeds):
    path = tmp_path / name
    path.write_text(json.dumps(_spec_payload(seeds)))
    return path


def _serial_report(seeds):
    return run_experiment(ExperimentSpec.from_dict(_spec_payload(seeds)))


class TestIdenticalSubmissions:
    def test_n_clients_coalesce_to_one_evaluation_pass(self, tmp_path):
        spec_path = _write_spec(tmp_path, "spec.json", [0, 1])
        serial = _serial_report([0, 1])
        socket_path = str(tmp_path / "evald.sock")
        store_path = str(tmp_path / "evals.sqlite")

        with running_daemon("--socket", socket_path, "--store", store_path) \
                as (daemon, address):
            results = run_clients([spec_path] * 4, address, tmp_path)
            stats = daemon_stats(address)

        # Every client saw the same bytes, and those bytes are the serial
        # run's bytes.
        canonicals = {result["canonical"] for result in results}
        assert canonicals == {serial.canonical_json()}
        assert all(result["ok"] for result in results)

        # One ticket: the first submit created it, the rest attached.
        assert len({result["ticket"] for result in results}) == 1
        assert sum(result["coalesced"] for result in results) == 3

        # Zero duplicate evaluations: the daemon's cold store missed
        # exactly as often as a cold serial run of the one spec.
        assert stats["submitted"] == 4
        assert stats["coalesced"] == 3
        assert stats["store"]["misses"] == serial.store["misses"]
        assert stats["tickets"] == {"queued": 0, "running": 0,
                                    "done": 1, "failed": 0}
        assert daemon.wait(timeout=60) == 0

    def test_respelled_spec_gets_its_own_report_but_no_new_evaluations(
            self, tmp_path):
        # Same experiment, different spelling: reversed seed order changes
        # the exact fingerprint (and the report's entry order) but not the
        # semantics — the daemon serves it a distinct ticket whose every
        # evaluation replays from the shared store.
        forward = _write_spec(tmp_path, "forward.json", [0, 1])
        reversed_ = _write_spec(tmp_path, "reversed.json", [1, 0])
        socket_path = str(tmp_path / "evald.sock")

        with running_daemon("--socket", socket_path) as (_daemon, address):
            results = run_clients([forward, reversed_], address, tmp_path)
            stats = daemon_stats(address)

        assert results[0]["canonical"] == _serial_report([0, 1]).canonical_json()
        assert results[1]["canonical"] == _serial_report([1, 0]).canonical_json()
        assert results[0]["ticket"] != results[1]["ticket"]
        # The union of both specs is either one of them: no extra misses.
        assert stats["store"]["misses"] == _serial_report([0, 1]).store["misses"]


class TestOverlappingSubmissions:
    def test_overlap_dedups_to_the_union_of_evaluations(self, tmp_path):
        # seeds {0,1} ⊂ {0,1,2}: whichever order the daemon serves them,
        # the store must evaluate exactly the superset's unique points.
        small = _write_spec(tmp_path, "small.json", [0, 1])
        large = _write_spec(tmp_path, "large.json", [0, 1, 2])
        serial_small = _serial_report([0, 1])
        serial_large = _serial_report([0, 1, 2])
        socket_path = str(tmp_path / "evald.sock")

        with running_daemon("--socket", socket_path) as (_daemon, address):
            results = run_clients([small, large, small, large],
                                  address, tmp_path)
            stats = daemon_stats(address)

        assert results[0]["canonical"] == serial_small.canonical_json()
        assert results[1]["canonical"] == serial_large.canonical_json()
        assert results[2]["canonical"] == serial_small.canonical_json()
        assert results[3]["canonical"] == serial_large.canonical_json()
        assert stats["coalesced"] == 2  # the two repeats attached
        assert stats["store"]["misses"] == serial_large.store["misses"]


class TestCounterConsistency:
    def test_lifetime_counters_add_up_and_survive_the_drain(self, tmp_path):
        spec_path = _write_spec(tmp_path, "spec.json", [0, 1])
        socket_path = str(tmp_path / "evald.sock")
        store_path = str(tmp_path / "evals.sqlite")

        with running_daemon("--socket", socket_path, "--store", store_path) \
                as (daemon, address):
            run_clients([spec_path] * 3, address, tmp_path)
            stats = daemon_stats(address)
        assert daemon.wait(timeout=60) == 0

        for section in ("store", "lifetime"):
            counters = stats[section]
            assert counters["hits"] + counters["misses"] == counters["lookups"], section

        # The drain flushed the store: the persisted lifetime counters on
        # disk match what the daemon reported over the wire.
        persisted = inspect_store(store_path)["lifetime"]
        assert persisted["lookups"] == stats["lifetime"]["lookups"]
        assert persisted["hits"] == stats["lifetime"]["hits"]
        assert persisted["misses"] == stats["lifetime"]["misses"]
