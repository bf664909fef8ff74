"""Store and journal corruption recovery: degrade loudly, never lie.

The contract under test: a damaged persistence layer may cost a re-run or
stop the program with an actionable one-liner, but it must never feed
wrong results into a report —

* a truncated / non-sqlite / corrupt-record store file raises
  :class:`~repro.errors.ConfigurationError` naming the file and the fix;
* a store file in the older format (a three-column counter table, records
  pickled with raw outputs) still loads, serves hits, flushes and inspects;
* a transient ``sqlite3.OperationalError`` on flush is retried with
  bounded exponential backoff (the backend additionally opens in WAL
  mode with a busy-handler budget), then propagates;
* a checkpoint journal that disagrees with the store (stale journal,
  foreign journal, missing store) degrades to restore-from-journal or a
  cold re-run — both bit-identical to an uninterrupted campaign;
* the CLI's atomic report writer leaves no partial files behind on
  failure.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import sqlite3
from pathlib import Path

import pytest

from repro.benchmarks import DotProductBenchmark
from repro.cli import main
from repro.dse import Evaluator
from repro.errors import ConfigurationError
from repro.runtime import (
    AgentSpec,
    CampaignCheckpoint,
    EvaluationStore,
    ExplorationJob,
    SerialExecutor,
)
from repro.runtime.store import inspect_store


def _job(seed=0, max_steps=10):
    return ExplorationJob(
        benchmark_label="dot",
        benchmark=DotProductBenchmark(length=12),
        seed=seed,
        agent=AgentSpec("random"),
        max_steps=max_steps,
    )


def _jobs(count):
    return [_job(seed=seed) for seed in range(count)]


def _signatures(outcomes):
    return [[record.deltas for record in outcome.result.records]
            for outcome in outcomes]


def _populated_store(path: Path) -> EvaluationStore:
    store = EvaluationStore(path=str(path))
    evaluator = Evaluator(DotProductBenchmark(length=12), seed=0, store=store)
    evaluator.evaluate(evaluator.design_space.initial_point())
    store.flush()
    return store


# ----------------------------------------------------------- corrupt backends


class TestCorruptStoreFiles:
    def test_non_sqlite_file_is_an_actionable_error(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        path.write_bytes(b"this was never a database")
        with pytest.raises(ConfigurationError,
                           match="not a readable store database"):
            EvaluationStore(path=str(path))

    def test_truncated_database_is_an_actionable_error(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        _populated_store(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # crash mid-write
        with pytest.raises(ConfigurationError, match="delete the file"):
            EvaluationStore(path=str(path))

    def test_corrupt_record_blob_is_an_actionable_error(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        _populated_store(path)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE evaluations SET record = ?",
                               (b"junk, not a pickle",))
        with pytest.raises(ConfigurationError, match="corrupt record"):
            EvaluationStore(path=str(path))

    def test_corrupt_key_text_is_an_actionable_error(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        _populated_store(path)
        with sqlite3.connect(path) as connection:
            connection.execute("UPDATE evaluations SET key = 'mangled'")
        with pytest.raises(ConfigurationError, match="corrupt record"):
            EvaluationStore(path=str(path))

    def test_intact_store_reloads_bit_identical(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        store = _populated_store(path)
        reloaded = EvaluationStore(path=str(path))
        assert len(reloaded) == len(store) == 1
        [key] = store.keys()
        assert reloaded.get(key).deltas == store.get(key).deltas


def _write_older_store(path: Path, evaluator: Evaluator, points) -> None:
    """A store file in the format written before records lost their outputs.

    Its counter table has a third ``NOT NULL`` column, and every record is
    pickled with a raw ``outputs`` array beside its measurements.
    """
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "CREATE TABLE evaluations (key TEXT PRIMARY KEY, record BLOB NOT NULL)")
        connection.execute(
            "CREATE TABLE store_stats (hits INTEGER NOT NULL, "
            "misses INTEGER NOT NULL, upgrades INTEGER NOT NULL)")
        connection.execute("INSERT INTO store_stats VALUES (5, 3, 2)")
        for point in points:
            record = dataclasses.replace(evaluator.evaluate(point))
            outputs = evaluator.benchmark.execute(evaluator.context_for(point),
                                                  evaluator.inputs).outputs
            object.__setattr__(record, "outputs", outputs)
            key = evaluator.store_key(point)
            mask = "".join("1" if flag else "0" for flag in point.variables)
            text = (f"{key.benchmark}|{key.catalog}|{key.seed}|{int(key.signed)}"
                    f"|{point.adder_index}:{point.multiplier_index}:{mask}")
            connection.execute("INSERT INTO evaluations VALUES (?, ?)",
                               (text, pickle.dumps(record)))
    connection.close()


class TestOlderStoreFiles:
    def test_older_file_loads_serves_flushes_and_inspects(self, tmp_path, capsys):
        path = tmp_path / "older.sqlite"
        fresh = Evaluator(DotProductBenchmark(length=12), seed=0)
        space = fresh.design_space
        points = [space.point_at(index) for index in range(4)]
        _write_older_store(path, Evaluator(DotProductBenchmark(length=12), seed=0),
                           points)
        assert inspect_store(path)["lifetime"] == {
            "hits": 5, "misses": 3, "lookups": 8, "hit_rate": 5 / 8}

        store = EvaluationStore(path=str(path))
        assert len(store) == 4
        warm = Evaluator(DotProductBenchmark(length=12), seed=0, store=store)
        for point in points:
            assert warm.evaluate(point) == fresh.evaluate(point)
        assert (store.stats.hits, store.stats.misses) == (4, 0)

        # A put and a flush into the older counter table: no NOT NULL
        # violation loses the run's evaluations.
        extra = space.point_at(space.size - 1)
        warm.evaluate(extra)
        assert store.flush() == 5

        reloaded = EvaluationStore(path=str(path))
        assert len(reloaded) == 5
        assert tuple(reloaded.lifetime_stats) == (5 + 4, 3 + 1)
        assert reloaded.get(warm.store_key(extra)) == fresh.evaluate(extra)
        info = inspect_store(path)
        assert info["records"] == 5
        assert info["lifetime"] == {"hits": 9, "misses": 4, "lookups": 13,
                                    "hit_rate": 9 / 13}
        assert main(["store", "stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert "5 record(s)" in output
        assert "9 hit(s) / 13 lookup(s)" in output


class TestFlushBackoff:
    def _store_with_record(self, tmp_path) -> EvaluationStore:
        return _populated_store(tmp_path / "evals.sqlite")

    def test_repeated_transient_locks_are_retried_until_success(
            self, tmp_path, monkeypatch):
        # Regression for the single one-shot retry: three consecutive lock
        # errors exhaust the old behaviour (one retry) but are well within
        # the bounded exponential backoff budget.
        store = self._store_with_record(tmp_path)
        original = store._flush_once
        calls = []
        monkeypatch.setattr(
            "repro.runtime.store.FLUSH_BACKOFF_S", 0.001)

        def locked_thrice():
            calls.append(1)
            if len(calls) <= 3:
                raise sqlite3.OperationalError("database is locked")
            return original()

        monkeypatch.setattr(store, "_flush_once", locked_thrice)
        assert store.flush() == 1
        assert len(calls) == 4

    def test_persistent_lock_propagates_after_bounded_attempts(
            self, tmp_path, monkeypatch):
        from repro.runtime.store import FLUSH_ATTEMPTS

        store = self._store_with_record(tmp_path)
        calls = []
        monkeypatch.setattr("repro.runtime.store.FLUSH_BACKOFF_S", 0.001)

        def always_locked():
            calls.append(1)
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(store, "_flush_once", always_locked)
        with pytest.raises(sqlite3.OperationalError):
            store.flush()
        assert len(calls) == FLUSH_ATTEMPTS  # bounded, then honesty

    def test_backend_opens_in_wal_mode_with_busy_timeout(self, tmp_path):
        path = tmp_path / "evals.sqlite"
        _populated_store(path)
        connection = sqlite3.connect(path)
        try:
            (mode,) = connection.execute("PRAGMA journal_mode").fetchone()
        finally:
            connection.close()
        assert mode.lower() == "wal"

    def test_flush_survives_a_competing_writer_process(self, tmp_path):
        # Two-process contention: a sibling process takes the sqlite write
        # lock and holds it for ~1.2 s.  With a deliberately tiny busy
        # timeout the old behaviour (one 0.1 s retry) gave up long before
        # the lock cleared; the exponential backoff (~1.55 s of cumulative
        # grace) outlives it.
        import subprocess
        import sys
        import time

        path = tmp_path / "evals.sqlite"
        _populated_store(path)
        holder = subprocess.Popen(
            [sys.executable, "-c", (
                "import sqlite3, sys, time\n"
                "connection = sqlite3.connect(sys.argv[1])\n"
                "connection.execute('BEGIN IMMEDIATE')\n"
                "print('locked', flush=True)\n"
                "time.sleep(1.2)\n"
                "connection.commit()\n"
                "connection.close()\n"
            ), str(path)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            contended = EvaluationStore(path=str(path), busy_timeout_s=0.05)
            started = time.perf_counter()
            assert contended.flush() == 1  # old behaviour: OperationalError
            assert time.perf_counter() - started < 10.0
        finally:
            holder.wait(timeout=30)


# ------------------------------------------- journal/store disagreement


class TestJournalStoreDisagreement:
    """A wrong resume is worse than a slow one: disagreement never lies."""

    def _run_with_journal(self, tmp_path):
        store_path = tmp_path / "evals.sqlite"
        journal = tmp_path / "evals.sqlite.checkpoint.jsonl"
        store = EvaluationStore(path=str(store_path))
        outcomes = SerialExecutor().run(
            _jobs(3), store=store, checkpoint=CampaignCheckpoint(journal))
        return store_path, journal, _signatures(outcomes)

    def test_journal_without_store_still_restores_correctly(self, tmp_path):
        # The journal carries the pickled results themselves, so a deleted
        # store costs warm-start, not correctness.
        store_path, journal, expected = self._run_with_journal(tmp_path)
        store_path.unlink()
        checkpoint = CampaignCheckpoint(journal)
        resumed = SerialExecutor().run(
            _jobs(3), store=EvaluationStore(path=str(store_path)),
            checkpoint=checkpoint)
        assert checkpoint.restored == 3
        assert _signatures(resumed) == expected

    def test_foreign_journal_never_matches(self, tmp_path):
        # A journal left behind by a different campaign: fingerprints are
        # content hashes, so nothing restores and everything re-runs.
        _, journal, _ = self._run_with_journal(tmp_path)
        foreign_jobs = [_job(seed=seed + 100) for seed in range(3)]
        clean = _signatures(SerialExecutor().run(foreign_jobs))
        checkpoint = CampaignCheckpoint(journal)
        outcomes = SerialExecutor().run(foreign_jobs, checkpoint=checkpoint)
        assert checkpoint.restored == 0
        assert _signatures(outcomes) == clean

    def test_store_without_journal_reruns_bit_identical(self, tmp_path):
        # The inverse disagreement: warm store, missing journal.  Every job
        # re-executes against the warm store; results never change.
        store_path, journal, expected = self._run_with_journal(tmp_path)
        journal.unlink()
        checkpoint = CampaignCheckpoint(journal)
        outcomes = SerialExecutor().run(
            _jobs(3), store=EvaluationStore(path=str(store_path)),
            checkpoint=checkpoint)
        assert checkpoint.restored == 0
        assert _signatures(outcomes) == expected

    def test_stale_journal_subset_reruns_only_the_rest(self, tmp_path):
        # Journal knows 3 of 5 jobs (a kill landed between flushes): the
        # known 3 restore, the other 2 execute, results match a clean run.
        store_path, journal, _ = self._run_with_journal(tmp_path)
        clean = _signatures(SerialExecutor().run(_jobs(5)))
        checkpoint = CampaignCheckpoint(journal)
        outcomes = SerialExecutor().run(
            _jobs(5), store=EvaluationStore(path=str(store_path)),
            checkpoint=checkpoint)
        assert checkpoint.restored == 3
        assert _signatures(outcomes) == clean


# --------------------------------------------------------- atomic CLI output


class TestAtomicReportWriter:
    def _spec_path(self, tmp_path) -> Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "kind": "explore",
            "benchmarks": ["dotproduct:length=12"],
            "agents": ["random"],
            "seeds": [0],
            "max_steps": 10,
        }))
        return path

    def test_unwritable_destination_leaves_no_partial_file(self, tmp_path,
                                                           capsys):
        spec_path = self._spec_path(tmp_path)
        out_dir = tmp_path / "report.json"
        out_dir.mkdir()  # a directory where the report file should go
        assert main(["run", str(spec_path), "--out", str(out_dir)]) == 2
        assert "cannot write" in capsys.readouterr().err
        # The temporary never survives a failed replace.
        assert not (tmp_path / "report.json.tmp").exists()
        assert list(out_dir.iterdir()) == []

    def test_successful_write_is_complete_and_tmp_free(self, tmp_path, capsys):
        spec_path = self._spec_path(tmp_path)
        out = tmp_path / "reports" / "report.json"
        assert main(["run", str(spec_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert not out.with_name(out.name + ".tmp").exists()
