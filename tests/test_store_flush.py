"""The store's flush contract: incremental, transactional, single-writer.

A flush commits only what changed since the last committed flush (records
put, merged or overwritten), writing every record only into a file that
does not exist yet.  The contract readers rely on —

* after every flush, a fresh ``EvaluationStore(path)`` holds exactly the
  writer's mapping;
* between flushes, a fresh reader sees the mapping as of the last flush
  (readers see a committed prefix, never a half-written one);
* a flush that fails commits nothing and loses nothing: its pending
  changes are written by the next flush that succeeds —

is driven here by a hypothesis state machine over random operation
sequences, plus targeted checks that a flush costs O(change), not
O(store).
"""

from __future__ import annotations

import itertools
import shutil
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dse import DesignPoint, EvaluationRecord
from repro.metrics import ObjectiveDeltas
from repro.operators import RunCost
from repro.runtime import EvaluationKey, EvaluationStore
from repro.runtime import store as store_module


def _record(key: EvaluationKey, value: int, power_mw: float = 1.0) -> EvaluationRecord:
    adder, multiplier, variables = key.point
    return EvaluationRecord(
        point=DesignPoint(adder, multiplier, variables),
        deltas=ObjectiveDeltas(accuracy=float(value), power_mw=power_mw, time_ns=2.0),
        approx_cost=RunCost(power_mw=3.0, time_ns=4.0, operation_count=value),
    )


def _view(record: EvaluationRecord):
    """What a record persists, in a form ``==`` can compare."""
    return (record.deltas, record.approx_cost)


def _read(path: Path):
    """The mapping a fresh reader of ``path`` sees."""
    return {key: _view(record)
            for key, record in EvaluationStore(path=path).snapshot().items()}


def _stats_row(path: Path):
    connection = sqlite3.connect(path)
    try:
        return connection.execute(
            "SELECT hits, misses FROM store_stats").fetchone()
    finally:
        connection.close()


# ------------------------------------------------------- flush cost follows change


def _keys(count: int):
    points = itertools.product(range(1, 11), range(1, 11),
                               itertools.product((False, True), repeat=5))
    return [EvaluationKey("bench", "catalog", 0, False, point)
            for point in itertools.islice(points, count)]


@pytest.fixture
def grown_store_path(tmp_path):
    """A store file holding 2,000 records."""
    path = tmp_path / "evals.sqlite"
    store = EvaluationStore(path=path)
    for index, key in enumerate(_keys(2000)):
        store.put(key, _record(key, index))
    assert store.flush() == 2000
    return path


@pytest.fixture
def encoded(monkeypatch):
    """Counts the records flushes pickle."""
    calls = []
    original = store_module._encode_record

    def spy(record):
        calls.append(record)
        return original(record)

    monkeypatch.setattr(store_module, "_encode_record", spy)
    return calls


class TestIncrementalFlush:
    def test_flush_after_one_put_encodes_one_record(self, grown_store_path, encoded):
        store = EvaluationStore(path=grown_store_path)
        assert len(store) == 2000 and not encoded  # loading writes nothing
        [fresh] = _keys(2001)[2000:]
        store.put(fresh, _record(fresh, 7))
        assert store.flush() == 2001
        assert len(encoded) == 1
        reader = _read(grown_store_path)
        assert len(reader) == 2001
        assert reader[fresh] == _view(_record(fresh, 7))

    def test_flush_with_nothing_pending_encodes_none_but_commits_counters(
            self, grown_store_path, encoded):
        store = EvaluationStore(path=grown_store_path)
        [first, *_] = store.keys()
        store.get(first)
        store.get(_keys(2001)[2000])
        assert store.flush() == 2000
        assert not encoded
        lifetime = store.lifetime_stats
        assert (lifetime.hits, lifetime.misses) == (1, 1)
        assert _stats_row(grown_store_path) == (1, 1)

    def test_flush_with_nothing_new_touches_no_file(self, grown_store_path,
                                                    monkeypatch):
        store = EvaluationStore(path=grown_store_path)
        [fresh] = _keys(2001)[2000:]
        store.put(fresh, _record(fresh, 7))
        assert store.flush() == 2001
        before = grown_store_path.read_bytes()
        connects = []
        connect = store._connect
        monkeypatch.setattr(store, "_connect",
                            lambda: connects.append(1) or connect())
        assert store.flush() == 2001  # no put and no lookup since
        assert connects == []
        assert grown_store_path.read_bytes() == before

    def test_overwrite_writes_only_its_keys(self, grown_store_path, encoded):
        store = EvaluationStore(path=grown_store_path)
        [first, *_] = store.keys()
        store.put(first, _record(first, 0, power_mw=5.0))  # a changed delta
        other = EvaluationKey("bench", "catalog", 1, False, first.point)
        store.put(other, _record(other, 1))
        assert store.flush() == 2001
        assert len(encoded) == 2
        reader = _read(grown_store_path)
        assert len(reader) == 2001
        assert reader[first] == _view(_record(first, 0, power_mw=5.0))
        assert reader[other] == _view(_record(other, 1))

    def test_flush_into_a_missing_file_writes_every_record(self, grown_store_path,
                                                           encoded):
        store = EvaluationStore(path=grown_store_path)
        for suffix in ("", "-wal", "-shm"):
            Path(f"{grown_store_path}{suffix}").unlink(missing_ok=True)
        [fresh] = _keys(2001)[2000:]
        store.put(fresh, _record(fresh, 7))
        assert store.flush() == 2001
        assert len(encoded) == 2001
        assert _read(grown_store_path) == {
            key: _view(record) for key, record in store.snapshot().items()}

    def test_records_passed_with_a_path_start_pending(self, grown_store_path, encoded):
        [fresh] = _keys(2001)[2000:]
        store = EvaluationStore(path=grown_store_path,
                                records={fresh: _record(fresh, 5)})
        assert store.flush() == 2001
        assert len(encoded) == 1
        assert fresh in _read(grown_store_path)

    def test_failed_flush_keeps_pending_changes_for_the_next_flush(
            self, grown_store_path, monkeypatch):
        # A competing writer holds the write lock through every attempt, so
        # the flush fails for real (not by replacing ``_flush_once``).
        monkeypatch.setattr(store_module, "FLUSH_BACKOFF_S", 0.001)
        store = EvaluationStore(path=grown_store_path, busy_timeout_s=0.01)
        [stale, *_] = store.keys()
        fresh = EvaluationKey("bench", "catalog", 1, False, stale.point)
        store.put(fresh, _record(fresh, 9))
        store.put(stale, _record(stale, 0, power_mw=5.0))
        committed = _read(grown_store_path)
        holder = sqlite3.connect(grown_store_path)
        try:
            holder.execute("BEGIN IMMEDIATE")
            with pytest.raises(sqlite3.OperationalError):
                store.flush()
        finally:
            holder.rollback()
            holder.close()
        assert _read(grown_store_path) == committed  # nothing committed
        assert store.flush() == 2001
        reader = _read(grown_store_path)
        assert reader == {key: _view(record) for key, record in store.snapshot().items()}
        assert reader[stale] == _view(_record(stale, 0, power_mw=5.0))


# ------------------------------------------------- the contract, property-tested


_BENCHMARKS = ("b0", "b1")
_CONTEXTS = [(benchmark, "catalog", seed, False)
             for benchmark in _BENCHMARKS for seed in (0, 1)]
_keys_st = st.builds(
    EvaluationKey,
    benchmark=st.sampled_from(_BENCHMARKS),
    catalog=st.just("catalog"),
    seed=st.integers(0, 1),
    signed=st.just(False),
    point=st.tuples(st.integers(1, 2), st.integers(1, 2),
                    st.tuples(st.booleans(), st.booleans())),
)
_entries_st = st.tuples(_keys_st, st.integers(0, 1000))


class StoreFlushMachine(RuleBasedStateMachine):
    """One writer store against a plain-dict model of its mapping."""

    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="store-flush-"))
        self.path = self.directory / "evals.sqlite"
        self.store = EvaluationStore(path=self.path)
        self.model = {}
        self.committed = {}

    def teardown(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(entry=_entries_st)
    def put(self, entry):
        key, value = entry
        record = _record(key, value)
        self.store.put(key, record)
        self.model[key] = _view(record)

    @precondition(lambda self: bool(self.model))
    @rule(data=st.data())
    def overwrite(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        deltas = self.model[key][0]
        record = _record(key, int(deltas.accuracy), power_mw=deltas.power_mw + 1.0)
        self.store.put(key, record)
        self.model[key] = _view(record)

    @rule(entries=st.lists(_entries_st, max_size=4))
    def merge(self, entries):
        incoming = {key: _record(key, value) for key, value in entries}
        added = [key for key in incoming if key not in self.model]
        assert self.store.merge(incoming) == len(added)
        for key in added:
            self.model[key] = _view(incoming[key])

    @rule()
    def flush(self):
        assert self.store.flush() == len(self.model)
        self.committed = dict(self.model)
        assert _read(self.path) == self.model

    @rule(context=st.sampled_from(_CONTEXTS))
    def context_keys_follow_the_mapping(self, context):
        assert list(self.store.context_keys(context)) == [
            key for key in self.model if key.context == context]

    @invariant()
    def readers_see_the_last_committed_flush(self):
        assert _read(self.path) == self.committed


StoreFlushMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None)
TestStoreFlushContract = StoreFlushMachine.TestCase
