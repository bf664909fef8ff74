"""The store's flush contract: incremental, transactional, single-writer.

A flush commits only what changed since the last committed flush (records
put, merged or upgraded; keys dropped by ``clear_context``), rewriting the
whole table only after ``clear()`` or into a file that does not exist yet.
The contract readers rely on —

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

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.dse import DesignPoint, EvaluationRecord
from repro.metrics import ObjectiveDeltas
from repro.operators import RunCost
from repro.runtime import EvaluationKey, EvaluationStore
from repro.runtime import store as store_module


def _record(key: EvaluationKey, value: int, with_outputs: bool) -> EvaluationRecord:
    adder, multiplier, variables = key.point
    return EvaluationRecord(
        point=DesignPoint(adder, multiplier, variables),
        deltas=ObjectiveDeltas(accuracy=float(value), power_mw=1.0, time_ns=2.0),
        approx_cost=RunCost(power_mw=3.0, time_ns=4.0, operation_count=value),
        outputs=np.array([value, value + 1], dtype=np.int64) if with_outputs else None,
    )


def _view(record: EvaluationRecord):
    """What a record persists, in a form ``==`` can compare."""
    outputs = None if record.outputs is None else record.outputs.tobytes()
    return (record.deltas, record.approx_cost, outputs)


def _read(path: Path):
    """The mapping a fresh reader of ``path`` sees."""
    return {key: _view(record)
            for key, record in EvaluationStore(path=path).snapshot().items()}


def _stats_row(path: Path):
    connection = sqlite3.connect(path)
    try:
        return connection.execute(
            "SELECT hits, misses, upgrades FROM store_stats").fetchone()
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
        store.put(key, _record(key, index, with_outputs=False))
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
        store.put(fresh, _record(fresh, 7, with_outputs=True))
        assert store.flush() == 2001
        assert len(encoded) == 1
        reader = _read(grown_store_path)
        assert len(reader) == 2001
        assert reader[fresh] == _view(_record(fresh, 7, with_outputs=True))

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
        assert _stats_row(grown_store_path) == (1, 1, 0)

    def test_upgrade_and_clear_context_write_only_their_keys(self, grown_store_path,
                                                             encoded):
        store = EvaluationStore(path=grown_store_path)
        [first, *_] = store.keys()
        store.put(first, _record(first, 0, with_outputs=True))  # outputs upgrade
        other = EvaluationKey("bench", "catalog", 1, False, first.point)
        store.put(other, _record(other, 1, with_outputs=False))
        assert store.flush() == 2001
        assert len(encoded) == 2
        assert store.clear_context(first.context) == 2000
        assert store.flush() == 1
        assert len(encoded) == 2  # deletes pickle nothing
        assert set(_read(grown_store_path)) == {other}

    def test_records_passed_with_a_path_start_pending(self, grown_store_path, encoded):
        [fresh] = _keys(2001)[2000:]
        store = EvaluationStore(path=grown_store_path,
                                records={fresh: _record(fresh, 5, with_outputs=False)})
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
        store.put(fresh, _record(fresh, 9, with_outputs=False))
        assert store.clear_context(stale.context) == 2000
        holder = sqlite3.connect(grown_store_path)
        try:
            holder.execute("BEGIN IMMEDIATE")
            with pytest.raises(sqlite3.OperationalError):
                store.flush()
        finally:
            holder.rollback()
            holder.close()
        assert len(_read(grown_store_path)) == 2000  # nothing committed
        assert store.flush() == 1
        assert set(_read(grown_store_path)) == {fresh}


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
_entries_st = st.tuples(_keys_st, st.integers(0, 1000), st.booleans())


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
        key, value, with_outputs = entry
        record = _record(key, value, with_outputs)
        self.store.put(key, record)
        self.model[key] = _view(record)

    @precondition(lambda self: any(view[2] is None for view in self.model.values()))
    @rule(data=st.data())
    def upgrade_outputs(self, data):
        key = data.draw(st.sampled_from(
            sorted(key for key, view in self.model.items() if view[2] is None)))
        record = _record(key, int(self.model[key][0].accuracy), with_outputs=True)
        self.store.put(key, record)
        self.model[key] = _view(record)

    @rule(entries=st.lists(_entries_st, max_size=4))
    def merge(self, entries):
        incoming = {key: _record(key, value, with_outputs)
                    for key, value, with_outputs in entries}
        added = [key for key in incoming if key not in self.model]
        assert self.store.merge(incoming) == len(added)
        for key in added:
            self.model[key] = _view(incoming[key])

    @rule(context=st.sampled_from(_CONTEXTS))
    def clear_context(self, context):
        dropped = [key for key in self.model if key.context == context]
        assert self.store.clear_context(context) == len(dropped)
        for key in dropped:
            del self.model[key]

    @rule()
    def clear(self):
        self.store.clear()
        self.model.clear()

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
