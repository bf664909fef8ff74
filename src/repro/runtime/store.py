"""A shared, process-safe store of design-point evaluations.

Evaluating a design point is the cost centre of every exploration: the
benchmark kernel runs once per distinct configuration, and a sweep over
seeds and agents re-visits the same configurations again and again.  The
:class:`EvaluationStore` turns that repetition into reuse — it maps an
:class:`EvaluationKey` (benchmark fingerprint, catalog fingerprint,
workload seed, accuracy mode, design-point key) to the cached
:class:`~repro.dse.evaluator.EvaluationRecord`, so any evaluator sharing a
store starts warm with everything its siblings already measured.

The store is process-safe by construction rather than by locking: each
pool job receives only the records under its own benchmark and seeds
(:meth:`EvaluationStore.records_for`), evaluates against a private store
built from them, and the parent folds the records it added back with
:meth:`EvaluationStore.merge` as soon as that job returns.  A single writer
(the parent process) also owns the optional on-disk backend — a sqlite
file loaded on construction and written by :meth:`flush` — so campaigns
can persist their evaluations across runs and later sweeps start warm even
across process boundaries.

Consistency contract of the backend:

* **One writer.**  Only the store that owns a path flushes to it; workers
  and readers never write.
* **Readers see a committed prefix.**  Each flush is one sqlite transaction
  that brings the file to the writer's in-memory contents at that moment,
  so a store opened on the same path holds exactly the mapping of the last
  committed flush — never a half-written one.
* **Store before journal.**  :meth:`~repro.runtime.checkpoint.CampaignCheckpoint.flush`
  commits the store before it appends the journal lines that claim its
  work, so the journal never claims an evaluation the file does not hold.

The store is append-only: a flush writes only the records
:meth:`~EvaluationStore.put` / :meth:`~EvaluationStore.merge` added since
the last successful one, so its cost follows the change, not the size of
the store.  Nothing is ever deleted, because nothing needs to be: keys are
content-addressed — two benchmarks with identical kernels and parameters
share a fingerprint, and any change to the operator catalog, workload
seed, or accuracy mode changes the key — so a stale entry can never be
served and a hit is always bit-identical to the evaluation it replaces.
"""

from __future__ import annotations

import hashlib
import pickle
import sqlite3
import time
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # typing only: keep runtime.store free of repro.dse imports
    from repro.benchmarks.base import Benchmark
    from repro.dse.evaluator import EvaluationRecord
    from repro.operators.catalog import OperatorCatalog

__all__ = [
    "EvaluationKey",
    "EvaluationStore",
    "StoreStats",
    "benchmark_fingerprint",
    "catalog_fingerprint",
    "inspect_store",
]

#: Default per-connection sqlite busy handler budget, in seconds.  Every
#: connection the store opens waits this long for a competing writer before
#: surfacing ``database is locked`` — the first line of defence under
#: concurrent access (the Python-level flush backoff is the second).
BUSY_TIMEOUT_S = 5.0

#: Total :meth:`EvaluationStore.flush` attempts under sqlite lock
#: contention, and the first backoff sleep (doubled after every failed
#: attempt: 0.05, 0.1, 0.2, 0.4, 0.8 s — ~1.55 s of grace on top of the
#: per-connection busy timeout).
FLUSH_ATTEMPTS = 6
FLUSH_BACKOFF_S = 0.05


# --------------------------------------------------------------- fingerprints


def _stable_repr(value: object) -> str:
    """A deterministic, content-addressed repr for fingerprint payloads."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray(shape={value.shape},dtype={value.dtype},sha1={digest})"
    if isinstance(value, Mapping):
        items = ",".join(
            f"{key!r}:{_stable_repr(item)}" for key, item in sorted(value.items())
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        items = ",".join(_stable_repr(item) for item in value)
        return f"({items})"
    return repr(value)


def benchmark_fingerprint(benchmark: "Benchmark") -> str:
    """Content fingerprint of a benchmark instance.

    Covers the class, registry name, approximable variables, datapath widths
    and every public instance attribute (sizes, tap counts, amplitudes, ...),
    so two instances describing the same kernel and workload share a
    fingerprint.  Underscore-prefixed attributes are internal caches (e.g.
    memoized input names), not configuration, and are excluded so lazily
    populated state cannot shift the fingerprint.
    """
    parts = [
        type(benchmark).__qualname__,
        str(benchmark.name),
        repr(tuple(benchmark.variables)),
        f"add_width={benchmark.add_width}",
        f"mul_width={benchmark.mul_width}",
    ]
    for attr, value in sorted(vars(benchmark).items()):
        if attr.startswith("_"):
            continue
        parts.append(f"{attr}={_stable_repr(value)}")
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


def catalog_fingerprint(catalog: "OperatorCatalog") -> str:
    """Content fingerprint of an operator catalog (names, widths, costs)."""
    parts = []
    for entry in tuple(catalog.adders) + tuple(catalog.multipliers):
        published = entry.published
        parts.append(
            f"{entry.name}:{entry.kind.value if hasattr(entry.kind, 'value') else entry.kind}"
            f":{entry.width}:{published.mred_percent!r}:{published.power_mw!r}"
            f":{published.delay_ns!r}"
        )
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------- keys


#: An evaluation context: (benchmark, catalog, seed, signed).
_Context = Tuple[str, str, int, bool]


class EvaluationKey(NamedTuple):
    """Identity of one cached evaluation.

    The first four fields pin down the evaluation context (what is being
    measured and against which baseline); ``point`` is the design-point key
    within that context.
    """

    benchmark: str
    catalog: str
    seed: int
    signed: bool
    point: Tuple[int, int, Tuple[bool, ...]]

    @property
    def context(self) -> Tuple[str, str, int, bool]:
        """The (benchmark, catalog, seed, signed) prefix shared by one evaluator."""
        return (self.benchmark, self.catalog, self.seed, self.signed)


def _encode_key(key: EvaluationKey) -> str:
    adder, multiplier, variables = key.point
    mask = "".join("1" if flag else "0" for flag in variables)
    return (
        f"{key.benchmark}|{key.catalog}|{key.seed}|{int(key.signed)}"
        f"|{adder}:{multiplier}:{mask}"
    )


def _encode_record(record: "EvaluationRecord") -> bytes:
    return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_key(text: str) -> EvaluationKey:
    benchmark, catalog, seed, signed, point = text.split("|")
    adder, multiplier, mask = point.split(":")
    return EvaluationKey(
        benchmark=benchmark,
        catalog=catalog,
        seed=int(seed),
        signed=bool(int(signed)),
        point=(int(adder), int(multiplier), tuple(flag == "1" for flag in mask)),
    )


class StoreStats(NamedTuple):
    """Hit/miss counters of one store (including merged worker counters)."""

    hits: int
    misses: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


# ---------------------------------------------------------------------- store


class EvaluationStore:
    """Keyed cache of :class:`EvaluationRecord` shared between evaluators.

    Parameters
    ----------
    path:
        Optional sqlite file backing the store.  Existing entries are loaded
        on construction; :meth:`flush` (or :meth:`close` / the context
        manager) writes back what changed since.  Only one process should
        own a given path at a time — pool workers evaluate against the
        in-memory slices :meth:`records_for` hands them, and the owner
        merges their results back.
    records:
        Optional initial contents (e.g. a :meth:`snapshot` of another store).
        With a ``path`` they count as changed: the next flush writes them.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 records: Optional[Mapping[EvaluationKey, "EvaluationRecord"]] = None,
                 busy_timeout_s: float = BUSY_TIMEOUT_S) -> None:
        if (not isinstance(busy_timeout_s, (int, float))
                or isinstance(busy_timeout_s, bool) or busy_timeout_s < 0):
            raise ConfigurationError(
                f"store busy_timeout_s must be a non-negative number, "
                f"got {busy_timeout_s!r}"
            )
        self._records: Dict[EvaluationKey, "EvaluationRecord"] = dict(records or {})
        self._path = Path(path) if path is not None else None
        self._busy_timeout_s = float(busy_timeout_s)
        self._hits = 0
        self._misses = 0
        #: Counters persisted by earlier owners of the backend (see
        #: :attr:`lifetime_stats`); zero for in-memory / fresh stores.
        self._base_stats = StoreStats(hits=0, misses=0)
        #: Keys put or merged since the last committed flush, in insertion
        #: order (a dict, so the write order never depends on hash seeds).
        #: ``None`` for pathless stores, which never flush.
        self._pending: Optional[Dict[EvaluationKey, None]] = None
        #: The lifetime counters the backend holds (last committed or
        #: loaded); ``None`` until known, so the next flush writes them.
        self._committed_stats: Optional[StoreStats] = None
        #: Per-context key index, built by the first context query.
        self._contexts: Optional[Dict[_Context, Dict[EvaluationKey, None]]] = None
        if self._path is not None:
            self._pending = dict.fromkeys(self._records)
            if self._path.exists():
                self._load()

    # ------------------------------------------------------------ inspection

    @property
    def path(self) -> Optional[Path]:
        """The on-disk backend, or ``None`` for a purely in-memory store."""
        return self._path

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: EvaluationKey) -> bool:
        return key in self._records

    def keys(self) -> Iterator[EvaluationKey]:
        return iter(tuple(self._records))

    @property
    def stats(self) -> StoreStats:
        return StoreStats(hits=self._hits, misses=self._misses)

    @property
    def lifetime_stats(self) -> StoreStats:
        """This session's counters plus those persisted by earlier owners.

        :meth:`flush` writes these to the backend, so a store file carries
        its cumulative hit/miss history across runs — the observability
        ``repro-axc store stats`` reports.
        """
        return StoreStats(
            hits=self._base_stats.hits + self._hits,
            misses=self._base_stats.misses + self._misses,
        )

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    def context_keys(self, context: _Context) -> Tuple[EvaluationKey, ...]:
        """The keys cached under one evaluator context, in insertion order.

        Served from a per-context index, so the cost follows the context,
        not the store.  Never touches the hit/miss counters.
        """
        return tuple(self._context_index().get(context, ()))

    def records_for(self, benchmark: str,
                    seeds: Iterable[int]) -> Dict[EvaluationKey, "EvaluationRecord"]:
        """The records cached under one benchmark fingerprint and any of ``seeds``.

        Spans every catalog and accuracy mode of those contexts: the whole
        slice of the store a job on that benchmark and those seeds can
        read.  Served from the per-context index, so the cost follows the
        slice and the context count, not the store.  Never touches the
        hit/miss counters.
        """
        wanted = set(seeds)
        records = self._records
        return {
            key: records[key]
            for context, keys in self._context_index().items()
            if context[0] == benchmark and context[2] in wanted
            for key in keys
        }

    def _context_index(self) -> Dict[_Context, Dict[EvaluationKey, None]]:
        if self._contexts is None:
            index: Dict[_Context, Dict[EvaluationKey, None]] = {}
            for key in self._records:
                index.setdefault(key.context, {})[key] = None
            self._contexts = index
        return self._contexts

    # -------------------------------------------------------------- get / put

    def get(self, key: EvaluationKey) -> Optional["EvaluationRecord"]:
        """The cached record for ``key``, or ``None`` (counts hits/misses)."""
        return self.lookup(key)

    def lookup(self, key: EvaluationKey) -> Optional["EvaluationRecord"]:
        """The cached record for ``key``, or ``None``; counts a hit or a miss."""
        record = self._records.get(key)
        if record is None:
            self._misses += 1
            return None
        self._hits += 1
        return record

    def put(self, key: EvaluationKey, record: "EvaluationRecord") -> None:
        """Cache one evaluation."""
        self._records[key] = record
        if self._pending is not None:
            self._pending[key] = None
        if self._contexts is not None:
            self._contexts.setdefault(key.context, {})[key] = None

    # -------------------------------------------------- snapshot / merge-back

    def snapshot(self) -> Dict[EvaluationKey, "EvaluationRecord"]:
        """A shallow copy of the contents, safe to ship to a worker process."""
        return dict(self._records)

    def merge(self, other: Union["EvaluationStore", Mapping[EvaluationKey, "EvaluationRecord"]]) -> int:
        """Fold another store (or snapshot diff) in; returns new-entry count.

        Existing entries win — under content-addressed keys both sides hold
        bit-identical records, so keeping the incumbent preserves object
        identity for callers already holding a reference.
        """
        records = other.snapshot() if isinstance(other, EvaluationStore) else other
        added = [key for key in records if key not in self._records]
        for key in added:
            self._records[key] = records[key]
        if self._pending is not None:
            self._pending.update(dict.fromkeys(added))
        if self._contexts is not None:
            for key in added:
                self._contexts.setdefault(key.context, {})[key] = None
        return len(added)

    def record_external_lookups(self, hits: int, misses: int) -> None:
        """Fold the hit/miss counters of a merged worker store into this one."""
        self._hits += int(hits)
        self._misses += int(misses)

    # ------------------------------------------------------------ persistence

    def _connect(self) -> sqlite3.Connection:
        """Open the backend with WAL journaling and a busy-handler budget.

        WAL lets concurrent readers (``repro-axc store stats``, a second
        store loading the same file) proceed while a writer flushes, and
        ``busy_timeout`` makes every statement wait for a competing writer
        instead of failing instantly with ``database is locked``.  The
        journal mode is a property of the database file, so the first
        writer converts legacy stores in place.
        """
        connection = sqlite3.connect(self._path, timeout=self._busy_timeout_s)
        try:
            connection.execute(
                f"PRAGMA busy_timeout = {int(self._busy_timeout_s * 1000)}"
            )
            connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            connection.close()
            raise
        return connection

    def _load(self) -> None:
        try:
            connection = self._connect()
            try:
                rows = connection.execute("SELECT key, record FROM evaluations").fetchall()
                stats_row = _read_stats_row(connection)
            finally:
                connection.close()
        except sqlite3.Error as error:
            raise ConfigurationError(
                f"evaluation store {self._path} is not a readable store database "
                f"({error}); delete the file or point --store elsewhere"
            ) from error
        try:
            for text, blob in rows:
                self._records.setdefault(_decode_key(text), pickle.loads(blob))
        except Exception as error:
            # Anything the key/pickle decoding raises means the file is not a
            # usable store; a one-line ConfigurationError beats a raw traceback.
            raise ConfigurationError(
                f"evaluation store {self._path} holds corrupt record(s) "
                f"({type(error).__name__}: {error}); delete the file or point "
                f"--store elsewhere"
            ) from error
        if stats_row is not None:
            self._base_stats = StoreStats(hits=int(stats_row[0]),
                                          misses=int(stats_row[1]))
            self._committed_stats = self._base_stats

    def flush(self) -> int:
        """Commit the changes since the last flush to the sqlite backend.

        Returns the number of records the backend holds afterwards (0 for a
        purely in-memory store, which has no backend and does nothing).
        One transaction upserts the records :meth:`put` / :meth:`merge`
        added and rewrites the lifetime-counter row, so the file mirrors
        the in-memory contents exactly and readers only ever see a
        committed flush.  Every record is written when the file does not
        exist yet; when nothing was added and the counters equal those the
        file already holds, the flush touches no file.  The pending changes
        are dropped once the transaction commits, never before.

        Lock contention (``sqlite3.OperationalError`` — a concurrent writer
        holding the file past the connection's own busy timeout) is retried
        with bounded exponential backoff (:data:`FLUSH_ATTEMPTS` attempts,
        sleeps doubling from :data:`FLUSH_BACKOFF_S`); a failed attempt
        commits nothing and keeps every pending change, so retries can only
        help.  The final failure propagates.
        """
        if self._path is None:
            return 0
        delay = FLUSH_BACKOFF_S
        for attempt in range(1, FLUSH_ATTEMPTS + 1):
            try:
                return self._flush_once()
            except sqlite3.OperationalError:
                if attempt == FLUSH_ATTEMPTS:
                    raise
                time.sleep(delay)
                delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _flush_once(self) -> int:
        lifetime = self.lifetime_stats
        if self._path.exists():
            if not self._pending and lifetime == self._committed_stats:
                return len(self._records)  # the file already mirrors the store
            changed = self._pending
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            changed = self._records
        upserts = [(_encode_key(key), _encode_record(self._records[key]))
                   for key in changed]
        connection = self._connect()
        try:
            with connection:  # one transaction; commits on success
                connection.execute(
                    "CREATE TABLE IF NOT EXISTS evaluations "
                    "(key TEXT PRIMARY KEY, record BLOB NOT NULL)"
                )
                connection.executemany(
                    "INSERT OR REPLACE INTO evaluations (key, record) VALUES (?, ?)",
                    upserts,
                )
                # Recreated rather than emptied: older files carry a third
                # NOT NULL counter column that a two-column insert violates.
                connection.execute("DROP TABLE IF EXISTS store_stats")
                connection.execute(
                    "CREATE TABLE store_stats "
                    "(hits INTEGER NOT NULL, misses INTEGER NOT NULL)"
                )
                connection.execute(
                    "INSERT INTO store_stats (hits, misses) VALUES (?, ?)",
                    (lifetime.hits, lifetime.misses),
                )
        finally:
            connection.close()
        self._pending.clear()
        self._committed_stats = lifetime
        return len(self._records)

    def close(self) -> None:
        """Flush the on-disk backend (if any)."""
        self.flush()

    def __enter__(self) -> "EvaluationStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        backend = str(self._path) if self._path else "memory"
        return (
            f"EvaluationStore(entries={len(self._records)}, backend={backend!r}, "
            f"hits={self._hits}, misses={self._misses})"
        )


# ------------------------------------------------------------- introspection


def _read_stats_row(connection: sqlite3.Connection) -> Optional[Tuple]:
    """The persisted counter row, or ``None`` for legacy stores without one."""
    try:
        return connection.execute(
            "SELECT hits, misses FROM store_stats"
        ).fetchone()
    except sqlite3.Error:
        return None


def inspect_store(path: Union[str, Path]) -> Dict[str, object]:
    """Read-only summary of an on-disk store (``repro-axc store stats``).

    Opens the sqlite backend in read-only mode and reports per-context
    record counts, the file size and the persisted lifetime counters —
    without unpickling a single record, so it is cheap even on large
    stores.  Missing or unreadable paths raise a one-line
    :class:`~repro.errors.ConfigurationError`.
    """
    store_path = Path(path)
    if not store_path.exists():
        raise ConfigurationError(
            f"evaluation store {store_path} does not exist"
        )
    try:
        connection = sqlite3.connect(f"file:{store_path}?mode=ro", uri=True)
        try:
            rows = connection.execute("SELECT key FROM evaluations").fetchall()
            stats_row = _read_stats_row(connection)
        finally:
            connection.close()
    except sqlite3.Error as error:
        raise ConfigurationError(
            f"evaluation store {store_path} is not a readable store database "
            f"({error}); delete the file or point --store elsewhere"
        ) from error
    contexts: Dict[Tuple[str, str, int, bool], int] = {}
    try:
        for (text,) in rows:
            context = _decode_key(text).context
            contexts[context] = contexts.get(context, 0) + 1
    except Exception as error:
        raise ConfigurationError(
            f"evaluation store {store_path} holds corrupt key(s) "
            f"({type(error).__name__}: {error}); delete the file or point "
            f"--store elsewhere"
        ) from error
    lifetime = (StoreStats(hits=int(stats_row[0]), misses=int(stats_row[1]))
                if stats_row is not None else StoreStats(hits=0, misses=0))
    return {
        "path": str(store_path),
        "size_bytes": store_path.stat().st_size,
        "records": len(rows),
        "contexts": [
            {
                "benchmark": benchmark,
                "catalog": catalog,
                "seed": seed,
                "signed": signed,
                "records": count,
            }
            for (benchmark, catalog, seed, signed), count in sorted(contexts.items())
        ],
        "lifetime": {
            "hits": lifetime.hits,
            "misses": lifetime.misses,
            "lookups": lifetime.lookups,
            "hit_rate": lifetime.hit_rate,
        },
    }
