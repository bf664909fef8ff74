"""Checkpointed resume: a journal of finished jobs next to the store.

A killed campaign should cost the jobs in flight, not the jobs already
done.  :class:`CampaignCheckpoint` is an append-only JSONL journal — one
line per finished job, keyed by the stable
:func:`~repro.runtime.resilience.job_fingerprint` and carrying the
pickled result — that both executors write as outcomes finalize and read
back on the next run: journaled jobs are *restored* (their recorded
results re-enter the outcome list in job order) instead of re-executed,
so a resumed campaign re-runs only the unfinished tail and still
produces a report bit-identical to an uninterrupted run.

The journal is deliberately paranoid about its own integrity, because a
wrong resume is worse than a slow one:

* a line that does not parse, fails validation, or whose payload does not
  unpickle is *dropped* — the job silently falls back to re-evaluation
  (deterministic, so the result is identical either way);
* entries are keyed by content fingerprint, so a journal left behind by a
  different campaign simply never matches — disagreement with the store
  or the spec degrades to a cold run, never to wrong results;
* the final line of a journal truncated by a crash mid-append is corrupt
  by construction and falls into the first bullet.

Durability ordering: :meth:`flush` writes the *store* first, then appends
the journal lines — a job is never journaled as finished before the
evaluations it contributed are persisted, so the store is always at
least as complete as the journal claims.  ``flush_interval`` trades
durability for flush cost (1 = flush after every finished job).
"""

from __future__ import annotations

import base64
import json
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ConfigurationError

__all__ = ["CampaignCheckpoint"]

#: Journal line schema version (bump on incompatible change; old versions
#: are treated as corrupt and fall back to re-evaluation).  Version 2:
#: exploration results hold columns, and a version-1 payload would
#: unpickle into the older one-record-per-step layout.
JOURNAL_VERSION = 2


class CampaignCheckpoint:
    """Append-only journal of finished jobs, enabling killed-run resume.

    Parameters
    ----------
    path:
        The journal file (conventionally ``<store>.checkpoint.jsonl``
        next to the sqlite store — see
        :meth:`~repro.experiments.spec.RuntimeSpec.checkpoint_path`).
        Loaded on construction when it exists; corrupt lines are skipped.
    flush_interval:
        Finished jobs buffered between flushes; 1 (the default) flushes
        store + journal after every finished job.
    """

    def __init__(self, path: Union[str, Path], flush_interval: int = 1) -> None:
        if (not isinstance(flush_interval, int) or isinstance(flush_interval, bool)
                or flush_interval < 1):
            raise ConfigurationError(
                f"checkpoint flush_interval must be a positive integer, "
                f"got {flush_interval!r}"
            )
        self._path = Path(path)
        self._flush_interval = flush_interval
        self._entries: Dict[str, Dict[str, object]] = {}
        self._buffer: List[str] = []
        self._restored = 0
        if self._path.exists():
            self._load()

    # ------------------------------------------------------------ inspection

    @property
    def path(self) -> Path:
        return self._path

    @property
    def flush_interval(self) -> int:
        return self._flush_interval

    def __len__(self) -> int:
        """Finished jobs the journal knows about (including this run's)."""
        return len(self._entries)

    @property
    def restored(self) -> int:
        """Jobs served from the journal instead of executed, this run."""
        return self._restored

    def __repr__(self) -> str:
        return (f"CampaignCheckpoint(path={str(self._path)!r}, "
                f"entries={len(self._entries)}, restored={self._restored})")

    # ----------------------------------------------------------------- load

    def _load(self) -> None:
        try:
            text = self._path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"checkpoint journal {self._path} is not readable: {exc}"
            ) from exc
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # crash-truncated or mangled line: job re-runs
            if (not isinstance(entry, dict)
                    or entry.get("v") != JOURNAL_VERSION
                    or not isinstance(entry.get("job"), str)
                    or not isinstance(entry.get("result"), str)):
                continue  # foreign or incompatible line: job re-runs
            self._entries[entry["job"]] = entry

    # --------------------------------------------------------------- lookup

    def result_for(self, job) -> Optional[object]:
        """The journaled result of ``job``, or ``None`` (job must re-run).

        A payload that fails to decode or unpickle drops its entry and
        returns ``None``: resume falls back to re-evaluation, which is
        deterministic — a degraded journal can cost time, never
        correctness.
        """
        from repro.runtime.resilience import job_fingerprint

        fingerprint = job_fingerprint(job)
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        try:
            result = pickle.loads(base64.b64decode(entry["result"]))
        except Exception:  # repro: disable=error-hygiene -- corrupt journal payloads fall back to deterministic re-evaluation by design; nothing to report
            del self._entries[fingerprint]
            return None
        self._restored += 1
        return result

    # --------------------------------------------------------------- record

    def record(self, outcome, store=None) -> None:
        """Journal one finished outcome (successful outcomes only).

        Failed outcomes are *not* journaled — their jobs must re-run on
        resume.  Flushes the store and the journal every
        ``flush_interval`` recorded jobs.
        """
        if not outcome.ok:
            return
        from repro.runtime.resilience import job_fingerprint

        fingerprint = job_fingerprint(outcome.job)
        if fingerprint in self._entries:
            return
        payload = base64.b64encode(
            pickle.dumps(outcome.result, protocol=pickle.HIGHEST_PROTOCOL)
        ).decode("ascii")
        entry: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "job": fingerprint,
            "describe": outcome.job.describe(),
            "attempts": outcome.attempts,
            "result": payload,
        }
        self._entries[fingerprint] = entry
        self._buffer.append(json.dumps(entry, sort_keys=True))
        if len(self._buffer) >= self._flush_interval:
            self.flush(store)

    def flush(self, store=None) -> int:
        """Persist: store first, then the buffered journal lines.

        Returns the number of lines appended.  The ordering is the
        durability contract — the journal never claims a job whose
        evaluations are not already in the persisted store.
        """
        if store is not None:
            store.flush()
        if not self._buffer:
            return 0
        self._path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._path, "a", encoding="utf-8") as journal:
            for line in self._buffer:
                journal.write(line + "\n")
        appended = len(self._buffer)
        self._buffer.clear()
        return appended

    def clear(self) -> None:
        """Discard the journal (fresh-run semantics: nothing to resume)."""
        self._entries.clear()
        self._buffer.clear()
        self._restored = 0
        try:
            self._path.unlink()
        except FileNotFoundError:
            pass
