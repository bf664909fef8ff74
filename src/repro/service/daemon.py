"""The long-lived evaluation daemon: one store, many clients.

:class:`EvaluationDaemon` turns the per-run evaluation runtime into a
shared service.  One process owns one :class:`~repro.runtime.store.
EvaluationStore` (sqlite WAL backend, single writer), one executor
(serial or process pool) and one checkpoint journal, and serves
experiment submissions over a JSON-lines protocol
(:mod:`repro.service.protocol`) on a unix socket or localhost TCP port.

Consistency model — *sequential consistency by construction*:

* all evaluation work runs on **one worker thread** consuming a FIFO
  ticket queue, so every client observes one total order of store
  writes (the single-writer queue the store backend assumes);
* all ticket/daemon state mutations happen on the **asyncio loop
  thread** (the worker posts completions through
  ``loop.call_soon_threadsafe``), so request handlers never race the
  worker;
* compiled operator LUTs are cached process-wide
  (:mod:`repro.operators.compiled`), so they are built once and stay
  warm for every later ticket — the warm-daemon speedup the throughput
  benchmark measures.

In-flight coalescing: tickets are keyed by the spec's *semantic*
fingerprint (:func:`~repro.planner.normalize.semantic_fingerprint`), so
a second submit of the same experiment — identical or merely respelled
(reordered seeds/benchmarks, different runtime or description) —
attaches to the existing ticket instead of re-evaluating.  A respelled
variant whose *exact* fingerprint differs gets its own ticket (its
report must echo its own spec) but replays every evaluation from the
shared store, so the work still happens exactly once.

Graceful drain (SIGTERM/SIGINT or the ``shutdown`` op): new submits are
refused with a one-line error, queued and running tickets finish,
streams see their final events, then store and journal are flushed, the
socket is closed and unlinked, and the daemon exits 0.

Chaos behaviour: the PR-9 fault harness (:mod:`repro.runtime.faults`)
is env-guarded, and the daemon inherits ``REPRO_FAULT_PLAN`` like any
runtime — kill/transient/delay rules fire inside the daemon's pool
workers, the retry layer rebuilds the pool, and a killed *daemon*
resumes from its checkpoint journal on restart (``resume=True``).
``stats()`` reports the active plan so chaos runs are tellable apart.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import queue
import signal
import socket as socket_module
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError, ReproError
from repro.experiments.runner import run_experiment
from repro.experiments.spec import ExperimentSpec, RuntimeSpec
from repro.runtime.faults import FAULT_PLAN_ENV
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    REQUEST_OPS,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
)

__all__ = ["EvaluationDaemon", "format_address"]

#: The ready line printed once the daemon accepts connections; tests and
#: the two-terminal quickstart wait for it.
READY_PREFIX = "repro-axc serve: ready on "


def format_address(socket_path: Optional[str], port: Optional[int]) -> str:
    """The client-facing address string for a daemon endpoint."""
    if socket_path is not None:
        return str(socket_path)
    return f"127.0.0.1:{port}"


class _Ticket:
    """One submitted experiment and everything clients may ask about it."""

    __slots__ = ("id", "spec", "fingerprint", "semantic", "state", "events",
                 "subscribers", "done", "report", "canonical", "error",
                 "attached")

    def __init__(self, ticket_id: str, spec: ExperimentSpec,
                 fingerprint: str, semantic: str) -> None:
        self.id = ticket_id
        self.spec = spec
        self.fingerprint = fingerprint
        self.semantic = semantic
        self.state = "queued"
        self.events: List[Dict[str, object]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.done = asyncio.Event()
        self.report: Optional[Dict[str, object]] = None
        self.canonical: Optional[str] = None
        self.error: Optional[str] = None
        self.attached = 0  # later submits coalesced onto this ticket

    def status_frame(self) -> Dict[str, object]:
        """The poll answer for the ticket's current state."""
        frame = ok_frame(ticket=self.id, state=self.state)
        if self.state == "done":
            frame["report"] = self.report
            frame["canonical"] = self.canonical
        elif self.state == "failed":
            frame["error"] = self.error
        return frame


class EvaluationDaemon:
    """A long-lived evaluation service over one shared store.

    Exactly one of ``socket_path`` (unix domain socket) and ``port``
    (localhost TCP; 0 picks a free port) must be given.  ``runtime``
    governs every ticket; its ``store_path`` is the shared sqlite store
    (``None``: memory only), next to which the daemon journals every job
    (``checkpoint_interval`` 0 counts as 1) for a ``resume=True`` restart.
    """

    def __init__(self, runtime: RuntimeSpec = RuntimeSpec(),
                 socket_path: Optional[str] = None,
                 port: Optional[int] = None) -> None:
        if (socket_path is None) == (port is None):
            raise ConfigurationError(
                "the daemon listens on exactly one endpoint: give either "
                "socket_path (unix socket) or port (localhost TCP)"
            )
        if port is not None and (not isinstance(port, int)
                                 or isinstance(port, bool)
                                 or not 0 <= port <= 65535):
            raise ConfigurationError(
                f"daemon port must be an integer in [0, 65535], got {port!r}"
            )
        self._socket_path = None if socket_path is None else str(socket_path)
        self._requested_port = port
        self.port: Optional[int] = None  # resolved once listening
        # Ticket specs are re-homed onto the daemon's runtime (same
        # fingerprint, same results).
        if runtime.store_path is not None and not runtime.checkpoint_interval:
            runtime = dataclasses.replace(runtime, checkpoint_interval=1)
        self._runtime = runtime
        self._store = self._runtime.build_store()
        self._executor = self._runtime.build_executor()
        self._checkpoint = self._runtime.build_checkpoint()
        self._started_monotonic = time.monotonic()

        self._tickets: Dict[str, _Ticket] = {}
        self._by_key: Dict[Tuple[str, str], str] = {}  # (semantic, exact) -> id
        self._submitted = 0
        self._coalesced = 0
        self._queue: "queue.Queue[Optional[_Ticket]]" = queue.Queue()
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drained: Optional[asyncio.Event] = None
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> str:
        return format_address(self._socket_path, self.port)

    def serve(self) -> int:
        """Run the daemon until drained; returns the process exit status."""
        asyncio.run(self._main())
        return 0

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="evaluation-worker", daemon=True)
        self._worker.start()
        if self._socket_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self._socket_path,
                limit=MAX_FRAME_BYTES + 2)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host="127.0.0.1",
                port=self._requested_port, limit=MAX_FRAME_BYTES + 2)
            self.port = self._server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self._begin_drain)
        restored = ("" if self._checkpoint is None or not self._checkpoint.restored
                    else f" ({self._checkpoint.restored} journaled job(s) restorable)")
        print(f"{READY_PREFIX}{self.address} "
              f"[store={'memory' if self._store.path is None else self._store.path}, "
              f"executor={type(self._executor).__name__}]{restored}", flush=True)
        try:
            await self._drained.wait()
        finally:
            # Everything accepted has finished (the drain task joined the
            # worker); make it durable before the socket disappears.
            self._server.close()
            await self._server.wait_closed()
            self._store.flush()
            if self._checkpoint is not None:
                self._checkpoint.flush(self._store)
            if self._socket_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(self._socket_path)
            print(f"repro-axc serve: drained after {self._submitted} "
                  f"submission(s) ({self._coalesced} coalesced)", flush=True)

    def _begin_drain(self) -> None:
        """Refuse new work, finish the accepted queue, then exit.

        The sentinel enters the FIFO queue *now*, so every already-accepted
        ticket runs before the worker stops; clients can keep polling and
        streaming their in-flight tickets until then (the listening socket
        only closes once the worker has joined).
        """
        if self._draining:
            return
        self._draining = True
        print("repro-axc serve: draining (no new work accepted)", flush=True)
        self._queue.put(None)
        assert self._loop is not None
        self._loop.create_task(self._finish_drain())

    async def _finish_drain(self) -> None:
        await asyncio.to_thread(self._worker.join)
        assert self._drained is not None
        self._drained.set()

    # --------------------------------------------------------------- worker

    def _worker_loop(self) -> None:
        """The single evaluation thread: one ticket at a time, FIFO."""
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            self._post(self._note_running, ticket)
            try:
                spec = ticket.spec.with_runtime(self._runtime)
                counter = {"n": 0}

                def on_outcome(outcome, _ticket=ticket, _counter=counter):
                    _counter["n"] += 1
                    event = {
                        "event": "outcome",
                        "index": _counter["n"],
                        "ok": bool(outcome.ok),
                        "describe": outcome.job.describe(),
                    }
                    self._post(self._publish_event, _ticket, event)

                report = run_experiment(
                    spec, executor=self._executor, store=self._store,
                    checkpoint=self._checkpoint, on_outcome=on_outcome,
                )
                # Serialize on the worker thread: summaries and canonical
                # JSON are the expensive part and must not block the loop.
                payload = report.to_dict()
                canonical = report.canonical_json()
            except ReproError as exc:
                message = f"{type(exc).__name__}: {exc}".splitlines()[0]
                self._post(self._note_failed, ticket, message)
            else:
                self._post(self._note_done, ticket, payload, canonical)

    def _post(self, fn, *args) -> None:
        """Hand a state mutation to the loop thread (the only mutator)."""
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    # ---------------------------------------- ticket state (loop thread only)

    def _publish_event(self, ticket: _Ticket, event: Dict[str, object]) -> None:
        ticket.events.append(event)
        for subscriber in ticket.subscribers:
            subscriber.put_nowait(event)

    def _note_running(self, ticket: _Ticket) -> None:
        ticket.state = "running"
        self._publish_event(ticket, {"event": "state", "state": "running"})

    def _note_done(self, ticket: _Ticket, payload: Dict[str, object],
                   canonical: str) -> None:
        ticket.report = payload
        ticket.canonical = canonical
        ticket.state = "done"
        self._publish_event(ticket, {"event": "state", "state": "done"})
        ticket.done.set()

    def _note_failed(self, ticket: _Ticket, message: str) -> None:
        ticket.error = message
        ticket.state = "failed"
        self._publish_event(ticket,
                            {"event": "state", "state": "failed",
                             "error": message})
        ticket.done.set()

    # ------------------------------------------------------------- requests

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One connection, one request (a ``stream`` answer is many frames)."""
        try:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                raise ProtocolError(
                    f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"
                ) from None
            if not line:
                return  # connected and left; nothing to answer
            if not line.endswith(b"\n"):
                raise ProtocolError("truncated frame: connection closed mid-line")
            request = decode_frame(line)
            await self._dispatch(request, writer)
        except ProtocolError as exc:
            self._safe_write(writer, error_frame(f"protocol error: {exc}"))
        except ConfigurationError as exc:
            self._safe_write(writer, error_frame(str(exc)))
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    def _safe_write(self, writer: asyncio.StreamWriter,
                    frame: Dict[str, object]) -> None:
        with contextlib.suppress(ConnectionError, ProtocolError):
            writer.write(encode_frame(frame))

    async def _dispatch(self, request: Dict[str, object],
                        writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op not in REQUEST_OPS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {list(REQUEST_OPS)}"
            )
        if op == "submit":
            self._safe_write(writer, self._op_submit(request))
        elif op == "poll":
            self._safe_write(writer, await self._op_poll(request))
        elif op == "stream":
            await self._op_stream(request, writer)
        elif op == "stats":
            self._safe_write(writer, ok_frame(stats=self._stats()))
        else:  # shutdown
            self._safe_write(writer, ok_frame(draining=True))
            await writer.drain()
            self._begin_drain()

    def _op_submit(self, request: Dict[str, object]) -> Dict[str, object]:
        if self._draining:
            return error_frame(
                "daemon is draining and accepts no new work; retry against "
                "a fresh daemon"
            )
        if "spec" not in request:
            raise ProtocolError("submit requires a 'spec' field")
        spec = ExperimentSpec.from_dict(request["spec"])
        from repro.planner.normalize import semantic_fingerprint

        semantic = semantic_fingerprint(spec)
        exact = spec.fingerprint()
        self._submitted += 1
        known = self._by_key.get((semantic, exact))
        if known is not None:
            ticket = self._tickets[known]
            ticket.attached += 1
            self._coalesced += 1
            return ok_frame(ticket=ticket.id, state=ticket.state,
                            coalesced=True, fingerprint=exact,
                            semantic=semantic)
        # Respelled variants of an in-flight experiment (same semantics,
        # different exact fingerprint) need their own report document, so
        # they get a distinct ticket id; their evaluations still coalesce
        # through the shared store.
        ticket_id = (semantic if semantic not in self._tickets
                     else f"{semantic}.{exact}")
        ticket = _Ticket(ticket_id, spec, exact, semantic)
        self._tickets[ticket_id] = ticket
        self._by_key[(semantic, exact)] = ticket_id
        self._queue.put(ticket)
        return ok_frame(ticket=ticket.id, state=ticket.state, coalesced=False,
                        fingerprint=exact, semantic=semantic)

    def _require_ticket(self, request: Dict[str, object]) -> _Ticket:
        ticket_id = request.get("ticket")
        if not isinstance(ticket_id, str) or not ticket_id:
            raise ProtocolError("a ticket id (string) is required")
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            raise ConfigurationError(f"unknown ticket {ticket_id!r}")
        return ticket

    async def _op_poll(self, request: Dict[str, object]) -> Dict[str, object]:
        ticket = self._require_ticket(request)
        wait = request.get("wait", 0)
        if not isinstance(wait, (int, float)) or isinstance(wait, bool) or wait < 0:
            raise ProtocolError(
                f"poll 'wait' must be a non-negative number, got {wait!r}"
            )
        if wait and not ticket.done.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.shield(ticket.done.wait()), timeout=float(wait))
        return ticket.status_frame()

    async def _op_stream(self, request: Dict[str, object],
                         writer: asyncio.StreamWriter) -> None:
        """Replay the ticket's event history, then follow it to its end."""
        ticket = self._require_ticket(request)
        subscriber: asyncio.Queue = asyncio.Queue()
        backlog = list(ticket.events)
        live = not ticket.done.is_set()
        if live:
            ticket.subscribers.append(subscriber)
        try:
            for event in backlog:
                self._safe_write(writer, ok_frame(**event))
            if live:
                while True:
                    event = await subscriber.get()
                    self._safe_write(writer, ok_frame(**event))
                    if event.get("event") == "state" and event.get("state") in (
                            "done", "failed"):
                        break
            self._safe_write(writer, ticket.status_frame())
            await writer.drain()
        finally:
            if live:
                with contextlib.suppress(ValueError):
                    ticket.subscribers.remove(subscriber)

    # ---------------------------------------------------------------- stats

    def _stats(self) -> Dict[str, object]:
        states = {state: 0 for state in ("queued", "running", "done", "failed")}
        for ticket in self._tickets.values():
            states[ticket.state] += 1
        stats = self._store.stats
        lifetime = self._store.lifetime_stats
        checkpoint = None
        if self._checkpoint is not None:
            checkpoint = {"entries": len(self._checkpoint),
                          "restored": self._checkpoint.restored}
        return {
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "python": sys.version.split()[0],
            "address": self.address,
            "hostname": socket_module.gethostname(),
            "uptime_s": time.monotonic() - self._started_monotonic,
            "draining": self._draining,
            "executor": type(self._executor).__name__,
            "jobs": self._runtime.jobs,
            "submitted": self._submitted,
            "coalesced": self._coalesced,
            "tickets": states,
            "store": {
                "path": None if self._store.path is None else str(self._store.path),
                "size": len(self._store),
                "hits": stats.hits,
                "misses": stats.misses,
                "lookups": stats.lookups,
            },
            "lifetime": {
                "hits": lifetime.hits,
                "misses": lifetime.misses,
                "lookups": lifetime.lookups,
            },
            "checkpoint": checkpoint,
            "fault_plan": os.environ.get(FAULT_PLAN_ENV),  # repro: disable=determinism -- observability: stats reports which fault plan the daemon inherited; results never depend on it
        }
