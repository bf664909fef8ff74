"""Span tracer, hook table and per-layer ledger for the traced benchmark runs.

The program under test carries no tracing of its own yet, so the benchmark
wraps each layer's public functions from the outside: every hook names its
target as ``"module:Qualified.name"`` and is patched where callers look it
up (a module global, or the class attribute a method call resolves to).
A target that no longer exists makes its layer *absent*: the run goes on
and the layer's metrics are reported as absent, never as zero.

Spans
    A ``keep`` hook records one span per call: layer name, start, end, the
    nearest kept ancestor (possibly in another process) and a request id.
    An ``aggregate`` hook (per-step work: env steps, agent updates, store
    lookups) keeps no span; its self time is folded into the nearest kept
    ancestor.  An ``event`` hook records a timestamp only.

Processes
    Pool workers are forked and inherit the hooks.  Their spans are written
    per worker pid after every job and merged by the parent; a worker's
    root span names the parent-side span it ran under as its parent.  The
    daemon installs the hooks through ``daemon_driver.py`` and dumps its
    spans when it has drained.

Ledger
    A span's self time is its interval minus its children's intervals
    (same-thread children, and remote children from pool workers).  Where
    self intervals of different threads or processes overlap, each instant
    is shared equally among them, so the layer times add up to the wall
    time of the traced window; ``other_s`` is the part no span covers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

KEEP = "keep"
AGGREGATE = "aggregate"
EVENT = "event"

_clock = time.monotonic_ns


class _Frame:
    """One active hooked call on the current thread (or task)."""

    __slots__ = ("parent", "layer", "anchor", "span_ref", "child_ns", "agg",
                 "request")

    def __init__(self, parent, layer, anchor, span_ref, request):
        self.parent = parent
        self.layer = layer
        self.anchor = anchor        # nearest kept frame (self when kept)
        self.span_ref = span_ref    # (pid, index) when this frame is kept
        self.child_ns = 0
        self.agg: Optional[Dict[str, int]] = {} if span_ref is not None else None
        self.request = request


_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame",
                                                          default=None)


# ------------------------------------------------------------------ the tracer


class Tracer:
    """Spans, exact counters and events of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.root_pid = self.pid
        self.spans: List[Optional[tuple]] = []
        self.base = 0   # index of spans[0]; grows as workers export
        self.counters: Dict[str, float] = {}
        self.events: List[tuple] = []
        self.missing: List[str] = []
        self.absent_layers: set = set()
        self.default_request = "setup"
        self.export_dir: Optional[str] = None
        self.tickets: Dict[str, str] = {}   # daemon ticket id -> fingerprint
        self.lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    @property
    def is_worker(self) -> bool:
        return self.pid != self.root_pid

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.events = []
        self.lock = threading.Lock()

    def count(self, name: str, value: float = 1) -> None:
        # No lock: each counter is only ever updated from one thread.
        counters = self.counters
        counters[name] = counters.get(name, 0) + value

    def event(self, name: str, *fields: object) -> None:
        self.events.append((name, _clock()) + fields)

    # ------------------------------------------------------------- install

    def install(self, hooks: Sequence["Hook"]) -> None:
        """Patch every hook target that exists; note the layers that do not."""
        wrappers: Dict[int, object] = {}
        for hook in hooks:
            resolved = _resolve(hook.target)
            if resolved is None:
                self.missing.append(hook.target)
                self.absent_layers.add(hook.layer.split(".")[0])
                continue
            owner, attr, raw = resolved
            if getattr(getattr(raw, "__func__", raw), "__perfbench_hook__", None):
                continue  # already patched: bound to a wrapper at import time
            function = raw
            kind = None
            if isinstance(raw, staticmethod):
                function, kind = raw.__func__, staticmethod
            elif isinstance(raw, classmethod):
                function, kind = raw.__func__, classmethod
            # One wrapper per function object, shared by every site that
            # looks the same function up under another name.
            wrapper = wrappers.get(id(function))
            if wrapper is None:
                wrapper = _make_wrapper(self, hook, function)
                wrappers[id(function)] = wrapper
            wrapper.__perfbench_hook__ = hook.target
            patched = kind(wrapper) if kind is not None else wrapper
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -------------------------------------------------------------- export

    def snapshot(self) -> Dict[str, object]:
        return {"pid": self.pid, "base": self.base, "spans": list(self.spans),
                "counters": dict(self.counters), "events": list(self.events),
                "missing": list(self.missing), "absent": sorted(self.absent_layers)}

    def export_worker(self) -> None:
        """Append this worker's spans and counters to its per-pid file."""
        if self.export_dir is None:
            return
        payload = self.snapshot()
        self.base += len(self.spans)
        self.spans = []
        self.counters = {}
        self.events = []
        path = os.path.join(self.export_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)


def load_worker_exports(directory: str) -> List[Dict[str, object]]:
    """Every record the pool workers wrote under ``directory``."""
    records = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
    return records


def _resolve(target: str) -> Optional[Tuple[object, str, object]]:
    """(owner, attribute, raw attribute value) for ``module:Qual.name``."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    if isinstance(owner, type):
        # The class attribute a method call resolves to, seen through the
        # MRO, patched on the class that defines it.
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


# ---------------------------------------------------------------------- hooks


class Hook:
    """One patched function: its target, layer and what it records."""

    __slots__ = ("target", "layer", "mode", "request", "request_out",
                 "on_enter", "on_exit")

    def __init__(self, target: str, layer: str, mode: str = KEEP,
                 request: Optional[Callable] = None,
                 request_out: Optional[Callable] = None,
                 on_enter: Optional[Callable] = None,
                 on_exit: Optional[Callable] = None) -> None:
        self.target = target
        self.layer = layer
        self.mode = mode
        self.request = request          # (args, kwargs) -> id or None
        self.request_out = request_out  # (args, kwargs, result) -> id or None
        self.on_enter = on_enter        # (tracer, frame, args, kwargs)
        self.on_exit = on_exit          # (tracer, args, kwargs, result)


def _make_wrapper(tracer: Tracer, hook: Hook, function: Callable) -> Callable:
    layer = hook.layer
    mode = hook.mode
    request_in = hook.request
    request_out = hook.request_out
    on_enter = hook.on_enter
    on_exit = hook.on_exit

    if mode == EVENT:
        @functools.wraps(function)
        def event_wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            if on_exit is not None:
                on_exit(tracer, args, kwargs, result)
            return result
        return event_wrapper

    get_current, set_current, reset_current = _CURRENT.get, _CURRENT.set, _CURRENT.reset

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        parent = get_current()
        anchor = parent.anchor if parent is not None else None
        request = parent.request if parent is not None else tracer.default_request
        if request_in is not None:
            request = request_in(args, kwargs) or request
        if mode == KEEP or anchor is None:
            with tracer.lock:
                tracer.spans.append(None)
                index = tracer.base + len(tracer.spans) - 1
            frame = _Frame(parent, layer, None, (tracer.pid, index), request)
            frame.anchor = frame
        else:
            index = None
            frame = _Frame(parent, layer, anchor, None, request)
        if on_enter is not None:
            on_enter(tracer, frame, args, kwargs)
        token = set_current(frame)
        start = _clock()
        ok = False
        try:
            result = function(*args, **kwargs)
            ok = True
        finally:
            end = _clock()
            reset_current(token)
            duration = end - start
            if parent is not None:
                parent.child_ns += duration
            if ok and request_out is not None:
                frame.request = request_out(args, kwargs, result) or frame.request
            if index is not None:
                parent_ref = anchor.span_ref if anchor is not None else None
                tracer.spans[index - tracer.base] = (
                    layer, start, end, parent_ref, frame.request,
                    threading.get_ident(), frame.agg)
            else:
                agg = anchor.agg
                agg[layer] = agg.get(layer, 0) + duration - frame.child_ns
        if on_exit is not None:
            on_exit(tracer, args, kwargs, result)
        if (index is not None and anchor is not None
                and anchor.span_ref[0] != tracer.pid):
            # A pool worker's root span ended: ship what the job recorded.
            tracer.export_worker()
        return result

    if mode != AGGREGATE:
        return wrapper

    @functools.wraps(function)
    def aggregate_wrapper(*args, **kwargs):
        # The per-step fast path: no span, self time folded into the anchor.
        parent = get_current()
        if parent is None:
            return wrapper(*args, **kwargs)
        frame = _Frame(parent, layer, parent.anchor, None, parent.request)
        token = set_current(frame)
        start = _clock()
        try:
            result = function(*args, **kwargs)
        finally:
            duration = _clock() - start
            reset_current(token)
            parent.child_ns += duration
            agg = frame.anchor.agg
            agg[layer] = agg.get(layer, 0) + duration - frame.child_ns
        if on_exit is not None:
            on_exit(tracer, args, kwargs, result)
        return result

    return aggregate_wrapper


# ---------------------------------------------------------------- the ledger


def _subtract(start: int, end: int, holes: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """``[start, end)`` minus the union of ``holes``."""
    pieces = []
    cursor = start
    for hole_start, hole_end in sorted(holes):
        if hole_end <= cursor:
            continue
        if hole_start >= end:
            break
        if hole_start > cursor:
            pieces.append((cursor, hole_start))
        cursor = max(cursor, hole_end)
        if cursor >= end:
            break
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def attribute(records: Sequence[Dict[str, object]],
              windows: Sequence[Tuple[int, int]]) -> Tuple[Dict[str, float], float]:
    """Wall time per layer inside ``windows`` (disjoint, ns); (layers, wall).

    ``records`` are tracer snapshots (the local process, its pool workers,
    or a daemon).  Self intervals that overlap across threads or processes
    share each instant equally, so ``sum(layers) <= wall``.
    """
    spans: Dict[Tuple[int, int], tuple] = {}
    for record in records:
        pid, base = record["pid"], record["base"]
        for index, span in enumerate(record["spans"]):
            if span is not None:
                spans[(pid, base + index)] = tuple(span)
    children: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for span in spans.values():
        parent = span[3]
        if parent is not None and tuple(parent) in spans:
            children.setdefault(tuple(parent), []).append((span[1], span[2]))

    boundaries: List[Tuple[int, int, Tuple[int, int]]] = []
    shares: Dict[Tuple[int, int], Dict[str, float]] = {}
    for key, span in spans.items():
        layer, start, end = span[0], span[1], span[2]
        holes = children.get(key, [])
        full = _subtract(start, end, holes)
        full_ns = sum(b - a for a, b in full)
        agg = span[6] or {}
        if full_ns <= 0:
            continue
        fractions = {name: value / full_ns for name, value in agg.items()}
        fractions[layer] = fractions.get(layer, 0.0) + max(
            0.0, 1.0 - sum(value for value in agg.values()) / full_ns)
        shares[key] = fractions
        for a, b in full:
            for lo, hi in windows:
                piece_start, piece_end = max(a, lo), min(b, hi)
                if piece_start < piece_end:
                    boundaries.append((piece_start, 1, key))
                    boundaries.append((piece_end, -1, key))

    boundaries.sort(key=lambda item: (item[0], item[1]))
    attributed: Dict[Tuple[int, int], float] = {}
    active: Dict[Tuple[int, int], int] = {}
    previous = None
    for instant, delta, key in boundaries:
        if previous is not None and active and instant > previous:
            share = (instant - previous) / len(active)
            for member in active:
                attributed[member] = attributed.get(member, 0.0) + share
        previous = instant
        if delta > 0:
            active[key] = active.get(key, 0) + 1
        else:
            active[key] -= 1
            if not active[key]:
                del active[key]

    layers: Dict[str, float] = {}
    for key, amount in attributed.items():
        for name, fraction in shares[key].items():
            layers[name] = layers.get(name, 0.0) + amount * fraction
    return layers, float(sum(hi - lo for lo, hi in windows))


def merged_counters(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for record in records:
        for name, value in record["counters"].items():
            totals[name] = totals.get(name, 0) + value
    return totals


def span_requests(records: Sequence[Dict[str, object]]) -> List[object]:
    """The request id of every span (the ledger tests check none is missing)."""
    return [span[4] for record in records for span in record["spans"]
            if span is not None]
