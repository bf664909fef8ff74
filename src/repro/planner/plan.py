"""The plan IR: fingerprinted work units and the node DAG built over them.

A plan decomposes a batch of experiments into *work units* — the smallest
pieces of computation whose results the evaluation store can answer:

* :class:`ExplorationUnit` — one (benchmark, agent, seed) exploration with
  its step budget and thresholds.  Identity deliberately excludes the
  benchmark/agent *labels*: relabelling never changes what is computed, so
  two specs spelling the same exploration differently collide on one unit.
* :class:`SweepChunkUnit` — the exhaustive sweep of one evaluation
  context's whole design space.  Two sweep specs over one context share
  one unit.

Units are wired into three node kinds — :class:`EvaluateJobs` (run jobs on
an executor), :class:`ReplayFromStore` (re-run the same deterministic code
serially against a warm store: every design-point evaluation becomes a
store hit), and :class:`MergeReports` (assemble one spec's
:class:`~repro.experiments.report.ExperimentReport` from shared unit
results, re-attaching the spec's own labels) — with explicit dependency
edges.  Everything is a frozen dataclass with a content
:meth:`fingerprint`, so a plan is deterministic given (specs, store
contents) and auditable via :meth:`ExperimentPlan.explain`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "ExplorationUnit",
    "SweepChunkUnit",
    "PlanUnit",
    "EntryBinding",
    "PlanNode",
    "EvaluateJobs",
    "ReplayFromStore",
    "MergeReports",
    "ExperimentPlan",
    "canonical_json",
]


def canonical_json(value: object) -> str:
    """The canonical (sorted-key, separator-free) JSON used in unit identity."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _digest(parts: Tuple[str, ...]) -> str:
    return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------- work units


@dataclass(frozen=True)
class ExplorationUnit:
    """One deduplicated exploration: what is computed, minus how it is named.

    ``benchmark_params``, ``agent_options`` and ``thresholds`` are canonical
    JSON strings (see :func:`canonical_json`) so the unit stays hashable and
    its fingerprint stays stable.  The identity covers every field that can
    change the exploration's result; labels and executors are excluded by
    construction.
    """

    benchmark_name: str
    benchmark_params: str
    benchmark_fingerprint: str
    catalog_fingerprint: str
    space_size: int
    agent_name: str
    agent_options: str
    seed: int
    max_steps: int
    thresholds: str

    @property
    def context(self) -> Tuple[str, str, int, bool]:
        """The store context every evaluation of this unit lands under."""
        return (self.benchmark_fingerprint, self.catalog_fingerprint,
                self.seed, False)

    def fingerprint(self) -> str:
        return _digest((
            "exploration", self.benchmark_fingerprint, self.catalog_fingerprint,
            self.agent_name, self.agent_options, str(self.seed),
            str(self.max_steps), self.thresholds,
        ))

    def describe(self) -> str:
        return (f"{self.benchmark_name}[seed={self.seed}, "
                f"agent={self.agent_name}, steps={self.max_steps}]")


@dataclass(frozen=True)
class SweepChunkUnit:
    """The exhaustive sweep of one evaluation context (benchmark, catalog, seed)."""

    benchmark_name: str
    benchmark_params: str
    benchmark_fingerprint: str
    catalog_fingerprint: str
    space_size: int
    seed: int

    @property
    def context(self) -> Tuple[str, str, int, bool]:
        """The store context every evaluation of this sweep lands under."""
        return (self.benchmark_fingerprint, self.catalog_fingerprint,
                self.seed, False)

    def fingerprint(self) -> str:
        return _digest(("sweep", self.benchmark_fingerprint,
                        self.catalog_fingerprint, str(self.seed)))

    def describe(self) -> str:
        return f"{self.benchmark_name}[sweep, seed={self.seed}]"


PlanUnit = Union[ExplorationUnit, SweepChunkUnit]


# -------------------------------------------------------------- node classes


@dataclass(frozen=True)
class EntryBinding:
    """How one report entry of a spec maps onto shared work units.

    ``kind`` is ``"exploration"`` or ``"sweep"``; either way the entry is
    one unit, with the spec's own labels re-attached at merge time.
    """

    kind: str
    benchmark_label: str
    benchmark_name: str
    seed: int
    unit_fingerprints: Tuple[str, ...]
    agent_name: str = ""
    agent_label: str = ""

    def signature(self) -> str:
        return canonical_json([
            self.kind, self.benchmark_label, self.benchmark_name, self.seed,
            self.agent_name, self.agent_label, list(self.unit_fingerprints),
        ])


@dataclass(frozen=True)
class PlanNode:
    """Base of every plan node: a stable id plus explicit dependencies.

    ``depends_on`` names nodes whose execution must complete first; the
    planner emits nodes in a valid topological order, so executing
    :attr:`ExperimentPlan.nodes` front to back always respects the edges.
    """

    node_id: str
    depends_on: Tuple[str, ...]

    def fingerprint(self) -> str:  # overridden by every concrete node
        raise NotImplementedError

    def _base_parts(self) -> Tuple[str, ...]:
        return (type(self).__name__, self.node_id) + tuple(self.depends_on)


@dataclass(frozen=True)
class EvaluateJobs(PlanNode):
    """Run these units' jobs on the plan's executor (the paid work)."""

    units: Tuple[PlanUnit, ...]
    reason: str

    def fingerprint(self) -> str:
        return _digest(self._base_parts()
                       + tuple(unit.fingerprint() for unit in self.units))

    def describe(self) -> str:
        return f"evaluate {len(self.units)} unit(s): {self.reason}"


@dataclass(frozen=True)
class ReplayFromStore(PlanNode):
    """Re-run these units serially against the warm store (all lookups hit).

    Replay executes the *same* deterministic job code as evaluation — the
    step loops still run — so results are bit-identical by construction;
    the store answers every design-point evaluation, which is where all the
    kernel-execution cost lives.
    """

    units: Tuple[PlanUnit, ...]
    reason: str

    def fingerprint(self) -> str:
        return _digest(self._base_parts()
                       + tuple(unit.fingerprint() for unit in self.units))

    def describe(self) -> str:
        return f"replay {len(self.units)} unit(s): {self.reason}"


@dataclass(frozen=True)
class MergeReports(PlanNode):
    """Assemble one spec's report from the shared unit results."""

    spec_fingerprint: str
    spec_kind: str
    bindings: Tuple[EntryBinding, ...]

    def fingerprint(self) -> str:
        return _digest(self._base_parts() + (self.spec_fingerprint, self.spec_kind)
                       + tuple(binding.signature() for binding in self.bindings))

    def describe(self) -> str:
        return (f"merge {self.spec_kind} {self.spec_fingerprint} "
                f"({len(self.bindings)} entr{'y' if len(self.bindings) == 1 else 'ies'})")


# ----------------------------------------------------------------- the plan


@dataclass(frozen=True)
class ExperimentPlan:
    """The deterministic job DAG answering a batch of experiment specs.

    ``specs`` is the deduplicated batch (one spec per distinct exact
    fingerprint, in first-seen order); ``nodes`` is a valid topological
    order of the DAG; ``units`` maps unit fingerprints to the shared
    :data:`PlanUnit` objects the nodes refer to.  ``store_records`` /
    ``store_path`` describe the store the plan was computed against —
    informational only, the plan never mutates the store.
    """

    specs: Tuple[ExperimentSpec, ...]
    nodes: Tuple[PlanNode, ...]
    units: Mapping[str, PlanUnit]
    store_records: int
    store_path: Optional[str]
    _node_index: Mapping[str, PlanNode] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "units", dict(self.units))
        object.__setattr__(self, "_node_index",
                           {node.node_id: node for node in self.nodes})
        for node in self.nodes:
            for dependency in node.depends_on:
                if dependency not in self._node_index:
                    raise ConfigurationError(
                        f"plan node {node.node_id} depends on unknown node "
                        f"{dependency!r}"
                    )

    # ------------------------------------------------------------ inspection

    def node(self, node_id: str) -> PlanNode:
        try:
            return self._node_index[node_id]
        except KeyError:
            raise ConfigurationError(f"plan has no node {node_id!r}") from None

    @property
    def evaluate_nodes(self) -> Tuple[EvaluateJobs, ...]:
        return tuple(n for n in self.nodes if isinstance(n, EvaluateJobs))

    @property
    def replay_nodes(self) -> Tuple[ReplayFromStore, ...]:
        return tuple(n for n in self.nodes if isinstance(n, ReplayFromStore))

    @property
    def merge_nodes(self) -> Tuple[MergeReports, ...]:
        return tuple(n for n in self.nodes if isinstance(n, MergeReports))

    @property
    def evaluated_units(self) -> int:
        return sum(len(n.units) for n in self.evaluate_nodes)

    @property
    def replayed_units(self) -> int:
        return sum(len(n.units) for n in self.replay_nodes)

    def fingerprint(self) -> str:
        return _digest(tuple(node.fingerprint() for node in self.nodes))

    # ------------------------------------------------------------- rendering

    def summary(self) -> str:
        """One line: how much of the batch the store already answers."""
        total = self.evaluated_units + self.replayed_units
        return (f"plan {self.fingerprint()}: {len(self.specs)} spec(s) -> "
                f"{total} unit(s), {self.replayed_units} answered by the store, "
                f"{self.evaluated_units} to evaluate")

    def explain(self) -> str:
        """Human-readable rendering: what is reused vs. actually run."""
        lines = [self.summary(),
                 f"  store: {self.store_records} cached evaluation(s)"
                 + (f" at {self.store_path}" if self.store_path else " (in-memory)")]
        for node in self.nodes:
            after = f"  [after {', '.join(node.depends_on)}]" if node.depends_on else ""
            lines.append(f"  {node.node_id:>4}  {node.describe()}{after}")
            if isinstance(node, (EvaluateJobs, ReplayFromStore)):
                for unit in node.units:
                    lines.append(f"          - {unit.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The serializable form (``--format json`` of ``repro-axc plan``)."""
        from dataclasses import asdict

        nodes: List[Dict[str, object]] = []
        for node in self.nodes:
            payload: Dict[str, object] = {
                "kind": type(node).__name__,
                "node_id": node.node_id,
                "depends_on": list(node.depends_on),
                "fingerprint": node.fingerprint(),
            }
            if isinstance(node, (EvaluateJobs, ReplayFromStore)):
                payload["units"] = [unit.fingerprint() for unit in node.units]
                payload["reason"] = node.reason
            else:
                payload["spec_fingerprint"] = node.spec_fingerprint
                payload["spec_kind"] = node.spec_kind
                payload["bindings"] = [asdict(binding) for binding in node.bindings]
            nodes.append(payload)
        return {
            "fingerprint": self.fingerprint(),
            "specs": [spec.fingerprint() for spec in self.specs],
            "store": {"records": self.store_records, "path": self.store_path},
            "units": {
                fingerprint: dict(asdict(unit), kind=type(unit).__name__)
                for fingerprint, unit in sorted(self.units.items())
            },
            "nodes": nodes,
        }
