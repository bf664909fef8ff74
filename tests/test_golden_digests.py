"""Golden digests: results checked against bytes recorded once.

Every other identity test in the suite is relative: serial equals process,
batched equals serial, warm equals cold, resumed equals uninterrupted.  A
change that moves both sides of such a pair (a new draw order in both
engines, a new reward constant) passes all of them.  This module compares
what the program produces with recorded values instead:

* the sha256 of :meth:`~repro.experiments.report.ExperimentReport.canonical_json`
  for a fixed corpus of small specs: every kind, every registered agent
  family, derived and explicit thresholds, several benchmarks and seeds,
  multi-seed RL campaigns and single-seed runs, plus the four
  ``examples/experiment_*.json`` documents shrunk to small budgets;
* for every spec of those that explores (kind explore, compare or
  campaign), a ``trace/<name>`` sha256 over each entry's trace in report
  order: the per-step columns, the point table and the episode's end.  The
  canonical report holds only summaries (solution, feasible fraction,
  front), so a change to the rewards or to the path an episode takes on
  the way to the same solution moves only this digest;
* the sha256 of every file ``repro-axc paper --smoke`` writes;
* for every registered benchmark at its defaults, plus ``matmul_50x50`` and
  ``fir_200``, a ``records/<name>`` sha256 over every record of a cold
  ``Evaluator(benchmark, seed=0).evaluate_index_range(0, size)``: the point
  key, the three deltas and both ``RunCost`` floats as ``float.hex``, and
  the operation count.  A sweep's canonical bytes hold only its front, so
  this is what catches a kernel change that moves a non-front record.

The recorded values live in ``tests/fixtures/golden_digests.json``.  A
change that moves a digest on purpose rewrites the file with::

    PYTHONPATH=src python tests/test_golden_digests.py --write

and names the digests it moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_digests.json"

_PAPER_PREFIX = "paper-smoke/"
_TRACE_PREFIX = "trace/"
_RECORD_PREFIX = "records/"

#: Spec kinds whose entries carry an exploration trace.
_TRACED_KINDS = ("explore", "compare", "campaign")

_ALL_FAMILIES = [
    "q-learning",
    "sarsa",
    "random",
    "hill-climbing",
    "simulated-annealing",
    {"name": "genetic", "hyperparams": {"population_size": 6, "generations": 8}},
    "exhaustive",
]

_FIR_EXPLICIT = {"accuracy": 1000.0, "power_mw": 5000.0, "time_ns": 3000.0}
_DOT_EXPLICIT = {"accuracy": 3000.0, "power_mw": 60.0, "time_ns": 30.0}

#: The spec corpus, by name.  Names appear in failure messages.
CORPUS: Dict[str, Dict[str, object]] = {
    "explore-matmul_10x10-q-learning-seed0": {
        "kind": "explore", "benchmarks": ["matmul_10x10"],
        "agents": ["q-learning"], "seeds": [0], "max_steps": 300,
    },
    "explore-fir_100-sarsa-seed1-explicit": {
        "kind": "explore", "benchmarks": ["fir_100"],
        "agents": ["sarsa"], "seeds": [1], "max_steps": 300,
        "thresholds": _FIR_EXPLICIT,
    },
    "explore-dotproduct-random-seed2": {
        "kind": "explore", "benchmarks": ["dotproduct:length=16"],
        "agents": ["random"], "seeds": [2], "max_steps": 200,
    },
    "compare-dotproduct-every-family-seed0": {
        "kind": "compare", "benchmarks": ["dotproduct:length=16"],
        "agents": _ALL_FAMILIES, "seeds": [0], "max_steps": 120,
    },
    "compare-fir_100-every-family-seed1-explicit": {
        "kind": "compare", "benchmarks": ["fir_100"],
        "agents": _ALL_FAMILIES, "seeds": [1], "max_steps": 120,
        "thresholds": _FIR_EXPLICIT,
    },
    "campaign-rl-two-benchmarks-seeds01": {
        "kind": "campaign", "benchmarks": ["matmul_10x10", "fir_100"],
        "agents": ["q-learning", "sarsa", "random"], "seeds": [0, 1],
        "max_steps": 250,
    },
    "campaign-rl-hyperparams-seeds234": {
        "kind": "campaign", "benchmarks": ["dotproduct:length=16"],
        "agents": [
            {"name": "q-learning", "label": "q-greedy",
             "hyperparams": {"epsilon": 0.2, "learning_rate": 0.5, "discount": 0.8}},
            {"name": "sarsa", "hyperparams": {"seed": 7}},
            {"name": "random", "hyperparams": {"seed": 11}},
        ],
        "seeds": [2, 3, 4], "max_steps": 200,
    },
    "campaign-rl-single-seed3": {
        "kind": "campaign", "benchmarks": ["matmul_10x10", "fir_100"],
        "agents": ["q-learning", "sarsa", "random"], "seeds": [3],
        "max_steps": 250,
    },
    "campaign-mixed-explicit-seeds01": {
        "kind": "campaign", "benchmarks": ["dotproduct:length=16"],
        "agents": ["q-learning", "hill-climbing", "simulated-annealing", "exhaustive"],
        "seeds": [0, 1], "max_steps": 150,
        "thresholds": _DOT_EXPLICIT,
    },
    "campaign-derived-fractions-seeds01": {
        "kind": "campaign", "benchmarks": ["matmul_10x10"],
        "agents": ["q-learning", "genetic:population_size=6,generations=8"],
        "seeds": [0, 1], "max_steps": 200,
        "thresholds": {"accuracy_factor": 0.2, "power_fraction": 0.3,
                       "time_fraction": 0.6},
    },
    "sweep-dotproduct-seeds01": {
        "kind": "sweep", "benchmarks": ["dotproduct:length=16"], "seeds": [0, 1],
    },
    "sweep-matmul_10x10-seed0": {
        "kind": "sweep", "benchmarks": ["matmul_10x10"], "seeds": [0],
    },
}

#: The checked-in example documents, with the overrides that shrink them.
EXAMPLES: Dict[str, List[str]] = {
    "experiment_campaign.json": ["max_steps=60", "benchmarks.0.params.length=12",
                                 "seeds=[0]"],
    "experiment_compare.json": ["max_steps=100"],
    "experiment_explore.json": ["max_steps=200"],
    "experiment_sweep.json": [],
}


def _record_benchmarks():
    """Every registered benchmark at its defaults, plus the two large paper sizes."""
    from repro.benchmarks.registry import available, create, paper_benchmarks

    benchmarks = {name: create(name) for name in available()}
    large = paper_benchmarks()
    benchmarks.update((label, large[label]) for label in ("matmul_50x50", "fir_200"))
    return {benchmark.name: benchmark for benchmark in benchmarks.values()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spec_documents() -> Dict[str, Dict[str, object]]:
    """Every spec of the corpus and the shrunk examples, by digest name."""
    from repro.experiments.spec import apply_overrides

    documents = dict(CORPUS)
    for file_name, overrides in EXAMPLES.items():
        payload = json.loads((REPO_ROOT / "examples" / file_name).read_text())
        documents[f"example-{file_name}"] = apply_overrides(payload, overrides)
    return documents


def _trace_bytes(result) -> bytes:
    """The bytes of one exploration trace that the trace digest covers.

    The five per-step columns (fixed little-endian dtypes), the point
    table's keys and delta floats, and the ``terminated`` flag and agent
    name.
    """
    columns = (
        result.point_ids.astype("<i4"), result.actions.astype("<i1"),
        result.rewards.astype("<f8"), result.violated.astype("u1"),
        result.baseline.astype("u1"),
    )
    table = json.dumps([
        [point.adder_index, point.multiplier_index, list(point.variables),
         float(deltas.accuracy).hex(), float(deltas.power_mw).hex(),
         float(deltas.time_ns).hex()]
        for point, deltas in zip(result.points, result.deltas)
    ]).encode("utf-8")
    ending = json.dumps([bool(result.terminated), result.agent_name]).encode("utf-8")
    return b"".join(column.tobytes() for column in columns) + table + ending


def spec_digests(document: Dict[str, object]) -> Tuple[str, Optional[str]]:
    """sha256 of the canonical report bytes and of the traces of one spec.

    Both come from one run.  The trace digest is ``None`` for a kind that
    does not explore (a sweep).
    """
    from repro.experiments import ExperimentSpec, run_experiment

    report = run_experiment(ExperimentSpec.from_dict(document))
    assert report.ok, [entry.error for entry in report.entries if entry.error]
    canonical = _sha256(report.canonical_json().encode("utf-8"))
    if document["kind"] not in _TRACED_KINDS:
        return canonical, None
    trace = hashlib.sha256()
    for entry in report.entries:
        trace.update(_trace_bytes(entry.result))
    return canonical, trace.hexdigest()


@functools.lru_cache(maxsize=None)
def _digests_of(name: str) -> Tuple[str, Optional[str]]:
    """:func:`spec_digests` of one named document, run once per session."""
    return spec_digests(_spec_documents()[name])


def paper_smoke_digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every file the smoke-scale paper pipeline writes."""
    from repro.reporting import PaperPipeline, paper_artifacts

    PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir).run()
    return {
        f"{_PAPER_PREFIX}{path.name}": _sha256(path.read_bytes())
        for path in sorted(out_dir.iterdir())
    }


def record_digest(benchmark) -> str:
    """sha256 over every record of one cold, whole-context evaluation."""
    from repro.dse.evaluator import Evaluator

    evaluator = Evaluator(benchmark, seed=0)
    records = evaluator.evaluate_index_range(0, evaluator.design_space.size)
    rows = [
        [record.point.adder_index, record.point.multiplier_index,
         list(record.point.variables),
         float(record.deltas.accuracy).hex(), float(record.deltas.power_mw).hex(),
         float(record.deltas.time_ns).hex(),
         float(record.approx_cost.power_mw).hex(), float(record.approx_cost.time_ns).hex(),
         int(record.approx_cost.operation_count)]
        for record in records
    ]
    return _sha256(json.dumps(rows).encode("utf-8"))


def _recorded() -> Dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_names_every_spec():
    recorded = set(_recorded())
    documents = _spec_documents()
    assert {name for name in recorded if not name.startswith(
        (_PAPER_PREFIX, _TRACE_PREFIX, _RECORD_PREFIX))} == set(documents)
    assert {name for name in recorded if name.startswith(_TRACE_PREFIX)} == {
        f"{_TRACE_PREFIX}{name}" for name, document in documents.items()
        if document["kind"] in _TRACED_KINDS
    }
    assert {name for name in recorded if name.startswith(_RECORD_PREFIX)} == {
        f"{_RECORD_PREFIX}{name}" for name in _record_benchmarks()
    }


@pytest.mark.parametrize("name", sorted(_spec_documents()))
def test_spec_digest_matches_recording(name):
    expected = _recorded()[name]
    actual, _ = _digests_of(name)
    assert actual == expected, (
        f"canonical report of {name!r} moved: {actual} != recorded {expected}"
    )


@pytest.mark.parametrize("name", sorted(
    name for name, document in _spec_documents().items()
    if document["kind"] in _TRACED_KINDS
))
def test_trace_digest_matches_recording(name):
    expected = _recorded()[f"{_TRACE_PREFIX}{name}"]
    _, actual = _digests_of(name)
    assert actual == expected, (
        f"exploration traces of {name!r} moved: {actual} != recorded {expected}"
    )


def test_paper_smoke_file_digests_match_recording(tmp_path):
    expected = {name: digest for name, digest in _recorded().items()
                if name.startswith(_PAPER_PREFIX)}
    actual = paper_smoke_digests(tmp_path)
    moved = sorted(name for name in set(expected) | set(actual)
                   if expected.get(name) != actual.get(name))
    assert not moved, f"paper --smoke files moved: {moved}"


@pytest.mark.parametrize("name", sorted(_record_benchmarks()))
def test_record_digest_matches_recording(name):
    expected = _recorded()[f"{_RECORD_PREFIX}{name}"]
    actual = record_digest(_record_benchmarks()[name])
    assert actual == expected, (
        f"evaluation records of {name!r} moved: {actual} != recorded {expected}"
    )


def _write_fixture() -> None:
    digests: Dict[str, str] = {}
    for name in sorted(_spec_documents()):
        canonical, trace = _digests_of(name)
        digests[name] = canonical
        if trace is not None:
            digests[f"{_TRACE_PREFIX}{name}"] = trace
    for name, benchmark in _record_benchmarks().items():
        digests[f"{_RECORD_PREFIX}{name}"] = record_digest(benchmark)
    with tempfile.TemporaryDirectory() as out_dir:
        digests.update(paper_smoke_digests(Path(out_dir)))
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_digests.py --write")
    _write_fixture()
