"""Vectorized Pareto-frontier engine over the three exploration objectives.

The exploration trades accuracy degradation (minimise) against power and
computation-time reduction (maximise).  An O(n²) pure-Python dominance
scan over a trace is fine for a few hundred steps, painful for the
paper's 10,000-step traces and hopeless for exhaustive design-space
sweeps.  This module extracts the non-dominated subset with:

* :class:`ParetoArchive` — an incremental archive that keeps only the
  current non-dominated set, with NumPy-vectorized dominance checks both
  for single insertions (``add``) and for whole traces (``add_many``);
* front-quality metrics — a hypervolume proxy and the coverage of a
  reference front — so an agent's discovered front can be judged against
  the ground-truth front of an exhaustive sweep.

The archive keeps the brute-force semantics exactly (the test suite holds
the O(n²) scan as its oracle): records are de-duplicated by design-point
key (first occurrence wins), dominance is "at least as good on every
objective and strictly better on at least one", and ties (distinct points
with identical objectives) all stay on the front.  The surviving records
come back in first-occurrence order, so the result is bit-identical to the
brute-force front.

Records are duck-typed: anything with a ``.point`` (providing ``key()``)
and ``.deltas`` (providing ``accuracy`` / ``power_mw`` / ``time_ns``)
works — both :class:`~repro.dse.results.StepRecord` and
:class:`~repro.dse.evaluator.EvaluationRecord` qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "ParetoArchive",
    "FrontQuality",
    "front_coverage",
    "front_points",
    "front_quality",
    "hypervolume_proxy",
    "non_dominated_mask",
    "objective_matrix",
]


def _objective_row(record) -> Tuple[float, float, float]:
    """One record as a maximization-oriented objective row.

    Accuracy degradation is negated so that "better" is "larger" on every
    axis, which lets dominance reduce to elementwise ``>=`` / ``>``.
    """
    deltas = record.deltas
    return (-deltas.accuracy, deltas.power_mw, deltas.time_ns)


def objective_matrix(records: Iterable) -> np.ndarray:
    """Stack records into an ``(n, 3)`` maximization-oriented matrix."""
    rows = [_objective_row(record) for record in records]
    if not rows:
        return np.empty((0, 3), dtype=np.float64)
    return np.asarray(rows, dtype=np.float64)


def front_points(records: Iterable) -> List[Tuple[float, float, float]]:
    """Records as ``(accuracy, power, time)`` tuples, sorted by accuracy."""
    return sorted(
        (record.deltas.accuracy, record.deltas.power_mw, record.deltas.time_ns)
        for record in records
    )


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of a maximization matrix.

    A row is dominated when another row is ``>=`` everywhere and ``>``
    somewhere; exact duplicates of a non-dominated row all survive (no row
    dominates its own copy).  Runs the classic iterative filter: each
    surviving candidate eliminates everything it dominates in one
    vectorized pass, so the cost is O(n x front size) instead of O(n²).
    """
    points = np.asarray(points, dtype=np.float64)
    count = points.shape[0]
    if count == 0:
        return np.zeros(0, dtype=bool)
    indices = np.arange(count)
    values = points
    cursor = 0
    while cursor < values.shape[0]:
        current = values[cursor]
        # Keep rows that beat the current one somewhere, or tie it exactly.
        keep = np.any(values > current, axis=1) | np.all(values == current, axis=1)
        values = values[keep]
        indices = indices[keep]
        cursor = int(np.count_nonzero(keep[:cursor])) + 1
    mask = np.zeros(count, dtype=bool)
    mask[indices] = True
    return mask


class ParetoArchive:
    """Incremental non-dominated archive over exploration records.

    The archive holds the current Pareto front: inserting a dominated
    record is a no-op, inserting a dominating record evicts everything it
    dominates.  Records are de-duplicated by ``record.point.key()`` with
    the first occurrence winning, exactly like the brute-force extraction.

    ``add`` handles streaming use (one record per exploration step);
    ``add_many`` batches a whole trace through the vectorized filter.
    """

    def __init__(self, records: Iterable = ()) -> None:
        self._records: List = []
        self._matrix = np.empty((0, 3), dtype=np.float64)
        self._seen: set = set()
        self.add_many(records)

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(tuple(self._records))

    @property
    def records(self) -> Tuple:
        """The current front, in first-occurrence order."""
        return tuple(self._records)

    @property
    def seen(self) -> int:
        """Number of distinct design points offered to the archive."""
        return len(self._seen)

    def front(self) -> List:
        """The current front as a list (first-occurrence order)."""
        return list(self._records)

    def front_points(self) -> List[Tuple[float, float, float]]:
        """The front as ``(accuracy, power, time)`` tuples, sorted by accuracy."""
        return front_points(self._records)

    def matrix(self) -> np.ndarray:
        """Copy of the front's maximization-oriented objective matrix."""
        return self._matrix.copy()

    # ------------------------------------------------------------- insertion

    def add(self, record) -> bool:
        """Offer one record; returns True when it joins the front."""
        key = record.point.key()
        if key in self._seen:
            return False
        self._seen.add(key)
        row = np.asarray(_objective_row(record), dtype=np.float64)
        if self._matrix.shape[0]:
            matrix = self._matrix
            dominated = np.all(matrix >= row, axis=1) & np.any(matrix > row, axis=1)
            if bool(dominated.any()):
                return False
            evicted = np.all(row >= matrix, axis=1) & np.any(row > matrix, axis=1)
            if bool(evicted.any()):
                keep = ~evicted
                self._records = [
                    member for member, kept in zip(self._records, keep) if kept
                ]
                self._matrix = matrix[keep]
        self._records.append(record)
        self._matrix = np.vstack([self._matrix, row[None, :]])
        return True

    def add_many(self, records: Iterable) -> int:
        """Offer a batch of records; returns how many joined the front.

        Equivalent to calling :meth:`add` per record but runs the whole
        batch (plus the current front) through the vectorized filter once.
        """
        fresh: List = []
        rows: List[Tuple[float, float, float]] = []
        for record in records:
            key = record.point.key()
            if key in self._seen:
                continue
            self._seen.add(key)
            fresh.append(record)
            rows.append(_objective_row(record))
        if not fresh:
            return 0
        candidates = self._records + fresh
        matrix = np.vstack([self._matrix, np.asarray(rows, dtype=np.float64)])
        mask = non_dominated_mask(matrix)
        survivors = [member for member, kept in zip(candidates, mask) if kept]
        added = len(survivors) - int(np.count_nonzero(mask[: len(self._records)]))
        self._records = survivors
        self._matrix = matrix[mask]
        return added


# -------------------------------------------------------------- front quality


def hypervolume_proxy(records: Iterable,
                      reference: Optional[Tuple[float, float, float]] = None) -> float:
    """Monotone hypervolume proxy of a front (larger is better).

    Sums, per front point, the volume of the axis-aligned box between the
    point and a reference point (componentwise minimum of the front when
    omitted), in maximization orientation.  Overlapping boxes are counted
    once each, so this is a proxy rather than the exact hypervolume — but
    it is deterministic, vectorized, and grows whenever a new
    non-dominated point extends the front, which is what comparisons need.

    ``reference`` is in natural orientation ``(accuracy, power, time)``.
    """
    matrix = objective_matrix(records)
    if matrix.shape[0] == 0:
        return 0.0
    if reference is None:
        anchor = matrix.min(axis=0)
    else:
        accuracy, power, time = reference
        anchor = np.asarray([-accuracy, power, time], dtype=np.float64)
    spans = np.clip(matrix - anchor[None, :], 0.0, None)
    return float(np.sum(np.prod(spans, axis=1)))


def front_coverage(front: Iterable, reference_front: Iterable) -> float:
    """Fraction of the reference front weakly dominated by ``front``.

    A reference point counts as covered when some point of ``front`` is at
    least as good on every objective (matching it exactly also covers it).
    1.0 means the front reaches the entire reference front; an empty
    reference front is covered trivially.
    """
    reference_matrix = objective_matrix(reference_front)
    if reference_matrix.shape[0] == 0:
        return 1.0
    matrix = objective_matrix(front)
    if matrix.shape[0] == 0:
        return 0.0
    covered = (matrix[:, None, :] >= reference_matrix[None, :, :]).all(axis=2).any(axis=0)
    return float(np.mean(covered))


@dataclass(frozen=True)
class FrontQuality:
    """How an agent's discovered front compares to a reference front.

    ``coverage`` is the fraction of reference-front points the agent front
    weakly dominates; ``hypervolume_ratio`` compares the hypervolume
    proxies of both fronts over a shared reference point (the componentwise
    minimum of their union), so 1.0 means the agent's proxy matches the
    reference's.
    """

    front_size: int
    reference_size: int
    coverage: float
    hypervolume: float
    reference_hypervolume: float

    @property
    def hypervolume_ratio(self) -> float:
        if self.reference_hypervolume == 0.0:
            return 1.0 if self.hypervolume == 0.0 else float("inf")
        return self.hypervolume / self.reference_hypervolume


def front_quality(front: Iterable, reference_front: Iterable) -> FrontQuality:
    """Score a discovered front against a reference (e.g. ground-truth) front.

    Parameters
    ----------
    front:
        The discovered front: step records (or anything with ``deltas``).
    reference_front:
        The yardstick front, typically a :class:`~repro.dse.sweep.SweepResult`
        ground truth.

    Returns
    -------
    A :class:`FrontQuality` with the coverage (fraction of the reference
    reached) and the hypervolume-proxy ratio of the two fronts.
    """
    front = list(front)
    reference_front = list(reference_front)
    union = objective_matrix(front + reference_front)
    if union.shape[0]:
        anchor_row = union.min(axis=0)
        anchor = (-anchor_row[0], anchor_row[1], anchor_row[2])
    else:
        anchor = (0.0, 0.0, 0.0)
    return FrontQuality(
        front_size=len(front),
        reference_size=len(reference_front),
        coverage=front_coverage(front, reference_front),
        hypervolume=hypervolume_proxy(front, reference=anchor),
        reference_hypervolume=hypervolume_proxy(reference_front, reference=anchor),
    )
