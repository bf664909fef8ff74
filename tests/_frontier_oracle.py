"""The O(n²) Pareto-front extraction: the oracle of the frontier engine.

:class:`~repro.dse.frontier.ParetoArchive` must return exactly this front
(same record objects, same order).  The frontier tests and
``benchmarks/bench_pareto_sweep.py`` compare the engine with it.
"""

from __future__ import annotations

from typing import Iterable, List


def _objective_row(record):
    deltas = record.deltas
    return (-deltas.accuracy, deltas.power_mw, deltas.time_ns)


def _dominates(first, second) -> bool:
    first_row = _objective_row(first)
    second_row = _objective_row(second)
    at_least_as_good = all(f >= s for f, s in zip(first_row, second_row))
    strictly_better = any(f > s for f, s in zip(first_row, second_row))
    return at_least_as_good and strictly_better


def pareto_front_bruteforce(records: Iterable) -> List:
    """Non-dominated records, de-duplicated by design point (first wins)."""
    unique: dict = {}
    for record in records:
        key = record.point.key()
        if key not in unique:
            unique[key] = record
    candidates = list(unique.values())
    front: List = []
    for candidate in candidates:
        if not any(
            _dominates(other, candidate) for other in candidates if other is not candidate
        ):
            front.append(candidate)
    return front
