"""The approximation execution context.

An :class:`ApproxContext` is one concrete "approximated version" of an
application: a pair of hardware units (one adder, one multiplier), the set
of program variables whose operations those units execute, and the exact
reference units used for everything else.  Benchmarks perform all their
arithmetic through the context so the reproduction can (a) inject the
behavioural error of the approximate units and (b) count operations per unit
for the power / computation-time estimate.

A :class:`StackedContext` runs several such versions of one kernel in a
single pass: each row is one (approximate adder, approximate multiplier,
selected variables) triple, every array the kernel passes carries the row
axis first, and each operation applies every unit its rows resolve to
once, on those rows only.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InstrumentationError
from repro.instrumentation.profile import OperationProfile
from repro.operators.base import Operator, OperatorKind, as_int_array

ArrayLike = Union[int, np.ndarray]

__all__ = ["ApproxContext", "StackedContext"]

#: One version of a kernel in a :class:`StackedContext`: the approximate
#: adder, the approximate multiplier (either may be ``None``) and the names
#: of the variables selected for approximation.
Row = Tuple[Optional[Operator], Optional[Operator], Iterable[str]]


def _check_units(approx_adder: Optional[Operator],
                 approx_multiplier: Optional[Operator]) -> None:
    if approx_adder is not None and approx_adder.kind is not OperatorKind.ADDER:
        raise InstrumentationError(f"{approx_adder.name} is not an adder")
    if approx_multiplier is not None and approx_multiplier.kind is not OperatorKind.MULTIPLIER:
        raise InstrumentationError(f"{approx_multiplier.name} is not a multiplier")


class ApproxContext:
    """Routes benchmark arithmetic to exact or approximate hardware units.

    Parameters
    ----------
    exact_adder, exact_multiplier:
        Reference units modelling the precise datapath of the target CPU.
    approx_adder, approx_multiplier:
        Units used for operations touching an approximated variable.  When
        ``None`` (the default) the context models the precise version of the
        application: every operation runs on the exact units.
    approximate_variables:
        Names of the program variables selected for approximation.  An
        operation is approximated when at least one of the variables it
        touches is in this set, following the selection rule of the paper.
    trusted:
        Enable the zero-overhead fast path: operations dispatch through
        :meth:`~repro.operators.base.Operator.apply_trusted`, skipping the
        per-call operand validation and broadcast bookkeeping.  Only valid
        when every operand is already integer-valued — the evaluator turns
        this on after validating its fixed workload once, since the same
        inputs are replayed across thousands of design points.  Results and
        operation counts are bit-identical to the untrusted path.
    """

    def __init__(self, exact_adder: Operator, exact_multiplier: Operator,
                 approx_adder: Optional[Operator] = None,
                 approx_multiplier: Optional[Operator] = None,
                 approximate_variables: Iterable[str] = (),
                 trusted: bool = False) -> None:
        if exact_adder.kind is not OperatorKind.ADDER:
            raise InstrumentationError(f"{exact_adder.name} is not an adder")
        if exact_multiplier.kind is not OperatorKind.MULTIPLIER:
            raise InstrumentationError(f"{exact_multiplier.name} is not a multiplier")
        _check_units(approx_adder, approx_multiplier)

        self._exact_adder = exact_adder
        self._exact_multiplier = exact_multiplier
        self._approx_adder = approx_adder
        self._approx_multiplier = approx_multiplier
        self._approximate_variables = frozenset(approximate_variables)
        self._trusted = bool(trusted)
        self._profile = OperationProfile()
        # Operator routing is a pure function of (kind, variables) for the
        # life of the context; kernels name the same variable tuples on
        # every call, so the resolution is memoized.
        self._route: dict = {}

    # ------------------------------------------------------------ properties

    @property
    def approximate_variables(self) -> frozenset:
        """Names of the variables selected for approximation."""
        return self._approximate_variables

    @property
    def profile(self) -> OperationProfile:
        """Operation counts accumulated so far."""
        return self._profile

    @property
    def num_rows(self) -> int:
        """Versions of the kernel this context runs at once (1; see :class:`StackedContext`)."""
        return 1

    @property
    def trusted(self) -> bool:
        """Whether the context dispatches through the trusted fast path."""
        return self._trusted

    @property
    def is_precise(self) -> bool:
        """True when no operation can be approximated by this context."""
        return (self._approx_adder is None and self._approx_multiplier is None) or \
            not self._approximate_variables

    # ------------------------------------------------------------ arithmetic

    def add(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        """Add two operands, naming the program variables the operation touches."""
        operator = self._select(OperatorKind.ADDER, variables)
        return self._execute(operator, a, b)

    def sub(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        """Subtract ``b`` from ``a`` (executed on the adder as ``a + (-b)``)."""
        operator = self._select(OperatorKind.ADDER, variables)
        # Validate before negating: a boolean or non-integral float ``b``
        # must raise OperatorError like add/mul, not a raw NumPy TypeError.
        b_arr = np.asarray(b) if self._trusted else as_int_array(b, "b")
        return self._execute(operator, a, -b_arr)

    def mul(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        """Multiply two operands, naming the program variables the operation touches."""
        operator = self._select(OperatorKind.MULTIPLIER, variables)
        return self._execute(operator, a, b)

    def accumulate(self, values: np.ndarray, axis: int = -1,
                   variables: Sequence[str] = ()) -> np.ndarray:
        """Sum an array along ``axis`` using repeated context additions.

        The reduction is performed as a sequential chain of adds, exactly as
        a scalar accumulator loop would, so the operation count matches the
        instrumented source program.
        """
        values = np.asarray(values)
        if values.size == 0:
            raise InstrumentationError("cannot accumulate an empty array")
        moved = np.moveaxis(values, axis, 0)
        total = np.zeros(moved.shape[1:], dtype=np.int64)
        for slice_ in moved:
            total = self.add(total, slice_, variables=variables)
        return total

    # -------------------------------------------------------------- plumbing

    def _select(self, kind: OperatorKind, variables: Sequence[str]) -> Operator:
        key = (kind, tuple(variables))
        operator = self._route.get(key)
        if operator is None:
            approximate = bool(self._approximate_variables.intersection(variables))
            if kind is OperatorKind.ADDER:
                operator = self._approx_adder \
                    if approximate and self._approx_adder is not None else self._exact_adder
            else:
                operator = self._approx_multiplier \
                    if approximate and self._approx_multiplier is not None \
                    else self._exact_multiplier
            self._route[key] = operator
        return operator

    def _execute(self, operator: Operator, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        if self._trusted:
            result = operator.apply_trusted(a, b)
        else:
            result = operator.apply(a, b)
        self._profile.record(operator.name, int(result.size))
        return result

    def route_keys(self) -> tuple:
        """The ``(kind, variables)`` routing keys resolved so far, in first-use order.

        A kernel names the same variable tuples on every run, so after one
        execution this is the complete set of routing decisions the kernel
        ever asks for — the basis of the evaluator's design-point
        equivalence sharing (see :class:`~repro.dse.evaluator.Evaluator`).
        """
        return tuple(self._route.keys())

    def reset_profile(self) -> None:
        """Forget the operation counts accumulated so far."""
        self._profile = OperationProfile()

    def __repr__(self) -> str:
        adder = self._approx_adder.name if self._approx_adder else None
        multiplier = self._approx_multiplier.name if self._approx_multiplier else None
        return (
            f"ApproxContext(exact_adder={self._exact_adder.name!r}, "
            f"exact_multiplier={self._exact_multiplier.name!r}, "
            f"approx_adder={adder!r}, approx_multiplier={multiplier!r}, "
            f"approximate_variables={sorted(self._approximate_variables)!r})"
        )


class StackedContext(ApproxContext):
    """Several versions of one kernel, run as the rows of a single pass.

    Each row is an ``(approx_adder, approx_multiplier, approximate_variables)``
    triple, routed exactly as an :class:`ApproxContext` built from it would
    route.  The kernel puts the row axis first on every array it passes: an
    operand's leading axis has length 1 (shared by every row) or
    :attr:`num_rows`.  Each operation resolves its ``(kind, variables)``
    routing key per row and applies every unit those rows resolve to once,
    on the rows that resolve to it; when both operands are shared that is
    once in total, and the result is spread over the unit's rows.  Every
    unit is elementwise, so a row's values are bit-identical to a run of
    that row's own context.

    :attr:`profile` counts each unit's operations summed over the rows that
    ran on it, and :meth:`key_counts` holds each routing key's operation
    count per row, in first-use order: mapping the keys to one row's units
    gives that row's own profile, in the order its own run would record it.
    """

    def __init__(self, exact_adder: Operator, exact_multiplier: Operator,
                 rows: Sequence[Row], trusted: bool = False) -> None:
        if len(rows) < 2:
            raise InstrumentationError(
                f"a stacked context needs at least two rows, got {len(rows)}; "
                f"one version runs on an ApproxContext"
            )
        first_adder, first_multiplier, first_variables = rows[0]
        super().__init__(exact_adder, exact_multiplier, first_adder, first_multiplier,
                         first_variables, trusted=trusted)
        for approx_adder, approx_multiplier, _ in rows[1:]:
            _check_units(approx_adder, approx_multiplier)
        self._rows = tuple(
            (adder, multiplier, frozenset(variables)) for adder, multiplier, variables in rows
        )
        self._key_counts: Dict[tuple, int] = {}

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def approximate_variables(self) -> frozenset:
        """Names of the variables any row selects for approximation."""
        return frozenset().union(*(variables for _, _, variables in self._rows))

    @property
    def is_precise(self) -> bool:
        """True when no row can approximate an operation."""
        return all((adder is None and multiplier is None) or not variables
                   for adder, multiplier, variables in self._rows)

    def add(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        return self._execute_rows(self._resolve(OperatorKind.ADDER, variables), a, b)

    def sub(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        route = self._resolve(OperatorKind.ADDER, variables)
        b_arr = np.asarray(b) if self._trusted else as_int_array(b, "b")
        return self._execute_rows(route, a, -b_arr)

    def mul(self, a: ArrayLike, b: ArrayLike, variables: Sequence[str] = ()) -> np.ndarray:
        return self._execute_rows(self._resolve(OperatorKind.MULTIPLIER, variables), a, b)

    def key_counts(self) -> Dict[tuple, int]:
        """Operations per row of each routing key that ran any, in first-use order."""
        return dict(self._key_counts)

    def reset_profile(self) -> None:
        super().reset_profile()
        self._key_counts = {}

    def _resolve(self, kind: OperatorKind, variables: Sequence[str]) -> tuple:
        """``(key, ((unit, rows), ...))``: the rows each unit serves, first row first."""
        key = (kind, tuple(variables))
        route = self._route.get(key)
        if route is None:
            served: Dict[Operator, List[int]] = {}
            for index, (adder, multiplier, selected) in enumerate(self._rows):
                approximate = not selected.isdisjoint(key[1])
                if kind is OperatorKind.ADDER:
                    unit = adder if approximate and adder is not None else self._exact_adder
                else:
                    unit = multiplier if approximate and multiplier is not None \
                        else self._exact_multiplier
                served.setdefault(unit, []).append(index)
            route = (key, tuple((unit, np.array(indices, dtype=np.intp))
                                for unit, indices in served.items()))
            self._route[key] = route
        return route

    def _apply(self, unit: Operator, a: ArrayLike, b: ArrayLike, rows: int) -> np.ndarray:
        """``unit`` on operands whose row axis is 1 or ``rows`` long."""
        result = unit.apply_trusted(a, b) if self._trusted else unit.apply(a, b)
        if result.shape[:1] not in ((1,), (rows,)):
            raise _row_axis_error(result.shape, len(self._rows))
        return result

    def _execute_rows(self, route: tuple, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        key, groups = route
        num_rows = len(self._rows)
        if len(groups) == 1:
            unit = groups[0][0]
            result = self._apply(unit, a, b, num_rows)
            per_row = result.size // result.shape[0]
            self._profile.record(unit.name, per_row * num_rows)
        else:
            a_arr = np.asarray(a)
            b_arr = np.asarray(b)
            ndim = max(a_arr.ndim, b_arr.ndim)
            result = None
            for unit, rows in groups:
                part = self._apply(unit, _rows_of(a_arr, rows, ndim, num_rows),
                                   _rows_of(b_arr, rows, ndim, num_rows), len(rows))
                if result is None:
                    result = np.empty((num_rows,) + part.shape[1:], dtype=part.dtype)
                result[rows] = part
                per_row = part.size // part.shape[0]
                self._profile.record(unit.name, per_row * len(rows))
        if per_row:
            self._key_counts[key] = self._key_counts.get(key, 0) + per_row
        return result

    def __repr__(self) -> str:
        rows = [
            (adder.name if adder else None, multiplier.name if multiplier else None,
             sorted(variables))
            for adder, multiplier, variables in self._rows
        ]
        return (
            f"StackedContext(exact_adder={self._exact_adder.name!r}, "
            f"exact_multiplier={self._exact_multiplier.name!r}, rows={rows!r})"
        )


def _rows_of(operand: np.ndarray, rows: np.ndarray, ndim: int, num_rows: int) -> np.ndarray:
    """``operand`` restricted to ``rows``; a shared operand (row axis 1) as it is."""
    if operand.ndim < ndim or operand.shape[:1] == (1,):
        return operand
    if operand.shape[:1] != (num_rows,):
        raise _row_axis_error(operand.shape, num_rows)
    return operand[rows]


def _row_axis_error(shape: tuple, num_rows: int) -> InstrumentationError:
    return InstrumentationError(
        f"arrays of a stacked context need the row axis first "
        f"(length 1 or {num_rows}), got shape {shape}"
    )
