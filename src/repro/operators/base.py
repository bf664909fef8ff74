"""Base classes for exact and approximate arithmetic operators.

Operators are behavioural, bit-accurate models that work on NumPy integer
arrays so that whole benchmark kernels can be evaluated in a handful of
vectorised calls.  Every operator has a *native width* (the bit width of the
hardware unit it models).  Operands wider than the native width are handled
by dynamic-range scaling: both operands are shifted right until they fit,
the native unit is applied, and the result is shifted back.  This mirrors
how an approximate functional unit loses low-order precision when reused for
wider data and keeps the error magnitude proportional to the operand
magnitude, which is what the design-space explorer observes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from repro.errors import ConfigurationError, OperatorError

ArrayLike = Union[int, np.ndarray]

__all__ = [
    "OperatorKind",
    "OperatorCharacterization",
    "Operator",
    "ApproximateAdder",
    "ApproximateMultiplier",
    "as_int_array",
]

_MAX_SAFE_BITS = 62  # int64 headroom for vectorised shifts and products
_INT64_MAX = int(np.iinfo(np.int64).max)


class OperatorKind(str, Enum):
    """The two operator kinds the design space distinguishes."""

    ADDER = "adder"
    MULTIPLIER = "multiplier"


@dataclass(frozen=True)
class OperatorCharacterization:
    """Pre-characterised figures of merit for one operator.

    Mirrors one row of Table I / Table II of the paper: the Mean Relative
    Error Distance in percent, the per-operation power in milliwatts and the
    per-operation delay in nanoseconds.
    """

    mred_percent: float
    power_mw: float
    delay_ns: float

    def __post_init__(self) -> None:
        if self.mred_percent < 0:
            raise ConfigurationError(f"MRED must be non-negative, got {self.mred_percent}")
        if self.power_mw < 0:
            raise ConfigurationError(f"power must be non-negative, got {self.power_mw}")
        if self.delay_ns < 0:
            raise ConfigurationError(f"delay must be non-negative, got {self.delay_ns}")


def as_int_array(value: ArrayLike, name: str) -> np.ndarray:
    """Coerce an operand to an ``int64`` NumPy array, rejecting booleans,
    non-integral floats and values outside the ``int64`` range.

    Integer dtypes short-circuit: ``int64`` input comes back as-is (no copy,
    no full-array scan) and narrower integers are widened without the
    integral-value scan only float inputs need.
    """
    arr = np.asarray(value)
    if arr.dtype == np.int64:
        return arr
    if arr.dtype == np.bool_:
        raise OperatorError(f"operand {name} must be an integer, got boolean")
    if np.issubdtype(arr.dtype, np.integer):
        # Only uint64 can hold values int64 cannot; the cast would wrap them.
        if arr.dtype == np.uint64 and arr.size and int(arr.max()) > _INT64_MAX:
            raise OperatorError(f"operand {name} is outside the int64 range")
        return arr.astype(np.int64)
    if np.issubdtype(arr.dtype, np.floating) and np.all(np.equal(np.mod(arr, 1), 0)):
        # The cast would wrap values outside [-2**63, 2**63) to INT64_MIN.
        if not np.all((arr >= -2.0 ** 63) & (arr < 2.0 ** 63)):
            raise OperatorError(f"operand {name} is outside the int64 range")
        return arr.astype(np.int64)
    raise OperatorError(f"operand {name} must be integer-valued, got dtype {arr.dtype}")


# Backwards-compatible alias (the helper predates the public name).
_as_int_array = as_int_array


class Operator(ABC):
    """Common behaviour of exact and approximate arithmetic units."""

    #: Which operation this unit implements.
    kind: OperatorKind

    def __init__(self, width: int, name: Optional[str] = None) -> None:
        if not isinstance(width, (int, np.integer)) or isinstance(width, bool):
            raise ConfigurationError(f"operator width must be an integer, got {width!r}")
        if not 2 <= int(width) <= 32:
            raise ConfigurationError(f"operator width must be between 2 and 32 bits, got {width}")
        self.width = int(width)
        self.name = name or type(self).__name__

    @property
    def is_exact(self) -> bool:
        """True when the operator introduces no error (overridden by exact units)."""
        return False

    # ------------------------------------------------------------------ API

    def apply(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Apply the operator element-wise to two integer operands.

        Scalars and arrays may be mixed; normal NumPy broadcasting applies.
        The result is an ``int64`` array (or 0-d array for scalar inputs).
        """
        a_arr = _as_int_array(a, "a")
        b_arr = _as_int_array(b, "b")
        # broadcast_arrays keeps 0-d inputs 0-d, so scalar calls return 0-d
        # results that convert cleanly with int().  The views are read-only,
        # which is fine: operator implementations never modify operands.
        a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
        return self._apply_signed(a_arr, b_arr)

    def __call__(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        return self.apply(a, b)

    def apply_trusted(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """:meth:`apply` without operand validation or explicit broadcasting.

        The trusted fast path of the evaluation stack: callers guarantee the
        operands are already integer-valued (the evaluator validates its
        fixed workload once, and every operator produces ``int64`` results),
        so the per-call coercion scan and the broadcast bookkeeping of
        :meth:`apply` are skipped.  Results are bit-identical to
        :meth:`apply` for such operands; implementations broadcast
        internally, so operands of compatible shapes need not be
        pre-broadcast.
        """
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        if a_arr.dtype != np.int64:
            a_arr = a_arr.astype(np.int64)
        if b_arr.dtype != np.int64:
            b_arr = b_arr.astype(np.int64)
        return self._apply_signed(a_arr, b_arr)

    def exact_reference(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """The exact result the operator approximates (for error metrics)."""
        a_arr = _as_int_array(a, "a")
        b_arr = _as_int_array(b, "b")
        if self.kind is OperatorKind.ADDER:
            return a_arr + b_arr
        return a_arr * b_arr

    # --------------------------------------------------------- abstract part

    @abstractmethod
    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Operate on already-validated ``int64`` arrays.

        Operands have broadcast-compatible shapes but are NOT necessarily
        pre-broadcast: :meth:`apply` hands over read-only broadcast views,
        while :meth:`apply_trusted` passes the original arrays.
        Implementations must therefore rely on NumPy's own broadcasting
        (plain elementwise expressions — as every bundled operator does)
        rather than assuming equal shapes.
        """

    @abstractmethod
    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Operate on non-negative ``int64`` operands that fit the native width."""

    # ----------------------------------------------------------------- misc

    def __repr__(self) -> str:
        return f"{type(self).__name__}(width={self.width}, name={self.name!r})"


def _magnitude_scale(values: np.ndarray, budget_bits: int) -> np.ndarray:
    """Per-element right-shift needed so ``|values|`` fits in ``budget_bits`` bits."""
    magnitudes = np.abs(values)
    # bit_length of 0 is 0; np.frexp gives the exponent such that m*2**e with 0.5<=m<1.
    with np.errstate(all="ignore"):
        _, exponents = np.frexp(magnitudes.astype(np.float64))
    bit_lengths = np.where(magnitudes > 0, exponents, 0).astype(np.int64)
    return np.maximum(bit_lengths - budget_bits, 0)


class ApproximateAdder(Operator):
    """Base class for adders.

    Signed operands are handled through two's-complement arithmetic inside
    the native width: both operands are scaled (right-shifted) until their
    sum is guaranteed to fit in ``width`` bits including the sign bit, the
    native bit-level model is applied to the two's-complement patterns, and
    the signed result is scaled back.
    """

    kind = OperatorKind.ADDER

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # A width-bit adder consumes width-bit operands and produces the full
        # (width+1)-bit sum (carry out included), like the original circuits.
        # Operand magnitudes therefore get width-1 bits (the sign bit takes
        # the remaining one); wider operands are dynamic-range scaled.
        budget = self.width - 1
        if budget < 1:
            raise OperatorError(f"adder width {self.width} is too small for signed operation")
        shift = np.maximum(_magnitude_scale(a, budget), _magnitude_scale(b, budget))
        a_scaled = a >> shift
        b_scaled = b >> shift

        out_bits = self.width + 1
        mask = (1 << out_bits) - 1
        ua = a_scaled & mask
        ub = b_scaled & mask
        usum = self._compute_native(ua, ub).astype(np.int64) & mask

        sign_bit = 1 << (out_bits - 1)
        signed = np.where(usum & sign_bit != 0, usum - (1 << out_bits), usum)
        return signed.astype(np.int64) << shift


class ApproximateMultiplier(Operator):
    """Base class for multipliers.

    Signed operands are handled by operating on magnitudes and re-applying
    the product sign; operands wider than the native width are right-shifted
    independently until they fit and the product is shifted back by the sum
    of the two shifts (dynamic-range scaling).
    """

    kind = OperatorKind.MULTIPLIER

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sign = np.sign(a) * np.sign(b)
        mag_a = np.abs(a)
        mag_b = np.abs(b)

        # Cap the per-operand budget so the native product fits comfortably
        # in int64 even at the full 32-bit catalog width.
        budget = min(self.width, (_MAX_SAFE_BITS // 2) - 1)
        if np.any(mag_a.astype(np.float64) * mag_b.astype(np.float64) > float(2 ** _MAX_SAFE_BITS)):
            raise OperatorError("operands are too large for a safe int64 multiplication")
        shift_a = _magnitude_scale(mag_a, budget)
        shift_b = _magnitude_scale(mag_b, budget)
        total_shift = shift_a + shift_b

        ua = mag_a >> shift_a
        ub = mag_b >> shift_b
        product = self._compute_native(ua, ub).astype(np.int64)
        return sign * (product << total_shift)
