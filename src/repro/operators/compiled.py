"""Compiled operator kernels: a fast, bit-identical apply for every approximate unit.

The exploration loop is dominated by evaluating design points, and every
evaluation runs the benchmark kernel through behavioural operator models
whose analytic implementations (Mitchell log, DRUM truncation, segmented
carry chains, ``frexp``-based dynamic-range scaling, ...) take a dozen
NumPy passes per call.  Compilation replaces them with one kernel per unit.
The kernel class of each kind does what all units share, once:

* the in-range check, one min/max per operand: when every magnitude fits
  the native budget, the dynamic-range shift is 0 everywhere and the unit's
  core computes the whole result;
* otherwise the per-element dynamic-range shift, a gather from a shared
  bit-length table for magnitudes below ``2**20`` (the analytic
  ``_magnitude_scale`` above it), around one call of the unit's core;
* the fallback to the unit's analytic model where magnitudes, or
  multiplier products, leave no int64 headroom: its raise-or-proceed
  semantics hold there.

Only the per-unit core differs:

table (units up to :data:`MAX_COMPILED_WIDTH` bits)
    A unit of native width ``w`` is a pure function of at most
    ``2**(w+1)`` operand patterns per side, so a narrow unit's entire
    behaviour fits in dense tables computed once per process: ``native``
    is ``_compute_native`` over the unsigned native domain, ``signed`` the
    complete shift-0 ``_apply_signed`` over the scaled operand domain.  The
    core is one gather.
closed form (wider units)
    On scaled adder operands ``a', b'`` in ``[-2**(w-1), 2**(w-1))`` the
    truncated adder is ``((a'>>cut) + (b'>>cut)) << cut`` and the lower-OR
    adder adds ``(a'|b') & (2**cut - 1)`` to it; the result already lies in
    the ``(w+1)``-bit signed range, so the analytic mask and sign extension
    are the identity.  Multiplier cores map magnitudes to the native
    product: operand truncation masks both magnitudes, DRUM truncates each
    to its ``k`` leading bits, a shift that is exactly
    ``_magnitude_scale(|x|, k)``.  The kernel applies the product sign.

Results are bit-identical to the analytic models: the tables are generated
by the analytic code, the closed forms equal it on the scaled domain (the
tests check each one against the analytic ``apply``), and the shifts are
those of :mod:`repro.operators.base`.  Exact units are never compiled (they
are already one vectorised operation and skip dynamic-range scaling), and a
unit too wide to tabulate whose family has no closed form (carry-cut
adders, log and broken-array multipliers) keeps the analytic path.

Tables are built on first use, never at import, and cached per process
keyed by the operator's family and parameters, so every evaluator, sweep
and campaign job in a process shares one set per distinct unit.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.operators.adders import LowerOrAdder, TruncatedAdder
from repro.operators.base import (
    _MAX_SAFE_BITS,
    ApproximateAdder,
    ApproximateMultiplier,
    Operator,
    OperatorKind,
    _magnitude_scale,
)
from repro.operators.multipliers import DrumMultiplier, OperandTruncationMultiplier

__all__ = [
    "MAX_COMPILED_WIDTH",
    "MAX_TABLE_ENTRIES",
    "CompiledAdder",
    "CompiledMultiplier",
    "compile_operator",
    "is_compilable",
    "clear_compiled_caches",
]

#: Widest native width tabulated.  Table sizes grow as ``4**width``; the
#: paper's 8-bit units compile to at most 2 MiB per unit.  Wider units run
#: on a closed form when their family has one.
MAX_COMPILED_WIDTH = 11

#: Hard cap on entries per table (int64): 4M entries = 32 MiB.  Together
#: with :data:`MAX_COMPILED_WIDTH` this tabulates units up to 10 bits and
#: keeps an accidental wide-unit tabulation from exhausting memory.
MAX_TABLE_ENTRIES = 1 << 22

Tables = Tuple[np.ndarray, np.ndarray]

# (native, signed) table pairs keyed by operator family + parameters, shared
# by every compiled instance of behaviourally identical units in a process.
_TABLE_CACHE: Dict[Tuple, Tables] = {}

# Bit-length shift tables keyed by magnitude budget, shared across units.
_SHIFT_LUT_CACHE: Dict[int, np.ndarray] = {}

#: Domain of the shift LUT: per-element dynamic-range shifts are a gather
#: for magnitudes below 2**20 (most of what the bundled workloads produce)
#: and fall back to the float-based scan above it.
_SHIFT_LUT_BITS = 20
_SHIFT_LUT_SIZE = 1 << _SHIFT_LUT_BITS

#: Largest operand magnitude (and multiplier product) the kernels handle
#: themselves; beyond it the unit's analytic model decides.
_SAFE_MAGNITUDE = 1 << _MAX_SAFE_BITS


def _operator_signature(operator: Operator) -> Tuple:
    """Behavioural identity of a unit: family plus every parameter but the name."""
    params = tuple(sorted(
        (key, value) for key, value in vars(operator).items() if key != "name"
    ))
    return (type(operator).__module__, type(operator).__qualname__, params)


def _shift_lut(budget_bits: int) -> np.ndarray:
    """``_magnitude_scale`` tabulated over ``[0, 2**_SHIFT_LUT_BITS)``.

    Every magnitude of bit length ``n`` needs the shift ``n - budget_bits``
    (at least 0), so the int8 table is filled in place one slice
    ``[2**(n-1), 2**n)`` per bit length, with no temporaries.
    """
    table = _SHIFT_LUT_CACHE.get(budget_bits)
    if table is None:
        table = np.zeros(_SHIFT_LUT_SIZE, dtype=np.int8)
        for bits in range(budget_bits + 1, _SHIFT_LUT_BITS + 1):
            table[1 << (bits - 1):1 << bits] = bits - budget_bits
        _SHIFT_LUT_CACHE[budget_bits] = table
    return table


def _scale_shifts(magnitudes: np.ndarray, bound: int, budget_bits: int) -> np.ndarray:
    """``_magnitude_scale(magnitudes, budget_bits)`` for magnitudes at most ``bound``."""
    if bound < _SHIFT_LUT_SIZE:
        return _shift_lut(budget_bits).take(magnitudes)
    return _magnitude_scale(magnitudes, budget_bits)


def _adder_tables(operator: Operator) -> Tables:
    """(native, signed) tables of an adder.

    ``native`` holds the raw ``_compute_native`` value over the unsigned
    ``width+1``-bit domain the base class masks operands into.  ``signed``
    holds the complete shift-0 ``_apply_signed`` result over the scaled
    operand domain ``[-2**(width-1), 2**(width-1))`` — exactly the values
    ``a >> shift`` can take after dynamic-range scaling.
    """
    out_bits = operator.width + 1
    side = 1 << out_bits
    unsigned = np.arange(side, dtype=np.int64)
    native = operator._compute_native(unsigned[:, None], unsigned[None, :])
    native = np.ascontiguousarray(native.astype(np.int64))

    offset = 1 << (operator.width - 1)
    mask = side - 1
    scaled = np.arange(-offset, offset, dtype=np.int64)
    patterns = scaled & mask
    usum = native[patterns[:, None], patterns[None, :]] & mask
    sign_bit = 1 << (out_bits - 1)
    signed = np.where(usum & sign_bit != 0, usum - side, usum).astype(np.int64)
    return native, np.ascontiguousarray(signed)


def _multiplier_tables(operator: Operator) -> Tables:
    """(native, signed) tables of a multiplier.

    ``native`` covers the unsigned magnitude domain ``[0, 2**budget)`` the
    base class scales operands into; ``signed`` covers the shift-0 signed
    apply over ``[-(2**budget - 1), 2**budget - 1]``.
    """
    budget = min(operator.width, (_MAX_SAFE_BITS // 2) - 1)
    side = 1 << budget
    magnitudes = np.arange(side, dtype=np.int64)
    native = operator._compute_native(magnitudes[:, None], magnitudes[None, :])
    native = np.ascontiguousarray(native.astype(np.int64))

    radius = side - 1
    operands = np.arange(-radius, radius + 1, dtype=np.int64)
    mags = np.abs(operands)
    signs = np.sign(operands)
    signed = (signs[:, None] * signs[None, :]) * native[mags[:, None], mags[None, :]]
    return native, np.ascontiguousarray(signed.astype(np.int64))


# ------------------------------------------------------------ closed forms
#
# Adder forms map scaled operands in [-2**(w-1), 2**(w-1)) to the signed
# shift-0 result.  Multiplier forms map magnitudes below 2**budget, none
# above ``bound``, to the native product.


def _truncated_sum(unit: TruncatedAdder) -> Callable:
    # (a & high) + (b & high) is ((a >> cut) + (b >> cut)) << cut.
    high = -(1 << unit.cut)

    def core(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a & high) + (b & high)
    return core


def _lower_or_sum(unit: LowerOrAdder) -> Callable:
    # The truncated sum plus (a | b) & low; as x + y == (x | y) + (x & y),
    # that is the exact sum less the low bits the operands share.
    low = (1 << unit.cut) - 1

    def core(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b - (a & b & low)
    return core


def _truncated_product(unit: OperandTruncationMultiplier) -> Callable:
    keep = ((1 << unit.width) - 1) ^ ((1 << unit.cut) - 1)

    def core(mag_a: np.ndarray, mag_b: np.ndarray, bound: int) -> np.ndarray:
        return (mag_a & keep) * (mag_b & keep)
    return core


def _drum_product(unit: DrumMultiplier) -> Callable:
    k = unit.k

    def truncate(magnitudes: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
        # DRUM keeps the k bits from the leading one: the shift is exactly
        # _magnitude_scale(|x|, k).  The unbiasing LSB is forced to one only
        # where bits were dropped.
        shift = _scale_shifts(magnitudes, bound, k)
        return (magnitudes >> shift) | (shift > 0), shift

    def core(mag_a: np.ndarray, mag_b: np.ndarray, bound: int) -> np.ndarray:
        if bound >> k == 0:
            return mag_a * mag_b    # no magnitude has more than k bits
        ta, sa = truncate(mag_a, bound)
        tb, sb = truncate(mag_b, bound)
        return (ta * tb) << (sa + sb)
    return core


#: Closed forms by exact family (a subclass may change the behaviour).
_ADDER_FORMS: Dict[type, Callable] = {
    TruncatedAdder: _truncated_sum,
    LowerOrAdder: _lower_or_sum,
}
_MULTIPLIER_FORMS: Dict[type, Callable] = {
    OperandTruncationMultiplier: _truncated_product,
    DrumMultiplier: _drum_product,
}


def _peak(values: np.ndarray) -> int:
    """Largest magnitude in ``values``, as an exact Python int (so 2**63 for INT64_MIN)."""
    return max(int(values.max()), -int(values.min()))


class CompiledAdder(ApproximateAdder):
    """Compiled view of an adder: bit-identical, one core call on the hot path.

    With ``tables`` (from ``_adder_tables``) the core is a gather from the
    signed table; without them it is the family's closed form.
    """

    def __init__(self, base: Operator, tables: Optional[Tables] = None) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._radius = (1 << (base.width - 1)) - 1   # |operand| bound of the shift-0 path
        self._native_table: Optional[np.ndarray] = None
        if tables is None:
            self._core = _ADDER_FORMS[type(base)](base)
        else:
            self._native_table, signed_table = tables
            # Flat view + fused offset so one gather addresses the signed table:
            # flat[(a << width) + b + base] == signed[a + offset, b + offset].
            self._signed_flat = np.ascontiguousarray(signed_table.ravel())
            self._index_base = (self._radius + 1) * ((1 << base.width) + 1)
            self._core = self._gather

    def _gather(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._signed_flat.take((a << self.width) + b + self._index_base)

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._native_table is None:
            return self.base._compute_native(a, b)
        return self._native_table[a, b]

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size == 0 or b.size == 0:
            return self.base._apply_signed(a, b)
        peak = max(_peak(a), _peak(b))
        if peak <= self._radius:
            return self._core(a, b)
        if peak > _SAFE_MAGNITUDE:
            return self.base._apply_signed(a, b)
        shift = _scale_shifts(np.maximum(np.abs(a), np.abs(b)), peak, self.width - 1)
        return self._core(a >> shift, b >> shift) << shift

    def __repr__(self) -> str:
        return f"CompiledAdder({self.base!r})"


class CompiledMultiplier(ApproximateMultiplier):
    """Compiled view of a multiplier: bit-identical, one core call on the hot path.

    With ``tables`` (from ``_multiplier_tables``) the in-range core is a
    gather from the signed table and the product of scaled magnitudes a
    gather from the native table; without them both are the family's
    closed form.
    """

    def __init__(self, base: Operator, tables: Optional[Tables] = None) -> None:
        super().__init__(base.width, name=base.name)
        self.base = base
        self._budget = min(base.width, (_MAX_SAFE_BITS // 2) - 1)
        self._radius = (1 << self._budget) - 1   # magnitude bound of the shift-0 path
        self._native_table: Optional[np.ndarray] = None
        if tables is None:
            self._product = _MULTIPLIER_FORMS[type(base)](base)
            self._core = self._signed_product
        else:
            self._native_table, signed_table = tables
            # Flat views + fused offset so one gather serves each path:
            # signed_flat[a*side + b + base] == signed[a + radius, b + radius].
            self._native_flat = np.ascontiguousarray(self._native_table.ravel())
            self._signed_flat = np.ascontiguousarray(signed_table.ravel())
            self._signed_side = signed_table.shape[0]
            self._index_base = self._radius * (self._signed_side + 1)
            self._product = self._native_gather
            self._core = self._signed_gather

    def _native_gather(self, mag_a: np.ndarray, mag_b: np.ndarray, bound: int) -> np.ndarray:
        return self._native_flat.take((mag_a << self._budget) + mag_b)

    def _signed_gather(self, a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
        return self._signed_flat.take(a * self._signed_side + b + self._index_base)

    def _signed_product(self, a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
        return np.sign(a) * np.sign(b) * self._product(np.abs(a), np.abs(b), bound)

    def _compute_native(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._native_table is None:
            return self.base._compute_native(a, b)
        return self._native_table[a, b]

    def _apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.size == 0 or b.size == 0:
            return self.base._apply_signed(a, b)
        peak_a, peak_b = _peak(a), _peak(b)
        bound = max(peak_a, peak_b)
        if bound <= self._radius:
            return self._core(a, b, bound)
        if max(bound, peak_a * peak_b) > _SAFE_MAGNITUDE:
            # Elementwise products may overflow int64; the analytic model
            # owns the exact raise-or-proceed semantics for that regime.
            return self.base._apply_signed(a, b)
        mag_a = np.abs(a)
        mag_b = np.abs(b)
        shift_a = _scale_shifts(mag_a, peak_a, self._budget)
        shift_b = _scale_shifts(mag_b, peak_b, self._budget)
        product = self._product(mag_a >> shift_a, mag_b >> shift_b,
                                min(bound, self._radius))
        return np.sign(a) * np.sign(b) * (product << (shift_a + shift_b))

    def __repr__(self) -> str:
        return f"CompiledMultiplier({self.base!r})"


def _table_entries(operator: Operator) -> int:
    """Entries of the largest table compilation would build for ``operator``."""
    if operator.kind is OperatorKind.ADDER:
        side = 1 << (operator.width + 1)      # native domain dominates
    else:
        budget = min(operator.width, (_MAX_SAFE_BITS // 2) - 1)
        side = 2 * (1 << budget) - 1          # signed domain dominates
    return side * side


def _tabulated(operator: Operator, max_width: int, max_table_entries: int) -> bool:
    return operator.width <= max_width and _table_entries(operator) <= max_table_entries


def is_compilable(operator: Operator, max_width: int = MAX_COMPILED_WIDTH,
                  max_table_entries: int = MAX_TABLE_ENTRIES) -> bool:
    """Whether :func:`compile_operator` would return a compiled kernel.

    Exact units are never compiled: they are already a single vectorised
    operation and bypass dynamic-range scaling entirely.
    """
    if isinstance(operator, (CompiledAdder, CompiledMultiplier)) or operator.is_exact:
        return False
    forms = _ADDER_FORMS if operator.kind is OperatorKind.ADDER else _MULTIPLIER_FORMS
    return _tabulated(operator, max_width, max_table_entries) or type(operator) in forms


def compile_operator(operator: Operator, max_width: int = MAX_COMPILED_WIDTH,
                     max_table_entries: int = MAX_TABLE_ENTRIES) -> Operator:
    """A compiled, bit-identical view of ``operator``.

    Units of at most ``max_width`` bits whose tables fit
    ``max_table_entries`` compile to table kernels; wider units of a family
    with a closed form compile to closed-form kernels.  Anything else comes
    back unchanged: exact units, wider units of other families and
    already-compiled instances.
    """
    if not is_compilable(operator, max_width=max_width,
                         max_table_entries=max_table_entries):
        return operator
    tables = None
    if _tabulated(operator, max_width, max_table_entries):
        key = _operator_signature(operator)
        tables = _TABLE_CACHE.get(key)
        if tables is None:
            if operator.kind is OperatorKind.ADDER:
                tables = _adder_tables(operator)
            else:
                tables = _multiplier_tables(operator)
            _TABLE_CACHE[key] = tables
    if operator.kind is OperatorKind.ADDER:
        return CompiledAdder(operator, tables)
    return CompiledMultiplier(operator, tables)


def clear_compiled_caches() -> None:
    """Drop the process-wide table caches (mainly for tests)."""
    _TABLE_CACHE.clear()
    _SHIFT_LUT_CACHE.clear()
