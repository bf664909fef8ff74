"""Tests for the compiled operator kernels and the evaluation fast path.

The contract under test is *bit-identity*: compiling an operator, or running
an evaluator in compiled mode, may only change wall-clock — never a single
bit of any result, profile, cost or store key.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import registry
from repro.benchmarks.base import Benchmark
from repro.dse.design_space import DesignPoint
from repro.dse.evaluator import Evaluator
from repro.errors import OperatorError
from repro.operators import (
    BrokenArrayMultiplier,
    CarryCutAdder,
    CompiledAdder,
    CompiledMultiplier,
    DrumMultiplier,
    ExactAdder,
    ExactMultiplier,
    LogMultiplier,
    LowerOrAdder,
    OperatorKind,
    TruncatedAdder,
    compile_operator,
    default_catalog,
    is_compilable,
)
from repro.operators import compiled as compiled_module
from repro.operators.base import _MAX_SAFE_BITS, _magnitude_scale
from repro.operators.compiled import MAX_COMPILED_WIDTH
from repro.runtime.store import EvaluationStore


def _approximate_entries(tabulated):
    catalog = default_catalog()
    return [
        entry for entry in list(catalog.adders) + list(catalog.multipliers)
        if not catalog.instance(entry.name).is_exact
        and (entry.width <= MAX_COMPILED_WIDTH) == tabulated
    ]


def _tabulated_entries():
    return _approximate_entries(tabulated=True)


def _entry_ids():
    return [entry.name for entry in _tabulated_entries()]


def _wide_names():
    return [entry.name for entry in _approximate_entries(tabulated=False)]


class TestCompileOperator:
    def test_exact_operators_are_returned_unchanged(self):
        adder = ExactAdder(8)
        multiplier = ExactMultiplier(8)
        assert compile_operator(adder) is adder
        assert compile_operator(multiplier) is multiplier

    def test_wide_catalog_units_compile_to_closed_forms(self, monkeypatch):
        # Every approximate catalog unit gets a kernel; the wide ones build
        # no tables, so compiling them adds no table build to a run.
        monkeypatch.setattr(compiled_module, "_TABLE_CACHE", {})
        catalog = default_catalog()
        names = _wide_names()
        assert len(names) == 10
        for name in names:
            base = catalog.instance(name)
            assert is_compilable(base)
            kernel = compile_operator(base)
            assert isinstance(kernel, (CompiledAdder, CompiledMultiplier)), name
            assert kernel.base is base
            assert kernel._native_table is None
        assert compiled_module._TABLE_CACHE == {}

    @pytest.mark.parametrize("unit", [
        CarryCutAdder(16, segment=4),
        LogMultiplier(32),
        BrokenArrayMultiplier(32, omitted=8),
    ], ids=repr)
    def test_wide_family_without_closed_form_is_returned_unchanged(self, unit):
        assert not is_compilable(unit)
        assert compile_operator(unit) is unit

    def test_width_cap_is_respected(self):
        # max_width bounds the tabulated units.  Above it a family with a
        # closed form compiles to one; any other unit comes back unchanged.
        narrow = TruncatedAdder(8, cut=3)
        assert compile_operator(narrow)._native_table is not None
        assert is_compilable(narrow, max_width=7)
        closed = compile_operator(narrow, max_width=7)
        assert isinstance(closed, CompiledAdder)
        assert closed._native_table is None
        operands = np.arange(-600, 600, 7, dtype=np.int64)
        np.testing.assert_array_equal(
            narrow.apply(operands[:, None], operands[None, :]),
            closed.apply(operands[:, None], operands[None, :]),
        )
        carry_cut = CarryCutAdder(8, segment=2)
        assert is_compilable(carry_cut)
        assert not is_compilable(carry_cut, max_width=7)
        assert compile_operator(carry_cut, max_width=7) is carry_cut

    def test_compiled_operator_keeps_identity(self):
        base = LowerOrAdder(8, cut=4, name="add8_6R6")
        compiled = compile_operator(base)
        assert isinstance(compiled, CompiledAdder)
        assert compiled.name == base.name
        assert compiled.width == base.width
        assert compiled.kind is base.kind
        assert compiled.base is base

    def test_compiling_a_compiled_operator_is_a_no_op(self):
        compiled = compile_operator(DrumMultiplier(8, k=3))
        assert isinstance(compiled, CompiledMultiplier)
        assert compile_operator(compiled) is compiled

    def test_tables_are_shared_between_equal_units(self):
        first = compile_operator(TruncatedAdder(8, cut=3, name="one"))
        second = compile_operator(TruncatedAdder(8, cut=3, name="two"))
        assert first._native_table is second._native_table
        assert np.shares_memory(first._signed_flat, second._signed_flat)

    def test_different_parameters_get_different_tables(self):
        first = compile_operator(TruncatedAdder(8, cut=3))
        second = compile_operator(TruncatedAdder(8, cut=4))
        assert first._native_table is not second._native_table

    def test_max_compiled_width_covers_the_paper_units(self):
        assert MAX_COMPILED_WIDTH >= 8


class TestExhaustiveEquivalence:
    """Every tabulated catalog operator, over its *entire* native domain."""

    @pytest.mark.parametrize("entry", _tabulated_entries(), ids=_entry_ids())
    def test_compute_native_matches_over_full_unsigned_domain(self, entry):
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        if compiled.kind.value == "adder":
            side = 1 << (entry.width + 1)   # the base class masks to width+1 bits
        else:
            side = 1 << min(entry.width, (_MAX_SAFE_BITS // 2) - 1)
        operands = np.arange(side, dtype=np.int64)
        expected = base._compute_native(operands[:, None], operands[None, :])
        actual = compiled._compute_native(operands[:, None], operands[None, :])
        np.testing.assert_array_equal(np.asarray(expected), np.asarray(actual))

    @pytest.mark.parametrize("entry", _tabulated_entries(), ids=_entry_ids())
    def test_apply_matches_over_full_signed_native_domain(self, entry):
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        # Covers the shift-0 fast path and the boundary into scaling.
        operands = np.arange(-(1 << entry.width), 1 << entry.width, dtype=np.int64)
        expected = base.apply(operands[:, None], operands[None, :])
        actual = compiled.apply(operands[:, None], operands[None, :])
        np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("entry", _tabulated_entries(), ids=_entry_ids())
    def test_apply_matches_on_wide_operands(self, entry):
        # Dynamic-range scaling: operands far beyond the native width.
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        rng = np.random.default_rng(42)
        for scale_bits in (10, 16, 24):
            bound = 1 << scale_bits
            a = rng.integers(-bound, bound, size=4096)
            b = rng.integers(-bound, bound, size=4096)
            np.testing.assert_array_equal(base.apply(a, b), compiled.apply(a, b))

    @pytest.mark.parametrize("entry", _tabulated_entries(), ids=_entry_ids())
    def test_apply_matches_on_mixed_range_operands(self, entry):
        # In-range and out-of-range elements in one call: per-element shifts.
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        rng = np.random.default_rng(7)
        a = np.concatenate([
            rng.integers(-100, 100, size=64),
            rng.integers(-2 ** 22, 2 ** 22, size=64),
        ])
        b = rng.permutation(a)
        np.testing.assert_array_equal(base.apply(a, b), compiled.apply(a, b))

    @pytest.mark.parametrize("entry", _tabulated_entries(), ids=_entry_ids())
    def test_scalar_and_broadcast_calls_match(self, entry):
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        assert int(base.apply(93, -41)) == int(compiled.apply(93, -41))
        column = np.arange(-5, 6, dtype=np.int64)[:, None]
        row = np.arange(-3, 4, dtype=np.int64)[None, :]
        np.testing.assert_array_equal(base.apply(column, row), compiled.apply(column, row))

    def test_compiled_multiplier_overflow_guard_matches_base(self):
        base = DrumMultiplier(8, k=3)
        compiled = compile_operator(base)
        huge = np.array([1 << 32], dtype=np.int64)
        with pytest.raises(OperatorError):
            base.apply(huge, huge)
        with pytest.raises(OperatorError):
            compiled.apply(huge, huge)

    def test_compiled_operator_rejects_floats_like_the_base(self):
        compiled = compile_operator(LogMultiplier(8))
        with pytest.raises(OperatorError):
            compiled.apply(1.5, 2)

    def test_log_multiplier_lut_matches_exhaustively(self):
        # The heaviest analytic model, singled out: full positive domain.
        base = LogMultiplier(8)
        compiled = compile_operator(base)
        operands = np.arange(256, dtype=np.int64)
        np.testing.assert_array_equal(
            base.apply(operands[:, None], operands[None, :]),
            compiled.apply(operands[:, None], operands[None, :]),
        )


#: +-2**j and +-2**j+-1 for every j <= 31.
_BOUNDARIES = np.array(sorted({
    sign * ((1 << j) + delta)
    for j in range(32) for delta in (-1, 0, 1) for sign in (1, -1)
}), dtype=np.int64)

_WIDE_OPERANDS = st.integers(-(2 ** 31), 2 ** 31)
#: Elements inside every wide unit's native budget mixed with elements that
#: need dynamic-range scaling, in one call.
_MIXED_OPERANDS = st.one_of(st.integers(-(2 ** 12), 2 ** 12), _WIDE_OPERANDS)


def _wide_pair(name):
    base = default_catalog().instance(name)
    return base, compile_operator(base)


def _outcome(unit, a, b):
    """The result of one call, or the OperatorError it raised."""
    try:
        return unit.apply(a, b)
    except OperatorError as error:
        return error


def _assert_same_outcome(base, kernel, a, b):
    expected, actual = _outcome(base, a, b), _outcome(kernel, a, b)
    if isinstance(expected, OperatorError):
        assert isinstance(actual, OperatorError), (a, b)
    else:
        np.testing.assert_array_equal(expected, actual, err_msg=str((a, b)))


class TestWideKernels:
    """The closed-form kernels of the wide catalog units against the analytic apply."""

    @pytest.mark.parametrize("name", _wide_names())
    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(_MIXED_OPERANDS, _MIXED_OPERANDS), min_size=1, max_size=48))
    def test_matches_analytic_apply(self, name, pairs):
        base, kernel = _wide_pair(name)
        a = np.array([pair[0] for pair in pairs], dtype=np.int64)
        b = np.array([pair[1] for pair in pairs], dtype=np.int64)
        expected = base.apply(a, b)
        np.testing.assert_array_equal(expected, kernel.apply(a, b))
        np.testing.assert_array_equal(expected, kernel.apply_trusted(a, b))

    @pytest.mark.parametrize("name", _wide_names())
    def test_matches_on_power_of_two_boundaries(self, name):
        # One call per peak magnitude 2**j-1, 2**j and 2**j+1, so the
        # shift-0 path and the scaled path both meet every boundary.
        base, kernel = _wide_pair(name)
        multiplier = base.kind is OperatorKind.MULTIPLIER
        for limit in sorted({abs(int(value)) for value in _BOUNDARIES}):
            values = _BOUNDARIES[np.abs(_BOUNDARIES) <= limit]
            a, b = (grid.ravel() for grid in np.meshgrid(values, values))
            if multiplier:
                # Products beyond int64 headroom raise: see the overflow test.
                safe = np.abs(a) * np.abs(b) <= 1 << _MAX_SAFE_BITS
                a, b = a[safe], b[safe]
            np.testing.assert_array_equal(base.apply(a, b), kernel.apply(a, b), err_msg=str(limit))

    @pytest.mark.parametrize("name", _wide_names())
    def test_scalar_and_broadcast_calls_match(self, name):
        base, kernel = _wide_pair(name)
        row = np.arange(-(1 << 21), 1 << 21, 40_009, dtype=np.int64)[None, :]
        column = np.arange(-40_000, 40_000, 997, dtype=np.int64)[:, None]
        assert int(base.apply(93, -41)) == int(kernel.apply(93, -41))
        for a, b in ((12_345, row), (row, -(1 << 17)), (column, row), (column, 7)):
            expected = base.apply(a, b)
            np.testing.assert_array_equal(expected, kernel.apply(a, b))
            np.testing.assert_array_equal(expected, kernel.apply_trusted(a, b))

    @pytest.mark.parametrize("name", _wide_names())
    def test_empty_operands(self, name):
        base, kernel = _wide_pair(name)
        empty = np.array([], dtype=np.int64)
        for a, b in ((empty, empty), (empty, 5), (np.empty((0, 3), dtype=np.int64), np.arange(3))):
            expected = base.apply(a, b)
            actual = kernel.apply(a, b)
            assert actual.shape == expected.shape
            assert actual.dtype == expected.dtype

    @pytest.mark.parametrize("name", [name for name in _wide_names() if name.startswith("mul")])
    def test_overflow_regime_raises_like_the_analytic_path(self, name):
        base, kernel = _wide_pair(name)
        beyond = np.array([3, (1 << 31) + 1], dtype=np.int64)
        for a, b in ((beyond, beyond), (1 << 40, 1 << 23), (-(1 << 62), 3)):
            assert isinstance(_outcome(base, a, b), OperatorError)
            assert isinstance(_outcome(kernel, a, b), OperatorError)

    @pytest.mark.parametrize("name", _wide_names() + _entry_ids())
    def test_int64_extremes_take_the_analytic_path(self, name):
        # Magnitudes beyond 2**62, INT64_MIN included, leave the kernels to
        # the analytic path, with its values and its errors.
        base, kernel = _wide_pair(name)
        info = np.iinfo(np.int64)
        extremes = [info.min, info.min + 1, -(1 << 62) - 1, -(1 << 62), 1 << 62,
                    (1 << 62) + 1, info.max, -1, 0, 1, 1 << 20]
        with np.errstate(over="ignore"):
            for x in extremes:
                _assert_same_outcome(base, kernel, np.array([x, 5]), np.array(extremes[:2]))
                for y in extremes:
                    _assert_same_outcome(base, kernel, x, y)


class TestShiftTable:
    """The bit-length table behind every per-element dynamic-range shift."""

    def test_matches_magnitude_scale_for_every_budget(self, monkeypatch):
        monkeypatch.setattr(compiled_module, "_SHIFT_LUT_CACHE", {})
        magnitudes = np.arange(1 << compiled_module._SHIFT_LUT_BITS, dtype=np.int64)
        for budget in range(32):
            table = compiled_module._shift_lut(budget)
            assert table.dtype == np.int8
            np.testing.assert_array_equal(table, _magnitude_scale(magnitudes, budget),
                                          err_msg=str(budget))

    def test_build_allocates_no_large_temporaries(self, monkeypatch):
        # The table is 1 MiB of int8; building it must not allocate the
        # int64/float64 scans of its whole domain on the way.
        monkeypatch.setattr(compiled_module, "_SHIFT_LUT_CACHE", {})
        for budget in (0, 7, 15, 31):
            tracemalloc.start()
            try:
                compiled_module._shift_lut(budget)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (budget, peak)


# Small configurations of every registered benchmark: compiled and analytic
# evaluators must produce bit-identical records for each of them.
class AuxBenchmark(Benchmark):
    """Generates float data it consumes outside the context (no row axis)."""

    name = "aux"
    variables = ("u",)
    add_width = 8
    mul_width = 8

    def generate_inputs(self, rng):
        return {
            "u": rng.integers(0, 100, size=8),
            "scale": rng.random(8),  # never an operand
        }

    def run(self, context, inputs):
        doubled = context.mul(np.asarray(inputs["u"]), 2, variables=("u",))
        return np.where(np.asarray(inputs["scale"]) > 2.0, 0, doubled)


_SMALL_BENCHMARKS = {
    "matmul": {"rows": 5, "inner": 5, "cols": 5},
    "fir": {"num_samples": 16, "num_taps": 4},
    "conv2d": {"height": 6, "width": 6},
    "dct": {"block_size": 4, "num_blocks": 1},
    "sobel": {"height": 6, "width": 6},
    "dotproduct": {"length": 16},
    "kmeans": {"num_points": 8, "num_centroids": 2, "dimensions": 3},
}


def _outputs(evaluator, point):
    """The raw outputs :meth:`Evaluator.evaluate` measures for ``point``.

    Records keep no outputs, so the point is run again on the same context
    path (trusted exactly when the evaluator's own runs are) and workload.
    """
    context = evaluator.context_for(point, trusted=evaluator._trusted)
    return evaluator.benchmark.execute(context, evaluator.inputs).outputs


class TestEvaluatorEquivalence:
    def _sample_points(self, space, limit=24):
        stride = max(space.size // limit, 1)
        return [space.point_at(index) for index in range(0, space.size, stride)]

    @pytest.mark.parametrize("name", sorted(_SMALL_BENCHMARKS), ids=sorted(_SMALL_BENCHMARKS))
    def test_compiled_and_analytic_records_are_bit_identical(self, name):
        benchmark = registry.create(name, **_SMALL_BENCHMARKS[name])
        analytic = Evaluator(benchmark, seed=11, compiled=False)
        compiled = Evaluator(benchmark, seed=11, compiled=True)

        assert analytic.store_context == compiled.store_context
        np.testing.assert_array_equal(analytic.precise_outputs, compiled.precise_outputs)
        assert analytic.precise_cost == compiled.precise_cost

        for point in self._sample_points(analytic.design_space):
            expected = analytic.evaluate(point)
            actual = compiled.evaluate(point)
            assert expected.deltas == actual.deltas, point
            assert expected.approx_cost == actual.approx_cost, point
            np.testing.assert_array_equal(_outputs(analytic, point),
                                          _outputs(compiled, point))

    @pytest.mark.parametrize("name", sorted(_SMALL_BENCHMARKS), ids=sorted(_SMALL_BENCHMARKS))
    def test_profiles_are_bit_identical(self, name):
        benchmark = registry.create(name, **_SMALL_BENCHMARKS[name])
        analytic = Evaluator(benchmark, seed=3, compiled=False)
        compiled = Evaluator(benchmark, seed=3, compiled=True)
        space = analytic.design_space
        point = space.most_aggressive_point()

        analytic_context = analytic.context_for(point)
        compiled_context = compiled.context_for(point)
        benchmark.execute(analytic_context, analytic.inputs)
        benchmark.execute(compiled_context, compiled.inputs)
        assert analytic_context.profile == compiled_context.profile

    def test_compiled_evaluations_serve_analytic_evaluators_from_the_store(self):
        # Same keys, same records: the store cannot tell the paths apart.
        benchmark = registry.create("matmul", **_SMALL_BENCHMARKS["matmul"])
        store = EvaluationStore()
        compiled = Evaluator(benchmark, seed=5, compiled=True, store=store)
        point = compiled.design_space.most_aggressive_point()
        record = compiled.evaluate(point)

        analytic = Evaluator(benchmark, seed=5, compiled=False, store=store)
        assert analytic.evaluate(point) is record
        assert store.stats.hits >= 1

    def test_compiled_flag_is_exposed(self):
        benchmark = registry.create("dotproduct", length=8)
        assert Evaluator(benchmark).compiled is True
        assert Evaluator(benchmark, compiled=False).compiled is False

    def test_compiled_context_uses_lut_kernels_for_narrow_units(self):
        benchmark = registry.create("matmul", **_SMALL_BENCHMARKS["matmul"])
        evaluator = Evaluator(benchmark, compiled=True)
        space = evaluator.design_space
        point = DesignPoint(2, 2, (True,) * space.num_variables)
        context = evaluator.context_for(point, trusted=True)
        assert context.trusted
        approx_adder = context._approx_adder
        approx_multiplier = context._approx_multiplier
        assert isinstance(approx_adder, CompiledAdder)
        assert isinstance(approx_multiplier, CompiledMultiplier)

    def test_public_context_still_validates_operands_by_default(self):
        # context_for without trusted=True keeps the validating apply path,
        # so external callers probing their own data still get OperatorError
        # for bad operands even on a compiled evaluator.
        benchmark = registry.create("matmul", **_SMALL_BENCHMARKS["matmul"])
        evaluator = Evaluator(benchmark, compiled=True)
        point = DesignPoint(2, 2, (True,) * evaluator.design_space.num_variables)
        context = evaluator.context_for(point)
        assert not context.trusted
        with pytest.raises(OperatorError):
            context.mul(np.array([0.5]), np.array([2]), variables=("a",))

    def test_non_integer_auxiliary_inputs_fall_back_to_validating_contexts(self):
        # A benchmark may generate auxiliary float data it consumes outside
        # the context; the evaluator must accept it (on both paths) and keep
        # per-call operand validation, since trusted dispatch can no longer
        # be guaranteed.
        compiled = Evaluator(AuxBenchmark(), seed=1, compiled=True)
        analytic = Evaluator(AuxBenchmark(), seed=1, compiled=False)
        assert compiled.inputs["scale"].dtype.kind == "f"
        point = compiled.design_space.most_aggressive_point()
        assert compiled._trusted is False  # operands no longer guaranteed
        expected = analytic.evaluate(point)
        actual = compiled.evaluate(point)
        assert expected.deltas == actual.deltas
        np.testing.assert_array_equal(_outputs(analytic, point), _outputs(compiled, point))

    def test_analytic_reference_matches_every_point_of_a_space(self):
        # The analytic models are the oracle for the compiled default: every
        # point of dotproduct:length=8, through the range path sweeps take.
        benchmark = registry.create("dotproduct", length=8)
        analytic = Evaluator(benchmark, compiled=False)
        compiled = Evaluator(benchmark)
        space = compiled.design_space
        assert space.size == 288
        records = compiled.evaluate_index_range(0, space.size)
        assert len(records) == space.size
        for index, actual in enumerate(records):
            expected = analytic.evaluate(space.point_at(index))
            assert actual.point == expected.point, index
            assert actual.deltas == expected.deltas, index
            assert actual.approx_cost == expected.approx_cost, index
            np.testing.assert_array_equal(_outputs(compiled, actual.point),
                                          _outputs(analytic, actual.point))

    def test_analytic_context_keeps_analytic_kernels(self):
        benchmark = registry.create("matmul", **_SMALL_BENCHMARKS["matmul"])
        evaluator = Evaluator(benchmark, compiled=False)
        point = DesignPoint(2, 2, (True,) * evaluator.design_space.num_variables)
        context = evaluator.context_for(point)
        assert not context.trusted
        assert not isinstance(context._approx_adder, CompiledAdder)
        assert not isinstance(context._approx_multiplier, CompiledMultiplier)


class TestOneKernelPath:
    """Above the evaluator there is one kernel path: the compiled default."""

    @pytest.mark.parametrize("owner", [
        "repro.experiments.spec:RuntimeSpec",
        "repro.runtime.jobs:SweepJob",
        "repro.planner.plan:ExplorationUnit",
        "repro.planner.plan:SweepChunkUnit",
        "repro.reporting.pipeline:PaperPipeline",
        "repro.dse.environment:AxcDseEnv",
        "repro.dse.batched_env:BatchedAxcDseEnv",
    ], ids=lambda owner: owner.split(":")[1])
    def test_no_compiled_parameter_above_the_evaluator(self, owner):
        import importlib
        import inspect

        module_name, name = owner.split(":")
        cls = getattr(importlib.import_module(module_name), name)
        assert "compiled" not in inspect.signature(cls).parameters

    def test_environments_evaluate_on_compiled_kernels(self):
        from repro.dse import AxcDseEnv
        from repro.dse.batched_env import BatchedAxcDseEnv

        benchmark = registry.create("dotproduct", length=8)
        assert AxcDseEnv(benchmark).evaluator.compiled is True
        batched = BatchedAxcDseEnv(benchmark, seeds=[0, 1])
        assert all(evaluator.compiled for evaluator in batched._evaluators)

    def test_sweep_chunks_evaluate_on_compiled_kernels(self, monkeypatch):
        from repro.dse import sweep
        from repro.runtime.jobs import SweepJob

        built = []

        class SpyEvaluator(sweep.Evaluator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(sweep, "Evaluator", SpyEvaluator)
        benchmark = registry.create("dotproduct", length=8)
        sweep.execute_sweep_job(SweepJob("dotproduct_8", benchmark, seed=0),
                                EvaluationStore())
        assert [evaluator.compiled for evaluator in built] == [True]
