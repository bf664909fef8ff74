"""Tests for the LUT-compiled operator kernels and the evaluation fast path.

The contract under test is *bit-identity*: compiling an operator, or running
an evaluator in compiled mode, may only change wall-clock — never a single
bit of any result, profile, cost or store key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchmarks import registry
from repro.dse.design_space import DesignPoint
from repro.dse.evaluator import Evaluator
from repro.errors import OperatorError
from repro.operators import (
    CompiledAdder,
    CompiledMultiplier,
    DrumMultiplier,
    ExactAdder,
    ExactMultiplier,
    LogMultiplier,
    LowerOrAdder,
    TruncatedAdder,
    compile_operator,
    default_catalog,
    is_compilable,
)
from repro.operators.base import _MAX_SAFE_BITS
from repro.operators.compiled import MAX_COMPILED_WIDTH
from repro.runtime.store import EvaluationStore


def _compilable_entries():
    catalog = default_catalog()
    return [
        entry for entry in list(catalog.adders) + list(catalog.multipliers)
        if is_compilable(catalog.instance(entry.name))
    ]


def _entry_ids():
    return [entry.name for entry in _compilable_entries()]


class TestCompileOperator:
    def test_exact_operators_are_returned_unchanged(self):
        adder = ExactAdder(8)
        multiplier = ExactMultiplier(8)
        assert compile_operator(adder) is adder
        assert compile_operator(multiplier) is multiplier

    def test_wide_operators_are_returned_unchanged(self):
        wide_adder = TruncatedAdder(16, cut=11)
        wide_multiplier = DrumMultiplier(32, k=7)
        assert compile_operator(wide_adder) is wide_adder
        assert compile_operator(wide_multiplier) is wide_multiplier
        assert not is_compilable(wide_adder)
        assert not is_compilable(wide_multiplier)

    def test_width_cap_is_respected(self):
        narrow = TruncatedAdder(8, cut=3)
        assert is_compilable(narrow)
        assert not is_compilable(narrow, max_width=7)
        assert compile_operator(narrow, max_width=7) is narrow

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
    """Every compilable catalog operator, over its *entire* native domain."""

    @pytest.mark.parametrize("entry", _compilable_entries(), ids=_entry_ids())
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

    @pytest.mark.parametrize("entry", _compilable_entries(), ids=_entry_ids())
    def test_apply_matches_over_full_signed_native_domain(self, entry):
        catalog = default_catalog()
        base = catalog.instance(entry.name)
        compiled = compile_operator(base)
        # Covers the shift-0 fast path and the boundary into scaling.
        operands = np.arange(-(1 << entry.width), 1 << entry.width, dtype=np.int64)
        expected = base.apply(operands[:, None], operands[None, :])
        actual = compiled.apply(operands[:, None], operands[None, :])
        np.testing.assert_array_equal(expected, actual)

    @pytest.mark.parametrize("entry", _compilable_entries(), ids=_entry_ids())
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

    @pytest.mark.parametrize("entry", _compilable_entries(), ids=_entry_ids())
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

    @pytest.mark.parametrize("entry", _compilable_entries(), ids=_entry_ids())
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


# Small configurations of every registered benchmark: compiled and analytic
# evaluators must produce bit-identical records for each of them.
_SMALL_BENCHMARKS = {
    "matmul": {"rows": 5, "inner": 5, "cols": 5},
    "fir": {"num_samples": 16, "num_taps": 4},
    "conv2d": {"height": 6, "width": 6},
    "dct": {"block_size": 4, "num_blocks": 1},
    "sobel": {"height": 6, "width": 6},
    "dotproduct": {"length": 16},
    "kmeans": {"num_points": 8, "num_centroids": 2, "dimensions": 3},
}


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
            np.testing.assert_array_equal(expected.outputs, actual.outputs)

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
        from repro.benchmarks.base import Benchmark

        class AuxBenchmark(Benchmark):
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

        compiled = Evaluator(AuxBenchmark(), seed=1, compiled=True)
        analytic = Evaluator(AuxBenchmark(), seed=1, compiled=False)
        assert compiled.inputs["scale"].dtype.kind == "f"
        point = compiled.design_space.most_aggressive_point()
        assert compiled._trusted is False  # operands no longer guaranteed
        expected = analytic.evaluate(point)
        actual = compiled.evaluate(point)
        assert expected.deltas == actual.deltas
        np.testing.assert_array_equal(expected.outputs, actual.outputs)

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
            np.testing.assert_array_equal(actual.outputs, expected.outputs)

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

    def test_sweep_chunks_evaluate_on_compiled_kernels(self):
        from repro.dse.sweep import _evaluator_for
        from repro.runtime.jobs import SweepJob

        benchmark = registry.create("dotproduct", length=8)
        job = SweepJob("dotproduct_8", benchmark, seed=0, start=0, stop=16)
        assert _evaluator_for(job, EvaluationStore(), store_outputs=False).compiled is True
