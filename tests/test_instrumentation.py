"""Tests for the approximation context and operation profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InstrumentationError, OperatorError
from repro.instrumentation import ApproxContext, OperationProfile
from repro.operators import (
    ExactAdder,
    ExactMultiplier,
    OperandTruncationMultiplier,
    TruncatedAdder,
    default_catalog,
)


@pytest.fixture
def exact_units():
    return ExactAdder(8, name="exact_add"), ExactMultiplier(8, name="exact_mul")


@pytest.fixture
def approx_units():
    return (
        TruncatedAdder(8, cut=3, name="approx_add"),
        OperandTruncationMultiplier(8, cut=3, name="approx_mul"),
    )


class TestOperationProfile:
    def test_record_and_count(self):
        profile = OperationProfile()
        profile.record("unit_a", 10)
        profile.record("unit_a", 5)
        profile.record("unit_b", 1)
        assert profile.count("unit_a") == 15
        assert profile.count("unit_b") == 1
        assert profile.count("unit_c") == 0
        assert profile.total_operations == 16

    def test_zero_count_is_ignored(self):
        profile = OperationProfile()
        profile.record("unit_a", 0)
        assert len(profile) == 0

    def test_negative_count_raises(self):
        with pytest.raises(InstrumentationError):
            OperationProfile().record("unit_a", -1)

    def test_merge(self):
        first = OperationProfile()
        first.record("unit_a", 2)
        second = OperationProfile()
        second.record("unit_a", 3)
        second.record("unit_b", 1)
        merged = first.merge(second)
        assert merged.count("unit_a") == 5
        assert merged.count("unit_b") == 1
        assert first.count("unit_a") == 2  # originals untouched

    def test_as_dict_and_clear(self):
        profile = OperationProfile()
        profile.record("unit_a", 2)
        assert profile.as_dict() == {"unit_a": 2}
        profile.clear()
        assert profile.total_operations == 0

    def test_equality(self):
        first = OperationProfile()
        second = OperationProfile()
        first.record("x", 1)
        second.record("x", 1)
        assert first == second


class TestApproxContext:
    def test_precise_context_uses_exact_units(self, exact_units, approx_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        result = context.add(3, 4, variables=("x",))
        assert int(result) == 7
        assert context.profile.count("exact_add") == 1
        assert context.is_precise

    def test_approximate_dispatch_on_selected_variable(self, exact_units, approx_units):
        exact_adder, exact_multiplier = exact_units
        approx_adder, approx_multiplier = approx_units
        context = ApproxContext(exact_adder, exact_multiplier, approx_adder, approx_multiplier,
                                approximate_variables=("x",))
        context.add(100, 27, variables=("x",))
        context.add(100, 27, variables=("y",))
        assert context.profile.count("approx_add") == 1
        assert context.profile.count("exact_add") == 1

    def test_any_selected_variable_triggers_approximation(self, exact_units, approx_units):
        exact_adder, exact_multiplier = exact_units
        approx_adder, approx_multiplier = approx_units
        context = ApproxContext(exact_adder, exact_multiplier, approx_adder, approx_multiplier,
                                approximate_variables=("x",))
        context.mul(10, 20, variables=("y", "x"))
        assert context.profile.count("approx_mul") == 1

    def test_vectorised_operations_count_elements(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        context.add(np.arange(10), np.arange(10))
        context.mul(np.arange(6).reshape(2, 3), 2)
        assert context.profile.count("exact_add") == 10
        assert context.profile.count("exact_mul") == 6

    def test_sub_uses_the_adder(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        result = context.sub(10, 4)
        assert int(result) == 6
        assert context.profile.count("exact_add") == 1

    def test_sub_rejects_boolean_operand_with_operator_error(self, exact_units):
        # Regression: sub negated b before validation, so booleans hit a raw
        # NumPy TypeError instead of the OperatorError add/mul raise.
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        with pytest.raises(OperatorError):
            context.sub(10, np.array([True, False]))
        with pytest.raises(OperatorError):
            context.sub(10, True)

    def test_sub_rejects_non_integral_float_with_operator_error(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        with pytest.raises(OperatorError):
            context.sub(10, 0.5)
        with pytest.raises(OperatorError):
            context.sub(10, np.array([1.0, 2.5]))

    def test_sub_accepts_integral_floats(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        result = context.sub(10, np.array([2.0, 4.0]))
        np.testing.assert_array_equal(result, np.array([8, 6]))

    @pytest.mark.parametrize("value", [1e20, 2.0 ** 63, -2.0 ** 64], ids=repr)
    def test_out_of_range_floats_raise_instead_of_wrapping(self, exact_units, value):
        # Regression: the int64 cast turned these into INT64_MIN, so
        # add8_6R6.apply(1e20, 1) returned [1] with only a RuntimeWarning.
        exact_adder, exact_multiplier = exact_units
        unit = default_catalog().instance("add8_6R6")
        for a, b in ((value, 1), (1, value), (np.array([2.0, value]), 3)):
            with pytest.raises(OperatorError):
                unit.apply(a, b)
        context = ApproxContext(exact_adder, exact_multiplier, approx_adder=unit,
                                approximate_variables=("x",))
        assert not context.trusted
        for operation in (context.add, context.sub, context.mul):
            for variables in (("x",), ()):
                with pytest.raises(OperatorError):
                    operation(np.array([2.0, value]), 3, variables=variables)
                with pytest.raises(OperatorError):
                    operation(3, value, variables=variables)

    def test_int64_min_float_is_still_accepted(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        unit = default_catalog().instance("add8_6R6")
        int64_min = np.iinfo(np.int64).min
        assert int(unit.apply(-2.0 ** 63, 1)) == int(unit.apply(int64_min, 1))
        context = ApproxContext(exact_adder, exact_multiplier)
        np.testing.assert_array_equal(
            context.add(np.array([-2.0 ** 63, 4.0]), 0), np.array([int64_min, 4]))

    def test_out_of_range_unsigned_integers_raise(self):
        unit = default_catalog().instance("add8_6R6")
        with pytest.raises(OperatorError):
            unit.apply(2 ** 63, 1)
        with pytest.raises(OperatorError):
            unit.apply(np.array([1, 2 ** 64 - 1], dtype=np.uint64), 1)
        assert int(unit.apply(np.uint64(2 ** 63 - 1), 0)) == int(unit.apply(2 ** 63 - 1, 0))

    def test_accumulate_counts_chain_of_adds(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        values = np.arange(12).reshape(4, 3)
        totals = context.accumulate(values, axis=0)
        np.testing.assert_array_equal(totals, values.sum(axis=0))
        assert context.profile.count("exact_add") == 4 * 3

    def test_accumulate_empty_raises(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        with pytest.raises(InstrumentationError):
            context.accumulate(np.empty((0,), dtype=np.int64))

    def test_reset_profile(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        context = ApproxContext(exact_adder, exact_multiplier)
        context.add(1, 2)
        context.reset_profile()
        assert context.profile.total_operations == 0

    def test_kind_mismatch_raises(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        with pytest.raises(InstrumentationError):
            ApproxContext(exact_multiplier, exact_adder)

    def test_no_variables_selected_is_precise(self, exact_units, approx_units):
        exact_adder, exact_multiplier = exact_units
        approx_adder, approx_multiplier = approx_units
        context = ApproxContext(exact_adder, exact_multiplier, approx_adder, approx_multiplier)
        assert context.is_precise
        context.add(5, 5, variables=("x",))
        assert context.profile.count("exact_add") == 1


class TestTrustedContext:
    def _contexts(self, exact_units, approx_units, selected=("x",)):
        exact_adder, exact_multiplier = exact_units
        approx_adder, approx_multiplier = approx_units
        untrusted = ApproxContext(exact_adder, exact_multiplier, approx_adder,
                                  approx_multiplier, approximate_variables=selected)
        trusted = ApproxContext(exact_adder, exact_multiplier, approx_adder,
                                approx_multiplier, approximate_variables=selected,
                                trusted=True)
        return untrusted, trusted

    def test_trusted_flag_is_exposed(self, exact_units):
        exact_adder, exact_multiplier = exact_units
        assert not ApproxContext(exact_adder, exact_multiplier).trusted
        assert ApproxContext(exact_adder, exact_multiplier, trusted=True).trusted

    def test_trusted_results_match_untrusted(self, exact_units, approx_units):
        untrusted, trusted = self._contexts(exact_units, approx_units)
        rng = np.random.default_rng(0)
        a = rng.integers(-1000, 1000, size=(8, 1))
        b = rng.integers(-1000, 1000, size=(1, 8))
        for variables in (("x",), ("y",)):
            np.testing.assert_array_equal(
                untrusted.add(a, b, variables=variables),
                trusted.add(a, b, variables=variables),
            )
            np.testing.assert_array_equal(
                untrusted.mul(a, b, variables=variables),
                trusted.mul(a, b, variables=variables),
            )
            np.testing.assert_array_equal(
                untrusted.sub(a, b, variables=variables),
                trusted.sub(a, b, variables=variables),
            )
        assert untrusted.profile == trusted.profile

    def test_trusted_broadcasting_counts_full_result(self, exact_units, approx_units):
        _, trusted = self._contexts(exact_units, approx_units)
        trusted.add(np.zeros((4, 1), dtype=np.int64), np.zeros((1, 5), dtype=np.int64))
        assert trusted.profile.count("exact_add") == 20

    def test_trusted_scalar_operations(self, exact_units, approx_units):
        _, trusted = self._contexts(exact_units, approx_units)
        assert int(trusted.add(3, 4)) == 7
        assert int(trusted.mul(3, 4)) == 12
        assert int(trusted.sub(9, 4)) == 5

