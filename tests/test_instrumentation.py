"""Tests for the approximation context and operation profile."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InstrumentationError, OperatorError
from repro.instrumentation import ApproxContext, OperationProfile
from repro.operators import ExactAdder, ExactMultiplier, OperandTruncationMultiplier, TruncatedAdder


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

