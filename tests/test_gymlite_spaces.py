"""Tests for the gymlite observation / action spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gymlite import spaces


class TestDiscrete:
    def test_sample_is_contained(self):
        space = spaces.Discrete(5, seed=0)
        for _ in range(50):
            assert space.contains(space.sample())

    def test_start_offset(self):
        space = spaces.Discrete(3, start=1, seed=0)
        samples = {space.sample() for _ in range(100)}
        assert samples == {1, 2, 3}

    def test_contains_rejects_out_of_range(self):
        space = spaces.Discrete(4)
        assert not space.contains(-1)
        assert not space.contains(4)
        assert space.contains(0)
        assert space.contains(3)

    def test_contains_rejects_bool_and_float(self):
        space = spaces.Discrete(2)
        assert not space.contains(True)
        assert not space.contains(0.5)

    def test_contains_accepts_numpy_scalars(self):
        space = spaces.Discrete(4)
        assert space.contains(np.int64(2))

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Discrete(0)
        with pytest.raises(ConfigurationError):
            spaces.Discrete(-3)

    def test_equality(self):
        assert spaces.Discrete(4) == spaces.Discrete(4)
        assert spaces.Discrete(4) != spaces.Discrete(4, start=1)

    def test_seeding_is_reproducible(self):
        first = spaces.Discrete(100, seed=42)
        second = spaces.Discrete(100, seed=42)
        assert [first.sample() for _ in range(10)] == [second.sample() for _ in range(10)]

    def test_seed_returns_the_seed_and_restarts_the_stream(self):
        space = spaces.Discrete(100)
        assert space.seed(5) == 5
        first = [space.sample() for _ in range(10)]
        space.seed(5)
        assert [space.sample() for _ in range(10)] == first

    def test_invalid_start_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Discrete(3, start=True)
        with pytest.raises(ConfigurationError):
            spaces.Discrete(3, start=1.5)

    def test_contains_accepts_zero_dim_integer_arrays_only(self):
        space = spaces.Discrete(4)
        assert space.contains(np.array(2))
        assert not space.contains(np.array(2.0))
        assert not space.contains(np.array([2]))

    def test_in_operator_uses_contains(self):
        space = spaces.Discrete(3, start=1)
        assert 3 in space
        assert 0 not in space

    def test_repr_shows_a_nonzero_start(self):
        assert repr(spaces.Discrete(4)) == "Discrete(4)"
        assert repr(spaces.Discrete(3, start=1)) == "Discrete(3, start=1)"


class TestMultiBinary:
    def test_sample_shape_and_values(self):
        space = spaces.MultiBinary(6, seed=0)
        sample = space.sample()
        assert sample.shape == (6,)
        assert set(np.unique(sample)).issubset({0, 1})

    def test_contains(self):
        space = spaces.MultiBinary(3)
        assert space.contains(np.array([0, 1, 1]))
        assert not space.contains(np.array([0, 2, 1]))
        assert not space.contains(np.array([0, 1]))

    def test_invalid_size_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.MultiBinary(0)

    def test_sample_dtype_is_int8(self):
        space = spaces.MultiBinary(4, seed=0)
        assert space.dtype == np.int8
        assert space.sample().dtype == np.int8

    def test_seeding_is_reproducible(self):
        first = spaces.MultiBinary(8, seed=3)
        second = spaces.MultiBinary(8, seed=3)
        for _ in range(5):
            np.testing.assert_array_equal(first.sample(), second.sample())

    def test_equality(self):
        assert spaces.MultiBinary(3) == spaces.MultiBinary(3)
        assert spaces.MultiBinary(3) != spaces.MultiBinary(4)
        assert spaces.MultiBinary(3) != spaces.Discrete(3)


class TestBox:
    def test_sample_is_contained_for_bounded_box(self):
        space = spaces.Box(low=-1.0, high=1.0, shape=(3,), seed=0)
        for _ in range(20):
            assert space.contains(space.sample())

    def test_contains_checks_bounds(self):
        space = spaces.Box(low=0.0, high=1.0, shape=(2,))
        assert space.contains(np.array([0.5, 0.5]))
        assert not space.contains(np.array([1.5, 0.5]))

    def test_unbounded_box_contains_anything_of_right_shape(self):
        space = spaces.Box(low=-np.inf, high=np.inf, shape=(3,))
        assert space.contains(np.array([1e12, -1e12, 0.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Box(low=np.zeros(2), high=np.ones(3))

    def test_low_greater_than_high_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Box(low=1.0, high=0.0, shape=(1,))

    def test_bounds_given_as_arrays_set_shape_and_per_element_limits(self):
        space = spaces.Box(low=[0.0, -1.0], high=[1.0, 1.0])
        assert space.shape == (2,)
        assert space.contains(np.array([0.5, -0.5]))
        assert not space.contains(np.array([-0.5, 0.0]))

    def test_contains_rejects_wrong_shape(self):
        space = spaces.Box(low=0.0, high=1.0, shape=(2,))
        assert not space.contains(np.array([0.5]))
        assert not space.contains(np.array([[0.5, 0.5]]))

    def test_sample_uses_the_space_dtype(self):
        space = spaces.Box(low=-1.0, high=1.0, shape=(2,), dtype=np.float32, seed=0)
        assert space.sample().dtype == np.float32

    def test_unbounded_sample_is_finite(self):
        space = spaces.Box(low=-np.inf, high=np.inf, shape=(3,), seed=0)
        sample = space.sample()
        assert np.all(np.isfinite(sample))
        assert space.contains(sample)

    def test_equality(self):
        assert spaces.Box(0.0, 1.0, shape=(2,)) == spaces.Box(0.0, 1.0, shape=(2,))
        assert spaces.Box(0.0, 1.0, shape=(2,)) != spaces.Box(0.0, 2.0, shape=(2,))
        assert spaces.Box(0.0, 1.0, shape=(2,)) != spaces.Box(0.0, 1.0, shape=(3,))


class TestDictSpace:
    def _space(self, seed=None):
        return spaces.Dict(
            {
                "adder": spaces.Discrete(6, start=1),
                "variables": spaces.MultiBinary(3),
            },
            seed=seed,
        )

    def test_sample_is_contained(self):
        space = self._space(seed=0)
        for _ in range(20):
            assert space.contains(space.sample())

    def test_contains_requires_all_keys(self):
        space = self._space()
        assert not space.contains({"adder": 1})

    def test_getitem_and_len(self):
        space = self._space()
        assert isinstance(space["adder"], spaces.Discrete)
        assert len(space) == 2

    def test_empty_dict_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Dict({})

    def test_non_space_value_raises(self):
        with pytest.raises(ConfigurationError):
            spaces.Dict({"x": 3})

    def test_keys_are_sorted(self):
        space = spaces.Dict({"variables": spaces.MultiBinary(3),
                             "adder": spaces.Discrete(6, start=1)}, seed=0)
        assert list(space) == ["adder", "variables"]
        assert list(space.sample()) == ["adder", "variables"]

    def test_seeding_reaches_every_sub_space(self):
        first, second = self._space(seed=7), self._space(seed=7)
        for _ in range(5):
            a, b = first.sample(), second.sample()
            assert a["adder"] == b["adder"]
            np.testing.assert_array_equal(a["variables"], b["variables"])

    def test_contains_rejects_non_dicts_and_extra_keys(self):
        space = self._space()
        assert not space.contains([1, np.zeros(3)])
        assert not space.contains({"adder": 1, "variables": np.zeros(3), "extra": 0})
        assert space.contains({"adder": 1, "variables": np.zeros(3)})

    def test_equality(self):
        assert self._space() == self._space()
        assert self._space() != spaces.Dict({"adder": spaces.Discrete(6, start=1)})

