"""Tests for argument validation helpers."""

import numpy as np
import pytest

from repro.common.validation import (
    as_key_array,
    require_in_range,
    require_non_negative_int,
    require_positive_float,
    require_positive_int,
)


class TestRequirePositiveInt:
    def test_accepts_positive(self):
        assert require_positive_int("x", 5) == 5

    def test_accepts_numpy_int(self):
        assert require_positive_int("x", np.int64(7)) == 7

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            require_positive_int("x", 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive_int("x", -1)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            require_positive_int("x", 1.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_positive_int("x", True)


class TestRequireNonNegativeInt:
    def test_accepts_zero(self):
        assert require_non_negative_int("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative_int("x", -1)


class TestRequirePositiveFloat:
    def test_accepts_float(self):
        assert require_positive_float("x", 0.5) == 0.5

    def test_accepts_int(self):
        assert require_positive_float("x", 2) == 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive_float("x", 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_positive_float("x", float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_positive_float("x", float("inf"))

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            require_positive_float("x", "abc")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range("x", 0.0, 0.0, 1.0) == 0.0
        assert require_in_range("x", 1.0, 0.0, 1.0) == 1.0

    def test_exclusive_bounds(self):
        with pytest.raises(ValueError):
            require_in_range("x", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            require_in_range("x", 1.5, 0.0, 1.0)


class TestAsKeyArray:
    def test_list_of_ints(self):
        out = as_key_array([1, 2, 3])
        assert out.dtype == np.uint64

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            as_key_array([1.0, 2.0])

    def test_flattens(self):
        out = as_key_array(np.arange(6, dtype=np.uint64).reshape(2, 3))
        assert out.shape == (6,)

    def test_no_copy_for_uint64(self):
        arr = np.arange(4, dtype=np.uint64)
        assert as_key_array(arr) is arr

    @pytest.mark.parametrize(
        "empty",
        [[], (), np.array([]), np.empty((0, 3)), np.array([], dtype=np.int8)],
        ids=["list", "tuple", "float64", "2-d", "int8"],
    )
    def test_empty_batch_is_uint64(self, empty):
        # np.asarray([]) is float64: a size-0 batch is still a batch
        out = as_key_array(empty)
        assert out.dtype == np.uint64
        assert out.shape == (0,)
