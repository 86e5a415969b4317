"""Argument validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_probability_array,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize(
        "value", [True, False, float("inf"), float("nan"), -float("inf")]
    )
    def test_rejects_bools_and_non_finite(self, value, strict):
        with pytest.raises(ValueError, match="x must be"):
            check_positive("x", value, strict=strict)

    def test_accepts_numpy_numbers(self):
        assert check_positive("x", np.float64(2.5)) == 2.5
        assert check_positive("x", np.int64(0), strict=False) == 0


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_valid(self, value):
        assert check_probability("p", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, 2.0])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValueError, match="p"):
            check_probability("p", value)


class TestCheckProbabilityArray:
    def test_returns_float64(self):
        out = check_probability_array("ps", [0, 1])
        assert out.dtype == np.float64

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="ps"):
            check_probability_array("ps", [0.2, 1.5])

    def test_empty_array_ok(self):
        assert check_probability_array("ps", []).size == 0

    @pytest.mark.parametrize("values", [[0.5, np.nan], [np.nan], [np.nan, 2.0]])
    def test_rejects_nan(self, values):
        """The scalar check refuses NaN; the array check did not, as
        every range comparison with NaN is false."""
        with pytest.raises(ValueError, match="ps must contain probabilities.*NaN"):
            check_probability_array("ps", values)


class TestCheckInRange:
    def test_accepts_boundary(self):
        assert check_in_range("v", 1.0, 0.0, 1.0) == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError, match="v"):
            check_in_range("v", 1.5, 0.0, 1.0)
