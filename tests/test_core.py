import math

import pytest

from condorcet import Method, WinnerProbability


class TestWinnerProbabilityRange:
    def test_limit_within_four_sigma_clamps(self):
        assert WinnerProbability(1.0 + 3e-3, Method.LIMIT, stderr=1e-3).value == 1.0
        assert WinnerProbability(-3e-3, Method.LIMIT, stderr=1e-3).value == 0.0

    def test_limit_beyond_four_sigma_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            WinnerProbability(1.0 + 5e-3, Method.LIMIT, stderr=1e-3)

    def test_without_stderr_only_rounding_is_forgiven(self):
        assert WinnerProbability(1.0 + 1e-13, Method.LIMIT).value == 1.0
        with pytest.raises(ValueError, match="out of range"):
            WinnerProbability(1.0 + 1e-11, Method.EXACT)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises(self, value):
        with pytest.raises(ValueError, match="out of range"):
            WinnerProbability(value, Method.LIMIT, stderr=0.1)

    def test_exact_with_stderr_raises(self):
        with pytest.raises(ValueError, match="stderr"):
            WinnerProbability(0.5, Method.EXACT, stderr=0.0)

    def test_monte_carlo_without_stderr_raises(self):
        with pytest.raises(ValueError, match="stderr"):
            WinnerProbability(0.5, Method.MONTE_CARLO)

    def test_negative_stderr_raises(self):
        with pytest.raises(ValueError, match="negative stderr"):
            WinnerProbability(0.5, Method.MONTE_CARLO, stderr=-1e-3)
