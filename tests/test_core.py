import math

import numpy as np
import pytest

from condorcet import Method, WinnerProbability
from condorcet.core import seed_argument


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


class TestSeedArgument:
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, np.uint64(5), np.int32(3)])
    def test_accepts_unsigned_64_bit_integers(self, seed):
        assert seed_argument(seed, "seed") == int(seed)
        assert type(seed_argument(seed, "seed")) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, 3.0, True, "3", None])
    def test_rejects_everything_else_naming_the_argument(self, seed):
        with pytest.raises(ValueError, match="mc_seed"):
            seed_argument(seed, "mc_seed")
