import json
import math
import re

import numpy as np
import pytest

from condorcet import (
    Culture,
    Method,
    WinnerProbability,
    candidate_pairs,
    correlation_matrix,
    culture_from_json,
    cyclic_minimizer_culture,
    equicorrelated_orthant,
    exact_winner_probability,
    ic_limit_closed,
    ic_limit_sampford,
    impartial_culture,
    may_bound,
    mc_convergence_sweep,
    order_index,
    pair_signs,
)
from condorcet.culture import seed_argument
from condorcet.orthant import orthants_mc


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


IC3 = impartial_culture(3)
# Entry point: (call with the integer argument, its name, a valid value, an int just out of range, the rule).
INTEGER_ARGUMENTS = {
    "Culture": (lambda x: Culture(x, np.full(6, 1 / 6)), "candidate count", 3, 9, "in [2, 8]"),
    "impartial_culture": (impartial_culture, "candidate count", 3, 9, "in [2, 8]"),
    "cyclic_minimizer_culture": (cyclic_minimizer_culture, "candidate count", 3, 1, "in [2, 8]"),
    "culture_from_json": (
        lambda x: culture_from_json(json.dumps({"m": x, "probs": [0.5, 0.5]}, default=int)),
        "candidate count", 2, 9, "in [2, 8]",
    ),
    "candidate_pairs": (candidate_pairs, "candidate count", 8, 9, "in [2, 8]"),
    "pair_signs": (pair_signs, "candidate count", 2, 1, "in [2, 8]"),
    "order_index": (lambda x: order_index((0, x, 2)), "candidate", 1, 3, "in [0, 2]"),
    "correlation_matrix": (lambda x: correlation_matrix(IC3, x), "candidate i", 2, 3, "in [0, 2]"),
    "ic_limit_closed": (ic_limit_closed, "candidate count", 7, 8, "in [3, 7]"),
    "ic_limit_sampford": (ic_limit_sampford, "candidate count", 2, 1, ">= 2"),
    "may_bound": (may_bound, "candidate count", 2, 1, ">= 2"),
    "equicorrelated_orthant": (lambda x: equicorrelated_orthant(0.3, x), "dimension", 1, 0, ">= 1"),
    "mc_winner_probability": (  # mc_convergence_sweep with one voter count
        lambda x: mc_convergence_sweep(IC3, [x], 10), "voter count", 2**63 - 1, 2**63,
        ">= 1 and below 2**63",
    ),
    "orthant_mc-seed": (  # orthants_mc with an int seed
        lambda x: orthants_mc(np.eye(2), [[(0, 1), (1, 1)]], 10, seed=x), "seed", 5, 2**64,
        "an unsigned 64-bit integer",
    ),
    "orthants_mc-seed-tuple": (
        lambda x: orthants_mc(np.eye(2), [[(0, 1)]], 10, seed=(1, x)), "seed", 0, -1, "an unsigned 64-bit integer",
    ),
    "orthants_mc-coordinate": (
        lambda x: orthants_mc(np.eye(2), [[(x, 1)]], 10, seed=0), "coordinate", 1, 2, "in [0, 1]",
    ),
    "exact_winner_probability-budget": (
        lambda x: exact_winner_probability(IC3, 3, budget=x), "budget", 56, 0, ">= 1",
    ),
}


class TestIntegerRule:
    """Every integer argument of the public API takes ints and numpy integers in its range, nothing else."""

    @pytest.mark.parametrize("value", [2.5, None, True, "3"], ids=["float", "whole-float", "bool", "str"])
    @pytest.mark.parametrize("entry", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
    def test_non_integers_raise(self, entry, value):
        call, name, valid, *_ = entry
        if value is None:  # an untyped cache gives 3.0 the entry of np.int64(3)
            call(np.int64(valid))
            value = float(valid)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(value)

    @pytest.mark.parametrize("entry", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
    def test_numpy_integer_accepted(self, entry):
        call, _, valid, _, _ = entry
        call(np.int64(valid))

    @pytest.mark.parametrize("entry", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
    def test_int_just_out_of_range_names_the_rule(self, entry):
        call, name, _, outside, rule = entry
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got {outside}')}$"):
            call(outside)

    def test_nan_budget_raises(self):
        with pytest.raises(ValueError, match="^budget must be an integer, got nan$"):
            exact_winner_probability(IC3, 3, budget=float("nan"))
