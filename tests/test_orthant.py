import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from condorcet import CorrelationMatrixError, equicorrelated_orthant
from condorcet import orthant
from condorcet.orthant import closed_orthant, orthants_mc
from conftest import bacon_recursion, positive_orthant

NEG = -math.inf
POS = math.inf


def equi(rho: float, d: int) -> np.ndarray:
    r = np.full((d, d), rho)
    np.fill_diagonal(r, 1.0)
    return r


def limit_term(deltas, r: np.ndarray) -> float:
    """A term as the limit takes it: a +inf threshold forces 0, a -inf one drops its coordinate."""
    if POS in deltas:
        return 0.0
    kept = [k for k, delta in enumerate(deltas) if delta == 0.0]
    return closed_orthant(r[np.ix_(kept, kept)])[0] if kept else 1.0


def closed_d2(rho: float) -> float:
    return 0.25 + math.asin(rho) / (2 * math.pi)


def closed_d3(r12: float, r13: float, r23: float) -> float:
    return (1 + (2 / math.pi) * (math.asin(r12) + math.asin(r13) + math.asin(r23))) / 8


def mpmath_equicorrelated(rho: float, d: int, digits: int = 30) -> float:
    """The orthant integral at ``digits`` digits, in s = a t: pi^-1/2 / a * int exp(-(s/a)^2) Phi(-s)^d ds."""
    with mpmath.workdps(digits):
        rho = mpmath.mpf(rho)
        a = mpmath.sqrt(2 * rho / (1 - rho))
        f = lambda s: mpmath.exp(-((s / a) ** 2)) * (mpmath.erfc(s / mpmath.sqrt(2)) / 2) ** d  # noqa: E731
        wide = 10 * max(a, 1)
        v = mpmath.quad(f, [-mpmath.inf, -4 * wide, -wide, -10, -1, 0, 1, 4, 10, mpmath.inf])
        return float(v / (a * mpmath.sqrt(mpmath.pi)))


# Common correlations up to 1 - 1e-9, where the integrand steps from 1 to 0 over a width of 1/a.
NEAR_ONE = [0.95, 0.9999, 0.99999, 0.999999, 1 - 1e-9]


class TestClosedForms:
    def test_d2_third(self):
        # 1/4 + arcsin(1/3)/(2 pi) = 0.30409 to five decimals
        value = closed_orthant(equi(1 / 3, 2))[0]
        assert value == pytest.approx(closed_d2(1 / 3), abs=1e-15)
        assert value == pytest.approx(0.30409, abs=5e-6)

    def test_d2_independent(self):
        assert closed_orthant(np.eye(2))[0] == pytest.approx(0.25, abs=1e-15)

    def test_d3_equicorrelated_third(self):
        value = closed_orthant(equi(1 / 3, 3))[0]
        assert value == pytest.approx(closed_d3(1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert value == pytest.approx(0.20612, abs=5e-5)

    def test_d3_against_mc(self):
        est, se = orthants_mc(equi(1 / 3, 3), positive_orthant(3), 10_000_000, 21)[0]
        value = closed_orthant(equi(1 / 3, 3))[0]
        assert abs(value - est) <= 4 * se

    def test_pos_inf_forces_zero(self):
        assert limit_term([POS, 0.0], equi(1 / 3, 2)) == 0.0
        assert limit_term([NEG, POS, 0.0], equi(0.2, 3)) == 0.0

    def test_neg_inf_dropped(self):
        r = equi(1 / 3, 3)
        assert limit_term([NEG, 0.0, 0.0], r) == pytest.approx(
            closed_d2(1 / 3), abs=1e-15
        )
        assert limit_term([NEG, NEG, 0.0], r) == 0.5
        assert limit_term([NEG, NEG, NEG], r) == 1.0

    @pytest.mark.parametrize(
        "r, reason",
        [
            (equi(-1.0, 3), "semidefinite"),
            ([[1.0, math.nan], [math.nan, 1.0]], "finite"),
            ([[1.0, 0.5], [-0.9, 1.0]], "symmetric"),
            ([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5]], "square"),
            ([[1.0, 1.5], [1.5, 1.0]], "off-diagonal"),
        ],
        ids=["non-psd-d3", "nan-d2", "asymmetric-d2", "non-square", "entry-1.5"],
    )
    def test_bad_matrix_rejected_below_d4(self, r, reason):
        with pytest.raises(CorrelationMatrixError, match=reason):
            orthants_mc(r, positive_orthant(len(r)), 1_000, 0)


class TestEquicorrelatedIntegral:
    @pytest.mark.parametrize("rho", [0.0, 0.1, 1 / 3, 0.6, 0.9, *NEAR_ONE])
    def test_matches_d2_closed_form(self, rho):
        assert equicorrelated_orthant(rho, 2) == pytest.approx(closed_d2(rho), abs=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.25, 1 / 3, 0.7, *NEAR_ONE])
    def test_matches_d3_closed_form(self, rho):
        assert equicorrelated_orthant(rho, 3) == pytest.approx(
            closed_d3(rho, rho, rho), abs=1e-14
        )

    @pytest.mark.parametrize("d", [4, 7, 20])
    @pytest.mark.parametrize("rho", [1 / 3, *NEAR_ONE])
    def test_matches_mpmath_integral(self, rho, d):
        assert abs(equicorrelated_orthant(rho, d) - mpmath_equicorrelated(rho, d)) <= 1e-15

    @pytest.mark.parametrize("d", [4, 7])
    @pytest.mark.parametrize("rho", [1 - 1e-11, 1 - 1e-13, 1 - 1e-15])
    def test_matches_mpmath_integral_next_to_one(self, rho, d):
        # closed_orthant takes the integral up to a few ulps below 1. At 1 - 1e-15, a = sqrt(2 rho / (1 - rho))
        # is 4.5e7 and the value is 1.3e-8 below 1/2 at d = 4; 2**-53 is two ulps there.
        assert abs(equicorrelated_orthant(rho, d) - mpmath_equicorrelated(rho, d, digits=40)) <= 2**-53

    def test_independence_any_dimension(self):
        for d in (1, 2, 4, 6):
            assert equicorrelated_orthant(0.0, d) == pytest.approx(0.5**d, abs=1e-12)

    def test_d1_is_half_for_any_rho(self):
        assert equicorrelated_orthant(0.8, 1) == pytest.approx(0.5, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            equicorrelated_orthant(-0.1, 4)
        with pytest.raises(ValueError):
            equicorrelated_orthant(1.0, 2)


class TestBaconRecursion:
    def test_rho_zero_d3(self):
        assert bacon_recursion(0.0, 3) == pytest.approx(1 / 8, abs=1e-12)

    def test_rho_zero_higher(self):
        assert bacon_recursion(0.0, 5) == pytest.approx(1 / 32, abs=1e-10)
        assert bacon_recursion(0.0, 7) == pytest.approx(1 / 128, abs=1e-10)

    @pytest.mark.parametrize("rho", [-0.4, 0.2, 1 / 3, 0.8])
    def test_d3_matches_closed_form(self, rho):
        assert bacon_recursion(rho, 3) == pytest.approx(closed_d3(rho, rho, rho), abs=1e-12)

    def test_d5_matches_integral(self):
        for rho in (0.2, 1 / 3):
            assert bacon_recursion(rho, 5) == pytest.approx(
                equicorrelated_orthant(rho, 5), abs=1e-9
            )


class TestOrthantMc:
    def test_identity_3d(self):
        est, se = orthants_mc(np.eye(3), positive_orthant(3), 500_000, 3)[0]
        assert abs(est - 1 / 8) <= 4 * se

    def test_equicorrelated_2d_large(self):
        est, se = orthants_mc(equi(1 / 3, 2), positive_orthant(2), 10_000_000, 4)[0]
        assert abs(est - 0.30409) <= 4 * se + 1e-5

    def test_deterministic_per_seed(self):
        r = equi(0.5, 3)
        assert orthants_mc(r, positive_orthant(3), 100_000, 6) == orthants_mc(r, positive_orthant(3), 100_000, 6)

    def test_perfect_correlation_handled_with_jitter(self):
        est, se = orthants_mc(equi(1.0, 2), positive_orthant(2), 100_000, 1)[0]
        assert abs(est - 0.5) <= 4 * se

    def test_non_psd_rejected(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(CorrelationMatrixError):
            orthants_mc(bad, positive_orthant(3), 1000, 0)

    def test_negative_eigenvalue_beyond_the_jitter_rejected(self):
        # The smallest eigenvalue, 1 + 2 rho = -5e-10, passes the 1e-9 semidefinite check, but a
        # jitter of 1e-10 leaves it negative, so no Cholesky factor exists.
        r = equi(-0.5 - 2.5e-10, 3)
        assert -1e-9 < np.linalg.eigvalsh(r).min() < -1e-10
        with pytest.raises(CorrelationMatrixError, match="within jitter 1e-10"):
            orthants_mc(r, positive_orthant(3), 1000, 0)

    def test_not_a_correlation_matrix(self):
        with pytest.raises(CorrelationMatrixError):
            orthants_mc(np.array([[2.0, 0.0], [0.0, 1.0]]), positive_orthant(2), 1000, 0)

    def test_empty_matrix_is_the_whole_space(self):
        assert orthants_mc(np.zeros((0, 0)), positive_orthant(0))[0] == (1.0, 0.0)

    @pytest.mark.parametrize("samples", [2, 1_000, 100_000])
    def test_each_antithetic_pair_hits_once_on_a_half_space(self, samples):
        # In one dimension, and on a perfectly correlated pair, exactly one
        # of u and -u lies in the orthant, so an even count gives exactly 1/2.
        assert orthants_mc(np.eye(1), positive_orthant(1), samples, 7)[0][0] == 0.5
        assert orthants_mc(equi(1.0, 2), positive_orthant(2), samples, 7)[0][0] == 0.5

    @pytest.mark.parametrize(
        "r",
        [equi(1 / 3, 2), np.eye(3), np.full((4, 4), -0.2) + 1.2 * np.eye(4)],
        ids=["d2", "d3", "d4"],
    )
    def test_reported_stderr_bounds_the_spread_over_seeds(self, r):
        runs = np.array([orthants_mc(r, positive_orthant(len(r)), 2_000, s)[0] for s in range(400)])
        assert runs[:, 0].std(ddof=1) <= 1.1 * runs[:, 1].mean()

    @pytest.mark.parametrize("samples", [1e5, 2.0, True, 0, -1])
    def test_sample_count_must_be_a_positive_integer(self, samples):
        with pytest.raises(ValueError, match="samples"):
            orthants_mc(np.eye(2), positive_orthant(2), samples, 0)

    def test_value_pinned(self):
        # the sampler's streams are part of every seeded result; they must not move
        r = np.full((4, 4), -0.2) + 1.2 * np.eye(4)
        estimate = orthants_mc(r, positive_orthant(4), 30_001, (5, 2))[0]
        assert estimate == (0.019066031132295592, 0.0007895546042481766)

    @pytest.mark.parametrize("seed", [None, True, 1.5, (1, True), (), [5, 2]])
    def test_seed_is_an_int_or_a_tuple_of_ints(self, seed):
        # None would draw fresh OS entropy and True would read as seed 1.
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            orthants_mc(np.eye(2), [[(0, 1)]], 100, seed=seed)

    @pytest.mark.parametrize(
        "group, message",
        [
            ((-1, 1), "coordinate must be in [0, 1], got -1"),
            ((2, 1), "coordinate must be in [0, 1], got 2"),
            ((True, 1), "coordinate must be an integer, got True"),
            ((1.0, 1), "coordinate must be an integer, got 1.0"),
            ((0, 0), "sign must be 1 or -1, got 0"),
            ((0, 2), "sign must be 1 or -1, got 2"),
            ((0, True), "sign must be an integer, got True"),
            ((0, -1.0), "sign must be an integer, got -1.0"),
        ],
        ids=["coordinate-negative", "coordinate-d", "coordinate-bool", "coordinate-float", "sign-0", "sign-2",
             "sign-bool", "sign-float"],
    )
    def test_malformed_group_rejected(self, group, message):
        # A coordinate of -1 would read the last coordinate, and a sign of 0 no test at all.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            orthants_mc(np.eye(2), [[(0, 1)], [(1, -1), group]], 1_000, 0)

    def test_numpy_integer_coordinates_and_signs_accepted(self):
        groups = [[(np.int64(1), np.int8(-1)), (np.uint8(0), np.int64(1))]]
        assert orthants_mc(np.eye(2), groups, 1_001, 5) == orthants_mc(np.eye(2), [[(1, -1), (0, 1)]], 1_001, 5)

    def test_unread_coordinates_are_not_drawn(self):
        # Only the coordinates that some group reads are drawn, so the draw on R equals,
        # bit for bit, the draw on R restricted to them.
        a = np.random.default_rng(2).standard_normal((5, 8))
        cov = a @ a.T
        r = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        np.fill_diagonal(r, 1.0)
        groups = [[(1, 1), (4, -1)], [(3, 1), (1, -1), (4, 1)], []]
        restricted = [[(0, 1), (2, -1)], [(1, 1), (0, -1), (2, 1)], []]
        read = [1, 3, 4]
        expected = orthants_mc(r[np.ix_(read, read)], restricted, 100_001, (4, 1))
        assert orthants_mc(r, groups, 100_001, (4, 1)) == expected

    def test_numpy_integer_sample_count_accepted(self):
        group = positive_orthant(2)
        assert orthants_mc(np.eye(2), group, np.int64(1_001), 5) == orthants_mc(np.eye(2), group, 1_001, 5)

    def test_each_public_entry_validates_the_matrix_once(self, monkeypatch):
        calls = []
        validate = orthant.validate_correlation_matrix
        monkeypatch.setattr(orthant, "validate_correlation_matrix", lambda r: calls.append(1) or validate(r))
        r = np.full((4, 4), -0.2) + 1.2 * np.eye(4)  # no closed form: a Monte Carlo term
        for evaluate in (
            lambda: orthants_mc(r, positive_orthant(4), 1_000, 0),
            lambda: orthants_mc(r, [[(0, 1), (1, -1)], [(2, 1)]], 1_000, seed=0),
        ):
            calls.clear()
            evaluate()
            assert len(calls) == 1


class _FixedUniforms:
    """Stands in for a Generator: ``random`` returns the given float32 uniforms, shape (2, n)."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=np.float32)

    def random(self, shape, dtype):
        assert dtype is np.float32 and shape == self.uniforms.shape
        return self.uniforms.copy()


class TestNormalRows:
    @pytest.fixture(scope="class")
    def draws(self):
        return orthant._normal_rows(np.random.default_rng(23), 250_000, 4).ravel()

    def test_mean_and_variance(self, draws):
        # 1e6 standard normals: the mean's sd is 1e-3, the variance's sqrt(2e-6) = 1.4e-3.
        assert draws.dtype == np.float64 and draws.size == 1_000_000
        assert abs(draws.mean()) < 5e-3
        assert abs(draws.var() - 1.0) < 7e-3

    def test_kolmogorov_distance_to_phi(self, draws):
        # sup |F_n - Phi| over the sample; 1.95 / sqrt(n) is the 0.1% critical value.
        x = np.sort(draws)
        phi = 0.5 * (1.0 + np.array([math.erf(v) for v in (x / math.sqrt(2.0)).tolist()]))
        n = x.size
        distance = max(np.max(np.arange(1, n + 1) / n - phi), np.max(phi - np.arange(n) / n))
        assert distance < 1.95 / math.sqrt(n)

    def test_extreme_uniforms_give_finite_values(self):
        # u = 0 would give log(0) without the 1 - u; u = 1 - 2**-24 gives the largest radius,
        # sqrt(-2 log 2**-24) = sqrt(48 ln 2), which caps every value.
        top = 1.0 - 2.0**-24
        uniforms = [[0.0, 0.0, top, top], [0.0, top, 0.0, top]]
        z = orthant._normal_rows(_FixedUniforms(uniforms), 2, 4)
        assert z.shape == (2, 4) and np.isfinite(z).all()
        assert np.abs(z).max() <= math.sqrt(48 * math.log(2.0)) * (1 + 1e-6)
        assert np.abs(z).max() > 5.76

    def test_rows_read_cosines_then_sines(self):
        # The block is r cos(theta) for every pair, then r sin(theta), cut to rows * d values.
        uniforms = [[0.5, 0.75, 0.25], [0.0, 0.25, 0.5]]
        r = np.sqrt(-2.0 * np.log(np.float32(1.0) - np.float32(uniforms[0]), dtype=np.float32))
        theta = np.float32(2.0 * math.pi) * np.float32(uniforms[1])
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:5].reshape(5, 1)
        assert np.array_equal(orthant._normal_rows(_FixedUniforms(uniforms), 5, 1), expected)

    def test_same_bits_without_avx512(self):
        # The float32 log, sqrt, sin and cos loops must give the same bits with numpy's AVX-512
        # targets on and off, or a seeded result would depend on whether the host has AVX-512.
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy 1.x
            from numpy.core import _multiarray_umath as umath
        wide = [name for name in umath.__cpu_dispatch__
                if (name == "X86_V4" or name.startswith("AVX512")) and umath.__cpu_features__.get(name)]
        if not wide:
            pytest.skip("numpy dispatches to no AVX-512 target on this host")
        # A value one ulp off seldom flips a sign test, so the probe also prints a hash of raw rows.
        probe = (
            "import hashlib, numpy as np; from condorcet.orthant import _normal_rows, orthants_mc\n"
            "r = np.fromfunction(lambda i, j: (-0.4) ** abs(i - j), (6, 6))\n"
            "print(orthants_mc(r, [[(k, 1) for k in range(6)], [(0, 1), (2, -1), (5, 1)]], 3_000_001, 17))\n"
            "print(hashlib.sha256(_normal_rows(np.random.default_rng(17), 500_000, 6).tobytes()).hexdigest())"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(orthant.__file__).parents[1])}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        runs = [subprocess.run([sys.executable, "-c", probe], env=e, capture_output=True, text=True, check=True)
                for e in (env, {**env, "NPY_DISABLE_CPU_FEATURES": ",".join(wide)})]
        assert runs[0].stdout == runs[1].stdout
        assert "Warning" not in runs[1].stderr


class TestDispatcher:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_common_correlation_one_is_half(self, d):
        # one normal repeated d times: the orthant is the half line
        value, stderr, _ = closed_orthant(np.ones((d, d)))
        assert (value, stderr) == (0.5, None)

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_common_correlation_one_within_tolerance(self, d):
        # above dimension 3 a common correlation within 4 machine epsilons of 1, as far as a
        # culture's sums of probabilities stray from 1, counts as 1; further off the integral holds
        eps, off = np.finfo(float).eps, 1 - np.eye(d)
        assert closed_orthant(np.ones((d, d)) - 4 * eps * off) == (0.5, None, "closed-form")
        for rho in (1 - 5 * eps, 1 - 1e-13):
            assert closed_orthant(np.ones((d, d)) - (1 - rho) * off) == (
                equicorrelated_orthant(rho, d), None, "equicorrelated-integral"
            )
