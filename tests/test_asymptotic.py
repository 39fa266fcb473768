import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from condorcet import (
    TABLE1,
    Culture,
    DegenerateVarianceError,
    Method,
    audit_table1,
    classify_m3,
    correlation_matrix,
    cyclic_minimizer_culture,
    exact_winner_probability,
    ic_curve,
    ic_limit_closed,
    ic_limit_sampford,
    impartial_culture,
    lambda_matrix,
    limiting_probability,
    may_bound,
    order_index,
    orthants_mc,
    pair_signs,
    sign_pattern_culture,
)
from condorcet.asymptotic import DELTA_SIGN_TOL, _decomposition, _moments
from condorcet.core import DEFAULT_SEED
from condorcet.orthant import closed_orthant
from conftest import bacon_recursion, positive_orthant, random_culture, random_dual_culture, win_probability
from examples import CASE7, CASE17

NEG = -math.inf
POS = math.inf

ALL_SIGN_TRIPLES = list(itertools.product((-1, 0, 1), repeat=3))


class TestLambdaMatrix:
    def test_impartial_all_zero(self):
        for m in (2, 3, 4):
            assert np.allclose(lambda_matrix(impartial_culture(m)), 0.0, atol=1e-15)

    def test_dual_culture_all_zero(self, rng):
        for m in (3, 4):
            lam = lambda_matrix(random_dual_culture(rng, m))
            assert np.allclose(lam, 0.0, atol=1e-14)

    def test_cyclic_values(self):
        lam = lambda_matrix(cyclic_minimizer_culture(3))
        assert lam[0, 1] == pytest.approx(1 / 3, abs=1e-15)
        assert lam[0, 2] == pytest.approx(-1 / 3, abs=1e-15)
        assert lam[1, 2] == pytest.approx(1 / 3, abs=1e-15)

    def test_antisymmetric(self, rng):
        for m in (3, 4):
            lam = lambda_matrix(random_culture(rng, m))
            assert np.allclose(lam, -lam.T, atol=1e-15)
            assert np.all(np.diag(lam) == 0.0)

    def test_margin_is_twice_win_probability_minus_one(self, rng):
        for m in (3, 4):
            c = random_culture(rng, m)
            lam = lambda_matrix(c)
            for i, j in itertools.permutations(range(m), 2):
                expected = 2.0 * win_probability(c, i, j) - 1.0
                assert lam[i, j] == pytest.approx(expected, abs=1e-12)


class TestCorrelationMatrix:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_impartial_is_equicorrelated_one_third(self, m):
        for i in range(m):
            r = correlation_matrix(impartial_culture(m), i)
            off = r[~np.eye(m - 1, dtype=bool)]
            assert np.allclose(off, 1 / 3, atol=1e-12)
            assert np.all(np.diag(r) == 1.0)

    def test_m3_candidate0_entry_formula(self, rng):
        # direct expansion of the (1,2) entry for the first candidate
        c = random_culture(rng)
        p = c.probs
        lam = lambda_matrix(c)
        joint = p[0] + p[1] + p[3] + p[5] - p[2] - p[4]
        expected = (joint - lam[0, 1] * lam[0, 2]) / math.sqrt(
            (1 - lam[0, 1] ** 2) * (1 - lam[0, 2] ** 2)
        )
        assert correlation_matrix(c, 0)[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_positive_semidefinite(self, rng):
        for m in (3, 4, 5):
            for _ in range(10):
                c = random_culture(rng, m)
                r = correlation_matrix(c, int(rng.integers(m)))
                assert np.min(np.linalg.eigvalsh(r)) >= -1e-9
                assert np.max(np.abs(r)) <= 1.0 + 1e-12

    def test_degenerate_margin_rejected(self):
        p = np.zeros(6)
        p[0] = 1.0
        with pytest.raises(DegenerateVarianceError):
            correlation_matrix(Culture(3, p), 0)
        for evaluate in (classify_m3, limiting_probability):  # balanced only under a huge tol
            with pytest.raises(DegenerateVarianceError):
                evaluate(Culture(3, p), tol=2.0)

    def test_candidate_out_of_range(self):
        with pytest.raises(ValueError):
            correlation_matrix(impartial_culture(3), 3)

    @pytest.mark.parametrize(
        "m, size, total",
        [(4, 24, 2**10), (4, 5, 2**10), (6, 720, 2**20), (7, 5040, 2**20), (8, 40320, 2**20)],
        ids=["24", "5", "m6", "m7", "m8"],
    )
    def test_margins_and_correlations_match_fraction_oracle(self, m, size, total):
        # Weights k / total are exact in binary and so is every partial sum of them, so the oracle
        # is integer arithmetic on the weights plus one Fraction per entry. At m = 8 the culture is
        # dense, so every block of the table's pass carries weight.
        rng = np.random.default_rng(size)
        weights = np.zeros(math.factorial(m), dtype=np.int64)
        weights[rng.choice(len(weights), size, replace=False)] = rng.multinomial(total - size, np.ones(size) / size) + 1
        c = Culture(m, weights / total)
        positions = np.argsort(list(itertools.permutations(range(m))), axis=1)

        def sign(i, j):
            return np.where(positions[:, i] < positions[:, j], 1, -1)

        lam = {(i, j): Fraction(int(weights @ sign(i, j)), total) for i, j in itertools.permutations(range(m), 2)}
        assert np.all(np.abs(lambda_matrix(c) - [[float(lam.get((i, j), 0)) for j in range(m)] for i in range(m)]) <= 1e-15)
        compared = 0
        for i in range(m):
            rivals = [j for j in range(m) if j != i]
            if any(abs(lam[i, j]) == 1 for j in rivals):
                with pytest.raises(DegenerateVarianceError):
                    correlation_matrix(c, i)
                continue
            expected = np.eye(m - 1)
            for (a, j), (b, k) in itertools.permutations(enumerate(rivals), 2):
                joint = Fraction(int(weights @ (sign(i, j) * sign(i, k))), total)
                covariance = joint - lam[i, j] * lam[i, k]
                variance = (1 - lam[i, j] ** 2) * (1 - lam[i, k] ** 2)
                expected[a, b] = math.copysign(math.sqrt(covariance**2 / variance), covariance)
            assert np.all(np.abs(correlation_matrix(c, i) - expected) <= 1e-15)
            compared += 1
        assert compared >= 1

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_one_block_up_to_m7(self, m):
        # Every m <= 7 table is one block of the limit pass, so its sums are the one-product forms, bit for bit.
        c = random_dual_culture(np.random.default_rng(m), m)
        columns = list(range(m * (m - 1) // 2))  # every pair of a dual culture is balanced
        rows = pair_signs(m).T[columns].astype(float)
        assert np.array_equal(_moments(c), c.probs @ pair_signs(m))
        assert np.array_equal(_moments(c, columns), (rows * c.probs) @ rows.T)


def thresholds(culture: Culture, tol: float = 1e-12) -> dict[tuple[int, int], float]:
    """The integration threshold of each ordered pair (i, j), read from the limit's terms."""
    terms = limiting_probability(culture, tol=tol).detail["terms"]
    rivals = [[j for j in range(culture.m) if j != t["candidate"]] for t in terms]
    return {(t["candidate"], j): float(x) for t, js in zip(terms, rivals) for j, x in zip(js, t["deltas"])}


class TestClassifyDeltas:
    def test_impartial_all_zero(self):
        deltas = thresholds(impartial_culture(3))
        assert set(deltas.values()) == {0.0}

    def test_cyclic_pattern(self):
        deltas = thresholds(cyclic_minimizer_culture(3))
        assert deltas[(0, 2)] == POS
        assert deltas[(0, 1)] == NEG
        assert deltas[(1, 2)] == NEG

    def test_tolerance_window(self):
        c = Culture(2, np.array([0.5 + 2.5e-13, 0.5 - 2.5e-13]))
        assert lambda_matrix(c)[0, 1] == pytest.approx(5e-13, rel=1e-3)
        assert thresholds(c, tol=1e-12)[(0, 1)] == 0.0
        assert thresholds(c, tol=1e-14)[(0, 1)] == NEG

    def test_negative_tolerance_rejected(self):
        for evaluate in (limiting_probability, classify_m3):
            with pytest.raises(ValueError):
                evaluate(impartial_culture(3), tol=-1.0)
            with pytest.raises(ValueError):
                evaluate(impartial_culture(3), tol=math.nan)
            with pytest.raises(ValueError, match="finite"):
                evaluate(cyclic_minimizer_culture(3), tol=math.inf)

    def test_nan_margin_rejected(self):
        # a culture with a NaN entry is refused, so no margin can be NaN
        with pytest.raises(ValueError, match="NaN"):
            Culture(2, np.array([math.nan, 1.0]))


class TestLimitingProbability:
    def test_impartial_m3(self):
        expected = 0.75 + 3.0 / (2.0 * math.pi) * math.asin(1 / 3)
        r = limiting_probability(impartial_culture(3))
        assert r.method is Method.LIMIT
        assert r.stderr is None
        assert r.value == pytest.approx(expected, abs=1e-12)
        assert r.detail["case"] == 1

    def test_case7_is_exactly_one(self):
        r = limiting_probability(CASE7)
        assert r.value == 1.0
        assert r.detail["case"] == 7

    def test_case17_is_exactly_zero(self):
        r = limiting_probability(CASE17)
        assert r.value == 0.0
        assert r.detail["case"] == 17

    def test_degenerate_culture_is_one(self):
        p = np.zeros(6)
        p[2] = 1.0
        r = limiting_probability(Culture(3, p))
        assert r.value == 1.0
        assert [t["L"] for t in r.detail["terms"]] == [0.0, 1.0, 0.0]

    def test_m2(self):
        assert limiting_probability(Culture(2, np.array([0.5, 0.5]))).value == 1.0
        assert limiting_probability(Culture(2, np.array([0.9, 0.1]))).value == 1.0

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_impartial_matches_equicorrelated_integral(self, m):
        r = limiting_probability(impartial_culture(m))
        assert r.value == pytest.approx(ic_limit_sampford(m), abs=1e-9)

    def test_dual_m4_closed_form_terms_match_mc(self, rng):
        c = random_dual_culture(rng, 4)
        r = limiting_probability(c)
        for i, term in enumerate(r.detail["terms"]):
            sub = np.array(term["correlation"])
            est, se = orthants_mc(sub, positive_orthant(len(sub)), 2_000_000, 50 + i)[0]
            assert abs(term["L"] - est) <= 4 * se + 1e-6

    def test_dual_m5_uses_mc_and_reports_stderr(self, rng):
        c = random_dual_culture(rng, 5)
        r = limiting_probability(c, mc_samples=100_000)
        assert all(t["method"] == "monte-carlo" for t in r.detail["terms"])
        assert all(t["stderr"] > 0 for t in r.detail["terms"])
        # the terms read one draw; their stderrs add in quadrature, which is conservative
        assert r.stderr == math.sqrt(math.fsum(t["stderr"] ** 2 for t in r.detail["terms"]))
        for i, t in enumerate(r.detail["terms"]):
            assert round(t["L"] * 100_000) / 100_000 == t["L"]  # a count of the 100 000 samples
            sub = np.array(t["correlation"])
            est, se = orthants_mc(sub, positive_orthant(len(sub)), 400_000, (9, i))[0]
            assert abs(t["L"] - est) <= 5 * math.hypot(t["stderr"], se)

    @pytest.mark.parametrize("m", [5, 6, 7, 8])
    def test_monte_carlo_terms_against_genz(self, m):
        # Genz's algorithm (scipy's multivariate normal cdf) shares no code with orthants_mc. A dual
        # culture's terms are all balanced, so each is P(Z >= 0) = P(Z <= 0) for its correlation matrix.
        from scipy.stats import multivariate_normal

        c = random_dual_culture(np.random.default_rng(3), m)
        terms = limiting_probability(c, mc_samples=200_000, mc_seed=7).detail["terms"]
        assert [t["method"] for t in terms] == ["monte-carlo"] * m
        for t in terms:
            genz = multivariate_normal(cov=np.array(t["correlation"]), seed=np.random.default_rng(11), abseps=1e-4)
            assert abs(t["L"] - genz.cdf(np.zeros(m - 1))) <= 4 * t["stderr"] + 1e-4

    @pytest.mark.parametrize("m", [5, 6])
    def test_shared_draw_total_spreads_within_reported_stderr(self, rng, m):
        # The terms are exclusive events of one vector, so the errors of the
        # total partly cancel: its spread over seeds stays below the
        # root-sum-square stderr.
        c = random_dual_culture(rng, m)
        runs = [limiting_probability(c, mc_samples=4_000, mc_seed=s) for s in range(200)]
        assert np.std([r.value for r in runs], ddof=1) <= 1.1 * np.mean([r.stderr for r in runs])

    def test_rank_deficient_joint_matrix(self):
        # Four orders and their reversals: the ten margins span four dimensions.
        orders = [(0, 1, 2, 3, 4), (1, 3, 0, 4, 2), (2, 0, 4, 1, 3), (3, 4, 1, 0, 2)]
        p = np.zeros(120)
        for weight, order in zip((0.1, 0.2, 0.3, 0.4), orders):
            p[order_index(order)] = p[order_index(order[::-1])] = weight / 2
        r = limiting_probability(Culture(5, p), mc_samples=200_000)
        for i, t in enumerate(r.detail["terms"]):
            assert t["method"] == "monte-carlo"
            # each term on its own, from the per-candidate stream (seed, i)
            sub = np.array(t["correlation"])
            est, se = orthants_mc(sub, positive_orthant(len(sub)), 200_000, (DEFAULT_SEED, i))[0]
            assert abs(t["L"] - est) <= 5 * math.hypot(t["stderr"], se)

    def test_two_reversed_orders_m5_is_one(self):
        # Candidates 0 and 4 have one margin repeated (correlation 1, term 1/2);
        # the middle candidates' margins disagree in sign, so they never win.
        p = np.zeros(120)
        p[order_index((0, 1, 2, 3, 4))] = p[order_index((4, 3, 2, 1, 0))] = 0.5
        r = limiting_probability(Culture(5, p), mc_samples=10_000)
        assert r.value == 1.0
        assert [t["L"] for t in r.detail["terms"]] == [0.5, 0.0, 0.0, 0.0, 0.5]
        assert [t["method"] for t in r.detail["terms"]][::4] == ["closed-form"] * 2

    @pytest.mark.parametrize(
        "eps, expected", [(1.5e-4, 0.9958933606343856), (1.5e-6, 0.9995893386154977)]
    )
    def test_two_cyclic_orders_near_correlation_one(self, eps, expected):
        # (1 - eps)/2 on each of two cyclic orders, eps spread uniformly: the balanced
        # terms are equicorrelated with rho = 1 - O(eps); the values are 30-digit integrals.
        p = np.full(120, eps / 120)
        p[[order_index((0, 1, 2, 3, 4)), order_index((1, 2, 3, 4, 0))]] += (1 - eps) / 2
        r = limiting_probability(Culture(5, p))
        assert "monte-carlo" not in [t["method"] for t in r.detail["terms"]]
        assert abs(r.value - expected) <= 1e-14

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_checked_on_entry(self, rng, seed):
        for culture in (impartial_culture(3), random_dual_culture(rng, 5)):
            with pytest.raises(ValueError, match="mc_seed"):
                limiting_probability(culture, mc_samples=1_000, mc_seed=seed)
        with pytest.raises(ValueError, match="seed"):
            audit_table1(samples=1_000, seed=seed)

    def test_sample_count_checked_without_a_monte_carlo_term(self):
        with pytest.raises(ValueError, match="mc_samples"):
            limiting_probability(impartial_culture(3), mc_samples=1.5)
        with pytest.raises(ValueError, match="mc_samples"):
            limiting_probability(cyclic_minimizer_culture(3), mc_samples=True)

    def test_term_sum_at_most_one(self, rng):
        for _ in range(50):
            c = random_culture(rng)
            r = limiting_probability(c)
            assert r.detail["terms_sum"] <= 1.0 + 1e-10

    def test_cyclic_every_term_vanishes(self):
        r = limiting_probability(cyclic_minimizer_culture(3))
        assert r.value == 0.0
        assert all(t["L"] == 0.0 for t in r.detail["terms"])


class TestClassifyM3:
    def test_impartial_case1(self):
        case, value = classify_m3(impartial_culture(3))
        assert case == 1
        assert value == pytest.approx(3 * (0.25 + math.asin(1 / 3) / (2 * math.pi)), abs=1e-12)

    def test_worked_examples(self):
        assert classify_m3(CASE7) == (7, 1.0)
        assert classify_m3(CASE17) == (17, 0.0)

    def test_cyclic_is_the_zero_cycle_case(self):
        assert classify_m3(cyclic_minimizer_culture(3)) == (17, 0.0)

    def test_m_not_3_rejected(self):
        with pytest.raises(ValueError):
            classify_m3(impartial_culture(4))

    def test_all_27_patterns_reachable_and_consistent(self):
        seen = set()
        for signs in ALL_SIGN_TRIPLES:
            c = sign_pattern_culture(signs)
            case, value = classify_m3(c)
            seen.add(case)
            row = next(r for r in TABLE1 if r.number == case)
            assert row.signs == signs
            limit = limiting_probability(c).value
            assert value == pytest.approx(limit, abs=1e-10)
        assert seen == set(range(1, 28))

    def test_matches_limiting_probability_on_random_cultures(self):
        rng = np.random.default_rng(9001)
        for _ in range(200):
            c = random_culture(rng)
            _, value = classify_m3(c)
            assert value == pytest.approx(limiting_probability(c).value, abs=1e-10)


class TestTable1Data:
    def test_27_distinct_sign_patterns(self):
        assert len(TABLE1) == 27
        assert len({row.signs for row in TABLE1}) == 27

    def test_value_census(self):
        # 12 sure-winner rows, 2 sure-cycle rows, the rest involve correlations
        kinds = [row.kind for row in TABLE1]
        assert kinds.count("one") == 12
        assert kinds.count("zero") == 2
        assert kinds.count("half") == 6
        assert kinds.count("arcsin") == 6
        assert kinds.count("sum3") == 1

    def test_audit_rows_pinned(self):
        # audit_table1 draws each row's balanced terms on one stream per (seed, row); the stderr
        # is sqrt(sum L (1 - L) / samples) over the terms' closed values L
        rows = audit_table1(samples=20_001, seed=3)
        assert [(r.number, r.mc_value, r.mc_stderr) for r in rows if r.mc_stderr > 0] == [
            (1, 0.911804409779511, 0.005633925024934517),
            (2, 0.8025098745062746, 0.004804138364657729),
            (3, 0.8043097845107745, 0.004804138364657729),
            (4, 0.8016599170041497, 0.004804138364657729),
            (5, 0.8022098895055247, 0.004804138364657729),
            (6, 0.4999750012499375, 0.003535445520899514),
            (7, 1.0, 0.004999875004687304),
            (8, 0.4999750012499375, 0.003535445520899514),
            (10, 0.4999750012499375, 0.003535445520899514),
            (12, 1.0, 0.004999875004687304),
            (13, 0.5000249987500625, 0.003535445520899514),
            (18, 0.799610019499025, 0.004804138364657729),
            (19, 0.8092595370231488, 0.004804138364657729),
            (21, 0.4999750012499375, 0.003535445520899514),
            (22, 0.4999750012499375, 0.003535445520899514),
            (25, 1.0, 0.004999875004687304),
        ]
        assert [(r.number, r.mc_value) for r in rows if r.mc_stderr == 0] == [
            (9, 1.0), (11, 1.0), (14, 1.0), (15, 1.0), (16, 1.0), (17, 0.0),
            (20, 1.0), (23, 1.0), (24, 0.0), (26, 1.0), (27, 1.0),
        ]

    def test_audit_row_is_its_forced_terms_plus_one_shared_draw(self):
        # The draw is limiting_probability's: the joint matrix and groups of the row's decomposition.
        rows = audit_table1(samples=10_001, seed=5)
        for row, audited in zip(TABLE1, rows):
            _, parts, joint = _decomposition(sign_pattern_culture(row.signs), DELTA_SIGN_TOL)
            groups = [group for _, _, group in parts if group]
            estimates = iter(orthants_mc(joint, groups, 10_001, (5, row.number)) if groups else [])
            assert audited.mc_value == sum(next(estimates)[0] if group else forced for forced, _, group in parts)

    def test_audit_passes_at_one_sample(self):
        # Every term's estimate is 0 or 1; the stderr comes from the terms' closed values.
        rows = audit_table1(samples=1, seed=0)
        assert all(r.passed for r in rows)
        assert [r.number for r in rows if r.mc_stderr == 0] == [9, 11, 14, 15, 16, 17, 20, 23, 24, 26, 27]

    def test_audit_small_sample(self):
        rows = audit_table1(samples=100_000, seed=77)
        assert len(rows) == 27
        assert all(r.passed for r in rows)
        by_number = {r.number: r for r in rows}
        assert by_number[7].formula_value == 1.0
        assert by_number[17].formula_value == 0.0
        assert by_number[17].mc_value == 0.0
        assert by_number[17].mc_stderr == 0.0


class TestImpartialLimits:
    def test_m3_closed_form(self):
        expected = 0.75 + 3.0 / (2.0 * math.pi) * math.asin(1 / 3)
        assert ic_limit_closed(3) == pytest.approx(expected, abs=1e-15)

    def test_exact_values_approach_the_m3_limit_like_one_over_n(self):
        # With every pair balanced the gap closes like c / n at odd n, so one
        # Richardson step R(a, b) = (b E_b - a E_a) / (b - a) removes its leading term.
        ic = impartial_culture(3)
        limit = limiting_probability(ic).value
        exact = {n: exact_winner_probability(ic, n).value for n in (11, 21, 41)}
        scaled = [n * (value - limit) for n, value in exact.items()]
        assert scaled[0] > scaled[1] > scaled[2] > 0.0

        def richardson(a, b):
            return (b * exact[b] - a * exact[a]) / (b - a)

        assert abs(richardson(21, 41) - limit) < abs(richardson(21, 41) - richardson(11, 21))

    def test_m4_closed_form(self):
        expected = 0.5 * (1.0 + 6.0 / math.pi * math.asin(1 / 3))
        assert ic_limit_closed(4) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_closed_matches_integral(self, m):
        assert ic_limit_closed(m) == pytest.approx(ic_limit_sampford(m), abs=1e-14)

    def test_closed_form_domain(self):
        with pytest.raises(ValueError):
            ic_limit_closed(2)
        with pytest.raises(ValueError):
            ic_limit_closed(8)

    def test_sampford_m2_is_one(self):
        assert ic_limit_sampford(2) == pytest.approx(1.0, abs=1e-9)

    def test_recursion_reproduces_m6(self):
        assert 6 * bacon_recursion(1 / 3, 5) == pytest.approx(
            ic_limit_sampford(6), abs=1e-14
        )

    def test_largest_supported_candidate_count(self):
        # m = 8 is the enumeration cap: 40320 orders, all margins balanced
        lam = lambda_matrix(impartial_culture(8))
        assert np.allclose(lam, 0.0, atol=1e-13)
        r = correlation_matrix(impartial_culture(8), 0)
        assert np.allclose(r[~np.eye(7, dtype=bool)], 1 / 3, atol=1e-12)

    def test_sampford_decreasing(self):
        values = [ic_limit_sampford(m) for m in range(2, 26)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sampford_below_bound_sample(self):
        for m in (2, 3, 10, 25, 100, 200):
            assert ic_limit_sampford(m) <= may_bound(m)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_sampford_equals_the_orthant_dispatch(self, m):
        assert ic_limit_sampford(m) == min(1.0, m * closed_orthant((2.0 * np.eye(m - 1) + 1.0) / 3.0)[0])

    def test_sampford_builds_no_matrix(self):
        # The (m - 1)**2 correlation matrix alone would take 32 MB at m = 2001.
        ic_limit_sampford(5)  # the integral's first call, outside the trace
        tracemalloc.start()
        try:
            value = ic_limit_sampford(2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < value < may_bound(2001)
        assert peak < 2**20

    def test_m25_positive_below_bound(self):
        value = ic_limit_sampford(25)
        assert 0.0 < value < may_bound(25)
        assert may_bound(25) == pytest.approx(2 * math.pi * math.sqrt(2) / math.sqrt(51), abs=1e-12)


class TestMayBound:
    def test_m3_value(self):
        assert may_bound(3) == pytest.approx(2 * math.pi * math.sqrt(2) / math.sqrt(7), abs=1e-12)
        assert may_bound(3) == pytest.approx(3.3585, abs=5e-4)

    def test_scaling_ratio(self):
        assert may_bound(200) / may_bound(50) == pytest.approx(math.sqrt(101 / 401), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            may_bound(1)


class TestIcCurve:
    def test_against_closed_forms(self):
        rows = ic_curve([3, 4, 5, 6, 7])
        for m, value in rows:
            assert value == pytest.approx(ic_limit_closed(m), abs=1e-14)
            if m <= 4:  # the closed forms that limit and ic-curve share
                assert value == limiting_probability(impartial_culture(m)).value
                assert value == ic_limit_closed(m)

    def test_strictly_decreasing_probabilities_in_unit_interval(self):
        rows = ic_curve(list(range(2, 15)))
        values = [v for _, v in rows]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSignPatternCulture:
    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            sign_pattern_culture((2, 0, 0))

    def test_hits_requested_margins(self):
        lam = lambda_matrix(sign_pattern_culture((1, -1, 0)))
        assert lam[0, 1] == pytest.approx(0.12, abs=1e-12)
        assert lam[0, 2] == pytest.approx(-0.12, abs=1e-12)
        assert abs(lam[1, 2]) < 1e-12
