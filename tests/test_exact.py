import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import condorcet.exact as exact_module
from condorcet.exact import _merge
from condorcet import (
    Culture,
    EnumerationBudgetError,
    Method,
    WinnerMode,
    cyclic_minimizer_culture,
    exact_winner_probability,
    ic_limit_sampford,
    impartial_culture,
    limiting_probability,
    minimum_table,
    minimum_winner_probability,
    order_index,
    pair_signs,
    tie_probability,
)
from condorcet.core import winners_mask
from conftest import random_culture, random_dual_culture


def winners(m, counts, mode=WinnerMode.STRONG) -> list[int]:
    """Candidates meeting ``mode``'s condition when counts[i] voters cast order i, ascending."""
    margins = np.asarray(counts)[None, :] @ pair_signs(m)
    return np.flatnonzero(winners_mask(margins, m, mode.margin_threshold)[:, 0]).tolist()


def counts_of(m, orders) -> np.ndarray:
    return np.bincount([order_index(order) for order in orders], minlength=math.factorial(m))


def sequence_oracle(culture: Culture, n: int, mode=WinnerMode.STRONG) -> float:
    """Independent check: iterate all K^n voter sequences directly.

    Margins are tallied straight off the candidate positions of each order in
    the sequence, without any of the library's sign machinery.
    """
    orders = list(itertools.permutations(range(culture.m)))
    m = culture.m
    threshold = 1 if mode is WinnerMode.STRONG else 0
    total = 0.0
    for seq in itertools.product(range(len(orders)), repeat=n):
        prob = 1.0
        for idx in seq:
            prob *= culture.probs[idx]
        if prob == 0.0:
            continue
        margins = [[0] * m for _ in range(m)]
        for idx in seq:
            pos = {c: r for r, c in enumerate(orders[idx])}
            for a in range(m):
                for b in range(m):
                    if a != b:
                        margins[a][b] += 1 if pos[a] < pos[b] else -1
        if any(
            all(margins[i][j] >= threshold for j in range(m) if j != i)
            for i in range(m)
        ):
            total += prob
    return total


def fraction_oracle(m: int, weights, n: int, mode=WinnerMode.STRONG) -> tuple[Fraction, int]:
    """Independent check in exact rationals: every composition of n over the support.

    Order k has probability weights[k] / sum(weights). Returns the winner
    probability and the number of distinct margin vectors reached. Margins are
    tallied straight off the candidate positions of each order.
    """
    orders = list(itertools.permutations(range(m)))
    support = [k for k, w in enumerate(weights) if w]
    signs = {}
    for k in support:
        pos = {c: r for r, c in enumerate(orders[k])}
        signs[k] = [1 if pos[a] < pos[b] else -1 for a in range(m) for b in range(m)]
    threshold = 1 if mode is WinnerMode.STRONG else 0
    s = len(support)
    win = 0
    seen = set()
    for bars in itertools.combinations(range(n + s - 1), s - 1):
        counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, n + s - 1))]
        coefficient = math.factorial(n)  # the multinomial coefficient, in integers
        for c in counts:
            coefficient //= math.factorial(c)
        mass = coefficient
        margins = [0] * (m * m)
        for k, c in zip(support, counts):
            mass *= weights[k] ** c
            if c:
                margins = [x + c * y for x, y in zip(margins, signs[k])]
        seen.add(tuple(margins))
        if any(
            all(margins[a * m + b] >= threshold for b in range(m) if b != a)
            for a in range(m)
        ):
            win += mass
    return Fraction(win, sum(weights) ** n), len(seen)


def voter_recursion_m3(n: int) -> float:
    """Independent check for the uniform culture at m = 3, one voter at a time.

    Holds the distribution of the margins of the pairs (0, 1), (0, 2), (1, 2)
    in a (2n + 1)^3 array and adds each voter by shifting it one step along
    every axis in the direction of the voter's order, each order with weight
    1/6. There are no binomial weights and no merged states.
    """
    pairs = [(0, 1), (0, 2), (1, 2)]
    shifts = []
    for order in itertools.permutations(range(3)):
        pos = {c: r for r, c in enumerate(order)}
        shifts.append(tuple(1 if pos[a] < pos[b] else -1 for a, b in pairs))
    dist = np.zeros((2 * n + 1,) * 3)
    dist[n, n, n] = 1.0
    for _ in range(n):
        dist = sum(np.roll(dist, shift, axis=(0, 1, 2)) for shift in shifts) / 6.0
    m01, m02, m12 = np.meshgrid(*[np.arange(-n, n + 1)] * 3, indexing="ij")
    wins = (m01 > 0) & (m02 > 0) | (m01 < 0) & (m12 > 0) | (m02 < 0) & (m12 < 0)
    return float(dist[wins].sum())


def rational_culture(m: int, weights) -> Culture:
    return Culture(m, np.array(weights, dtype=float) / sum(weights))


SPARSE4_WEIGHTS = [3, 0, 0, 1, 0, 4, 0, 0, 1, 0, 0, 5, 0, 0, 9, 0, 0, 0, 0, 2, 0, 0, 0, 6]


def support_culture(m: int, s: int, seed: int, alpha: float = 1.0) -> Culture:
    """Dirichlet(alpha) weights on s orders drawn at random, zero on the others."""
    rng = np.random.default_rng(seed)
    probs = np.zeros(math.factorial(m))
    probs[rng.choice(probs.size, s, replace=False)] = rng.dirichlet(np.full(s, alpha))
    return Culture(m, probs)


def walk_cultures(m: int) -> list[Culture]:
    """Uniform, Dirichlet(1), Dirichlet(0.05) and sparse (3m orders at most) cultures."""
    k = math.factorial(m)
    return [impartial_culture(m), support_culture(m, k, m), support_culture(m, k, m, alpha=0.05),
            support_culture(m, min(k, 3 * m), m)]


def marginal(culture: Culture, kept: tuple[int, ...]) -> Culture:
    """The culture's distribution of its orders restricted to the candidates ``kept``, renumbered from 0."""
    probs = dict.fromkeys(itertools.permutations(range(len(kept))), 0.0)
    for order, p in zip(itertools.permutations(range(culture.m)), culture.probs):
        probs[tuple(kept.index(c) for c in order if c in kept)] += p
    return Culture(len(kept), np.array(list(probs.values())))


def two_voter_weak_oracle(culture: Culture) -> float:
    """Weak winner probability of two voters, over the s^2 ordered pairs of supported orders.

    A candidate is a weak winner of two voters when each rival is ranked below
    it by at least one of them. ``beats[k, c]`` has bit d set where order k
    ranks c at or above d, so c wins the pair (k, l) when the two masks cover
    every candidate.
    """
    m = culture.m
    support = np.flatnonzero(culture.probs)
    position = np.argsort(np.array(list(itertools.permutations(range(m))))[support], axis=1)
    beats = ((position[:, :, None] <= position[:, None, :]) << np.arange(m)).sum(axis=2)
    won = ((beats[:, None, :] | beats[None, :, :]) == (1 << m) - 1).any(axis=2)
    p = culture.probs[support]
    return math.fsum((np.outer(p, p) * won).ravel())


# (m, s) of the random supports on which the voter walk was timed against the order walk.
WALK_GRID = [(3, 6), (4, 8), (4, 12), (4, 16), (4, 24), (5, 10), (5, 20), (5, 40), (6, 30), (6, 120)]


class TestCondorcetWinner:
    def test_three_voter_cycle_has_no_winner(self):
        counts = counts_of(3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        assert winners(3, counts) == []
        assert winners(3, counts, WinnerMode.WEAK) == []

    def test_unanimous_profile(self):
        assert winners(3, counts_of(3, [(1, 2, 0)] * 7)) == [1]

    def test_weak_tie_reports_all_qualifiers(self):
        counts = counts_of(3, [(0, 1, 2), (1, 0, 2)])
        assert winners(3, counts, WinnerMode.STRONG) == []
        assert winners(3, counts, WinnerMode.WEAK) == [0, 1]

    def test_strong_winner_unique_small_profiles(self):
        for n in (2, 3, 4, 5):
            for counts in itertools.product(range(n + 1), repeat=5):
                if sum(counts) > n:
                    continue
                full = counts + (n - sum(counts),)
                assert len(winners(3, full, WinnerMode.STRONG)) <= 1


class TestExactWinnerProbability:
    def test_single_voter_always_has_winner(self, rng):
        for _ in range(3):
            c = random_culture(rng)
            assert exact_winner_probability(c, 1).value == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
    def test_single_voter_uniform_is_exactly_one(self, m):
        assert exact_winner_probability(impartial_culture(m), 1).value == 1.0

    def test_cyclic_n3_is_7_9(self):
        r = exact_winner_probability(cyclic_minimizer_culture(3), 3)
        assert r.method is Method.EXACT
        assert r.stderr is None
        assert abs(r.value - 7 / 9) < 1e-12

    def test_cyclic_n4_is_1_3(self):
        r = exact_winner_probability(cyclic_minimizer_culture(3), 4)
        assert abs(r.value - 1 / 3) < 1e-12

    # frozen from the K^n sequence oracle below: 72/216 winning sequences at
    # n=2, 204/216 at n=3, 7236/7776 at n=5
    @pytest.mark.parametrize(
        "n,expected",
        [(2, Fraction(1, 3)), (3, Fraction(17, 18)), (5, Fraction(67, 72))],
    )
    def test_impartial_m3_frozen_values(self, n, expected):
        r = exact_winner_probability(impartial_culture(3), n)
        assert r.value == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_impartial_m3_matches_sequence_oracle(self, n):
        c = impartial_culture(3)
        assert exact_winner_probability(c, n).value == pytest.approx(
            sequence_oracle(c, n), abs=1e-9
        )

    @pytest.mark.parametrize("n", [30, 60])
    def test_impartial_m3_matches_voter_recursion(self, n):
        value = exact_winner_probability(impartial_culture(3), n).value
        assert abs(value - voter_recursion_m3(n)) <= 2e-15

    @pytest.mark.parametrize("mode", [WinnerMode.STRONG, WinnerMode.WEAK])
    def test_random_culture_matches_sequence_oracle(self, rng, mode):
        c = random_culture(rng)
        assert exact_winner_probability(c, 4, mode).value == pytest.approx(
            sequence_oracle(c, 4, mode), abs=1e-9
        )

    def test_zero_probability_orders_are_pruned(self):
        r = exact_winner_probability(cyclic_minimizer_culture(3), 12)
        assert r.detail["support_size"] == 3
        assert r.detail["compositions"] == math.comb(14, 2)

    def test_total_mass_is_one(self, rng):
        cultures = [
            impartial_culture(3),
            cyclic_minimizer_culture(3),
            random_culture(rng),
            impartial_culture(4),
        ]
        for c in cultures:
            r = exact_winner_probability(c, 5)
            assert abs(r.detail["total_mass"] - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_n_strong_equals_weak(self, rng, n):
        for c in (impartial_culture(3), random_culture(rng)):
            strong = exact_winner_probability(c, n, WinnerMode.STRONG).value
            weak = exact_winner_probability(c, n, WinnerMode.WEAK).value
            assert strong == pytest.approx(weak, abs=1e-14)

    @pytest.mark.parametrize("mode", [WinnerMode.STRONG, WinnerMode.WEAK])
    @pytest.mark.parametrize(
        "m,weights,n",
        [
            (3, [1] * 6, 4),
            (3, [1] * 6, 5),
            (3, [1] * 6, 6),
            (4, [1] * 24, 3),
            (4, [1] * 24, 4),
            (4, SPARSE4_WEIGHTS, 5),
            (4, SPARSE4_WEIGHTS, 6),
        ],
    )
    def test_matches_fraction_oracle(self, m, weights, n, mode):
        expected, n_margin_vectors = fraction_oracle(m, weights, n, mode)
        r = exact_winner_probability(rational_culture(m, weights), n, mode)
        assert abs(r.value - float(expected)) <= 1e-14
        assert abs(r.detail["total_mass"] - 1.0) <= 1e-14
        assert r.detail["states"] == n_margin_vectors

    def test_fraction_oracle_takes_fractional_weights(self):
        # Only the weights' scale differs, so the probability and the margin vectors must not move.
        thirds = fraction_oracle(3, [Fraction(1, 3)] * 6, 3)
        assert thirds == fraction_oracle(3, [1] * 6, 3)
        assert thirds[0] == Fraction(17, 18)

    def test_states_merge_below_compositions_except_cyclic(self, rng):
        for c in (impartial_culture(3), random_culture(rng), rational_culture(4, SPARSE4_WEIGHTS)):
            d = exact_winner_probability(c, 6).detail
            assert d["states"] < d["compositions"]
        # The orders of a cyclic culture have affinely independent pair tallies.
        for m in (3, 4, 5):
            d = exact_winner_probability(cyclic_minimizer_culture(m), 6).detail
            assert d["states"] == d["compositions"]

    @pytest.mark.parametrize("mode", [WinnerMode.STRONG, WinnerMode.WEAK])
    def test_two_reversed_orders_at_large_n(self, mode):
        # Every margin is k - (n - k): strong needs k != n/2, weak always has a winner.
        probs = np.zeros(6)
        probs[[order_index((0, 1, 2)), order_index((2, 1, 0))]] = 0.5
        for n in (10_000, 9_999):
            r = exact_winner_probability(Culture(3, probs), n, mode)
            expected = 1.0 - tie_probability(n, 0.5) if mode is WinnerMode.STRONG else 1.0
            if expected == 1.0:  # every state has a winner
                assert r.value == 1.0
            else:
                assert r.value == pytest.approx(expected, abs=1e-11)
            assert r.detail["states"] == n + 1

    def test_single_order_at_large_n(self):
        # One order is answered before the walk, so neither the key types nor the 63-bit state
        # limit bound n.
        probs = np.zeros(24)
        probs[5] = 1.0
        for n in (1, 2, 255, 65_535, 2**32 - 1, 10**9, 3_000_000_000, 2**63 - 2, 2**63):
            for mode in WinnerMode:
                r = exact_winner_probability(Culture(4, probs), n, mode)
                assert r.value == 1.0
                assert r.detail == {"compositions": 1, "support_size": 1, "total_mass": 1.0, "states": 1}

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_expansion_in_blocks_matches_one_block(self, monkeypatch, block):
        # The first two walk order by order, the others voter by voter. The last moves by an ulp
        # with the block size: _merge's argsort of keys wider than 16 bits is not stable, so copies
        # of a key add up in an order that depends on where blocks end.
        cultures = [(impartial_culture(3), 9), (rational_culture(4, SPARSE4_WEIGHTS), 6),
                    (impartial_culture(4), 3), (rational_culture(4, SPARSE4_WEIGHTS), 4),
                    (support_culture(5, 20, 3), 4)]
        whole = [exact_winner_probability(c, n) for c, n in cultures]
        monkeypatch.setattr(exact_module, "_BLOCK", block)
        for (c, n), expected in zip(cultures, whole):
            r = exact_winner_probability(c, n)
            assert r.value == pytest.approx(expected.value, abs=1e-15)
            assert r.detail == pytest.approx(expected.detail, abs=1e-15)

    def test_budget_counts_compositions(self):
        cyc, n = cyclic_minimizer_culture(3), 500
        with pytest.raises(EnumerationBudgetError, match="125751 compositions"):
            exact_winner_probability(cyc, n, budget=125_750)
        r = exact_winner_probability(cyc, n, budget=125_751)
        assert r.value == pytest.approx(minimum_winner_probability(3, n), rel=1e-9)
        assert r.detail["states"] == r.detail["compositions"] == 125_751

    def test_impartial_m4_n9_within_default_budget(self):
        r = exact_winner_probability(impartial_culture(4), 9)
        assert minimum_winner_probability(4, 9) < r.value < 1.0
        assert abs(r.detail["total_mass"] - 1.0) <= 1e-12

    def test_state_key_beyond_63_bits_refused(self):
        with pytest.raises(EnumerationBudgetError, match="^states of .* exceed 63 bits") as excinfo:
            exact_winner_probability(cyclic_minimizer_culture(8), 600, budget=10**30)
        assert "budget" not in str(excinfo.value)

    def test_refused_before_the_tally_basis_is_built(self, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("tally basis built for a refused job")

        monkeypatch.setattr(exact_module, "_tally_basis", unbuilt)
        for c, n in [(impartial_culture(8), 2**62), (impartial_culture(4), 12), (cyclic_minimizer_culture(3), 500)]:
            with pytest.raises(EnumerationBudgetError, match="exceed the budget"):
                exact_winner_probability(c, n, budget=125_750)

    def test_budget_error_names_budget(self):
        with pytest.raises(EnumerationBudgetError, match="50000000"):
            exact_winner_probability(impartial_culture(4), 12)
        with pytest.raises(EnumerationBudgetError, match="budget of 100"):
            exact_winner_probability(impartial_culture(3), 10, budget=100)

    @pytest.mark.parametrize("m, n, count", [(8, 3000, "1.73e+4733"), (7, 20000, "1.14e+5458")])
    def test_count_beyond_int_to_str_limit_refused_briefly(self, m, n, count):
        # Python 3.11+ refuses to print integers of more than 4300 digits; these counts have 4734 and 5459.
        with pytest.raises(EnumerationBudgetError) as excinfo:
            exact_winner_probability(impartial_culture(m), n)
        assert str(excinfo.value).startswith(f"{count} compositions of n={n} voters")
        assert len(str(excinfo.value)) < 300

    def test_count_far_over_budget_refused_without_big_integers(self):
        # C(2**62 + 40319, 40319) has 584327 digits; math.comb took about a second to build it.
        c, n = impartial_culture(8), 2**62
        with pytest.raises(EnumerationBudgetError):
            exact_winner_probability(c, n)  # caches the m = 8 sign table and tally basis
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError) as excinfo:
            exact_winner_probability(c, n)
        assert time.perf_counter() - start < 0.05
        assert str(excinfo.value).startswith(f"1.70e+584326 compositions of n={n} voters over 40320 orders")

    @pytest.mark.parametrize("m, n", [(4, 2**1000), (8, 2**3000)], ids=["m4-2**1000", "m8-2**3000"])
    def test_count_text_past_the_float_range_matches_mpmath(self, m, n):
        # n / k overflows a float. At such n, log C(n + s - 1, s - 1) is (s - 1) log n - log (s - 1)!
        # within s**2 / n relative.
        s = math.factorial(m)
        with mpmath.workdps(30):
            log10 = float(((s - 1) * mpmath.log(n) - mpmath.loggamma(s)) / mpmath.log(10))
        with pytest.raises(EnumerationBudgetError) as excinfo:
            exact_winner_probability(impartial_culture(m), n)
        assert str(excinfo.value).startswith(f"{exact_module._count_text(None, log10)} compositions of n={n} ")

    @pytest.mark.parametrize(
        "count, text",
        [(10**15 - 1, "999999999999999"), (10**15, "1.00e+15"), (123_456 * 10**20, "1.23e+25"), (10**22 - 1, "1.00e+22"),
         (99_960 * 10**12, "1.00e+17")],  # the mantissa rounds up to 10 and carries
    )
    def test_count_text(self, count, text):
        assert exact_module._count_text(count) == text

    def test_bad_n(self):
        with pytest.raises(ValueError, match=r"^voter count must be >= 1, got 0$"):
            exact_winner_probability(impartial_culture(3), 0)

    @pytest.mark.parametrize(
        "n", [5.0, True, np.float64(5.0), "5"], ids=["float", "bool", "numpy-float", "str"]
    )
    def test_n_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="voter count must be an integer"):
            exact_winner_probability(impartial_culture(3), n)

    def test_numpy_integer_n_accepted(self):
        c = impartial_culture(3)
        assert exact_winner_probability(c, np.int64(5)) == exact_winner_probability(c, 5)

    def test_degenerate_culture(self):
        p = np.zeros(6)
        p[0] = 1.0
        assert exact_winner_probability(Culture(3, p), 9).value == 1.0
        # Order 0's share 1 / (1 + 2e-20) rounds to 1, so log(1 - q) = -inf meets k = 0.
        p[[3, 5]] = 1e-20
        assert exact_winner_probability(Culture(3, p), 9).value == 1.0

    def test_four_candidates_from_their_triples_on_dual_cultures(self):
        # At odd n the majority relation is a tournament. Its cyclic triangles number 0 in the score
        # sequence (3,2,1,0), 1 in (3,1,1,1) and (2,2,2,0), and 2 in (2,2,1,1); the last two have no
        # winner. Reversing every order swaps (3,1,1,1) with (2,2,2,0), so on a dual culture
        # 1 - P_4 = (1/2) sum over the triples T of (1 - P_3(T)), P_3(T) on the marginal over T.
        rng = np.random.default_rng(5)
        triples = list(itertools.combinations(range(4), 3))
        evaluations = [lambda c, n=n: exact_winner_probability(c, n).value for n in (3, 5, 7)]
        evaluations.append(lambda c: limiting_probability(c).value)
        for culture in [impartial_culture(4)] + [random_dual_culture(rng, 4) for _ in range(3)]:
            marginals = [marginal(culture, t) for t in triples]
            for evaluate in evaluations:
                triangles = math.fsum(1.0 - evaluate(c) for c in marginals)
                assert abs((1.0 - evaluate(culture)) - triangles / 2.0) <= 1e-15

    def test_uniform_values_decrease_in_m_and_n_above_the_limit(self):
        # The finite-n side of the uniform limit's decrease in m (Kelly; Buckley and Westen).
        table = {
            3: {3: 0.944444, 5: 0.930556, 7: 0.924983, 9: 0.922024, 11: 0.920186},
            4: {3: 0.888889, 5: 0.861111, 7: 0.849966, 9: 0.844048},
            5: {3: 0.84},
        }
        values = {m: {n: exact_winner_probability(impartial_culture(m), n).value for n in row}
                  for m, row in table.items()}
        for m, row in values.items():
            by_n = list(row.values())
            assert by_n == pytest.approx(list(table[m].values()), abs=5e-7)
            assert all(a > b for a, b in zip(by_n, by_n[1:]))
            assert by_n[-1] > ic_limit_sampford(m)
            if m + 1 in values:
                assert all(row[n] > values[m + 1][n] for n in values[m + 1])


class TestVoterWalk:
    """A few voters over more orders are placed one voter at a time."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_closed_forms(self, m):
        orders = list(itertools.permutations(range(m)))
        for c in walk_cultures(m):
            for mode in WinnerMode:
                assert exact_winner_probability(c, 1, mode).value == 1.0
            if np.count_nonzero(c.probs) > 720:
                continue  # two voters over 5040 orders take seconds a job, on the order walk
            # Two voters have a strong winner only if both rank it first.
            top = [math.fsum(p for o, p in zip(orders, c.probs) if o[0] == cand) for cand in range(m)]
            strong = exact_winner_probability(c, 2).value
            assert abs(strong - math.fsum(t * t for t in top)) <= 1e-14
            weak = exact_winner_probability(c, 2, WinnerMode.WEAK).value
            assert abs(weak - two_voter_weak_oracle(c)) <= 1e-14

    @pytest.mark.parametrize("m,n", [(3, 4), (4, 4), (5, 3), (6, 2), (7, 1), (8, 1)])
    def test_uniform_total_mass_is_one(self, m, n):
        for k in range(1, n + 1):
            r = exact_winner_probability(impartial_culture(m), k)
            assert abs(r.detail["total_mass"] - 1.0) <= 1e-15

    @pytest.mark.parametrize("m,s", WALK_GRID)
    def test_matches_order_walk(self, monkeypatch, m, s):
        c = support_culture(m, s, 100 * m + s)
        # Beyond 2**20 candidates in all, both sides would walk order by order.
        jobs = [
            (n, mode) for n in range(1, 5) for mode in WinnerMode if n * math.comb(n + s - 1, n) <= 2**20
        ]
        voter = [exact_winner_probability(c, n, mode) for n, mode in jobs]
        monkeypatch.setattr(exact_module, "_VOTER_WALK_MAX_N", 0)  # every job walks order by order
        for (n, mode), r in zip(jobs, voter):
            expected = exact_winner_probability(c, n, mode)
            assert abs(r.value - expected.value) <= 1e-14
            assert r.detail["states"] == expected.detail["states"]
            # The culture's probabilities sum to 1 within a few ulp, and the mass is that sum ** n.
            assert abs(r.detail["total_mass"] - math.fsum(c.probs) ** n) <= 1e-15

    def test_peak_memory_uniform_m6_n2(self):
        # 518 400 candidates of 4-byte keys and 8-byte weights, merged by an 8-byte argsort and
        # gathers of the keys and the weights, each freeing the unsorted array, peak at 14 MB; an
        # 8-byte key or one more copy would pass 16 MB.
        c = impartial_culture(6)
        exact_winner_probability(c, 1)  # the cached sign table and tally basis are not part of the walk
        tracemalloc.start()
        try:
            r = exact_winner_probability(c, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.value == 1 / 6 and r.detail["states"] == 129_183
        assert peak < 16 * 2**20


def merge_reference(keys: np.ndarray, weights: np.ndarray) -> tuple[list[int], list[float], list[int]]:
    """Per distinct key, ascending: the key, the correctly rounded sum of its weights, its copies."""
    runs: dict[int, list[float]] = {}
    for key, weight in zip(keys.tolist(), weights.tolist()):
        runs.setdefault(key, []).append(weight)
    distinct = sorted(runs)
    return distinct, [math.fsum(runs[k]) for k in distinct], [len(runs[k]) for k in distinct]


CYCLIC5 = tuple(cyclic_minimizer_culture(5).support().tolist())


def profile_margins(m: int, support, counts) -> list[int]:
    """Pair margins of a profile, in Python integers, from the orders' candidate positions."""
    orders = list(itertools.permutations(range(m)))
    margins = []
    for a, b in itertools.combinations(range(m), 2):
        signs = [1 if orders[k].index(a) < orders[k].index(b) else -1 for k in support]
        margins.append(sum(sign * count for sign, count in zip(signs, counts)))
    return margins


class TestMergeAndDecode:
    """The walk's bookkeeping against a per-key ``math.fsum`` and Python-integer margins."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_merge_matches_fsum_per_key(self, dtype):
        rng = np.random.default_rng(np.dtype(dtype).itemsize)
        top = np.iinfo(dtype).max
        pool = np.r_[np.array([top, 0, top - 1], dtype=dtype), rng.integers(0, top, 400, dtype=dtype)]
        for distinct, size in [(1, 1), (1, 9), (3, 7), (40, 5000), (300, 100_000)]:
            keys = rng.choice(np.unique(pool[:distinct]), size)
            # Multiples of 2**-40 below 2**-20 sum exactly in any order; random floats round.
            for weights, exact_sums in [(rng.integers(1, 2**20, size) * 2.0**-40, True), (rng.random(size), False)]:
                expected_keys, sums, copies = merge_reference(keys, weights)
                half = size // 2  # in two parts, as a walk passes them
                got_keys, got = _merge([(keys[:half], weights[:half]), (keys[half:], weights[half:])])
                assert got_keys.dtype == dtype and got_keys.tolist() == expected_keys
                if exact_sums:
                    assert got.tolist() == sums
                else:
                    # c positive terms, summed in any order, lie within (c - 1) u of their sum, and
                    # math.fsum within u: c u of it (u = eps / 2) bounds the distance. One or two
                    # copies take at most one rounding, as math.fsum does.
                    sums, copies = np.array(sums), np.array(copies)
                    assert np.all(np.abs(got - sums) <= copies * np.finfo(float).eps / 2 * sums)
                    assert np.array_equal(got[copies <= 2], sums[copies <= 2])

    def test_merge_empties_the_list_and_leaves_the_parts(self):
        # The walks hand their states over in a list, so that no caller holds them while they sort.
        keys, weights = np.array([5, 1, 5, 0], dtype=np.uint16), np.array([0.25, 0.5, 0.125, 1.0])
        parts = [(keys[:2], weights[:2]), (keys[2:], weights[2:])]
        got_keys, got = _merge(parts)
        assert parts == [] and got_keys.tolist() == [0, 1, 5] and got.tolist() == [1.0, 0.5, 0.375]
        assert keys.tolist() == [5, 1, 5, 0] and weights.tolist() == [0.25, 0.5, 0.125, 1.0]

    # (m, support, n, key bytes): uint64 keys up to 2**63 - 1 with tallies above 2**31 and the
    # cyclic m = 5 culture's coefficients of 3. Single orders never reach the decode.
    @pytest.mark.parametrize("m,support,n,key_bytes", [
        (3, (0, 5), 15, 1), (3, tuple(range(6)), 15, 2), (3, tuple(range(6)), 255, 4),
        (4, tuple(range(0, 24, 3)), 40, 8), (5, CYCLIC5, 6207, 8), (3, (0, 5), 3_037_000_498, 8),
    ])
    def test_decode_matches_python_integers(self, m, support, n, key_bytes):
        basis, decode = exact_module._tally_basis(m, support)
        base, digits = n + 1, len(basis) + 1
        assert base**digits <= 2**63
        rng = np.random.default_rng(n)
        # Every voter on one order (the extreme digits), then random profiles.
        profiles = [[n * (k == j) for k in range(len(support))] for j in range(len(support))]
        profiles += rng.multinomial(n, rng.dirichlet(np.ones(len(support))), 200).tolist()
        expected = [profile_margins(m, support, counts) for counts in profiles]
        packed = []
        for margins in expected:
            tallies = [(margins[pair] + n) // 2 for pair in basis]
            packed.append(n + sum(w * base ** (i + 1) for i, w in enumerate(tallies)))
        keys = np.array(packed, dtype=np.min_scalar_type(base**digits - 1))
        assert keys.itemsize == key_bytes and keys.tolist() == packed
        got = exact_module._margins(keys, n, basis, decode)
        assert got.tolist() == expected


class TestMinimumBound:
    def test_random_cultures_never_beat_the_minimum(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            c = random_culture(rng)
            n = int(rng.choice([1, 3, 5, 7]))
            value = exact_winner_probability(c, n).value
            assert value >= minimum_winner_probability(3, n) - 1e-10

    def test_cyclic_culture_attains_the_minimum(self):
        cyc = cyclic_minimizer_culture(3)
        # Margins sized from n rather than 2n overflow int8 at 64 <= n <= 127;
        # beyond 127 they need int16.
        for n in [*range(1, 16), 64, 100, 127, 129, 200]:
            assert exact_winner_probability(cyc, n).value == pytest.approx(
                minimum_winner_probability(3, n), abs=1e-10
            )

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_cyclic_culture_satisfies_the_first_order_conditions(self, m):
        # P_n is a polynomial in the order probabilities p. Its gradient is
        # dP_n/dp_j = n P(a winner exists | one voter casts order j, n - 1 cast iid
        # cyclic orders), summed here over the compositions of the n - 1 voters
        # on the m cyclic orders. At a minimum over the simplex it is equal on
        # the support and no smaller off it.
        support = cyclic_minimizer_culture(m).support()
        signs = pair_signs(m).astype(np.int64)
        for n in range(2, 10):
            gradient = np.zeros(len(signs))
            for bars in itertools.combinations(range(n + m - 2), m - 1):
                counts = np.diff((-1, *bars, n + m - 2)) - 1
                weight = math.factorial(n - 1) / math.prod(map(math.factorial, counts)) / m ** (n - 1)
                wins = winners_mask(counts @ signs[support] + signs, m, WinnerMode.STRONG.margin_threshold)
                gradient += weight * wins.any(axis=0)
            gradient *= n
            target = n * minimum_winner_probability(m, n)
            assert gradient[support] == pytest.approx(target, rel=1e-12)
            assert np.delete(gradient, support).min() >= target * (1 - 1e-12)

    def test_cyclic_culture_weak_mode_values_at_even_n(self):
        # Weak mode at even n has no formula in the package; the m = 3 search found these
        # values at the cyclic culture, pinned here in exact rationals.
        cyc = cyclic_minimizer_culture(3)
        weights = (cyc.probs > 0).astype(int).tolist()
        for n, expected in [(2, Fraction(1)), (4, Fraction(1)), (6, Fraction(71, 81)), (8, Fraction(1627, 2187))]:
            assert fraction_oracle(3, weights, n, WinnerMode.WEAK)[0] == expected
            value = exact_winner_probability(cyc, n, WinnerMode.WEAK).value
            assert value == pytest.approx(float(expected), rel=0, abs=1e-14)

    # the m = 3 ids name n alone
    @pytest.mark.parametrize("m, n", [(3, 3), (3, 5), (3, 7), (4, 3), (4, 5)], ids=["3", "5", "7", "m4-3", "m4-5"])
    def test_frank_wolfe_search_never_goes_below_the_minimum(self, m, n):
        # Frank-Wolfe over the m! simplex from 6 Dirichlet(1) starts: step t moves toward
        # the order with the smallest exact gradient entry (the sum above, over the
        # compositions of n - 1 voters on all orders) by 2/(t + 3); 2/(t + 2) would land
        # on one order at t = 0. The search need not converge; no iterate may beat the
        # paper's minimum.
        k = math.factorial(m)
        signs = pair_signs(m).astype(np.int64)
        voters = np.array(list(itertools.combinations_with_replacement(range(k), n - 1)))
        counts = (voters[:, :, None] == np.arange(k)).sum(axis=1)
        weight = math.factorial(n - 1) / np.array([math.factorial(c) for c in range(n)])[counts].prod(axis=1)
        margins = (counts @ signs)[:, None, :] + signs  # (compositions, cast order, pair)
        wins = winners_mask(margins.reshape(-1, signs.shape[1]), m, WinnerMode.STRONG.margin_threshold).any(axis=0)
        wins = wins.reshape(len(counts), k)
        bound = minimum_winner_probability(m, n) - 1e-12
        for p in np.random.default_rng(13).dirichlet(np.ones(k), size=6):
            for t in range(21):
                assert exact_winner_probability(Culture(m, p), n).value >= bound
                if t < 20:
                    gradient = n * (weight * np.prod(p**counts, axis=1)) @ wins
                    p = p + 2 / (t + 3) * (np.eye(k)[np.argmin(gradient)] - p)

    @pytest.mark.parametrize("m,n", [(6, 30), (7, 21)])
    def test_cyclic_minimum_beyond_63_bits_of_pair_tallies(self, m, n):
        # P = m(m-1)/2 pair tallies in base n + 1 need more than 63 bits here.
        r = exact_winner_probability(cyclic_minimizer_culture(m), n)
        assert r.value == pytest.approx(minimum_winner_probability(m, n), rel=1e-10, abs=1e-15)


class TestTieProbability:
    def test_odd_n_is_zero(self):
        assert tie_probability(3, 0.7) == 0.0
        assert tie_probability(101, 0.5) == 0.0

    def test_n2_half(self):
        assert tie_probability(2, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_n100_below_stirling_bound(self):
        assert tie_probability(100, 0.5) <= math.sqrt(2 / math.pi) / 10

    def test_decay_bound(self):
        bound = math.sqrt(2 / math.pi) * 1.05
        for n in range(20, 2001, 2):
            for p in (0.5, 0.3, 0.9):
                assert tie_probability(n, p) * math.sqrt(n) <= bound

    def test_degenerate_probability(self):
        assert tie_probability(10, 0.0) == 0.0
        assert tie_probability(10, 1.0) == 0.0

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError, match=r"^probability out of range: 1\.5$"):
            tie_probability(4, 1.5)

    def test_symmetry_in_p(self):
        assert tie_probability(8, 0.3) == pytest.approx(tie_probability(8, 0.7), rel=1e-14)

    @pytest.mark.parametrize("p", [0.5, 0.3, 0.9, 0.123456789])
    def test_matches_fraction_oracle(self, p):
        for n in range(2, 201, 2):
            exact = Fraction(math.comb(n, n // 2)) * (Fraction(p) * (1 - Fraction(p))) ** (n // 2)
            assert tie_probability(n, p) == pytest.approx(float(exact), rel=1e-13)


class TestMinimumWinnerProbability:
    @pytest.mark.parametrize(
        "m,n,expected",
        [(3, 3, 0.7778), (4, 4, 0.2031), (10, 10, 0.0015), (3, 4, 0.3333)],
    )
    def test_reference_cells(self, m, n, expected):
        assert minimum_winner_probability(m, n) == pytest.approx(expected, abs=5e-5)

    def test_m3_n3_is_7_9(self):
        assert minimum_winner_probability(3, 3) == pytest.approx(7 / 9, abs=1e-14)

    def test_one_voter_two_candidates(self):
        assert minimum_winner_probability(2, 1) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 10])
    def test_matches_incomplete_beta(self, m):
        from scipy.special import betainc

        for n in [*range(1, 201), 1_000, 10_001, 100_000, 1_000_000]:
            # m P(Bin(n, 1/m) > k) = m I_{1/m}(k + 1, n - k), k = floor(n / 2)
            k = n // 2
            expected = m * float(betainc(k + 1, n - k, 1.0 / m))
            assert minimum_winner_probability(m, n) == pytest.approx(expected, rel=1e-11, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            minimum_winner_probability(1, 3)
        with pytest.raises(ValueError):
            minimum_winner_probability(3, 0)

    def test_table_layout(self):
        rows = minimum_table([3, 4], [3, 5])
        assert rows[0] == (3, 3, pytest.approx(7 / 9))
        assert [(n, m) for n, m, _ in rows] == [(3, 3), (3, 4), (5, 3), (5, 4)]

    def test_single_cell(self):
        ((n, m, p),) = minimum_table([3], [3])
        assert (n, m) == (3, 3)
        assert p == pytest.approx(0.7778, abs=5e-5)


@pytest.mark.parametrize("bad", [True, 4.0, 0, -1])
def test_counts_must_be_integers_in_range(bad):
    with pytest.raises(ValueError, match="voter count"):
        tie_probability(bad, 0.5)
    with pytest.raises(ValueError, match="voter count"):
        minimum_winner_probability(3, bad)
    with pytest.raises(ValueError, match="candidate count"):
        minimum_winner_probability(bad, 5)
