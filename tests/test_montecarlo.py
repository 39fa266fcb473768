import math
import sys

import numpy as np
import pytest

from condorcet import (
    Culture,
    Method,
    WinnerMode,
    case17_culture,
    cyclic_minimizer_culture,
    exact_winner_probability,
    impartial_culture,
    limiting_probability,
    load_culture_file,
    mc_convergence_sweep,
    orthants_mc,
    pair_signs,
    save_culture,
)
from condorcet import core, montecarlo
from conftest import positive_orthant, random_culture, random_dual_culture


def block_streams(entropy, trials: int, block: int):
    """(generator, sample count) of each stream block of ``core.seeded_fraction``, spelled out."""
    for b, start in enumerate(range(0, trials, block)):
        seq = np.random.SeedSequence(entropy, spawn_key=(b,) if b else ())
        yield np.random.Generator(np.random.PCG64(seq)), min(block, trials - start)


def sparse_culture(m: int, size: int, seed: int) -> Culture:
    """A culture on ``size`` random orders of m candidates."""
    rng = np.random.default_rng(seed)
    probs = np.zeros(math.factorial(m))
    probs[rng.choice(probs.size, size, replace=False)] = rng.dirichlet(np.ones(size))
    return Culture(m, probs)


class TestDeterminism:
    def test_same_seed_same_estimate(self):
        c = impartial_culture(3)
        a = mc_convergence_sweep(c, [7], 50_000, seed=42)
        b = mc_convergence_sweep(c, [7], 50_000, seed=42)
        assert a == b

    def test_different_seed_differs(self):
        c = impartial_culture(3)
        [(_, a)] = mc_convergence_sweep(c, [7], 50_000, seed=1)
        [(_, b)] = mc_convergence_sweep(c, [7], 50_000, seed=2)
        assert a.value != b.value

    def test_thread_variable_changes_nothing(self, monkeypatch):
        c = impartial_culture(3)
        monkeypatch.delenv("CONDORCET_THREADS", raising=False)
        unset = mc_convergence_sweep(c, [5], 40_000, seed=5)
        monkeypatch.setenv("CONDORCET_THREADS", "3")
        assert mc_convergence_sweep(c, [5], 40_000, seed=5) == unset

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("path", ["inline", "pooled"])
    def test_worker_count_changes_nothing(self, monkeypatch, workers, path):
        c, weak = impartial_culture(3), {"trials": 40_001, "seed": 11, "mode": WinnerMode.WEAK}
        r = np.full((4, 4), -0.2) + 1.2 * np.eye(4)
        counts = (1, 3_000, 3_001, 100_001)  # an odd count ends on half an antithetic pair
        dual = random_dual_culture(np.random.default_rng(3), 5)  # five terms, one shared draw

        def estimates():
            return (
                mc_convergence_sweep(c, [6], **weak),  # n >= s: 4 blocks
                mc_convergence_sweep(impartial_culture(4), [5], **weak),  # 5 voters, 24 orders: 4 blocks
                [orthants_mc(r, positive_orthant(4), k, (5, 2))[0] for k in counts],
                limiting_probability(dual, mc_samples=30_001, mc_seed=4),  # 3 blocks
            )

        # The reference: one worker, every block in the calling thread.
        monkeypatch.setattr(core, "_WORKERS", 1)
        monkeypatch.setattr(core, "_POOL_CELLS", math.inf)
        reference = estimates()
        monkeypatch.setattr(core, "_WORKERS", workers)
        monkeypatch.setattr(core, "_POOL_CELLS", math.inf if path == "inline" else 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that a lost update would show
        try:
            assert estimates() == reference
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("trials", [1, 65_535, 65_536, 3 * 65_536 + 7])
    def test_blocks_are_spawned_streams(self, trials):
        # A block of a one-value row is 2**16 samples. Block 0 is the stream of
        # SeedSequence(entropy) itself, so an estimate of one block is one stream.
        entropy = [9, 0]

        def hits(rng, k):
            return [np.count_nonzero(rng.random(k) < 0.3)]

        expected = sum(
            np.count_nonzero(rng.random(size) < 0.3) for rng, size in block_streams(entropy, trials, 1 << 16)
        )
        if trials <= 1 << 16:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
            assert np.count_nonzero(rng.random(trials) < 0.3) == expected
        [(value, _)] = core.seeded_fraction(entropy, trials, 1, hits)
        assert value == expected / trials

    def test_full_support_stream_is_pinned(self):
        # With full support and n >= m! the draw is the multinomial over all
        # orders; these values pin its stream, which the mc-deep workload uses.
        [(_, r)] = mc_convergence_sweep(impartial_culture(3), [7], 50_000, seed=42)
        assert r.value == 0.92756
        weights = np.arange(1, 25) % 3 + 1
        dense = Culture(4, weights / weights.sum())
        assert mc_convergence_sweep(dense, [101], 20_000, seed=3)[0][1].value == 0.83815

    def test_voter_stream_is_pinned(self):
        # With n < s each voter's order is drawn on its own, as Generator.choice
        # draws it; these values pin that stream, which the mc-wide workload uses.
        assert mc_convergence_sweep(impartial_culture(6), [101], 2_000, 1)[0][1].value == 0.682
        sparse = sparse_culture(8, 60, seed=8)
        assert mc_convergence_sweep(sparse, [31], 3_000, 2)[0][1].value == 1_652 / 3_000
        assert mc_convergence_sweep(impartial_culture(4), [10], 20_000, 3, WinnerMode.WEAK)[0][1].value == 0.9744
        assert mc_convergence_sweep(impartial_culture(6), [257], 500, 1)[0][1].value == 0.68


def _test_probs(kind: str, s: int) -> np.ndarray:
    rng = np.random.default_rng(s)
    if kind == "uniform":
        return np.full(s, 1.0 / s)
    if kind == "spike":  # one order at about 1, the rest at 1e-12
        probs = np.full(s, 1e-12)
        probs[s // 3] = 1.0 - (s - 1) * 1e-12
        return probs
    return rng.dirichlet(np.full(s, {"dirichlet-1": 1.0, "dirichlet-0.05": 0.05}[kind]))


class TestGuideTable:
    @pytest.mark.parametrize("s", [2, 24, 720, 5040, 40320])
    @pytest.mark.parametrize("kind", ["uniform", "dirichlet-1", "dirichlet-0.05", "spike"])
    def test_draws_equal_choice(self, kind, s):
        probs = _test_probs(kind, s)
        table = montecarlo._GuideTable(probs)
        for seed, shape in [(0, (1,)), (1, (7, 3)), (2, (300, 40)), (3, (2, 5000))]:
            expected = np.random.default_rng(seed).choice(s, shape, p=probs)
            drawn = table.lookup(np.random.default_rng(seed).random(shape))
            assert drawn.shape == shape
            assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("s", [2, 24, 720, 5040, 40320])
    @pytest.mark.parametrize("kind", ["uniform", "dirichlet-1", "dirichlet-0.05", "spike"])
    def test_lookup_equals_search_at_every_edge(self, kind, s):
        table = montecarlo._GuideTable(_test_probs(kind, s))
        k = table.buckets
        points = np.concatenate((table.cdf, np.arange(k + 1) / k, [0.0, 1.0 - 2.0**-53]))
        u = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)))
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(table.lookup(u), table.cdf.searchsorted(u, side="right"))


def unanimous_pair_culture(m: int, size: int, seed: int) -> Culture:
    """A culture on ``size`` random orders, all of which rank candidate 0 above candidate 1."""
    rng = np.random.default_rng(seed)
    above = np.flatnonzero(pair_signs(m)[:, 0] > 0)
    probs = np.zeros(math.factorial(m))
    probs[rng.choice(above, size, replace=False)] = rng.dirichlet(np.ones(size))
    return Culture(m, probs)


class TestWinLanes:
    # Every voter of the sparse cultures wins pair (0, 1), so at n = 256 that
    # count is the first one a uint8 lane cannot hold.
    @pytest.mark.parametrize("m", [6, 7, 8])
    @pytest.mark.parametrize("kind", ["uniform", "sparse"])
    def test_margins_equal_summed_pair_rows(self, kind, m):
        culture = impartial_culture(m) if kind == "uniform" else unanimous_pair_culture(m, 300, m)
        support = culture.support()
        s, rows = len(support), pair_signs(m)[support]
        every = np.arange(math.factorial(m))
        for n in (255, 256, s - 1):
            trials = max(4, 20_000 // n)
            # Each stream block holds 2**16 // n trials: at m = 8 and n = s - 1, one.
            blocks = block_streams([n, 0], trials, max(1, (1 << 16) // n))
            idx = np.concatenate([rng.choice(s, (size, n), p=culture.probs[support]) for rng, size in blocks])
            expected = rows[idx].sum(axis=1)
            assert np.array_equal(montecarlo._WinLanes(m, support, n).margins(idx), expected)
            # The same voters counted in the lanes of the full order set.
            assert np.array_equal(montecarlo._WinLanes(m, every, n).margins(support[idx]), expected)
            for mode in WinnerMode:
                wins = core.winners_mask(expected, m, mode.margin_threshold).any(axis=0)
                [(_, r)] = mc_convergence_sweep(culture, [n], trials, seed=n, mode=mode)
                assert r.value == np.count_nonzero(wins) / trials


    @pytest.mark.parametrize("itemsize", [1, 2])
    @pytest.mark.parametrize("m", range(3, 9))
    def test_cached_words_hold_each_orders_pair_bits(self, m, itemsize):
        words = montecarlo._lane_words(m, itemsize)
        pairs, per_word = m * (m - 1) // 2, 8 // itemsize
        assert words.dtype == np.uint64 and words.shape == (-(-pairs // per_word), math.factorial(m))
        lanes = words.T.copy().view(f"u{itemsize}")  # (m!, W * per_word), each order's lanes in sequence
        assert np.array_equal(lanes[:, :pairs], pair_signs(m) > 0)
        assert not lanes[:, pairs:].any()
        assert montecarlo._lane_words(m, itemsize) is words

    def test_cached_words_are_read_only(self):
        words = montecarlo._lane_words(6, 1)
        with pytest.raises(ValueError, match="read-only"):
            words[0, 0] = 0
        lanes = montecarlo._WinLanes(6, np.arange(720), 11)
        assert lanes.words is words  # a full support reads the cache as it is
        with pytest.raises(ValueError, match="read-only"):
            lanes.words[0] += 1


class TestEstimates:
    def test_degenerate_culture_is_exactly_one(self):
        p = np.zeros(6)
        p[3] = 1.0
        [(_, r)] = mc_convergence_sweep(Culture(3, p), [11], 10_000, seed=0)
        assert r.method is Method.MONTE_CARLO
        assert r.value == 1.0
        assert r.stderr == 0.0

    def test_cyclic_n3_near_7_9(self):
        [(_, r)] = mc_convergence_sweep(cyclic_minimizer_culture(3), [3], 1_000_000, seed=7)
        assert abs(r.value - 7 / 9) <= 4 * r.stderr

    def test_impartial_n5_near_exact(self):
        c = impartial_culture(3)
        exact = exact_winner_probability(c, 5).value
        [(_, r)] = mc_convergence_sweep(c, [5], 1_000_000, seed=8)
        assert abs(r.value - exact) <= 4 * r.stderr

    @pytest.mark.parametrize(
        "culture, n",
        [
            (impartial_culture(4), 5),
            (impartial_culture(4), 7),
            (cyclic_minimizer_culture(3), 2),
            (sparse_culture(5, 8, seed=4), 5),  # fewer voters than orders: drawn by voter
            (sparse_culture(5, 8, seed=4), 11),  # more voters than orders: drawn by count
        ],
        ids=["ic4-n5", "ic4-n7", "cyclic3-n2", "sparse5-n5", "sparse5-n11"],
    )
    def test_pruned_draws_match_exact(self, culture, n):
        exact = exact_winner_probability(culture, n).value
        [(_, r)] = mc_convergence_sweep(culture, [n], 200_000, seed=n)
        assert abs(r.value - exact) <= 5 * r.stderr

    def test_m8_csv_roundtrip(self, tmp_path):
        c = sparse_culture(8, 60, seed=8)
        save_culture(c, tmp_path / "sparse8.csv")
        back = load_culture_file(tmp_path / "sparse8.csv")
        assert back.m == 8
        assert np.array_equal(back.probs, c.probs)

    def test_weak_mode_at_even_n_exceeds_strong(self):
        c = impartial_culture(3)
        [(_, strong)] = mc_convergence_sweep(c, [6], 200_000, seed=3)
        [(_, weak)] = mc_convergence_sweep(c, [6], 200_000, seed=3, mode=WinnerMode.WEAK)
        assert weak.value > strong.value

    def test_coverage_over_random_cultures(self):
        rng = np.random.default_rng(31415)
        hits = 0
        for _ in range(50):
            c = random_culture(rng)
            n = int(rng.choice([2, 3, 4, 5, 6, 7]))
            exact = exact_winner_probability(c, n).value
            [(_, r)] = mc_convergence_sweep(c, [n], 100_000, seed=int(rng.integers(2**32)))
            if abs(r.value - exact) <= 4 * max(r.stderr, 1e-12):
                hits += 1
        assert hits >= 48

    def test_stderr_scaling(self):
        c = impartial_culture(3)
        [(_, small)] = mc_convergence_sweep(c, [6], 40_000, seed=9)
        [(_, large)] = mc_convergence_sweep(c, [6], 160_000, seed=10)
        ratio = large.stderr / small.stderr
        assert 0.5 * 0.8 <= ratio <= 0.5 * 1.2


class TestConvergenceSweep:
    def test_n1_matches_exact(self, rng):
        c = random_culture(rng)
        ((n, r),) = mc_convergence_sweep(c, [1], 5_000, seed=0)
        assert n == 1
        assert r.value == 1.0

    def test_impartial_approaches_limit_from_above(self):
        c = impartial_culture(3)
        rows = mc_convergence_sweep(c, [11, 101, 1001], 200_000, seed=12)
        limit = limiting_probability(c).value
        estimates = [r.value for _, r in rows]
        stderrs = [r.stderr for _, r in rows]
        # decreasing toward the limit, allowing sampling noise
        assert estimates[0] > limit
        for earlier, later, se_a, se_b in zip(estimates, estimates[1:], stderrs, stderrs[1:]):
            assert later <= earlier + 3 * (se_a + se_b)
        assert abs(estimates[-1] - limit) <= 4 * stderrs[-1] + 0.01

    def test_cycle_culture_decays_to_zero(self):
        rows = mc_convergence_sweep(case17_culture(), [101, 2001], 100_000, seed=13)
        assert rows[-1][1].value < 0.1
        assert rows[-1][1].value < rows[0][1].value

    def test_rows_equal_single_estimates(self, monkeypatch):
        # n = 51 and 300 draw by voter in uint8 and uint16 lanes, n = 5041 >= 7! by count.
        c, ns = impartial_culture(7), [51, 300, 5041]
        built = []
        guide = montecarlo._GuideTable
        monkeypatch.setattr(montecarlo, "_GuideTable", lambda probs: built.append(1) or guide(probs))
        rows = mc_convergence_sweep(c, ns, 600, seed=5)
        assert len(built) == 1  # one guide table for the sweep
        assert rows == [mc_convergence_sweep(c, [n], 600, seed=5)[0] for n in ns]

    def test_validation(self, rng):
        c = random_culture(rng)
        with pytest.raises(ValueError):
            mc_convergence_sweep(c, [], 10, seed=0)
        with pytest.raises(ValueError):
            mc_convergence_sweep(c, [5, 3], 10, seed=0)


class TestConfig:
    @pytest.mark.parametrize(
        "n", [5.0, True, np.float64(5.0), "5"], ids=["float", "bool", "numpy-float", "str"]
    )
    def test_voter_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="voter count must be an integer"):
            mc_convergence_sweep(impartial_culture(3), [n], 10)

    def test_voter_count_range(self):
        c = impartial_culture(3)
        with pytest.raises(ValueError, match=r"^voter count must be >= 1 and below 2\*\*63, got 0$"):
            mc_convergence_sweep(c, [0], 10)
        with pytest.raises(ValueError, match=r"below 2\*\*63"):
            mc_convergence_sweep(c, [2**63], 10)
        assert mc_convergence_sweep(c, [np.int64(2**63 - 1)], 10)[0][1].stderr >= 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
            mc_convergence_sweep(impartial_culture(3), [5], 0)

    @pytest.mark.parametrize("trials", [1e4, 100.7, True, "10"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            mc_convergence_sweep(impartial_culture(3), [5], trials)

    def test_numpy_integer_trials_accepted(self):
        [(_, r)] = mc_convergence_sweep(impartial_culture(3), [5], np.int64(1_000), seed=np.uint64(4))
        assert type(r.detail["trials"]) is int and type(r.detail["seed"]) is int
        assert r == mc_convergence_sweep(impartial_culture(3), [5], 1_000, seed=4)[0][1]

    def test_seed_validated(self):
        c = impartial_culture(3)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"^seed must be an unsigned 64-bit integer, got {seed}$"):
                mc_convergence_sweep(c, [5], 1, seed=seed)
        for seed in (1.5, True):
            with pytest.raises(ValueError, match="seed"):
                mc_convergence_sweep(c, [5], 1, seed=seed)
        [(_, r)] = mc_convergence_sweep(c, [5], 1, seed=np.uint64(2**64 - 1))
        assert r.detail["seed"] == 2**64 - 1 and type(r.detail["seed"]) is int
