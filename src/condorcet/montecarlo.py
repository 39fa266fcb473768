"""Seeded Monte Carlo estimation of the winner probability.

Covers electorate sizes where exact enumeration is infeasible and serves as
the cross-check tying the exact and limiting computations together. Profiles
are drawn over the culture's support only, in the stream blocks of
:func:`~condorcet.core.seeded_fraction` seeded from ``[seed, 0]``, so an
estimate depends only on (seed, trials), not on the thread count, and is
bit-exact across runs. With at least as many voters as supported orders, a profile is
one multinomial vector of vote counts; with fewer, each voter's order is drawn
on its own, through a guide table (C. Chen and R. Asau, "On generating random
variates from an empirical distribution", AIIE Trans. 6, 1974) that returns
the same indices as ``Generator.choice`` from the same uniforms, and the
voters' pair wins are counted in packed lanes: one uint8 lane per pair (uint16
from 256 voters on) in 64-bit words, summed a word at a time over all voters.
A lane's count is at most n < s <= 8! < 2**16, so it never carries into its
neighbour. The lane words of all m! orders are packed once per (m, lane width)
and cached read-only, as ``pair_signs`` is; a sweep over several n builds its
guide table once. Either way a block holds about 2**16 vote counts or voter
choices, so memory stays bounded at any trial count or m.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import (
    DEFAULT_SEED,
    Method,
    WinnerMode,
    WinnerProbability,
    seeded_fraction,
    winners_mask,
)
from .culture import Culture, count_argument, integer_argument, pair_signs, seed_argument

__all__ = ["mc_convergence_sweep"]


class _GuideTable:
    """Index draws bit-identical to ``Generator.choice(s, shape, p=probs)``, without its search.

    ``choice`` draws u = ``rng.random(shape)`` and returns
    ``cdf.searchsorted(u, side="right")``, with ``cdf = probs.cumsum() / its
    last entry``; ``lookup(rng.random(shape))`` returns the same indices. Each
    u starts at the guide entry of its bucket b = floor(u K), K = 4 s: the
    search's answer at the bucket's midpoint (b + 1/2) / K. One vectorised
    test keeps each start i with ``cdf[i-1] <= u < cdf[i]``, which is exactly
    the search's answer; only the other u go to the search, so no start can
    make an index wrong. Building the table costs O(s + K).
    """

    def __init__(self, probs: np.ndarray) -> None:
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        self.below = np.concatenate(([0.0], cdf[:-1]))  # cdf[i-1], and 0 for i = 0
        self.buckets = 4 * cdf.size
        # cdf[i] <= (b + 1/2) / K iff ceil(cdf[i] K - 1/2) <= b, so entry b counts those i. The last
        # order (cdf = 1) would count only in entry K, which no u < 1 reaches, so it is left out and
        # no entry passes s - 1.
        edges = cdf[:-1] * self.buckets
        edges -= 0.5
        guide = np.bincount(np.ceil(edges, out=edges).astype(np.intp), minlength=self.buckets + 1)
        self.guide = np.cumsum(guide, out=guide)

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """``cdf.searchsorted(u, side="right")`` for u in [0, 1)."""
        idx = self.guide[(u * self.buckets).astype(np.intp)]
        miss = (u < self.below[idx]) | (u >= self.cdf[idx])
        idx[miss] = self.cdf.searchsorted(u[miss], side="right")
        return idx


@lru_cache(maxsize=None)
def _lane_words(m: int, itemsize: int) -> np.ndarray:
    """The cached, read-only (W, m!) uint64 lane words of every order, ``itemsize`` bytes a lane.

    Order k's bit for pair p (1 when it ranks the pair's first candidate
    higher) sits in lane p of its row, padded to W whole 64-bit words; row w
    holds word w of every order. 1.3 MB at m = 8 in uint8 lanes.
    """
    signs = pair_signs(m)
    pairs, per_word = signs.shape[1], 8 // itemsize
    packed = np.zeros((len(signs), -(-pairs // per_word) * per_word), f"u{itemsize}")
    np.greater(signs, 0, out=packed[:, :pairs])
    words = packed.view(np.uint64).T.copy()
    words.flags.writeable = False
    return words


class _WinLanes:
    """Pair margins of n voter choices, counted in packed lanes of 64-bit words.

    One uint8 lane per pair, or one uint16 lane when n >= 256, from the
    cached words of :func:`_lane_words`: a full support reads them as they
    are, a partial one takes its orders' columns. ``words[w]`` holds word w of
    every supported order, so one gather and one row sum per word add up the
    wins of all n voters of a trial. A lane's count is at most n, and n < s
    <= 8! < 2**16 here, so no count carries into the next lane.
    """

    def __init__(self, m: int, support: np.ndarray, n: int) -> None:
        self.lane = np.dtype(np.uint8 if n < 256 else np.uint16)
        self.pairs, self.n = m * (m - 1) // 2, n
        words = _lane_words(m, self.lane.itemsize)
        self.words = words if len(support) == words.shape[1] else words.take(support, axis=1)  # (W, s)

    def margins(self, idx: np.ndarray) -> np.ndarray:
        """(k, P) int64 margins of the k trials whose (k, n) voter order indices are ``idx``."""
        wins = np.stack([word[idx].sum(axis=1) for word in self.words], axis=1)
        return 2 * wins.view(self.lane)[:, : self.pairs].astype(np.int64) - self.n


def mc_convergence_sweep(
    culture: Culture, ns: list[int], trials: int, seed: int = DEFAULT_SEED, mode: WinnerMode = WinnerMode.STRONG
) -> list[tuple[int, WinnerProbability]]:
    """One estimate of the probability that a winner exists per electorate size in ``ns``.

    Row (n, estimate) holds the winning fraction of ``trials`` profiles of n
    voters, drawn as the module describes, with its binomial standard error.
    It depends only on (seed, trials) and equals the row of the one-size sweep
    ``[n]``; the guide table and the multinomial rows are built once for all
    rows. ``ns`` must be non-empty and ascending, each n an int in [1, 2**63);
    ``trials`` must be a positive int and ``seed`` an int in [0, 2**64), numpy
    integers included; bools and floats raise ValueError.
    """
    trials = count_argument(trials, "trials")
    seed = seed_argument(seed, "seed")
    if not ns:
        raise ValueError("need at least one electorate size")
    if list(ns) != sorted(ns):
        raise ValueError("electorate sizes must be ascending")
    # Below 2**63, as numpy's multinomial takes a C long.
    counts = [integer_argument(n, "voter count", 1, 2**63, ">= 1 and below 2**63") for n in ns]
    support = culture.support()
    s = len(support)
    probs = culture.probs[support]
    threshold = mode.margin_threshold
    guide = _GuideTable(probs) if counts[0] < s else None
    rows = pair_signs(culture.m)[support].astype(np.int64) if counts[-1] >= s else None  # (s, P)

    def estimate(n: int) -> WinnerProbability:
        if n < s:
            lanes = _WinLanes(culture.m, support, n)

            def margins(rng: np.random.Generator, size: int) -> np.ndarray:
                return lanes.margins(guide.lookup(rng.random((size, n))))
        else:

            def margins(rng: np.random.Generator, size: int) -> np.ndarray:
                return rng.multinomial(n, probs, size=size) @ rows

        def hits(rng: np.random.Generator, size: int) -> list[int]:
            mask = winners_mask(margins(rng, size), culture.m, threshold)
            return [np.count_nonzero(mask.any(axis=0))]

        [(value, stderr)] = seeded_fraction([seed, 0], trials, min(n, s), hits)
        detail = {"trials": trials, "seed": seed}
        return WinnerProbability(value, Method.MONTE_CARLO, stderr=stderr, detail=detail)

    return [(n, estimate(count)) for n, count in zip(ns, counts)]
