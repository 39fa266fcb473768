"""Seeded Monte Carlo estimation of the winner probability.

Covers electorate sizes where exact enumeration is infeasible and serves as
the cross-check tying the exact and limiting computations together. Profiles
are drawn from the multinomial distribution with numpy's PCG64 generator;
results are reproducible for a fixed (seed, worker count), and the default
worker count is 1 so estimates are bit-exact across runs. Set
``CONDORCET_THREADS`` to split trials across that many independent streams.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import Method, WinnerMode, WinnerProbability, pair_rows, winners_mask
from .culture import Culture

_CHUNK = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed, and winner mode for one estimation run."""

    trials: int
    seed: int = 0
    mode: WinnerMode = WinnerMode.STRONG

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trial count must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("CONDORCET_THREADS", "1")))
    except ValueError:
        return 1


def _count_wins(culture: Culture, n: int, trials: int, threshold: int, stream: int, seed: int) -> int:
    rows = pair_rows(culture.m).T.astype(np.int64)  # (K, P)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    wins = 0
    remaining = trials
    while remaining > 0:
        batch = min(_CHUNK, remaining)
        counts = rng.multinomial(n, culture.probs, size=batch)
        margins = counts @ rows
        wins += int(np.count_nonzero(winners_mask(margins, culture.m, threshold).any(axis=0)))
        remaining -= batch
    return wins


def mc_winner_probability(culture: Culture, n: int, config: McConfig) -> WinnerProbability:
    """Estimate the probability that a winner exists among n voters.

    Draws ``config.trials`` independent profiles and reports the winning
    fraction with its binomial standard error. Deterministic for a fixed
    (seed, worker count).
    """
    if n < 1:
        raise ValueError(f"voter count must be >= 1, got {n}")
    workers = _worker_count()
    threshold = config.mode.margin_threshold
    base, extra = divmod(config.trials, workers)
    shares = [(w, base + (1 if w < extra else 0)) for w in range(workers)]
    shares = [(w, t) for w, t in shares if t > 0]
    if len(shares) == 1:
        wins = _count_wins(culture, n, shares[0][1], threshold, shares[0][0], config.seed)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            futures = [
                pool.submit(_count_wins, culture, n, t, threshold, w, config.seed)
                for w, t in shares
            ]
            wins = sum(f.result() for f in futures)
    value = wins / config.trials
    stderr = math.sqrt(value * (1.0 - value) / config.trials)
    detail = {"trials": config.trials, "seed": config.seed, "workers": len(shares)}
    return WinnerProbability(value, Method.MONTE_CARLO, stderr=stderr, detail=detail)


def mc_convergence_sweep(
    culture: Culture, ns: list[int], config: McConfig
) -> list[tuple[int, WinnerProbability]]:
    """One estimate per electorate size, for tracing the approach to the limit."""
    if not ns:
        raise ValueError("need at least one electorate size")
    if list(ns) != sorted(ns):
        raise ValueError("electorate sizes must be ascending")
    return [(n, mc_winner_probability(culture, n, config)) for n in ns]
