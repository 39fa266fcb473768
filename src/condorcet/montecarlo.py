"""Seeded Monte Carlo estimation of the winner probability.

Covers electorate sizes where exact enumeration is infeasible and serves as
the cross-check tying the exact and limiting computations together. Profiles
are drawn over the culture's support only, by one PCG64 stream seeded from
``[seed, 0]``, so an estimate depends only on (seed, trials) and is bit-exact
across runs. With at least as many voters as supported orders, a profile is
one multinomial vector of vote counts; with fewer, each voter's order is drawn
on its own. Either way a chunk holds about 2**20 vote counts or voter choices,
so memory stays bounded at any trial count or m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_SEED,
    Method,
    WinnerMode,
    WinnerProbability,
    count_argument,
    pair_rows,
    seed_argument,
    seeded_fraction,
    winners_mask,
)
from .culture import Culture


@dataclass(frozen=True)
class McConfig:
    """Trial count, seed, and winner mode for one estimation run.

    ``trials`` must be a positive int and ``seed`` an int in [0, 2**64), numpy
    integers included; bools and floats raise ValueError.
    """

    trials: int
    seed: int = DEFAULT_SEED
    mode: WinnerMode = WinnerMode.STRONG

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", count_argument(self.trials, "trials"))
        object.__setattr__(self, "seed", seed_argument(self.seed, "seed"))


def mc_winner_probability(culture: Culture, n: int, config: McConfig) -> WinnerProbability:
    """Estimate the probability that a winner exists among n voters.

    Draws ``config.trials`` independent profiles over the s orders of the
    culture's support and reports the winning fraction with its binomial
    standard error. When n >= s a profile is a multinomial vector of s vote
    counts; when n < s it is n voter choices, whose pair rows are summed one
    voter at a time. The result depends only on (seed, trials), and each
    chunk holds about 2**20 vote counts or voter choices whatever the trial
    count or the number of orders.
    """
    if n < 1:
        raise ValueError(f"voter count must be >= 1, got {n}")
    support = culture.support()
    s = len(support)
    probs = culture.probs[support]
    rows = pair_rows(culture.m).T[support].astype(np.int64)  # (s, P)
    threshold = config.mode.margin_threshold

    def hits(rng: np.random.Generator, size: int) -> int:
        if n < s:
            margins = np.zeros((size, rows.shape[1]), dtype=np.int64)
            for column in rng.choice(s, size=(size, n), p=probs).T:
                margins += rows[column]
        else:
            margins = rng.multinomial(n, probs, size=size) @ rows
        return int(np.count_nonzero(winners_mask(margins, culture.m, threshold).any(axis=0)))

    value, stderr = seeded_fraction([config.seed, 0], config.trials, min(n, s), hits)
    detail = {"trials": config.trials, "seed": config.seed}
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
