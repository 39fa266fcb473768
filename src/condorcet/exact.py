"""Finite-electorate computations on vote-count profiles.

Covers winner determination for a concrete profile, the exact probability that
a winner exists under a culture (full multinomial enumeration), tie
probabilities for even electorates, and the closed-form minimum winner
probability attained by the cyclic culture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .core import Method, WinnerMode, WinnerProbability, pair_rows, winners_mask
from .culture import Culture

DEFAULT_COMPOSITION_BUDGET = 50_000_000


class EnumerationBudgetError(RuntimeError):
    """Requested enumeration exceeds the configured composition budget."""


@dataclass(frozen=True)
class VoterProfile:
    """Vote counts per rank order: counts[i] voters cast canonical order i."""

    m: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.counts, dtype=np.int64)
        k = math.factorial(self.m)
        if c.shape != (k,):
            raise ValueError(f"expected {k} counts for m={self.m}, got shape {c.shape}")
        if np.any(c < 0):
            raise ValueError("vote counts must be non-negative")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def condorcet_winners(profile: VoterProfile, mode: WinnerMode = WinnerMode.STRONG) -> list[int]:
    """All candidates meeting the pairwise-majority condition, ascending.

    A strong winner is unique when it exists; weak winners can tie through
    zero margins, so the list may have several entries.
    """
    margins = pair_rows(profile.m).astype(np.int64) @ profile.counts
    won = winners_mask(margins[None, :], profile.m, mode.margin_threshold)[:, 0]
    return np.flatnonzero(won).tolist()


def condorcet_winner(profile: VoterProfile, mode: WinnerMode = WinnerMode.STRONG) -> int | None:
    """Lowest-index qualifying candidate, or None when no candidate qualifies."""
    winners = condorcet_winners(profile, mode)
    return winners[0] if winners else None


def exact_winner_probability(
    culture: Culture,
    n: int,
    mode: WinnerMode = WinnerMode.STRONG,
    budget: int = DEFAULT_COMPOSITION_BUDGET,
) -> WinnerProbability:
    """Exact probability that a winner exists among n independent voters.

    Enumerates every composition of n over the culture's support (orders with
    zero probability are pruned), accumulating multinomial masses in log space
    with compensated summation of the partial sums. The result is
    deterministic and bit-identical across runs.

    Raises
    ------
    EnumerationBudgetError
        If the number of compositions exceeds ``budget``.
    """
    if n < 1:
        raise ValueError(f"voter count must be >= 1, got {n}")
    support = culture.support()
    s = len(support)
    n_compositions = math.comb(n + s - 1, s - 1)
    if n_compositions > budget:
        raise EnumerationBudgetError(
            f"{n_compositions} compositions of n={n} voters over {s} orders "
            f"exceed the budget of {budget}; use the Monte Carlo estimator"
        )
    m = culture.m
    threshold = mode.margin_threshold
    detail = {"compositions": n_compositions, "support_size": s}

    if s == 1:
        # Single possible profile: the order's top candidate beats everyone.
        detail["total_mass"] = 1.0
        return WinnerProbability(1.0, Method.EXACT, detail=detail)

    rows = pair_rows(m)[:, support].astype(np.int64)
    log_p = np.log(culture.probs[support])
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))

    win_parts: list[float] = []
    total_parts: list[float] = []

    def flush_tail(remaining: int, log_w: float, margins: np.ndarray) -> None:
        k = np.arange(remaining + 1)
        lw = (
            log_w
            + k * log_p[s - 2]
            + (remaining - k) * log_p[s - 1]
            - log_fact[k]
            - log_fact[k[::-1]]
        )
        tail_margins = (
            margins[None, :]
            + np.outer(k, rows[:, s - 2])
            + np.outer(remaining - k, rows[:, s - 1])
        )
        weights = np.exp(lw)
        exists = winners_mask(tail_margins, m, threshold).any(axis=0)
        win_parts.append(float(weights[exists].sum()))
        total_parts.append(float(weights.sum()))

    def flush_leaf(log_w: float, margins: np.ndarray) -> None:
        weight = math.exp(log_w)
        exists = winners_mask(margins[None, :], m, threshold).any()
        if exists:
            win_parts.append(weight)
        total_parts.append(weight)

    # Depth-first walk over the first s-2 coordinates; the last two are
    # evaluated vectorized. Once the remaining voter budget hits zero the
    # composition is determined, which keeps sparse supports linear.
    root_margins = np.zeros(rows.shape[0], dtype=np.int64)
    stack: list[tuple[int, int, float, np.ndarray]] = [(0, n, log_fact[n], root_margins)]
    while stack:
        level, remaining, log_w, margins = stack.pop()
        if remaining == 0:
            flush_leaf(log_w, margins)
            continue
        if level == s - 2:
            flush_tail(remaining, log_w, margins)
            continue
        for k in range(remaining + 1):
            stack.append(
                (
                    level + 1,
                    remaining - k,
                    log_w + k * log_p[level] - log_fact[k],
                    margins + k * rows[:, level],
                )
            )

    value = math.fsum(win_parts)
    detail["total_mass"] = math.fsum(total_parts)
    return WinnerProbability(min(value, 1.0), Method.EXACT, detail=detail)


def tie_probability(n: int, p_ij: float) -> float:
    """Probability of an exact pairwise tie among n voters.

    Zero for odd n; for even n it is C(n, n/2) * (p(1-p))^(n/2), evaluated in
    log space so large n does not overflow.
    """
    if n < 1:
        raise ValueError(f"voter count must be >= 1, got {n}")
    if not 0.0 <= p_ij <= 1.0:
        raise ValueError(f"probability out of range: {p_ij!r}")
    if n % 2 == 1:
        return 0.0
    q = p_ij * (1.0 - p_ij)
    if q == 0.0:
        return 0.0
    half = n // 2
    log_choose = math.lgamma(n + 1) - 2.0 * math.lgamma(half + 1)
    return math.exp(log_choose + half * math.log(q))


def minimum_winner_probability(m: int, n: int) -> float:
    """Smallest winner probability over all cultures with m candidates, n voters.

    Equals m * (1 - B(k; n, 1/m)) with the binomial CDF B, k = (n-1)/2 for odd
    n and k = n/2 for even n; attained by the cyclic culture. Computed through
    the regularized incomplete beta function, stable for large n.
    """
    if m < 2:
        raise ValueError(f"candidate count must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"voter count must be >= 1, got {n}")
    k = (n - 1) // 2 if n % 2 == 1 else n // 2
    # 1 - B(k; n, p) = I_p(k+1, n-k), the regularized incomplete beta.
    return m * float(betainc(k + 1, n - k, 1.0 / m))


def minimum_table(ms: list[int], ns: list[int]) -> list[tuple[int, int, float]]:
    """Grid of minimum winner probabilities as (n, m, probability) rows."""
    return [(n, m, minimum_winner_probability(m, n)) for n in ns for m in ms]
