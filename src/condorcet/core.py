"""The per-candidate winner condition, the result type and the seeded sampler.

All three methods work on the P = m(m-1)/2 signed margins of the pairs of
``culture.candidate_pairs`` (the columns of ``culture.pair_signs``) and ask
whether a candidate wins every pairing. Both Monte Carlo estimators, of
profiles and of normal orthants, draw through :func:`seeded_fraction`.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from .culture import candidate_pairs

__all__ = ["Method", "WinnerMode", "WinnerProbability"]

_BLOCK_CELLS = 1 << 16  # values per stream block; part of every stream's definition, as the seed is
_POOL_CELLS = 1 << 18  # draws of fewer values run inline: starting a pool would cost more than it saves
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
DEFAULT_SEED = 0  # of every seeded estimate, in the library and on the command line


class WinnerMode(enum.Enum):
    """Strong winners need every pairwise margin >= 1; weak winners >= 0."""

    STRONG = "strong"
    WEAK = "weak"

    @property
    def margin_threshold(self) -> int:
        return 1 if self is WinnerMode.STRONG else 0


class Method(enum.Enum):
    EXACT = "exact"
    MONTE_CARLO = "monte-carlo"
    LIMIT = "limit"


@dataclass(frozen=True)
class WinnerProbability:
    """A winner-existence probability with its method, statistical error and detail.

    Monte Carlo results carry a ``stderr``, exact ones none, limits one when a
    term is Monte Carlo. The one range rule of every method: a value within
    1e-12 + 4 stderr of [0, 1] is clamped into it, any other raises ValueError.
    """

    value: float
    method: Method
    stderr: float | None = None
    detail: dict | None = None

    def __post_init__(self) -> None:
        if self.method is Method.MONTE_CARLO and self.stderr is None:
            raise ValueError("Monte Carlo results must carry a stderr")
        if self.method is Method.EXACT and self.stderr is not None:
            raise ValueError("exact results carry no stderr")
        if self.stderr is not None and not self.stderr >= 0.0:
            raise ValueError(f"negative stderr: {self.stderr!r}")
        v = float(self.value)
        slack = 1e-12 + 4.0 * (self.stderr or 0.0)
        if not -slack <= v <= 1.0 + slack:  # also rejects NaN and inf
            raise ValueError(f"probability out of range: {v!r}")
        object.__setattr__(self, "value", min(max(v, 0.0), 1.0))


def winners_mask(margins: np.ndarray, m: int, threshold: int) -> np.ndarray:
    """Which candidate wins every pairing, per profile: an (m, N) bool array.

    ``margins`` is (N, P) in ``candidate_pairs`` order, holding the signed
    margin of each pair's first candidate over its second. Candidate c wins
    when each of its margins is at least ``threshold``.
    """
    out = np.ones((m, margins.shape[0]), dtype=bool)
    for col, (a, b) in enumerate(candidate_pairs(m)):
        column = margins[:, col]
        out[a] &= column >= threshold
        out[b] &= column <= -threshold
    return out


def seeded_fraction(entropy, trials: int, width: int, hits, per_row: int = 1) -> list[tuple[float, float]]:
    """Fractions of ``trials`` seeded samples that hit each group, with their binomial stderrs.

    Each drawn row of ``width`` values yields ``per_row`` samples.
    ``hits(rng, k)`` draws the rows of k samples from ``rng`` and returns, per
    group, how many of the k samples hit it. The samples come in blocks of
    ``per_row * max(1, 2**16 // width)``, only the last of which may be
    shorter. Block 0 draws from a PCG64 stream seeded by
    ``SeedSequence(entropy)``, block b >= 1 from one seeded by
    ``SeedSequence(entropy, spawn_key=(b,))``, and the blocks' hit counts add
    up as integers. So the result depends only on (entropy, trials), never on
    the order in which blocks finish. A draw of at least 2**18 values runs its
    blocks on one thread per usable CPU (numpy's generators release the GIL),
    a smaller one in the calling thread; either way at most ``_WORKERS``
    blocks are in memory at once.
    """
    block = per_row * max(1, _BLOCK_CELLS // width)
    blocks = -(-trials // block)

    def count(b: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(b,) if b else ())))
        return np.array(hits(rng, min(block, trials - b * block)), dtype=np.int64)

    def stride(first: int, step: int) -> np.ndarray:
        return sum(count(b) for b in range(first, blocks, step))

    if trials * width // per_row < _POOL_CELLS:
        totals = stride(0, 1)
    else:
        from concurrent.futures import ThreadPoolExecutor  # about 5 ms to import, so only when a pool runs

        workers = min(_WORKERS, blocks)
        with ThreadPoolExecutor(workers) as pool:
            totals = sum(pool.map(stride, range(workers), [workers] * workers))
    return [(v, math.sqrt(v * (1.0 - v) / trials)) for v in (int(total) / trials for total in totals)]
