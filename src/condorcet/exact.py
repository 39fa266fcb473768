"""Finite-electorate winner and tie probabilities.

Covers the exact probability that a winner exists under a culture (a
convolution over pairwise tally states, voter by voter for a few voters and
order by order otherwise), tie probabilities for even electorates, and the
closed-form minimum winner probability attained by the cyclic culture.
Binomial probabilities follow C. Loader, "Fast and Accurate Computation of
Binomial Probabilities" (2000).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import lru_cache, partial

import numpy as np

from .core import Method, WinnerMode, WinnerProbability, winners_mask
from .culture import Culture, count_argument, integer_argument, pair_signs

__all__ = [
    "DEFAULT_COMPOSITION_BUDGET",
    "EnumerationBudgetError",
    "exact_winner_probability",
    "minimum_table",
    "minimum_winner_probability",
    "tie_probability",
]

DEFAULT_COMPOSITION_BUDGET = 50_000_000

# Stirling's error log n! - (n + 1/2) log n + n - log sqrt(2 pi) for n = 0..15 (0 is unused).
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


class EnumerationBudgetError(RuntimeError):
    """Requested exact computation exceeds the composition budget or a 63-bit state.

    The budget bounds the compositions C(n+s-1, s-1) of n voters over s orders:
    the order walk visits fewer than twice that many states, and the voter walk
    expands at most n times that many candidates.
    """


def _count_text(count: int | None, log10: float | None = None) -> str:
    """A count in decimal up to 15 digits, else to three significant digits.

    Large counts go through their log10, ``log10`` when the count is None, never
    a decimal conversion of the integer, which Python refuses above 4300 digits.
    """
    if count is not None and count < 10**15:
        return str(count)
    log10 = math.log10(count) if count is not None else log10
    exponent = math.floor(log10)
    mantissa = round(10 ** (log10 - exponent), 2)
    if mantissa == 10:
        mantissa, exponent = 1.0, exponent + 1
    return f"{mantissa:.2f}e+{exponent}"


@lru_cache(maxsize=128)
def _tally_basis(
    m: int, support: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Pairs whose tallies, with the voter count t, fix every pair's tally.

    Over the support, w_q counts the voters ranking pair q's first candidate
    higher. Pairs are kept while their 0/1 rows are linearly independent of the
    all-ones row and of the pairs kept before them. Returns the kept pairs and,
    per pair q, integers (D, c_0, ..., c_P) with D w_q = c_0 t + sum_p c_(p+1) w_p.
    """
    tally_rows = np.vstack([np.ones(len(support)), pair_signs(m)[list(support)].T > 0])
    # A Gram matrix's rows obey the rows' linear relations; its float counts (< 2**53) are exact.
    rows = (tally_rows @ tally_rows.T).astype(np.int64).tolist()
    size = len(rows)
    echelon, kept, decode = [], [], []
    for index, row in enumerate(rows):
        # Fraction-free elimination of the row, followed by its coefficients over ``rows``.
        vec = row + [int(g == index) for g in range(size)]
        for pivot, e_vec in echelon:
            a, b = e_vec[pivot], vec[pivot]
            if b:
                vec = [a * x - b * y for x, y in zip(vec, e_vec)]
                g = math.gcd(*vec)
                vec = [x // g for x in vec]
        if any(vec[:size]):
            echelon.append((next(k for k, x in enumerate(vec) if x), vec))
            kept.append(index)
            decode.append((1, *(int(g == index) for g in range(size))))
        else:
            combo = vec[size:]
            decode.append((combo[index], *(0 if g == index else -c for g, c in enumerate(combo))))
    return tuple(g - 1 for g in kept[1:]), tuple(decode[1:])


_BLOCK = 1 << 20  # candidate states expanded at once while fewer states are merged
# The voter walk takes n <= 4 voters over s > n orders when (n - 1) times the basis size is at
# most 30 and it expands at most 2**20 candidates: where it was faster on random supports.
_VOTER_WALK_MAX_N = 4


_Parts = list[tuple[np.ndarray, np.ndarray]]  # (keys, weights) pairs of states; a merge empties the list


def _concatenate(parts: _Parts) -> tuple[np.ndarray, np.ndarray]:
    """The keys and weights of ``parts``, joined in order; the list is emptied, freeing the parts."""
    keys, weights = map(np.concatenate, zip(*parts))
    parts.clear()
    return keys, weights


def _merge(parts: _Parts) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys of ``parts`` in ascending order, each with the summed weight of its copies.

    One argsort's permutation gathers the keys and then the weights. No caller
    holds the parts, so each unsorted array is freed once it is gathered. Keys
    of 16 bits or less take numpy's stable sort, a radix sort for them and 3-5
    times faster than the default introsort. Wider keys take the default:
    there the stable sort is a timsort, up to 2 times slower on the voter
    walk's candidates and no faster on the order walk's.
    """
    keys, weights = _concatenate(parts)
    order = np.argsort(keys, kind="stable" if keys.itemsize <= 2 else None)
    keys = keys[order]
    weights = weights[order]
    del order
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(weights, first)


def _expand(
    keys: np.ndarray, weights: np.ndarray, counts: np.ndarray,
    grow: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    merge: Callable[[_Parts], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Merged states after state i turns into ``counts[i]`` candidates.

    ``grow(keys, weights, counts)`` returns the candidates of a block of states,
    and ``merge`` takes the merged states and those candidates. A block holds at most about max(``_BLOCK``, merged states) candidates, so
    memory follows the number of merged states.
    """
    ends = np.cumsum(counts)
    lo, merged = 0, [(keys[:0], weights[:0])]
    while lo < keys.size:
        cap = ends[lo] - counts[lo] + max(_BLOCK, merged[0][0].size)
        hi = max(lo + 1, int(np.searchsorted(ends, cap, "right")))
        merged.append(grow(keys[lo:hi], weights[lo:hi], counts[lo:hi]))
        merged = [merge(merged)]
        lo = hi
    return merged[0]


def _take(
    step: np.int64, log_fact: np.ndarray, log_k: np.ndarray, log_rest: np.ndarray,
    keys: np.ndarray, weights: np.ndarray, block: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates after one order takes k = 0 .. block - 1 of the voters left in each state.

    Taking k of big voters has probability C(big, k) q^k (1 - q)^(big - k), from
    ``log_k`` = log k! - k log q and ``log_rest`` = log k! - k log(1 - q).
    """
    k = np.arange(block.sum()) - np.repeat(np.cumsum(block) - block, block)
    big = np.repeat(block - 1, block)
    pmf = log_fact[big] - log_k[k]
    pmf -= log_rest[big - k]
    new = np.repeat(keys, block) + (k * step).astype(keys.dtype)
    return new, np.repeat(weights, block) * np.exp(pmf, out=pmf)


def _vote(
    steps: np.ndarray, probs: np.ndarray, keys: np.ndarray, weights: np.ndarray, _: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Candidates after one more voter casts order j, with probability ``probs[j]``."""
    return (keys[:, None] + steps).ravel(), (weights[:, None] * probs).ravel()


def exact_winner_probability(
    culture: Culture,
    n: int,
    mode: WinnerMode = WinnerMode.STRONG,
    budget: int = DEFAULT_COMPOSITION_BUDGET,
) -> WinnerProbability:
    """Exact probability that a winner exists among n independent voters.

    Walks the culture's support (orders with zero probability are pruned); a
    single order needs no walk, since its first candidate wins every pairing
    by n, so the value is 1.0 for every n in both modes. A few voters over
    more orders (see ``_VOTER_WALK_MAX_N``) are placed one at a time: each
    casts order j with probability p_j, and states with equal tallies merge
    after each voter. Otherwise they are placed order by order:
    order j takes k of the voters left with the binomial probability of k
    given that none of them chose an earlier order, the last order takes the
    rest, and states with equal tallies merge. A state packs the voters placed
    and the tallies of the pairs of :func:`_tally_basis` as base-(n+1) digits
    into one unsigned integer. The value is the winning mass over
    ``detail["total_mass"]``, so the weights' rounding cancels; it is
    deterministic and bit-identical across runs.

    Raises
    ------
    EnumerationBudgetError
        If the number of compositions of n over the support exceeds ``budget``
        (the order walk visits fewer than twice that many states, the voter
        walk expands at most n times that many candidates), or if a state
        needs more than 63 bits.
    """
    n = count_argument(n, "voter count")
    budget = count_argument(budget, "budget")
    support = culture.support()
    s = len(support)
    if s == 1:  # every voter casts the one order, whose first candidate wins each pairing by n
        detail = {"compositions": 1, "support_size": 1, "total_mass": 1.0, "states": 1}
        return WinnerProbability(1.0, Method.EXACT, detail=detail)
    # The count's log10, a sum of log(1 + n / k) over k < s, refuses jobs far over the budget without
    # math.comb, which takes a second to build the 584327 digits of uniform m = 8 at n = 2**62. Each
    # term is taken as logaddexp(0, log n - log k), which holds for every n since math.log takes any
    # int; a difference of lgamma values would cancel at large n. The exact count is taken near the
    # budget and where it is printed in full.
    log10_count = float(np.logaddexp(0.0, math.log(n) - np.log(np.arange(1, s))).sum()) / math.log(10)
    exact_count = log10_count < 1.0 + max(15.0, math.log10(budget))
    n_compositions = math.comb(n + s - 1, s - 1) if exact_count else None
    if n_compositions is None or n_compositions > budget:
        raise EnumerationBudgetError(
            f"{_count_text(n_compositions, log10_count)} compositions of n={n} voters over {s} orders exceed the "
            f"budget of {budget}; use the Monte Carlo estimator"
        )
    basis, decode = _tally_basis(culture.m, tuple(support.tolist()))
    base, digits = n + 1, len(basis) + 1
    if base**digits > 2**63:
        raise EnumerationBudgetError(
            f"states of {digits} base-{base} digits for n={n} voters over {s} orders exceed 63 bits; use the "
            "Monte Carlo estimator"
        )

    # Digit 0 counts the voters placed, digit i + 1 the tally of basis pair i.
    place = base ** np.arange(digits, dtype=np.uint64)
    steps = place[0] + place[1:] @ (pair_signs(culture.m)[np.ix_(support, basis)].T > 0)
    probs = culture.probs[support]
    keys, weights = np.zeros(1, dtype=np.min_scalar_type(base**digits - 1)), np.ones(1)
    few_voters = n <= _VOTER_WALK_MAX_N and n < s and (n - 1) * len(basis) <= 30
    if few_voters and n * n_compositions <= 1 << 20:
        vote = partial(_vote, steps.astype(keys.dtype), probs)
        for _ in range(n):
            keys, weights = _expand(keys, weights, np.full(keys.size, s), vote, _merge)
    else:
        # Order j's share of the probability of orders j, j + 1, ... (the last order needs none).
        q = (probs / np.cumsum(probs[::-1])[::-1])[:-1, None]
        ramp = np.arange(n + 1)
        log_fact = np.fromiter(map(math.lgamma, range(1, ramp.size + 1)), float, ramp.size)
        with np.errstate(divide="ignore", invalid="ignore"):  # q can round to 1: log(1 - q) = -inf
            k_log_rest = np.where(ramp > 0, ramp * np.log1p(-q), 0.0)  # 0 log 0 = 0
        log_k, log_rest = log_fact - ramp * np.log(q), log_fact - k_log_rest
        # With s affinely independent orders no state is reached twice, so none merge.
        merge = _merge if digits < s else _concatenate
        placed, pending = [(keys[:0], weights[:0])], 0  # the states with every voter placed, in parts
        for j, step in enumerate(steps.astype(np.int64)):
            left = n - (keys % base).astype(np.intp)
            if j < s - 1:
                take = partial(_take, step, log_fact, log_k[j], log_rest[j])
                keys, weights = _expand(keys, weights, left + 1, take, merge)
            else:  # the last order takes every voter left
                keys = keys + (left * step).astype(keys.dtype)
            # States with every voter placed leave the walk; later orders take none of them.
            done = keys % base == n
            placed.append((keys[done], weights[done]))
            keys, weights = keys[~done], weights[~done]
            pending += placed[-1][0].size
            if j == s - 1 or pending > max(_BLOCK, placed[0][0].size):
                placed, pending = [merge(placed)], 0
        keys, weights = placed[0]

    margins = _margins(keys, n, basis, decode)
    exists = winners_mask(margins, culture.m, mode.margin_threshold).any(axis=0)
    total = weights.sum()
    detail = {"compositions": n_compositions, "support_size": s}
    detail.update(total_mass=float(total), states=int(keys.size))
    return WinnerProbability(float(weights[exists].sum() / total), Method.EXACT, detail=detail)


def _margins(
    keys: np.ndarray, n: int, basis: tuple[int, ...], decode: tuple[tuple[int, ...], ...]
) -> np.ndarray:
    """The (N, P) pair margins 2 w - n of final states, from their keys and :func:`_tally_basis`.

    Each base-(n + 1) digit costs one floor division by a scalar in the keys'
    own type and a multiply-subtract for the remainder, about twice as fast as
    ``np.divmod``. The tallies combine in the narrowest signed type that holds
    n times the largest sum of a decode row's absolute entries, and 2n: that
    bounds every term, partial sum and quotient, so every admitted job is exact.
    """
    bound = n * max(2, *(sum(map(abs, row)) for row in decode))
    dtype = np.min_scalar_type(-bound - 1)  # at most int64: with two or more orders, n < 2**32
    base = keys.dtype.type(n + 1)
    rest, tallies = keys // base, {0: n}  # digit 0 counts the voters placed: n in every final state
    for pair in basis:
        quotient = rest // base
        rest -= quotient * base
        tallies[pair + 1], rest = rest.astype(dtype), quotient
    # Margins 2 w - n lie in [-n, n]; a type sized from -2n also holds +n.
    margins = np.empty((keys.size, len(decode)), dtype=np.min_scalar_type(-2 * n), order="F")
    for col, (d, *coeffs) in enumerate(decode):
        tally = sum(tallies[g] if c == 1 else dtype.type(c) * tallies[g] for g, c in enumerate(coeffs) if c)
        margins[:, col] = 2 * (tally if d == 1 else tally // d) - n
    return margins


def _stirlerr(n: int) -> float:
    """Stirling's error log n! - (n + 1/2) log n + n - log sqrt(2 pi), for n >= 1."""
    if n < len(_STIRLERR):
        return _STIRLERR[n]
    nn = float(n) * n  # the series 1/(12 n) - 1/(360 n^3) + 1/(1260 n^5) - 1/(1680 n^7) + 1/(1188 n^9)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, by its series where x is near ``mean`` (no cancellation)."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term = (x - mean) * v, 2.0 * x * v
    for j in range(3, 1000, 2):
        term *= v * v
        if total + term / j == total:
            break
        total += term / j
    return total


def _dbinom(x: int, n: int, p: float) -> float:
    """P(Bin(n, p) = x) for 0 < x <= n and 0 < p < 1, to full relative precision.

    Loader's saddle-point form: the Stirling errors of n, x and n - x and the
    deviances ``_bd0`` replace log-factorials that cancel to a few digits.
    """
    if x == n:
        return p**n
    lc = _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x) - _bd0(x, n * p) - _bd0(n - x, n * (1.0 - p))
    return math.exp(lc) * math.sqrt(n / (2.0 * math.pi * x * (n - x)))


def tie_probability(n: int, p_ij: float) -> float:
    """Probability of an exact pairwise tie among n voters.

    Zero for odd n; for even n it is C(n, n/2) * (p(1-p))^(n/2), the binomial
    probability of n/2, computed by Loader's method so large n neither
    overflows nor loses digits. ``n`` must be a positive int.
    """
    n = count_argument(n, "voter count")
    if not 0.0 <= p_ij <= 1.0:
        raise ValueError(f"probability out of range: {p_ij!r}")
    if n % 2 == 1 or p_ij in (0.0, 1.0):
        return 0.0
    return _dbinom(n // 2, n, p_ij)


def minimum_winner_probability(m: int, n: int) -> float:
    """Smallest winner probability over all cultures with m candidates, n voters.

    Equals m * P(Bin(n, 1/m) > k) with k = (n-1)/2 for odd n and k = n/2 for
    even n; attained by the cyclic culture. The tail starts from Loader's
    binomial term at k + 1 and runs down the decreasing terms by their ratio
    (n - j) / (j + 1) * p / (1 - p) until they fall below 1e-17 of the first;
    it is within 1e-11 relative of the regularized incomplete beta I_p(k+1, n-k).
    The range rule is that of WinnerProbability. ``m`` must be an int >= 2 and
    ``n`` a positive int; bools and floats raise ValueError.
    """
    m = integer_argument(m, "candidate count", 2, math.inf, ">= 2")
    n = count_argument(n, "voter count")
    p, j = 1.0 / m, n // 2 + 1
    terms = [_dbinom(j, n, p)]
    while j < n and terms[-1] > 1e-17 * terms[0]:
        terms.append(terms[-1] * (n - j) / (j + 1) * p / (1.0 - p))
        j += 1
    return WinnerProbability(m * math.fsum(terms), Method.EXACT).value


def minimum_table(ms: list[int], ns: list[int]) -> list[tuple[int, int, float]]:
    """Grid of minimum winner probabilities as (n, m, probability) rows."""
    return [(n, m, minimum_winner_probability(m, n)) for n in ns for m in ms]
