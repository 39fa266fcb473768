"""Positive-orthant probabilities of zero-mean multivariate normal vectors.

These are the L-functions of the large-electorate limit: the probability that
every coordinate of a standardized normal vector with correlation matrix R is
non-negative. Closed forms exist through dimension three; equicorrelated
matrices of any dimension reduce to a one-dimensional integral, taken by a
fixed composite Gauss-Legendre rule (:func:`gauss_legendre`,
:func:`closed_orthant`); everything else falls back to a seeded Monte Carlo
estimate over antithetic pairs of normal rows (u and -u), which needs half
the normal draws of plain sampling and reports the binomial standard error as
an upper bound. One draw can serve several orthants of signed coordinates of
the same vector (:func:`orthants_mc`).
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_SEED, count_argument, seeded_fraction, split_candidate

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi

DEFAULT_MC_SAMPLES = 10_000_000
EQUICORRELATION_TOL = 1e-12
_INTEGRATION_HALF_WIDTH = 12.0  # exp(-144) tail, truncation error far below 1e-30
_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(24)


class CorrelationMatrixError(ValueError):
    """A matrix handed to the orthant routines is not a usable correlation matrix."""


def gauss_legendre(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 24-point Gauss-Legendre rule on each panel between ``edges``.

    ``edges`` is an increasing sequence; the rule on each panel is exact for
    polynomials of degree 47. Returns flat arrays, panel by panel.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    return ((lo + hi) / 2.0 + half * _LEGENDRE_NODES).ravel(), (half * _LEGENDRE_WEIGHTS).ravel()


def validate_correlation_matrix(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise CorrelationMatrixError(f"expected a square matrix, got shape {r.shape}")
    if r.size == 0:
        return r
    if not np.isfinite(r).all():
        raise CorrelationMatrixError("entries must be finite")
    if not np.allclose(r, r.T, atol=1e-9, rtol=0.0):
        raise CorrelationMatrixError("matrix is not symmetric")
    if np.any(np.abs(np.diag(r) - 1.0) > 1e-12):
        raise CorrelationMatrixError("diagonal entries must equal 1")
    if np.any(np.abs(r) > 1.0 + 1e-12):
        raise CorrelationMatrixError("off-diagonal entries must lie in [-1, 1]")
    if np.min(np.linalg.eigvalsh((r + r.T) / 2.0)) < -1e-9:
        raise CorrelationMatrixError("matrix is not positive semidefinite")
    return r


def _common_correlation(r: np.ndarray, tol: float = EQUICORRELATION_TOL) -> float | None:
    """The shared off-diagonal value when ``r`` is equicorrelated, else None."""
    d = r.shape[0]
    off = r[~np.eye(d, dtype=bool)]
    if off.size == 0:
        return None
    first = float(off[0])
    return first if np.all(np.abs(off - first) <= tol) else None


def equicorrelated_orthant(rho: float, d: int) -> float:
    """Orthant probability for d standardized normals with common correlation rho.

    Uses the scale-mixture representation: with a = sqrt(2 rho / (1 - rho)),

        L_d(rho) = pi**-0.5 * integral exp(-t^2) Phi(-a t)**d dt

    over the real line, truncated to [-12, 12] (truncation error below 1e-30),
    with the tail written as erfc(a t / sqrt(2)) / 2 so it keeps its relative
    precision for t > 0. The rule is :func:`gauss_legendre` on panels graded
    geometrically out from 0: the first is min(0.5, 0.5 / a) wide, each next
    one twice as wide. That resolves the O(1/a) step at 0 as rho -> 1: 240 to
    about 1000 nodes stay within 1.1e-16 of a 30-digit integral for rho up to
    1 - 1e-9 and d up to 20. Requires 0 <= rho < 1; rho = 1/3 gives a = 1.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"common correlation must be in [0, 1), got {rho!r}")
    a = math.sqrt(2.0 * rho / (1.0 - rho))
    edges, width = [0.0], 0.5 / max(a, 1.0)
    while edges[-1] < _INTEGRATION_HALF_WIDTH:
        edges.append(min(edges[-1] + width, _INTEGRATION_HALF_WIDTH))
        width *= 2.0
    t, w = gauss_legendre([-e for e in edges[:0:-1]] + edges)
    tail = 0.5 * np.array([math.erfc(x) for x in ((a / _SQRT2) * t).tolist()])
    return float(w @ (np.exp(-t * t) * tail**d)) / _SQRT_PI


def bacon_recursion(rho: float, d: int) -> float:
    """Odd-dimensional equicorrelated orthant probability by recursion.

    For odd d >= 3 the orthant probability follows from the lower-dimensional
    values:

        L_d = (1/2) [1 - d/2 + sum_{k=2}^{d-1} (-1)^k C(d, k) L_k]

    with L_1 = 1/2 and L_2 = 1/4 + arcsin(rho) / (2 pi). Even terms of
    dimension >= 4 are taken from :func:`equicorrelated_orthant`, which
    restricts d >= 5 to rho >= 0.
    """
    if d < 3 or d % 2 == 0:
        raise ValueError(f"recursion applies to odd dimensions >= 3, got {d}")
    if not abs(rho) < 1.0:
        raise ValueError(f"common correlation must satisfy |rho| < 1, got {rho!r}")
    if d >= 5 and rho < 0.0:
        raise ValueError("dimensions >= 5 require a non-negative common correlation")
    values = {1: 0.5, 2: 0.25 + math.asin(rho) / _TWO_PI}
    for dim in range(3, d + 1):
        if dim % 2 == 0:
            values[dim] = equicorrelated_orthant(rho, dim)
        else:
            acc = 1.0 - dim / 2.0
            for k in range(2, dim):
                acc += (-1) ** k * math.comb(dim, k) * values[k]
            values[dim] = 0.5 * acc
    return values[d]


def _cholesky_with_jitter(r: np.ndarray) -> np.ndarray:
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(r + jitter * np.eye(r.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise CorrelationMatrixError(
        "matrix is not positive semidefinite within jitter 1e-10"
    )


def orthants_mc(
    r: np.ndarray,
    groups,
    samples: int = DEFAULT_MC_SAMPLES,
    seed=DEFAULT_SEED,
) -> list[tuple[float, float]]:
    """Monte Carlo orthant probabilities of groups of signed coordinates of N(0, R).

    A group is a sequence of (coordinate, sign) pairs, sign +1 or -1; its
    estimate is the fraction of samples z with every sign * z[coordinate] >= 0.
    All groups read the same antithetic samples: each standard-normal row u
    gives u and -u (an odd count leaves out the last row's mirror). Rows come
    from one PCG64 stream in chunks of about 2**20 normal values, so the result
    depends only on (seed, samples). Returns, per group, the estimate v and the
    binomial stderr sqrt(v (1 - v) / samples).
    """
    return _sampled_orthants(validate_correlation_matrix(r), groups, samples, seed)


def _sampled_orthants(r: np.ndarray, groups, samples, seed) -> list[tuple[float, float]]:
    """:func:`orthants_mc` of a matrix already checked by :func:`validate_correlation_matrix`."""
    samples = count_argument(samples, "samples")
    d = r.shape[0]
    if d == 0:
        return [(1.0, 0.0)] * len(groups)
    chol = _cholesky_with_jitter(r)
    counts = np.zeros(len(groups), dtype=np.int64)

    def hits(rng: np.random.Generator, size: int) -> int:
        # Row u hits a group when each signed coordinate is >= 0, -u when each is
        # <= 0 (both only if all are 0). z is (d, rows): each test reads one row.
        z = chol @ rng.standard_normal(((size + 1) // 2, d)).T
        at_least = {1: z >= 0.0, -1: z <= 0.0}  # sign * z >= 0
        for g, group in enumerate(groups):
            up, down = np.ones((2, z.shape[1]), dtype=bool)
            for coordinate, sign in group:
                up &= at_least[sign][coordinate]
                down &= at_least[-sign][coordinate]
            if size % 2:
                down[-1] = False  # an odd count stops before the last row's mirror
            counts[g] += np.count_nonzero(up) + np.count_nonzero(down)
        return 0  # counted per group above; seeded_fraction supplies the stream and chunks

    seeded_fraction(seed, samples, d, hits, per_row=2)
    return [(v, math.sqrt(v * (1.0 - v) / samples)) for v in (int(c) / samples for c in counts)]


def orthant_mc(
    r: np.ndarray,
    samples: int = DEFAULT_MC_SAMPLES,
    seed=DEFAULT_SEED,
) -> tuple[float, float]:
    """Monte Carlo (estimate, stderr) of the positive-orthant probability of N(0, R).

    :func:`orthants_mc` for one group, every coordinate at sign +1. The stderr
    is an upper bound: at most one sample of a pair lies in the orthant, so
    the estimator's is sqrt(v (1 - 2 v) / samples).
    """
    r = validate_correlation_matrix(r)
    return _sampled_orthants(r, [[(k, 1) for k in range(r.shape[0])]], samples, seed)[0]


def closed_orthant(r: np.ndarray) -> tuple[float, None, str] | None:
    """(value, None, method) of R's orthant probability, None when only Monte Carlo serves.

    Closed forms up to d = 3; above, an equicorrelated R (within 1e-12) gives 1/2
    at correlation 1 (one normal repeated) and the integral at 0 <= rho < 1.
    """
    r = np.asarray(r, dtype=float)
    d = r.shape[0]
    if d <= 1:
        return 0.5**d, None, "exact"
    if d == 2:
        return 0.25 + math.asin(float(r[0, 1])) / _TWO_PI, None, "closed-form"
    if d == 3:
        arcs = math.asin(float(r[0, 1])) + math.asin(float(r[0, 2])) + math.asin(float(r[1, 2]))
        return (1.0 + (2.0 / math.pi) * arcs) / 8.0, None, "closed-form"
    rho = _common_correlation(r)
    if rho is not None and rho >= 1.0 - EQUICORRELATION_TOL:
        return 0.5, None, "closed-form"
    if rho is not None and rho >= 0.0:
        return equicorrelated_orthant(rho, d), None, "equicorrelated-integral"
    return None


def orthant_zero_probability(
    r: np.ndarray,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed=DEFAULT_SEED,
) -> tuple[float, float | None, str]:
    """(value, stderr, method) with all thresholds at zero: :func:`closed_orthant`, else Monte Carlo."""
    return closed_orthant(r) or (*orthant_mc(r, mc_samples, mc_seed), "monte-carlo")


def orthant_probability(
    deltas,
    r: np.ndarray,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed=DEFAULT_SEED,
) -> float:
    """L-function with thresholds restricted to 0 and +/- infinity.

    Any +inf threshold forces the value to 0. -inf thresholds are dropped and
    the marginal correlation submatrix of the remaining coordinates is used;
    what remains is an all-zero-threshold orthant problem. ``r`` must be a
    valid correlation matrix in every dimension, else
    :class:`CorrelationMatrixError` is raised.
    """
    mc_samples = count_argument(mc_samples, "mc_samples")
    deltas = np.asarray(deltas, dtype=float)
    r = validate_correlation_matrix(r)
    if deltas.shape != (r.shape[0],):
        raise ValueError(
            f"got {deltas.shape[0] if deltas.ndim else 0} thresholds "
            f"for a correlation matrix of dimension {r.shape[0]}"
        )
    if np.isnan(deltas).any():
        raise ValueError("thresholds must not be NaN")
    finite = np.isfinite(deltas)
    if np.any(deltas[finite] != 0.0):
        raise ValueError("finite thresholds must be exactly 0")
    forced, kept = split_candidate(-np.sign(deltas))  # a +inf threshold is a lost pairing
    if forced is not None:
        return forced
    sub = r[np.ix_(kept, kept)]  # a principal submatrix of a valid matrix is valid
    positive = [[(k, 1) for k in range(len(kept))]]
    return (closed_orthant(sub) or _sampled_orthants(sub, positive, mc_samples, mc_seed)[0])[0]
