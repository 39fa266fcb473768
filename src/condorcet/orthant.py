"""Positive-orthant probabilities of zero-mean multivariate normal vectors.

These are the L-functions of the large-electorate limit: the probability that
every coordinate of a standardized normal vector with correlation matrix R is
non-negative. One dispatcher, :func:`closed_orthant`, gives every value with
a deterministic form: closed forms through dimension three, and for
equicorrelated matrices of any dimension a one-dimensional integral, taken by
a fixed composite Gauss-Legendre rule (:func:`gauss_legendre`). One sampler,
:func:`orthants_mc`, estimates the rest from antithetic pairs of normal rows
(u and -u), which need half the normal draws of plain sampling; it reports
the binomial standard error as an upper bound, and one draw serves several
orthants of signed coordinates of the same vector. The sampler's estimates
depend only on (seed, samples), whatever the thread count.

The normal rows are the Box-Muller transform (Box & Muller, Ann. Math. Stat.
29, 1958) of float32 uniforms in numpy's float32 log, sqrt, sin and cos: SIMD
loops, about a third of the cost of numpy's float64 ziggurat (a scalar loop),
with the same bits whether numpy's AVX-512 dispatch is on or off. Without AVX2
they round some values an ulp differently, which moves a count only where it
flips a sign. Uniforms on
the 2**-24 grid cap the radius at sqrt(48 ln 2) = 5.77, which the true radius
passes with probability 2**-24, so an orthant probability moves by less than
about 1e-6 even at d = 28: far below any reported stderr. The odd-dimension
recursion for equicorrelated matrices lives in the tests, as an oracle for the
integral.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DEFAULT_SEED, seeded_fraction
from .culture import count_argument, integer_argument, seed_argument

__all__ = ["CorrelationMatrixError", "equicorrelated_orthant", "orthants_mc"]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
_TWO_PI = 2.0 * math.pi
# Multiply-adds per product of the Cholesky factor and normal rows. OpenBLAS runs
# a product of at most 2**18 in the calling thread; a larger one wakes its own
# threads, which on a small block cost more than they save and compete with
# seeded_fraction's workers.
_BLAS_PRODUCTS = 1 << 18

DEFAULT_MC_SAMPLES = 10_000_000
EQUICORRELATION_TOL = 1e-12
# A culture's common correlation of 1 is a sum of probabilities, a few ulps off 1; below, the integral holds.
_CORRELATION_ONE = 1.0 - 4 * np.finfo(float).eps
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


def _common_correlation(r: np.ndarray) -> float | None:
    """The shared off-diagonal value when ``r``, of dimension d >= 2, is equicorrelated, else None."""
    off = r[~np.eye(r.shape[0], dtype=bool)]
    first = float(off[0])
    return first if np.all(np.abs(off - first) <= EQUICORRELATION_TOL) else None


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
    d = count_argument(d, "dimension")
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


def _cholesky_with_jitter(r: np.ndarray) -> np.ndarray:
    for jitter in (0.0, 1e-14, 1e-12, 1e-10):
        try:
            return np.linalg.cholesky(r + jitter * np.eye(r.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise CorrelationMatrixError(
        "matrix is not positive semidefinite within jitter 1e-10"
    )


def _normal_rows(rng: np.random.Generator, rows: int, d: int) -> np.ndarray:
    """A (rows, d) float64 block of standard normals by float32 Box-Muller.

    Draws n = ceil(rows * d / 2) float32 uniforms u, then n more v, and takes
    r = sqrt(-2 log(1 - u)) and theta = 2 pi v in float32; 1 - u lies in (0, 1],
    so r is finite. The block is r cos(theta), then r sin(theta), filled row by
    row and cut to rows * d values.
    """
    n = -(-rows * d // 2)
    r, theta = rng.random((2, n), dtype=np.float32)
    np.subtract(np.float32(1.0), r, out=r)
    np.log(r, out=r)
    r *= np.float32(-2.0)
    np.sqrt(r, out=r)
    theta *= np.float32(_TWO_PI)
    z = np.empty((2, n))
    np.multiply(np.cos(theta), r, out=z[0])  # a float32 product, stored as float64
    np.multiply(np.sin(theta), r, out=z[1])
    return z.reshape(-1)[: rows * d].reshape(rows, d)


def orthants_mc(
    r: np.ndarray,
    groups,
    samples: int = DEFAULT_MC_SAMPLES,
    seed=DEFAULT_SEED,
) -> list[tuple[float, float]]:
    """Monte Carlo orthant probabilities of groups of signed coordinates of N(0, R).

    A group is a sequence of (coordinate, sign) pairs, coordinate an int in
    [0, d - 1] and sign 1 or -1 (else ValueError); its estimate is the fraction
    of samples z with every sign * z[coordinate] >= 0. Only the coordinates
    that some group reads are drawn, and all groups read the same antithetic
    samples: each standard-normal row u gives u and -u (an odd count leaves out
    the last row's mirror). Rows come in :func:`~condorcet.core.seeded_fraction`'s
    stream blocks of about 2**16 normal values, one PCG64 stream per block, so
    the result depends only on (seed, samples), not on how many threads draw
    them. A block of k rows of d values is :func:`_normal_rows` of its stream:
    r cos(theta), then r sin(theta), for ceil(k d / 2) pairs of float32
    uniforms (u, v), with r = sqrt(-2 log(1 - u)) and theta = 2 pi v, which
    moves an orthant by less than about 1e-6 (see the module docstring).
    ``seed`` is an int in [0, 2**64) or a non-empty tuple of them; anything
    else, None and bools included, raises ValueError. Returns, per group, the
    estimate v and the binomial stderr sqrt(v (1 - v) / samples), an upper
    bound: at most one sample of a pair lies in the group's orthant, so the
    estimator's is sqrt(v (1 - 2 v) / samples).
    """
    r = validate_correlation_matrix(r)
    samples = count_argument(samples, "samples")
    if isinstance(seed, tuple) and seed:
        seed = tuple(seed_argument(part, "seed") for part in seed)
    else:
        seed = seed_argument(seed, "seed")
    d = r.shape[0]
    rule = f"in [0, {d - 1}]"
    groups = [[(integer_argument(k, "coordinate", 0, d, rule), integer_argument(s, "sign", -1, 2, "1 or -1"))
               for k, s in group] for group in groups]
    if any(s == 0 for group in groups for _, s in group):
        raise ValueError("sign must be 1 or -1, got 0")
    read = sorted({k for group in groups for k, _ in group})
    if not read:
        return [(1.0, 0.0)] * len(groups)
    rows = {k: row for row, k in enumerate(read)}
    groups = [[(rows[k], s) for k, s in group] for group in groups]
    d = len(read)
    chol = _cholesky_with_jitter(r[np.ix_(read, read)])
    step = max(1, _BLAS_PRODUCTS // (d * d))

    def hits(rng: np.random.Generator, size: int) -> list[int]:
        # Row u hits a group when each signed coordinate is >= 0, -u when each is
        # <= 0 (both only if all are 0). z is (d, rows): each test reads one row.
        u = _normal_rows(rng, (size + 1) // 2, d).T
        z = np.empty(u.shape)
        for start in range(0, z.shape[1], step):
            np.matmul(chol, u[:, start : start + step], out=z[:, start : start + step])
        at_least = {1: z >= 0.0, -1: z <= 0.0}  # sign * z >= 0
        counts = []
        for group in groups:
            up, down = np.ones((2, z.shape[1]), dtype=bool)
            for coordinate, sign in group:
                up &= at_least[sign][coordinate]
                down &= at_least[-sign][coordinate]
            if size % 2:
                down[-1] = False  # an odd count stops before the last row's mirror
            counts.append(np.count_nonzero(up) + np.count_nonzero(down))
        return counts

    return seeded_fraction(seed, samples, d, hits, per_row=2)


def closed_orthant(r: np.ndarray) -> tuple[float, None, str] | None:
    """(value, None, method) of R's orthant probability, None when only Monte Carlo serves.

    Closed forms up to d = 3; above, an equicorrelated R (within 1e-12) gives 1/2
    at correlation 1 (one normal repeated), taken as rho >= 1 - 4 eps, and the
    integral at 0 <= rho below that.
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
    if rho is not None and rho >= _CORRELATION_ONE:
        return 0.5, None, "closed-form"
    if rho is not None and rho >= 0.0:
        return equicorrelated_orthant(rho, d), None, "equicorrelated-integral"
    return None
