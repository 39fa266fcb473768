"""Large-electorate limit of the winner probability for arbitrary cultures.

As the number of voters grows, the standardized pairwise vote margins of each
candidate converge jointly to a multivariate normal vector, so the limiting
probability that candidate i beats everyone is a normal orthant probability.
Three per-voter quantities drive the computation:

* the expected pairwise margin lambda[i, j], the mean of the +/-1 preference
  of a single voter between i and j (equals 2 p_ij - 1);
* its sign, which turns each pairwise condition into an integration threshold
  of 0 (balanced pair) or -inf / +inf (pair decided surely in the limit);
  note the inversion: a positive margin means the condition is free, so the
  threshold is -inf;
* the correlation matrix of candidate i's margins against the other m - 1
  candidates.

One pass per culture turns these into the per-candidate decomposition: each
candidate's term is forced to 0 or 1 by its infinite thresholds, or is the
orthant probability of its balanced rivals' margins, whose correlation matrix
is a signed slice of the one matrix of the culture's balanced pairs. The limit
is the sum of the terms: closed forms where they exist, and for the rest one
Monte Carlo draw of their pairs. For three candidates the 27 sign patterns of
the margins reduce to a fixed table of closed forms (``TABLE1``);
``classify_m3`` evaluates a row's stored formula from the same pass, and
``audit_table1`` checks every row against the same shared draw of the
decomposition, taken for all of the row's balanced terms.

The module also provides the impartial-culture (uniform) limit: the printed
closed forms for 3..7 candidates, the limit for any count through the same
orthant dispatcher as ``limiting_probability``, a decreasing upper bound, and
the curve of the limit against the number of candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_SEED, Method, WinnerProbability
from .culture import Culture, candidate_pairs, count_argument, integer_argument, pair_index, pair_signs, seed_argument
from .orthant import DEFAULT_MC_SAMPLES, closed_orthant, equicorrelated_orthant, gauss_legendre, orthants_mc

__all__ = [
    "TABLE1",
    "DegenerateVarianceError",
    "Table1AuditRow",
    "Table1Row",
    "audit_table1",
    "classify_m3",
    "correlation_matrix",
    "ic_curve",
    "ic_limit_closed",
    "ic_limit_sampford",
    "lambda_matrix",
    "limiting_probability",
    "may_bound",
    "sign_pattern_culture",
]

_TWO_PI = 2.0 * math.pi

DELTA_SIGN_TOL = 1e-12
DEGENERATE_MARGIN_TOL = 1e-12
_ORDER_BLOCK = 2**13  # orders per float block of the sign table: at least 7!, so every m <= 7 table is one block

# Integration threshold label per margin sign: a pairing won surely in the
# limit frees its condition (-inf), one lost surely cannot hold (+inf).
_THRESHOLD_LABELS = {1: "-inf", 0: "0", -1: "+inf"}


class DegenerateVarianceError(ValueError):
    """A pairwise margin is +/-1, so the margin has zero variance.

    Correlation entries involving such a pair are undefined; callers handle
    the pair through its +/-inf threshold instead.
    """


def _moments(culture: Culture, columns=None) -> np.ndarray:
    """The culture's mean of each ``pair_signs`` column or, given ``columns``, of each product s_p s_q of theirs.

    Only a block of ``_ORDER_BLOCK`` orders is cast to float at a time; at m = 8 the sums run in block order.
    """
    signs, probs, total = pair_signs(culture.m), culture.probs, 0.0
    for start in range(0, len(probs), _ORDER_BLOCK):
        block, p = signs[start : start + _ORDER_BLOCK], probs[start : start + _ORDER_BLOCK]
        rows = None if columns is None else block.T[columns].astype(float)  # (pairs, orders)
        total = total + (p @ block if rows is None else (rows * p) @ rows.T)
    return total


def lambda_matrix(culture: Culture) -> np.ndarray:
    """Expected pairwise margins: entry [i, j] = 2 p_ij - 1, antisymmetric."""
    columns, sides = pair_index(culture.m)
    return _moments(culture)[columns] * sides


def _pair_correlation(culture: Culture, columns, lam: np.ndarray) -> np.ndarray:
    """Correlation matrix of the margins in the ``pair_signs`` ``columns``, each pair read by its first candidate.

    Entry (p, q) is (E[s_p s_q] - lam_p lam_q) / sqrt((1 - lam_p^2)(1 - lam_q^2)), where s_p is
    the voter's +/-1 preference in column p and ``lam`` holds each column's mean. Raises
    :class:`DegenerateVarianceError` when a listed margin is +/-1 within 1e-12.
    """
    lam_row = lam[columns]
    degenerate = np.abs(lam_row) >= 1.0 - DEGENERATE_MARGIN_TOL
    if degenerate.any():
        pairs = [list(candidate_pairs(culture.m)[c]) for c in np.asarray(columns)[degenerate]]
        raise DegenerateVarianceError(f"margins of the pairs {pairs} are +/-1; the correlation entry is undefined")
    second_moment = _moments(culture, columns)
    sd = np.sqrt(1.0 - lam_row**2)
    r = (second_moment - lam_row[:, None] * lam_row) / (sd[:, None] * sd)
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    return r


def correlation_matrix(culture: Culture, i: int) -> np.ndarray:
    """The (m-1) x (m-1) margin correlation matrix of candidate i.

    Rows and columns are indexed by the other candidates in ascending order.
    Raises :class:`DegenerateVarianceError` when any margin involving i is
    +/-1 within 1e-12 (zero variance; the pair must be handled through its
    +/-inf threshold instead).
    """
    i = integer_argument(i, "candidate i", 0, culture.m, f"in [0, {culture.m - 1}]")
    columns, sides = (np.delete(a[i], i) for a in pair_index(culture.m))
    return _pair_correlation(culture, columns, _moments(culture)) * np.outer(sides, sides)


def _decomposition(culture: Culture, tol: float) -> tuple[list[list[int]], list[tuple], np.ndarray | None]:
    """The margin signs, per candidate (forced term, R, group), and the joint matrix.

    A margin's sign is +1 above ``tol``, -1 below ``-tol`` and 0 within ``tol`` of zero. A term
    is forced to 0 by a pairing surely lost and to 1 when every pairing is surely won. The joint
    matrix correlates the balanced pairs of the other candidates, in ``pair_signs`` column order.
    Such a candidate's group holds (joint row, side) per balanced rival, side -1 where the
    candidate is the pair's second, and R is the joint matrix at those rows, sides applied; a
    forced term has [] and None.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    lam = _moments(culture)
    columns, sides = pair_index(culture.m)
    signs = (((lam > tol).astype(int) - (lam < -tol))[columns] * sides).tolist()
    balanced = [  # None where a pairing is surely lost, else the (column, side) of each balanced rival
        None if min(row) < 0 else [(column[j], side[j]) for j, s in enumerate(row) if s == 0 and j != i]
        for i, (row, column, side) in enumerate(zip(signs, columns.tolist(), sides.tolist()))
    ]
    rows = {c: k for k, c in enumerate(sorted({c for pairs in balanced if pairs for c, _ in pairs}))}
    joint = _pair_correlation(culture, list(rows), lam) if rows else None
    parts = []
    for pairs in balanced:
        group = [(rows[c], side) for c, side in pairs or ()]
        sub = None
        if group:
            at, flips = zip(*group)
            sub = joint[np.ix_(at, at)] * np.outer(flips, flips)
        parts.append((0.0 if pairs is None else None if group else 1.0, sub, group))
    return signs, parts, joint


def limiting_probability(
    culture: Culture,
    tol: float = DELTA_SIGN_TOL,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    mc_seed=DEFAULT_SEED,
) -> WinnerProbability:
    """Probability that a winner exists as the number of voters grows without bound.

    Sums, over candidates, the orthant probability of the candidate's
    standardized margin vector with thresholds from the margin signs. Pairs
    with margin +/-1 never touch a correlation entry: their thresholds are
    +/-inf, so the coordinate is dropped (or the whole term is zero) before
    any submatrix is built. Terms without a closed form read one draw of their
    pairs' margins, seeded by ``mc_seed``. The stderr is the root sum of squares
    of theirs, None without one; the terms are exclusive events, so it is conservative.
    The value is the unclamped sum of the terms, held to WinnerProbability's range.

    The returned detail carries the per-candidate terms; ``detail["case"]``
    holds the three-candidate table row when m = 3.
    """
    mc_samples = count_argument(mc_samples, "mc_samples")
    mc_seed = seed_argument(mc_seed, "mc_seed")
    signs, parts, joint = _decomposition(culture, tol)
    evaluated = [(forced, None, "exact") if sub is None else closed_orthant(sub) for forced, sub, _ in parts]
    sampled = [i for i, term in enumerate(evaluated) if term is None]
    if sampled:  # one draw of the joint matrix's rows that the sampled terms read
        estimates = orthants_mc(joint, [parts[i][2] for i in sampled], mc_samples, mc_seed)
        for i, estimate in zip(sampled, estimates):
            evaluated[i] = (*estimate, "monte-carlo")
    terms = [
        {"candidate": i, "deltas": [_THRESHOLD_LABELS[s] for j, s in enumerate(signs[i]) if j != i],
         "correlation": None if sub is None else sub.tolist(), "L": float(value), "method": method, "stderr": stderr}
        for i, ((_, sub, _), (value, stderr, method)) in enumerate(zip(parts, evaluated))
    ]
    total = math.fsum(t["L"] for t in terms)
    variances = [t["stderr"] ** 2 for t in terms if t["method"] == "monte-carlo"]
    stderr = math.sqrt(math.fsum(variances)) if variances else None
    detail = {"terms": terms, "terms_sum": total}
    if culture.m == 3:
        detail["case"] = _table1_row(signs).number
    return WinnerProbability(total, Method.LIMIT, stderr, detail)


# ---------------------------------------------------------------------------
# Three candidates: the 27 margin-sign patterns and their closed forms.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Row:
    """One sign pattern of the three pairwise margins and its limit formula.

    ``signs`` holds the signs of the expected margins for the candidate pairs
    (0,1), (0,2), (1,2). ``kind`` selects the formula: the full three-term sum
    ("sum3"), 3/4 plus an arcsine of one correlation entry ("arcsin", with
    ``arcsin_candidate`` naming whose correlation matrix feeds it), or a
    constant ("half", "one", "zero").
    """

    number: int
    signs: tuple[int, int, int]
    kind: str
    arcsin_candidate: int | None = None


def _build_table1() -> tuple[Table1Row, ...]:
    z, p, n = 0, 1, -1
    entries = [
        (1, (z, z, z), "sum3", None),
        (2, (z, z, p), "arcsin", 0),
        (3, (z, z, n), "arcsin", 0),
        (4, (z, p, z), "arcsin", 1),
        (5, (z, n, z), "arcsin", 1),
        (6, (z, p, n), "half", None),
        (7, (z, p, p), "one", None),
        (8, (z, n, p), "half", None),
        (9, (z, n, n), "one", None),
        (10, (p, z, p), "half", None),
        (11, (p, p, z), "one", None),
        (12, (p, z, n), "one", None),
        (13, (p, n, z), "half", None),
        (14, (p, p, p), "one", None),
        (15, (p, n, n), "one", None),
        (16, (p, p, n), "one", None),
        (17, (p, n, p), "zero", None),
        (18, (p, z, z), "arcsin", 2),
        (19, (n, z, z), "arcsin", 2),
        (20, (n, z, p), "one", None),
        (21, (n, z, n), "half", None),
        (22, (n, p, z), "half", None),
        (23, (n, p, p), "one", None),
        (24, (n, p, n), "zero", None),
        (25, (n, n, z), "one", None),
        (26, (n, n, p), "one", None),
        (27, (n, n, n), "one", None),
    ]
    return tuple(Table1Row(*entry) for entry in entries)


TABLE1: tuple[Table1Row, ...] = _build_table1()
_TABLE1_BY_SIGNS: dict[tuple[int, int, int], Table1Row] = {row.signs: row for row in TABLE1}


def _table1_row(signs: list[list[int]]) -> Table1Row:
    """The table row of a three-candidate sign matrix."""
    return _TABLE1_BY_SIGNS[(signs[0][1], signs[0][2], signs[1][2])]


def classify_m3(culture: Culture, tol: float = DELTA_SIGN_TOL) -> tuple[int, float]:
    """Table row (1..27) and limiting winner probability for three candidates.

    The value is computed from the row's stored formula, not from the general
    orthant machinery, so it can be cross-checked against
    :func:`limiting_probability`.
    """
    if culture.m != 3:
        raise ValueError(f"classification table applies to m=3, got m={culture.m}")
    return _table1_value(*_decomposition(culture, tol)[:2])


def _table1_value(signs: list[list[int]], parts: list) -> tuple[int, float]:
    """Table row and stored-formula value of a three-candidate :func:`_decomposition`."""
    row = _table1_row(signs)
    if row.kind == "sum3":
        value = math.fsum(0.25 + math.asin(float(sub[0, 1])) / _TWO_PI for _, sub, _ in parts)
    elif row.kind == "arcsin":
        entry = float(parts[row.arcsin_candidate][1][0, 1])
        value = 0.75 + math.asin(entry) / _TWO_PI
    elif row.kind == "half":
        value = 0.5
    elif row.kind == "one":
        value = 1.0
    else:
        value = 0.0
    return row.number, value


def sign_pattern_culture(signs: tuple[int, int, int]) -> Culture:
    """Three-candidate culture whose expected margins are 0.12 times a sign pattern.

    Starts from the uniform culture and adds the minimum-norm perturbation
    whose margins equal 0.12 times the requested signs; every order keeps a
    probability of at least 1/6 - 0.06.
    """
    if len(signs) != 3 or any(s not in (-1, 0, 1) for s in signs):
        raise ValueError(f"signs must be a triple over {{-1, 0, 1}}, got {signs!r}")
    target = 0.12 * np.asarray(signs, dtype=float)
    coeffs = pair_signs(3).T.astype(float)  # margins of pairs (0,1), (0,2), (1,2) per order
    gram = coeffs @ coeffs.T
    return Culture(3, np.full(6, 1.0 / 6.0) + coeffs.T @ np.linalg.solve(gram, target))


@dataclass(frozen=True)
class Table1AuditRow:
    """Outcome of auditing one table row against the Monte Carlo draw of its terms."""

    number: int
    signs: tuple[int, int, int]
    formula_value: float
    mc_value: float
    mc_stderr: float
    passed: bool


def audit_table1(samples: int = DEFAULT_MC_SAMPLES, seed: int = DEFAULT_SEED) -> list[Table1AuditRow]:
    """Check every table row against a Monte Carlo orthant evaluation.

    For each sign pattern a culture realizing it is constructed, classified,
    and its tabulated value compared (4-sigma criterion) with its forced terms
    plus one draw of the rest, on the stream (seed, row number): ``orthants_mc``
    of the joint matrix and groups that :func:`limiting_probability` samples.
    The stderr is that of the estimate if the formula holds,
    sqrt(sum L_i (1 - L_i) / samples) over the terms' closed values L_i
    (conservative, as the terms are exclusive events), so it is not 0 when
    every sample of a term falls on one side. Rows whose terms are all forced
    by infinite thresholds have zero stderr and must match exactly.
    Deterministic for a fixed seed.
    """
    seed = seed_argument(seed, "seed")
    results = []
    for row in TABLE1:
        culture = sign_pattern_culture(row.signs)
        signs, parts, joint = _decomposition(culture, DELTA_SIGN_TOL)
        number, formula_value = _table1_value(signs, parts)
        if number != row.number:
            raise AssertionError(
                f"constructed culture for row {row.number} classified as {number}"
            )
        groups = [group for _, _, group in parts if group]
        estimates = iter(orthants_mc(joint, groups, samples, (seed, row.number)) if groups else ())
        mc_total = sum(next(estimates)[0] if group else forced for forced, _, group in parts)
        closed = [closed_orthant(sub)[0] for _, sub, _ in parts if sub is not None]
        mc_stderr = math.sqrt(sum(v * (1.0 - v) for v in closed) / samples)
        passed = abs(formula_value - mc_total) <= 4.0 * mc_stderr  # equality at zero stderr
        results.append(
            Table1AuditRow(row.number, row.signs, formula_value, mc_total, mc_stderr, passed)
        )
    return results


# ---------------------------------------------------------------------------
# Impartial culture: closed forms, the equicorrelated integral, and bounds.
# ---------------------------------------------------------------------------

_ARCSIN_THIRD = math.asin(1.0 / 3.0)


def _kernel(lam: np.ndarray) -> np.ndarray:
    return np.arcsin(lam / (1.0 + 2.0 * lam)) / np.sqrt(1.0 - lam * lam)


def _kernel_integrals() -> tuple[float, float]:
    """The kernel's integral over [0, 1/3] and its double integral, by Gauss-Legendre.

    The double integral takes, at each outer node mu, the inner panel
    [0, mu / (1 + 2 mu)] of the same rule: a 24 x 24 node grid.
    """
    mu, w = gauss_legendre([0.0, 1.0 / 3.0])
    x, v = gauss_legendre([0.0, 1.0])
    upper = mu / (1.0 + 2.0 * mu)
    inner = upper * (_kernel(np.outer(upper, x)) @ v)
    return float(w @ _kernel(mu)), float(w @ (inner / np.sqrt(1.0 - mu * mu)))


def ic_limit_closed(m: int) -> float:
    """Uniform-culture limit from the printed closed forms, m in 3..7.

    The forms for 5..7 contain one- and two-dimensional integrals of
    arcsin(lam / (1 + 2 lam)) / sqrt(1 - lam^2) kernels over [0, 1/3]. The
    kernels are smooth there, so one 24-node :func:`gauss_legendre` panel per
    dimension gives them to rounding: the values agree with
    :func:`ic_limit_sampford` within 1e-14.
    """
    m = integer_argument(m, "candidate count", 3, 8, "in [3, 7]")
    a = _ARCSIN_THIRD
    if m == 3:
        return 0.75 + 3.0 * a / _TWO_PI
    if m == 4:
        return 0.5 * (1.0 + 6.0 * a / math.pi)
    i1, i2 = _kernel_integrals()
    if m == 5:
        return (5.0 / 16.0) * (1.0 + 12.0 * a / math.pi + 24.0 * i1 / math.pi**2)
    if m == 6:
        return (3.0 / 16.0) * (1.0 + 20.0 * a / math.pi + 120.0 * i1 / math.pi**2)
    return (7.0 / 64.0) * (
        1.0 + 30.0 * a / math.pi + 360.0 * i1 / math.pi**2 + 720.0 * i2 / math.pi**3
    )


def ic_limit_sampford(m: int) -> float:
    """Uniform-culture limit for any m >= 2.

    Under the uniform culture all margins are balanced and every candidate's
    correlation matrix is equicorrelated at 1/3, so the limit is m times the
    (m-1)-dimensional orthant value: :func:`closed_orthant`'s closed forms for
    m <= 4, and above :func:`equicorrelated_orthant`, which needs no matrix,
    so memory does not grow with m; the range rule is that of WinnerProbability.
    """
    m = integer_argument(m, "candidate count", 2, math.inf, ">= 2")
    if m >= 5:
        value = m * equicorrelated_orthant(1.0 / 3.0, m - 1)
    else:
        value = m * closed_orthant((2.0 * np.eye(m - 1) + 1.0) / 3.0)[0]
    return WinnerProbability(value, Method.LIMIT).value


def may_bound(m: int) -> float:
    """Decreasing upper bound 2 pi sqrt(2) / sqrt(2m + 1) on the uniform limit."""
    m = integer_argument(m, "candidate count", 2, math.inf, ">= 2")
    return _TWO_PI * math.sqrt(2.0) / math.sqrt(2.0 * m + 1.0)


def ic_curve(ms: list[int]) -> list[tuple[int, float]]:
    """Rows (m, uniform-culture limit) for plotting the limit against m."""
    return [(m, ic_limit_sampford(m)) for m in ms]
