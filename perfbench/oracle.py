"""Reference values and answer checks, independent of the code under test.

``reference`` computes what a request's answer must be (outside any timed
section); ``check`` compares one captured response with it and returns the
problems found, an empty list meaning the answer is correct.

Monte Carlo answers are compared at Z_SIGMA standard errors. A run checks at
most a few hundred statistical quantities, and a correct program misses a
5-sigma window with probability 5.7e-7 per quantity, so a correct program
fails a run's checks with probability below 1e-3.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

import model
from workloads import TABLE1_SIGNS, Request, Workload

Z_SIGMA = 5.0
EXACT_TOL = 1e-11  # program vs reference enumeration, both in floating point
FORMULA_TOL = 1e-12  # closed forms: 67/72, the cyclic minimum, orthants of d <= 3
MASS_TOL = 1e-12
QUAD_TOL = 1e-9  # equicorrelated integral vs mpmath
SCIPY_ABSEPS = 1e-5
SCIPY_TOL = 10 * SCIPY_ABSEPS  # randomized QMC of multivariate_normal.cdf
SIGN_TOL = 1e-12  # margin sign tolerance, the CLI default
AUDIT_MAGNITUDE = 0.12  # margin magnitude of the audit's constructed cultures
AUDIT_SIGMA = 4.0  # the audit's own pass criterion


# ---------------------------------------------------------------------------
# Finite electorates
# ---------------------------------------------------------------------------


def _winner_exists(margins: np.ndarray, m: int, threshold: int) -> np.ndarray:
    """Rows of pair margins (i < j) where some candidate beats every rival."""
    exists = np.zeros(margins.shape[0], dtype=bool)
    for c in range(m):
        ok = np.ones(margins.shape[0], dtype=bool)
        for p, (i, j) in enumerate(model.pairs(m)):
            if c == i:
                ok &= margins[:, p] >= threshold
            elif c == j:
                ok &= -margins[:, p] >= threshold
        exists |= ok
    return exists


def exact_by_margin_states(probs: np.ndarray, m: int, n: int, threshold: int) -> float:
    """Winner probability by convolving voters over distinct margin vectors.

    A margin vector is stored as one integer, its coordinates shifted by n
    and taken as digits in base 2n + 1; after at most n voters no coordinate
    leaves [-n, n], so adding a voter's signs adds a fixed integer.
    """
    support = np.nonzero(probs)[0]
    rows = model.pair_signs(m)[:, support].T  # (s, P)
    base = 2 * n + 1
    if rows.shape[1] * math.log2(base) > 62:
        raise ValueError(f"margin states of m={m}, n={n} do not fit in 63 bits")
    powers = base ** np.arange(rows.shape[1], dtype=np.int64)
    steps = rows @ powers
    keys = np.array([n * powers.sum()], dtype=np.int64)
    weights = np.ones(1)
    for _ in range(n):
        keys, inverse = np.unique((keys[:, None] + steps[None, :]).reshape(-1), return_inverse=True)
        weights = np.bincount(inverse, weights=(weights[:, None] * probs[support][None, :]).reshape(-1))
    margins = (keys[:, None] // powers[None, :]) % base - n
    return math.fsum(weights[_winner_exists(margins, m, threshold)])


def exact_by_compositions(probs: np.ndarray, m: int, n: int, threshold: int) -> float:
    """Winner probability by listing every vote-count profile (small n only)."""
    support = np.nonzero(probs)[0]
    s = len(support)
    bars = np.array(list(itertools.combinations(range(n + s - 1), s - 1)), dtype=np.int64)
    bars = bars.reshape(len(bars), s - 1)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), n + s - 1)])
    counts = np.diff(edges, axis=1) - 1
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_w = log_fact[n] - log_fact[counts].sum(axis=1) + counts @ np.log(probs[support])
    margins = counts @ model.pair_signs(m)[:, support].T
    return math.fsum(np.exp(log_w[_winner_exists(margins, m, threshold)]))


def minimum_probability(m: int, n: int) -> float:
    """m * P(Binomial(n, 1/m) > k): the cyclic culture's strong-winner probability.

    Summed in exact integer arithmetic and rounded once up to n = 200; above
    that, in floating point from log-space terms, which is ample for the
    lower bound it serves there.
    """
    k = (n - 1) // 2 if n % 2 else n // 2
    if n <= 200:
        tail = sum(math.comb(n, j) * (m - 1) ** (n - j) for j in range(k + 1, n + 1))
        return m * tail / m**n
    log_q, log_r, log_n = -math.log(m), math.log1p(-1.0 / m), math.lgamma(n + 1)
    return m * math.fsum(
        math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * log_q + (n - j) * log_r)
        for j in range(k + 1, n + 1)
    )


# ---------------------------------------------------------------------------
# Infinite electorates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def equicorrelated_orthant(rho: float, d: int) -> float:
    """pi^-1/2 * integral of exp(-t^2) (1 - Phi(a t))^d over R, at 20 digits."""
    import mpmath

    with mpmath.workdps(20):
        a = mpmath.sqrt(2 * mpmath.mpf(rho) / (1 - mpmath.mpf(rho)))
        f = lambda t: mpmath.exp(-t * t) * (mpmath.erfc(a * t / mpmath.sqrt(2)) / 2) ** d  # noqa: E731
        return float(mpmath.quad(f, [-mpmath.inf, 0, mpmath.inf]) / mpmath.sqrt(mpmath.pi))


def ic_limit(m: int) -> float:
    """Uniform-culture limit: m times the (m-1)-dimensional orthant at rho = 1/3."""
    return m * equicorrelated_orthant(1.0 / 3.0, m - 1)


def _orthant(r: np.ndarray) -> tuple[float, float, str]:
    """(value, tolerance, method the program should report) for N(0, R) >= 0."""
    d = r.shape[0]
    if d == 1:
        return 0.5, FORMULA_TOL, "exact"
    if d == 2:
        return 0.25 + math.asin(r[0, 1]) / (2 * math.pi), FORMULA_TOL, "closed-form"
    if d == 3:
        arcs = math.asin(r[0, 1]) + math.asin(r[0, 2]) + math.asin(r[1, 2])
        return 0.125 + arcs / (4 * math.pi), FORMULA_TOL, "closed-form"
    off = r[~np.eye(d, dtype=bool)]
    if np.all(np.abs(off - off[0]) <= SIGN_TOL) and off[0] >= 0.0:
        return equicorrelated_orthant(float(off[0]), d), QUAD_TOL, "equicorrelated-integral"
    from scipy.stats import multivariate_normal

    value = multivariate_normal.cdf(
        np.zeros(d), mean=np.zeros(d), cov=r, abseps=SCIPY_ABSEPS, releps=0.0,
        maxpts=1_000_000 * d, rng=np.random.default_rng(0),
    )
    return float(value), SCIPY_TOL, "monte-carlo"


def limit_terms(probs: np.ndarray, m: int) -> list[dict]:
    """Per-candidate orthant terms of the limiting winner probability."""
    signs = model.pair_signs(m).astype(float)
    lam_pair = signs @ probs
    index = {pair: p for p, pair in enumerate(model.pairs(m))}

    def row(i: int, j: int) -> tuple[np.ndarray, float]:
        p = index[(min(i, j), max(i, j))]
        sign = 1.0 if i < j else -1.0
        return sign * signs[p], sign * lam_pair[p]

    terms = []
    for i in range(m):
        rivals = [(j, *row(i, j)) for j in range(m) if j != i]
        if any(lam < -SIGN_TOL for _, _, lam in rivals):
            terms.append({"L": 0.0, "tol": FORMULA_TOL, "method": "exact", "correlation": None})
            continue
        kept = [(s, lam) for _, s, lam in rivals if abs(lam) <= SIGN_TOL]
        if not kept:
            terms.append({"L": 1.0, "tol": FORMULA_TOL, "method": "exact", "correlation": None})
            continue
        s = np.array([k[0] for k in kept])
        lam = np.array([k[1] for k in kept])
        sd = np.sqrt(1.0 - lam**2)
        r = ((s * probs) @ s.T - np.outer(lam, lam)) / np.outer(sd, sd)
        np.fill_diagonal(r, 1.0)
        value, tol, method = _orthant(r)
        terms.append({"L": value, "tol": tol, "method": method, "correlation": r})
    return terms


def table_row(probs: np.ndarray) -> int:
    lam = model.margins(probs, 3)
    signs = tuple(0 if abs(x) <= SIGN_TOL else (1 if x > 0 else -1) for x in lam)
    return TABLE1_SIGNS.index(signs) + 1


def audit_culture(signs: tuple[int, int, int]) -> np.ndarray:
    """The culture the audit builds: uniform plus the minimum-norm margin shift."""
    rows = model.pair_signs(3).astype(float)
    target = AUDIT_MAGNITUDE * np.asarray(signs, dtype=float)
    return model.uniform(3) + rows.T @ np.linalg.solve(rows @ rows.T, target)


# ---------------------------------------------------------------------------
# References and checks per command
# ---------------------------------------------------------------------------


def reference(req: Request, w: Workload) -> dict:
    """Reference values for one request of the cycle."""
    probs = w.cultures.get(req.culture) if req.culture else None
    if req.command in ("exact", "mc"):
        thr = 1 if req.mode == "strong" else 0
        support = int(np.count_nonzero(probs))
        out = {"floor": {n: minimum_probability(req.m, n) for n in req.ns}, "exact": {}}
        for n in req.ns:
            refs = []
            if req.culture.startswith("cyclic:") and req.mode == "strong":
                refs.append(("cyclic minimum", minimum_probability(req.m, n), FORMULA_TOL))
            elif req.command == "exact" or (req.m == 3 and n <= 25):
                refs.append(("margin-state enumeration", exact_by_margin_states(probs, req.m, n, thr), EXACT_TOL))
            if req.culture == "ic:3" and n == 5 and req.mode == "strong":
                refs.append(("67/72", 67 / 72, FORMULA_TOL))
            if req.command == "exact" and n <= 6 and req.m <= 4 and support > 1:
                refs.append(("composition enumeration", exact_by_compositions(probs, req.m, n, thr), EXACT_TOL))
            out["exact"][n] = refs
        return out
    if req.command in ("limit", "classify"):
        terms = limit_terms(probs, req.m)
        out = {"terms": terms, "total": math.fsum(t["L"] for t in terms)}
        if req.culture.startswith("ic:"):
            out["ic"] = [("mpmath equicorrelated integral", ic_limit(req.m), QUAD_TOL)]
            if 3 <= req.m <= 7:
                from condorcet.asymptotic import ic_limit_closed

                out["ic"].append(("ic_limit_closed", ic_limit_closed(req.m), QUAD_TOL))
        if req.m == 3:
            out["row"] = table_row(probs)
        return out
    if req.command == "ic-curve":
        return {"values": {m: ic_limit(m) for m in req.ns}}
    if req.command == "min-table":
        ms = [int(x) for x in req.argv[req.argv.index("--m") + 1].split(",")]
        ns = _expand(req.argv[req.argv.index("--n") + 1])
        return {"grid": [(n, m, minimum_probability(m, n)) for n in ns for m in ms]}
    if req.command == "audit":
        return {"formula": [math.fsum(t["L"] for t in limit_terms(audit_culture(s), 3)) for s in TABLE1_SIGNS]}
    raise ValueError(f"no reference for command {req.command!r}")


def check(req: Request, ref: dict, rc: int, out: str) -> list[str]:
    """Problems with one response; empty when the response is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        obj = json.loads(out)
        return _CHECKS[req.command](req, ref, obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed response: {type(exc).__name__}: {exc}"]


def _close(problems: list[str], what: str, got: float, want: float, tol: float) -> None:
    if not abs(float(got) - want) <= tol:
        problems.append(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def _check_exact(req: Request, ref: dict, obj: dict) -> list[str]:
    problems = []
    n = req.ns[0]
    if (obj["method"], obj["m"], obj["n"], obj["mode"]) != ("exact", req.m, n, req.mode):
        problems.append(f"echoed request fields differ: {obj['method']}, m={obj['m']}, n={obj['n']}, {obj['mode']}")
    for what, want, tol in ref["exact"][n]:
        _close(problems, what, obj["value"], want, tol)
    _close(problems, "total_mass", obj["detail"]["total_mass"], 1.0, MASS_TOL)
    return problems


def _binomial_window(p: float, trials: int) -> float:
    return Z_SIGMA * math.sqrt(max(p * (1.0 - p), 0.0) / trials) + 1.0 / trials


def _check_mc(req: Request, ref: dict, rows: list) -> list[str]:
    problems = []
    if [row["n"] for row in rows] != list(req.ns):
        return [f"voter counts {[row['n'] for row in rows]} differ from {list(req.ns)}"]
    for row in rows:
        n, v, se = row["n"], row["estimate"], row["stderr"]
        if (row["trials"], row["seed"]) != (req.count, req.seed):
            problems.append(f"n={n}: echoed trials/seed {row['trials']}/{row['seed']} differ")
        if not 0.0 <= v <= 1.0:
            problems.append(f"n={n}: estimate {v!r} outside [0, 1]")
            continue
        _close(problems, f"n={n} stderr", se, math.sqrt(v * (1.0 - v) / req.count), 1e-12)
        floor = ref["floor"][n]
        if v < floor - _binomial_window(floor, req.count):
            problems.append(f"n={n}: estimate {v!r} below the minimum over cultures {floor!r}")
        for what, want, _ in ref["exact"][n]:
            _close(problems, f"n={n} vs {what}", v, want, _binomial_window(want, req.count))
    return problems


def _check_limit(req: Request, ref: dict, obj: dict) -> list[str]:
    problems = []
    terms, want = obj["terms"], ref["terms"]
    if len(terms) != len(want):
        return [f"{len(terms)} terms, want {len(want)}"]
    _close(problems, "value vs sum of terms", obj["value"], min(max(math.fsum(t["L"] for t in terms), 0.0), 1.0), 1e-12)
    # All Monte Carlo terms of one request share one seed, so their errors
    # are correlated and the total's standard error can reach their sum.
    stderr_sum = tolerance = 0.0
    for i, (t, w) in enumerate(zip(terms, want)):
        if t["candidate"] != i or t["method"] != w["method"]:
            problems.append(f"term {i}: candidate {t['candidate']} method {t['method']}, want {i} {w['method']}")
            continue
        if w["correlation"] is not None:
            got = np.array(t["correlation"], dtype=float)
            if got.shape != w["correlation"].shape or not np.allclose(got, w["correlation"], rtol=0, atol=1e-9):
                problems.append(f"term {i}: correlation matrix differs")
        if w["method"] == "monte-carlo":
            se = t["stderr"]
            _close(problems, f"term {i} stderr", se, math.sqrt(t["L"] * (1.0 - t["L"]) / req.count), 1e-12)
            window = Z_SIGMA * max(se, math.sqrt(w["L"] * (1.0 - w["L"]) / req.count)) + w["tol"]
            _close(problems, f"term {i} vs scipy multivariate_normal.cdf", t["L"], w["L"], window)
            stderr_sum += se
        else:
            if t["stderr"] is not None:
                problems.append(f"term {i}: stderr {t['stderr']!r} on a {w['method']} term")
            _close(problems, f"term {i}", t["L"], w["L"], w["tol"])
        tolerance += w["tol"]
    _close(problems, "value", obj["value"], min(max(ref["total"], 0.0), 1.0), Z_SIGMA * stderr_sum + tolerance)
    for what, value, tol in ref.get("ic", ()):
        _close(problems, f"value vs {what}", obj["value"], value, tol)
    if req.m == 3 and obj["case"] != ref["row"]:
        problems.append(f"case {obj['case']}, want {ref['row']}")
    return problems


def _check_classify(req: Request, ref: dict, obj: dict) -> list[str]:
    problems = []
    if obj["case"] != ref["row"]:
        problems.append(f"case {obj['case']}, want {ref['row']}")
    _close(problems, "value", obj["value"], ref["total"], FORMULA_TOL * 4)
    return problems


def _check_ic_curve(req: Request, ref: dict, rows: list) -> list[str]:
    problems = []
    if [row["m"] for row in rows] != list(req.ns):
        return [f"candidate counts {[row['m'] for row in rows]} differ from {list(req.ns)}"]
    for row in rows:
        _close(problems, f"m={row['m']}", row["probability"], ref["values"][row["m"]], QUAD_TOL)
    return problems


def _check_min_table(req: Request, ref: dict, rows: list) -> list[str]:
    if [(row["n"], row["m"]) for row in rows] != [(n, m) for n, m, _ in ref["grid"]]:
        return ["grid of (n, m) differs from the request"]
    problems = []
    for row, (n, m, want) in zip(rows, ref["grid"]):
        _close(problems, f"n={n} m={m}", row["probability"], want, FORMULA_TOL)
    return problems


def _expand(text: str) -> list[int]:
    out = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _check_audit(req: Request, ref: dict, rows: list) -> list[str]:
    if [row["case"] for row in rows] != list(range(1, 28)):
        return ["audit rows are not cases 1..27"]
    problems = []
    for row, signs, formula in zip(rows, TABLE1_SIGNS, ref["formula"]):
        case = row["case"]
        if tuple(row["signs"]) != signs:
            problems.append(f"case {case}: signs {row['signs']}, want {list(signs)}")
        if row["pass"] is not True:
            problems.append(f"case {case}: audit row did not pass")
        _close(problems, f"case {case} formula", row["formula"], formula, 4 * FORMULA_TOL)
        se = row["stderr"]
        if se < 0.0:
            problems.append(f"case {case}: negative stderr {se!r}")
        elif se == 0.0:
            _close(problems, f"case {case} estimate", row["estimate"], formula, 0.0)
        else:
            _close(problems, f"case {case} estimate", row["estimate"], formula, AUDIT_SIGMA * se)
    return problems


_CHECKS = {
    "exact": _check_exact,
    "mc": _check_mc,
    "limit": _check_limit,
    "classify": _check_classify,
    "ic-curve": _check_ic_curve,
    "min-table": _check_min_table,
    "audit": _check_audit,
}
