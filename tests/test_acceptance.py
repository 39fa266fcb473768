"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import itertools
import math
import time

import numpy as np

from condorcet import (
    Culture,
    audit_table1,
    classify_m3,
    correlation_matrix,
    cyclic_minimizer_culture,
    exact_winner_probability,
    ic_limit_closed,
    ic_limit_sampford,
    lambda_matrix,
    limiting_probability,
    may_bound,
    mc_convergence_sweep,
    minimum_table,
    minimum_winner_probability,
    tie_probability,
)
from conftest import random_culture, win_probability
from examples import CASE7, CASE17

# Reference minimum winner probabilities, printed to four decimals.
REFERENCE_MINIMUMS = {
    3: (0.7778, 0.6250, 0.5200, 0.2800),
    4: (0.3333, 0.2031, 0.1360, 0.0370),
    5: (0.6296, 0.4141, 0.2896, 0.0856),
    6: (0.3004, 0.1504, 0.0848, 0.0127),
    7: (0.5199, 0.2822, 0.1667, 0.0273),
    8: (0.2638, 0.1092, 0.0520, 0.0043),
    9: (0.4345, 0.1957, 0.0979, 0.0089),
    10: (0.2297, 0.0789, 0.0318, 0.0015),
    19: (0.1943, 0.0356, 0.0079, 0.0000),
    20: (0.1129, 0.0158, 0.0028, 0.0000),
    29: (0.0934, 0.0071, 0.0007, 0.0000),
    30: (0.0564, 0.0033, 0.0003, 0.0000),
    50: (0.0148, 0.0002, 0.0000, 0.0000),
    51: (0.0207, 0.0002, 0.0000, 0.0000),
    100: (0.0006, 0.0000, 0.0000, 0.0000),
    101: (0.0008, 0.0000, 0.0000, 0.0000),
}
REFERENCE_MS = (3, 4, 5, 10)


def report(number: int, name: str, ok: bool, extra: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[criterion {number}] {name}: {status}{suffix}")
    return ok


def fixed_cultures(count: int = 20, seed: int = 20260811, min_margin: float = 0.1):
    """The frozen random-culture panel for the triple-method comparison.

    Cultures whose smallest absolute expected margin is below ``min_margin``
    are redrawn: a margin that small has not separated from zero by n = 2001,
    so the trend comparison against the limit would measure nothing.
    """
    rng = np.random.default_rng(seed)
    panel = []
    while len(panel) < count:
        culture = Culture(3, rng.dirichlet(np.ones(6)))
        lam = lambda_matrix(culture)
        if min(abs(lam[0, 1]), abs(lam[0, 2]), abs(lam[1, 2])) >= min_margin:
            panel.append(culture)
    return panel


def test_criterion_1_minimum_table_reproduction():
    start = time.perf_counter()
    ns = sorted(REFERENCE_MINIMUMS)
    rows = minimum_table(list(REFERENCE_MS), ns)
    computed = {(n, m): p for n, m, p in rows}
    worst = max(
        abs(computed[(n, m)] - REFERENCE_MINIMUMS[n][k])
        for n in ns
        for k, m in enumerate(REFERENCE_MS)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-5 and elapsed < 1.0
    assert report(
        1, "minimum-table reproduction", ok, f"worst dev {worst:.2e}, {elapsed:.3f}s"
    )


def test_criterion_2_cyclic_minimum_cross_check():
    cyc = cyclic_minimizer_culture(3)
    ok_n3 = abs(exact_winner_probability(cyc, 3).value - 7 / 9) <= 1e-12
    ok_n4 = abs(exact_winner_probability(cyc, 4).value - 1 / 3) <= 1e-12
    worst = max(
        abs(exact_winner_probability(cyc, n).value - minimum_winner_probability(3, n))
        for n in range(1, 16)
    )
    ok = ok_n3 and ok_n4 and worst <= 1e-10
    assert report(
        2, "cyclic culture attains the minimum", ok, f"worst dev over n<=15: {worst:.2e}"
    )


def test_criterion_3_impartial_limit_closed_forms():
    start = time.perf_counter()
    worst = max(abs(ic_limit_closed(m) - ic_limit_sampford(m)) for m in range(3, 8))
    dev3 = abs(ic_limit_sampford(3) - 0.912256)
    dev4 = abs(ic_limit_sampford(4) - 0.824518)
    # oracle: direct evaluation of the printed arcsine expressions
    oracle3 = 0.75 + 3.0 / (2.0 * math.pi) * math.asin(1 / 3)
    oracle4 = 0.5 * (1.0 + 6.0 / math.pi * math.asin(1 / 3))
    dev_oracle = max(
        abs(ic_limit_sampford(3) - oracle3), abs(ic_limit_sampford(4) - oracle4)
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and dev3 <= 1e-5 and dev4 <= 1e-5 and dev_oracle <= 1e-9 and elapsed < 1.0
    assert report(
        3,
        "impartial-culture closed forms",
        ok,
        f"closed-vs-integral {worst:.2e}, {elapsed:.3f}s",
    )


def test_criterion_4_monotonicity_and_bound():
    values = [ic_limit_sampford(m) for m in range(2, 26)]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    bounded = all(ic_limit_sampford(m) <= may_bound(m) for m in range(2, 201))
    ok = decreasing and bounded
    assert report(4, "limit decreasing in m and below the bound", ok)


def test_criterion_5_table1_audit():
    start = time.perf_counter()
    rows = audit_table1(samples=10_000_000, seed=1)
    failures = [r.number for r in rows if not r.passed]
    case7 = limiting_probability(CASE7)
    case17 = limiting_probability(CASE17)
    exact_examples = (
        classify_m3(CASE7) == (7, 1.0)
        and classify_m3(CASE17) == (17, 0.0)
        and case7.value == 1.0
        and case17.value == 0.0
    )
    elapsed = time.perf_counter() - start
    ok = len(rows) == 27 and not failures and exact_examples and elapsed < 120.0
    assert report(
        5,
        "27-row table audit at 1e7 samples",
        ok,
        f"failures {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_6_triple_method_agreement():
    start = time.perf_counter()
    panel = fixed_cultures()
    within = 0
    cells = 0
    for culture in panel:
        for n in (3, 5, 7):
            exact = exact_winner_probability(culture, n).value
            [(_, mc)] = mc_convergence_sweep(culture, [n], 1_000_000, seed=1000 + cells)
            cells += 1
            if abs(exact - mc.value) <= 4 * max(mc.stderr, 1e-12):
                within += 1
    trend_ok = True
    worst_trend = 0.0
    for k, culture in enumerate(panel):
        limit = limiting_probability(culture).value
        [(_, mc)] = mc_convergence_sweep(culture, [2001], 1_000_000, seed=5000 + k)
        gap = abs(mc.value - limit)
        worst_trend = max(worst_trend, gap)
        if gap > 4 * mc.stderr + 0.01:
            trend_ok = False
    elapsed = time.perf_counter() - start
    ok = within >= 57 and trend_ok and elapsed < 300.0
    assert report(
        6,
        "exact / Monte Carlo / limit agreement",
        ok,
        f"{within}/{cells} cells within 4 sigma, worst n=2001 gap {worst_trend:.4f}, {elapsed:.0f}s",
    )


def test_criterion_7_tie_decay():
    bound = math.sqrt(2.0 / math.pi) * 1.05
    worst = max(
        tie_probability(n, 0.5) * math.sqrt(n) for n in range(20, 10_001, 2)
    )
    ok = worst <= bound
    assert report(7, "pairwise-tie decay bound", ok, f"max scaled tie {worst:.5f}")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(888)
    lam_antisymmetric = True
    lam_identity = True
    psd = True
    term_sum = True
    for _ in range(200):
        culture = random_culture(rng, 3)
        lam = lambda_matrix(culture)
        if not np.allclose(lam, -lam.T, atol=1e-15):
            lam_antisymmetric = False
        for i, j in itertools.permutations(range(3), 2):
            expected = 2.0 * win_probability(culture, i, j) - 1.0
            if abs(lam[i, j] - expected) > 1e-12:
                lam_identity = False
        i = int(rng.integers(3))
        if np.min(np.linalg.eigvalsh(correlation_matrix(culture, i))) < -1e-9:
            psd = False
        if limiting_probability(culture).detail["terms_sum"] > 1.0 + 1e-10:
            term_sum = False
    culture = random_culture(rng, 3)
    first, second = (mc_convergence_sweep(culture, [9], 50_000, seed=4321) for _ in range(2))
    mc_deterministic = first == second
    ok = lam_antisymmetric and lam_identity and psd and term_sum and mc_deterministic
    assert report(
        8,
        "randomized property suites",
        ok,
        f"antisym {lam_antisymmetric}, identity {lam_identity}, psd {psd}, "
        f"term-sum {term_sum}, mc-determinism {mc_deterministic}",
    )
