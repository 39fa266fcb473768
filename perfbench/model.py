"""The benchmark's own model of rank orders and cultures.

Written independently of the ``condorcet`` package so that the inputs it
generates and the reference values it checks answers against do not depend
on the code under test. The one shared convention is the documented input
format: the m! rank orders of candidates 0..m-1 in lexicographic sequence,
each listing candidates most-preferred first.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def rank_orders(m: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def pairs(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


@lru_cache(maxsize=None)
def pair_signs(m: int) -> np.ndarray:
    """(P, K) matrix: +1 where order k ranks i above j for pair (i, j), else -1."""
    out = np.empty((len(pairs(m)), math.factorial(m)), dtype=np.int64)
    for k, order in enumerate(rank_orders(m)):
        pos = {c: r for r, c in enumerate(order)}
        for p, (i, j) in enumerate(pairs(m)):
            out[p, k] = 1 if pos[i] < pos[j] else -1
    out.flags.writeable = False
    return out


def uniform(m: int) -> np.ndarray:
    k = math.factorial(m)
    return np.full(k, 1.0 / k)


def cyclic(m: int) -> np.ndarray:
    """Mass 1/m on each rotation of (0, 1, ..., m-1)."""
    index = {o: k for k, o in enumerate(rank_orders(m))}
    probs = np.zeros(math.factorial(m))
    for shift in range(m):
        probs[index[tuple((shift + c) % m for c in range(m))]] = 1.0 / m
    return probs


def dense(rng: np.random.Generator, m: int) -> np.ndarray:
    """Dirichlet(1) probabilities on every order."""
    probs = rng.dirichlet(np.ones(math.factorial(m)))
    return probs / probs.sum()


def sparse(rng: np.random.Generator, m: int, support: int) -> np.ndarray:
    """Dirichlet(1) probabilities on ``support`` orders chosen at random."""
    probs = np.zeros(math.factorial(m))
    chosen = rng.choice(probs.size, size=support, replace=False)
    probs[chosen] = rng.dirichlet(np.ones(support))
    return probs / probs.sum()


def dual(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random culture giving every order and its reversal equal mass.

    Every expected pairwise margin is then exactly zero.
    """
    index = {o: k for k, o in enumerate(rank_orders(m))}
    reverse = np.array([index[o[::-1]] for o in rank_orders(m)])
    q = dense(rng, m)
    return (q + q[reverse]) / 2.0


def sign_pattern(rng: np.random.Generator, signs: tuple[int, int, int]) -> np.ndarray:
    """Three-candidate culture whose expected margins have the given signs.

    A random point near the uniform culture is projected onto the affine set
    of vectors summing to one whose margins for pairs (0,1), (0,2), (1,2)
    equal ``magnitude * signs``; zero signs give margins that are zero to
    rounding.
    """
    rows = np.vstack([pair_signs(3).astype(float), np.ones(6)])
    while True:
        magnitude = rng.uniform(0.06, 0.14)
        base = uniform(3) + rng.uniform(-0.02, 0.02, size=6)
        target = np.append(magnitude * np.asarray(signs, dtype=float), 1.0)
        probs = base + rows.T @ np.linalg.solve(rows @ rows.T, target - rows @ base)
        if probs.min() > 0.01:
            return probs


def margins(probs: np.ndarray, m: int) -> np.ndarray:
    """Expected pairwise margins, one per pair (i, j) with i < j."""
    return pair_signs(m).astype(float) @ probs


def to_json(probs: np.ndarray, m: int) -> str:
    return json.dumps({"m": m, "probs": [float(p) for p in probs]}) + "\n"


def to_csv(probs: np.ndarray, m: int) -> str:
    lines = ["order,prob"]
    for order, p in zip(rank_orders(m), probs):
        lines.append("-".join(map(str, order)) + "," + repr(float(p)))
    return "\n".join(lines) + "\n"
