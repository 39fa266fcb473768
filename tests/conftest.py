import itertools
import math

import numpy as np
import pytest

from condorcet import Culture, equicorrelated_orthant
from condorcet.culture import _dual_permutation


def random_culture(rng: np.random.Generator, m: int = 3) -> Culture:
    return Culture(m, rng.dirichlet(np.ones(math.factorial(m))))


def win_probability(culture: Culture, i: int, j: int) -> float:
    """p_ij: the summed probability of the orders, in itertools' sequence, that rank i above j."""
    orders = itertools.permutations(range(culture.m))
    return math.fsum(p for o, p in zip(orders, culture.probs) if o.index(i) < o.index(j))


def random_dual_culture(rng: np.random.Generator, m: int = 3) -> Culture:
    q = rng.dirichlet(np.ones(math.factorial(m)))
    return Culture(m, (q + q[_dual_permutation(m)]) / 2.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1729)


def positive_orthant(d: int) -> list[list[tuple[int, int]]]:
    """The one group of ``orthants_mc`` that reads all d coordinates at sign +1: the positive orthant."""
    return [[(k, 1) for k in range(d)]]


def bacon_recursion(rho: float, d: int) -> float:
    """Equicorrelated orthant probability at odd d >= 3 from the lower dimensions.

    L_d = (1/2) [1 - d/2 + sum_{k=2}^{d-1} (-1)^k C(d, k) L_k], with L_1 = 1/2,
    L_2 = 1/4 + arcsin(rho) / (2 pi) and the even L_k, k >= 4, from the integral.
    """
    values = {1: 0.5, 2: 0.25 + math.asin(rho) / (2 * math.pi)}
    for dim in range(3, d + 1):
        terms = ((-1) ** k * math.comb(dim, k) * values[k] for k in range(2, dim))
        values[dim] = equicorrelated_orthant(rho, dim) if dim % 2 == 0 else 0.5 * sum(terms, 1.0 - dim / 2.0)
    return values[d]
