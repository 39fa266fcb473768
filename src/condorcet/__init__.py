"""Probability that a pairwise-majority (Condorcet) winner exists.

Given a probability distribution over the m! preference rank orders (a
"culture") and n independent voters, the package computes the probability
that some candidate beats every other candidate in pairwise majority
comparisons: exactly over the multinomial distribution, approximately by seeded
Monte Carlo, and exactly in the limit of infinitely many voters through
multivariate normal orthant probabilities.
"""

from . import asymptotic, core, culture, exact, montecarlo, orthant
from .asymptotic import *
from .core import *
from .culture import *
from .exact import *
from .montecarlo import *
from .orthant import *

__version__ = "0.1.0"

__all__ = []
__all__ += asymptotic.__all__
__all__ += core.__all__
__all__ += culture.__all__
__all__ += exact.__all__
__all__ += montecarlo.__all__
__all__ += orthant.__all__
