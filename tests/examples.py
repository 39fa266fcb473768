"""Worked three-candidate cultures that reach rows 7 and 17 of the 27-row sign-pattern table.

Plain data, importable without pytest: ``tests/corpus.py`` writes them as
``case7.csv`` and ``case17.csv``, and the tests classify them and take their limits.
"""

import numpy as np

from condorcet import Culture

# Candidates 0 and 1 each beat candidate 2 in expectation while their own pairing
# is balanced, so one of them always wins in the limit: row 7, limit exactly 1.
CASE7 = Culture(3, np.array([1 / 6, 1 / 6, 2 / 5, 0.0, 1 / 6, 1 / 10]))

# The expected margins form a cycle (0 beats 1, 1 beats 2, 2 beats 0), so every
# candidate surely loses some pairing in the limit: row 17, limit exactly 0.
CASE17 = Culture(3, np.array([3 / 22, 3 / 22, 9 / 44, 5 / 22, 13 / 44, 0.0]))
