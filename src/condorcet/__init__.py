"""Probability that a pairwise-majority (Condorcet) winner exists.

Given a probability distribution over the m! preference rank orders (a
"culture") and n independent voters, the package computes the probability
that some candidate beats every other candidate in pairwise majority
comparisons: exactly over the multinomial distribution, approximately by seeded
Monte Carlo, and exactly in the limit of infinitely many voters through
multivariate normal orthant probabilities.
"""

from .asymptotic import (
    TABLE1,
    DegenerateVarianceError,
    Table1AuditRow,
    Table1Row,
    audit_table1,
    case7_culture,
    case17_culture,
    classify_m3,
    correlation_matrix,
    ic_curve,
    ic_limit_closed,
    ic_limit_sampford,
    lambda_matrix,
    limiting_probability,
    may_bound,
    sign_pattern_culture,
)
from .culture import (
    Culture,
    CultureFormatError,
    candidate_pairs,
    culture_from_csv,
    culture_from_json,
    culture_to_csv,
    culture_to_json,
    cyclic_minimizer_culture,
    enumerate_rank_orders,
    impartial_culture,
    is_dual_culture,
    load_culture_file,
    order_index,
    pair_signs,
    pairwise_win_probability,
    save_culture,
)
from .exact import (
    DEFAULT_COMPOSITION_BUDGET,
    EnumerationBudgetError,
    Method,
    VoterProfile,
    WinnerMode,
    WinnerProbability,
    condorcet_winner,
    condorcet_winners,
    exact_winner_probability,
    minimum_table,
    minimum_winner_probability,
    tie_probability,
)
from .montecarlo import McConfig, mc_convergence_sweep, mc_winner_probability
from .orthant import (
    CorrelationMatrixError,
    equicorrelated_orthant,
    orthant_mc,
)

__version__ = "0.1.0"

__all__ = [
    "TABLE1",
    "Culture",
    "CultureFormatError",
    "CorrelationMatrixError",
    "DEFAULT_COMPOSITION_BUDGET",
    "DegenerateVarianceError",
    "EnumerationBudgetError",
    "McConfig",
    "Method",
    "Table1AuditRow",
    "Table1Row",
    "VoterProfile",
    "WinnerMode",
    "WinnerProbability",
    "audit_table1",
    "candidate_pairs",
    "case17_culture",
    "case7_culture",
    "classify_m3",
    "condorcet_winner",
    "condorcet_winners",
    "correlation_matrix",
    "culture_from_csv",
    "culture_from_json",
    "culture_to_csv",
    "culture_to_json",
    "cyclic_minimizer_culture",
    "enumerate_rank_orders",
    "equicorrelated_orthant",
    "exact_winner_probability",
    "ic_curve",
    "ic_limit_closed",
    "ic_limit_sampford",
    "impartial_culture",
    "is_dual_culture",
    "lambda_matrix",
    "limiting_probability",
    "load_culture_file",
    "may_bound",
    "mc_convergence_sweep",
    "mc_winner_probability",
    "minimum_table",
    "minimum_winner_probability",
    "order_index",
    "orthant_mc",
    "pair_signs",
    "pairwise_win_probability",
    "save_culture",
    "sign_pattern_culture",
    "tie_probability",
]
