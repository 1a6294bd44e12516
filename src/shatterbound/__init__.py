"""Shattering-coefficient calculators for hyperplane classifiers, the
uniform-convergence bound built on them, inverse solvers for sample size
and risk divergence, and an exact brute-force oracle for the counting
formula."""

from .bounds import (
    CurveRow,
    NoBracketError,
    delta_bound,
    emit_epsilon_curve,
    solve_max_eps,
    solve_min_n,
)
from .logarithmetic import LogNum
from .oracle import (
    PointSet,
    SeparabilityCertificate,
    count_dichotomies,
    generate_general_position,
    is_separable,
    separable_masks,
    verify_formula,
)
from .shattering import (
    HypothesisSpec,
    binom_lower_bound,
    binom_upper_bound,
    complement_count,
    epsilon_curve,
    shatter_log,
    shatter_multi,
    shatter_upper_closed,
)

__all__ = [
    "CurveRow",
    "HypothesisSpec",
    "LogNum",
    "NoBracketError",
    "PointSet",
    "SeparabilityCertificate",
    "binom_lower_bound",
    "binom_upper_bound",
    "complement_count",
    "count_dichotomies",
    "delta_bound",
    "emit_epsilon_curve",
    "epsilon_curve",
    "generate_general_position",
    "is_separable",
    "separable_masks",
    "shatter_log",
    "shatter_multi",
    "shatter_upper_closed",
    "solve_max_eps",
    "solve_min_n",
    "verify_formula",
]

__version__ = "0.1.0"
