"""Shattering-coefficient formulas for affine-hyperplane classifiers.

The count of distinct labelings that p hyperplanes in an h-dimensional
space can realize on n points in general position is

    2 * sum_{i=0}^{h} C(n-1, i)**p

Everything here evaluates that quantity and its relatives: the complement
against the full 2^n labeling space, a closed-form geometric-series upper
bound, the binomial sandwich (m/k)^k <= C(m,k) <= (e*m/k)^k, and the
divergence curve eps(n) that the convergence condition induces.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

from .logarithmetic import LN2, LogNum, _binomial_row, _log_add

__all__ = [
    "CurveRow",
    "HypothesisSpec",
    "shatter_multi",
    "shatter_log",
    "complement_count",
    "shatter_upper_closed",
    "binom_lower_bound",
    "binom_upper_bound",
    "epsilon_curve",
    "is_saturated",
]


@dataclass(frozen=True)
class HypothesisSpec:
    """Classifier family: p affine hyperplanes in an h-dimensional space."""

    h: int
    p: int = 1

    def __post_init__(self) -> None:
        if self.h < 0:
            raise ValueError(f"dimension h must be nonnegative, got {self.h}")
        if self.p < 1:
            raise ValueError(f"hyperplane count p must be positive, got {self.p}")


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size n must be positive, got {n}")


def _not_finite(n: int | None, h: int, p: int, what: str = "log count") -> ValueError:
    at = f"h={h}, p={p}" if n is None else f"n={n}, h={h}, p={p}"
    return ValueError(f"{what} is not a finite float at {at}")


def _float(k: int) -> float:
    """float(k), the conversion that mixed int and float arithmetic makes,
    or inf where that conversion raises: for an int past the float range."""
    try:
        return float(k)
    except OverflowError:
        return math.inf


def is_saturated(n: int, h: int) -> bool:
    """True when every one of the 2^n labelings is realizable (h >= n-1)."""
    return h >= n - 1


def shatter_multi(n: int, spec: HypothesisSpec) -> int:
    """2 * sum_{i=0}^{h} C(n-1, i)**p, exactly.

    Equals 2^n at p = 1 whenever h >= n-1 (the whole binomial row is included).
    """
    _require_positive_n(n)
    # terms with i > n-1 vanish, so the loop never needs to pass the row end
    return 2 * sum(c**spec.p for c in _binomial_row(n - 1, min(spec.h, n - 1)))


# math.log(i) for _ln_count's divisors 1 <= i < _LN_I_END (entry 0 is unused);
# a larger i, from h >= _LN_I_END, takes math.log(i) itself
_LN_I_END = 64
_LN_I = (0.0,) + tuple(math.log(i) for i in range(1, _LN_I_END))


def _ln_count(n: int, h: int, p: int) -> float:
    """ln N(n) on plain floats, the one evaluation under shatter_log, delta_bound,
    solve_max_eps and the solver: _log_binomial_row's step and _log_add's fold
    in one loop, their operations in their order, so every float is the one
    those two L0 helpers give. ValueError when the log leaves the float range,
    which only a huge p can bring about."""
    _require_positive_n(n)
    m = n - 1
    ln_c = acc = 0.0  # the i = 0 term C(m, 0)**p = 1
    try:
        for i in range(1, (h if h < m else m) + 1):
            ln_i = _LN_I[i] if i < _LN_I_END else math.log(i)
            ln_c = ln_c + math.log(m - i + 1) - ln_i
            # a zero log is the term 1 for every p, even one past the float range
            t = p * ln_c if ln_c else 0.0
            # _log_add's fold with the larger term factored out
            if acc >= t:
                acc = acc + math.log1p(math.exp(t - acc))
            else:
                acc = t + math.log1p(math.exp(acc - t))
    except OverflowError:  # an int p past the float range times ln_c > 0
        acc = math.inf
    if not math.isfinite(acc):
        raise _not_finite(n, h, p)
    return LN2 + acc


def shatter_log(n: int, spec: HypothesisSpec) -> LogNum:
    """Log-domain twin of shatter_multi, for n where the count has hundreds of
    digits; ValueError when that log leaves the float range (a huge p)."""
    return LogNum(_ln_count(n, spec.h, spec.p))


def complement_count(n: int, h: int) -> int:
    """2 * sum_{i=h+1}^{n} C(n-1, i): the labelings a dimension-h bias excludes.

    Satisfies shatter_multi(n, HypothesisSpec(h)) + complement_count(n, h) == 2**n
    exactly.
    """
    if h < 0:
        raise ValueError(f"dimension h must be nonnegative, got {h}")
    _require_positive_n(n)
    if h >= n - 1:
        return 0
    # C(n-1, i) = C(n-1, n-1-i): the tail i > h is the head i < n-1-h
    return 2 * sum(_binomial_row(n - 1, n - 2 - h))


def shatter_upper_closed(n: int, spec: HypothesisSpec) -> LogNum:
    """ln of [2e(n-1)(e^h (n-1)^h - 1)/(e(n-1) - 1) + 2]**p.

    Dominates shatter_log for every n >= 2: each binomial is bounded by
    (e(n-1)/i)^i <= (e(n-1))^i and the resulting geometric series
    2 * sum_{i=1}^{h} (e(n-1))^i is summed in closed form. Requires h >= 1;
    ValueError when the log leaves the float range (a huge p or h).
    """
    h, p = spec.h, spec.p
    if n < 2:
        raise ValueError(f"closed-form bound needs n >= 2, got {n}")
    if h < 1:
        raise ValueError(f"closed-form bound needs h >= 1, got {h}")
    ln_ratio = 1.0 + math.log(n - 1)  # ln(e(n-1))
    # ln(e^h (n-1)^h - 1) and ln(e(n-1) - 1), both arguments > 1 here; t is
    # inf, not an OverflowError, for an h past the float range
    t = _float(h) * ln_ratio
    ln_numer = t + math.log1p(-math.exp(-t))
    ln_denom = ln_ratio + math.log1p(-math.exp(-ln_ratio))
    bracket = _log_add(LN2 + ln_ratio + ln_numer - ln_denom, LN2)  # series + 2
    value = _float(p) * bracket
    if not math.isfinite(value):
        raise _not_finite(n, h, p)
    return LogNum(value)


def binom_lower_bound(m: int, k: int) -> LogNum:
    """ln (m/k)^k, a lower bound for ln C(m, k); needs m >= k > 0."""
    return LogNum(_sandwich_log(m, k, 0.0))


def binom_upper_bound(m: int, k: int) -> LogNum:
    """ln (e*m/k)^k, an upper bound for ln C(m, k); needs m >= k > 0."""
    return LogNum(_sandwich_log(m, k, 1.0))


def _sandwich_log(m: int, k: int, shift: float) -> float:
    """k * (shift + ln(m/k)), the sandwich bounds' log, or ValueError naming
    (m, k) when it leaves the float range."""
    if k <= 0 or k > m:
        raise ValueError(f"bounds hold for m >= k > 0, got (m={m}, k={k})")
    try:
        ln_ratio = math.log(m / k)
    except OverflowError:  # m / k past the float range, though not its log
        ln_ratio = math.log(m) - math.log(k)
    x = shift + ln_ratio
    # a zero log is the power 1 for every k, even one past the float range
    value = _float(k) * x if x else 0.0
    if not math.isfinite(value):
        raise ValueError(f"sandwich bound is not a finite float at m={m}, k={k}")
    return value


# a named tuple, not a frozen dataclass: a curve builds one row per (n, spec),
# and a tuple is the cheapest immutable record with named fields
CurveRow = collections.namedtuple("CurveRow", "n h p epsilon")


def _curve_rows(n_grid: list[int], specs: list[HypothesisSpec]) -> list[CurveRow]:
    """The divergence curve's one evaluation: a CurveRow per (n, spec), the
    specs in their given order and n along the grid, which must ascend. ln n
    and sqrt n are taken once per grid point, h*p and gamma once per spec, and
    each row computes 2*sqrt(h*p*ln n + gamma)/sqrt n from them, operation for
    operation, so each eps is the one the per-point expression gives.
    ValueError at the first row, in that order, whose n is below 2 or whose
    eps is not a finite float."""
    if not specs:
        return []
    if n_grid[0] < 2:
        raise ValueError(f"divergence curve needs n >= 2, got {n_grid[0]}")
    points = []
    for n in n_grid:
        try:
            points.append((n, math.log(n), math.sqrt(n)))
        except OverflowError:
            # math.sqrt converts n to a float; every later n is larger, and
            # the rows of these n go missing like any other row that is not
            # finite
            break
    sqrt, isfinite, new_row = math.sqrt, math.isfinite, tuple.__new__
    rows: list[CurveRow] = []
    for spec in specs:
        h, p = spec.h, spec.p
        try:
            # the conversions that h*p*ln n and p*ln 2 + h*p make
            hp = float(h * p)
            gamma = p * LN2 + hp
        except OverflowError:  # an int past the float range fails every row
            raise _not_finite(n_grid[0], h, p, "divergence eps") from None
        # tuple.__new__ skips the named tuple's Python-level __new__
        family = [new_row(CurveRow, (n, h, p, eps)) for n, ln_n, sqrt_n in points
                  if isfinite(eps := 2.0 * sqrt(hp * ln_n + gamma) / sqrt_n)]
        if len(family) < len(n_grid):
            kept = {row.n for row in family}
            n = next(n for n in n_grid if n not in kept)
            raise _not_finite(n, h, p, "divergence eps")
        rows += family
    return rows


def epsilon_curve(n: int, spec: HypothesisSpec) -> float:
    """Divergence eps(n) = 2*sqrt(h*p*ln(n) + gamma) / sqrt(n), with the
    constant gamma = p*ln(2) + h*p collecting the n-free terms of the bound.

    The eps at which ln N(n), taken as its asymptotic form, meets n*eps^2/4:
    the paper's balance of the exponential and polynomial parts of the
    bound, which carries no delta. Grows with h and p, eventually decays in
    n. The curve kernel's one-point case. ValueError for n below 2, or when
    eps leaves the float range (a huge p).
    """
    return _curve_rows([n], [spec])[0].epsilon
