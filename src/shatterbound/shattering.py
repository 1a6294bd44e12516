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
    "emit_epsilon_curve",
    "epsilon_curve",
    "is_saturated",
]


# The accepted domain: every integer input (n, h, p, a sandwich's m, a
# solver's ceiling, a curve's grid) is at most _MAX_INPUT, checked where it
# enters. Inside it every float the log path forms is finite: ln N <= ln 2 +
# p*(n-1)*ln 2 < 6e37, and the closed form and the curve stay below 5e39.
_MAX_INPUT = 2**63 - 1


def _shown(value: int) -> str:
    """value in decimal for an error message, or by its bit length where it
    has more digits than sys.get_int_max_str_digits() lets str() write."""
    try:
        return str(value)
    except ValueError:
        kind = "a negative int" if value < 0 else "an int"
        return f"{kind} of {value.bit_length()} bits"


def _require_at_most_max(name: str, value: int) -> None:
    if value > _MAX_INPUT:
        raise ValueError(f"{name} must be at most 2^63-1, got {_shown(value)}")


@dataclass(frozen=True)
class HypothesisSpec:
    """Classifier family: p affine hyperplanes in an h-dimensional space."""

    h: int
    p: int = 1

    def __post_init__(self) -> None:
        if self.h < 0:
            raise ValueError(f"dimension h must be nonnegative, got {_shown(self.h)}")
        if self.p < 1:
            raise ValueError(f"hyperplane count p must be positive, got {_shown(self.p)}")
        _require_at_most_max("dimension h", self.h)
        _require_at_most_max("hyperplane count p", self.p)


def _require_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"sample size n must be positive, got {_shown(n)}")
    _require_at_most_max("sample size n", n)


def is_saturated(n: int, h: int) -> bool:
    """True when every one of the 2^n labelings is realizable (h >= n-1)."""
    return h >= n - 1


def shatter_multi(n: int, spec: HypothesisSpec) -> int:
    """2 * sum_{i=0}^{h} C(n-1, i)**p, exactly.

    Equals 2^n at p = 1 whenever h >= n-1 (the whole binomial row is included).
    """
    _require_n(n)
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
    those two L0 helpers give. Finite over the accepted domain, where n is
    checked; h and p come checked from a HypothesisSpec."""
    _require_n(n)
    m = n - 1
    ln_c = acc = 0.0  # the i = 0 term C(m, 0)**p = 1
    for i in range(1, (h if h < m else m) + 1):
        ln_i = _LN_I[i] if i < _LN_I_END else math.log(i)
        ln_c = ln_c + math.log(m - i + 1) - ln_i
        t = p * ln_c
        # _log_add's fold with the larger term factored out
        if acc >= t:
            acc = acc + math.log1p(math.exp(t - acc))
        else:
            acc = t + math.log1p(math.exp(acc - t))
    return LN2 + acc


def shatter_log(n: int, spec: HypothesisSpec) -> LogNum:
    """Log-domain twin of shatter_multi, for n where the count has hundreds of
    digits; a finite float for every n, h and p up to 2^63-1."""
    return LogNum(_ln_count(n, spec.h, spec.p))


def complement_count(n: int, h: int) -> int:
    """2 * sum_{i=h+1}^{n} C(n-1, i): the labelings a dimension-h bias excludes.

    Satisfies shatter_multi(n, HypothesisSpec(h)) + complement_count(n, h) == 2**n
    exactly.
    """
    if h < 0:
        raise ValueError(f"dimension h must be nonnegative, got {_shown(h)}")
    _require_at_most_max("dimension h", h)
    _require_n(n)
    if h >= n - 1:
        return 0
    # C(n-1, i) = C(n-1, n-1-i): the tail i > h is the head i < n-1-h
    return 2 * sum(_binomial_row(n - 1, n - 2 - h))


def shatter_upper_closed(n: int, spec: HypothesisSpec) -> LogNum:
    """ln of [2e(n-1)(e^h (n-1)^h - 1)/(e(n-1) - 1) + 2]**p.

    Dominates shatter_log for every n >= 2: each binomial is bounded by
    (e(n-1)/i)^i <= (e(n-1))^i and the resulting geometric series
    2 * sum_{i=1}^{h} (e(n-1))^i is summed in closed form. Requires h >= 1;
    a finite float for every n, h and p up to 2^63-1.
    """
    h, p = spec.h, spec.p
    if n < 2:
        raise ValueError(f"closed-form bound needs n >= 2, got {_shown(n)}")
    _require_at_most_max("sample size n", n)
    if h < 1:
        raise ValueError(f"closed-form bound needs h >= 1, got {h}")
    ln_ratio = 1.0 + math.log(n - 1)  # ln(e(n-1))
    # ln(e^h (n-1)^h - 1) and ln(e(n-1) - 1), both arguments > 1 here
    t = h * ln_ratio
    ln_numer = t + math.log1p(-math.exp(-t))
    ln_denom = ln_ratio + math.log1p(-math.exp(-ln_ratio))
    bracket = _log_add(LN2 + ln_ratio + ln_numer - ln_denom, LN2)  # series + 2
    return LogNum(p * bracket)


def binom_lower_bound(m: int, k: int) -> LogNum:
    """ln (m/k)^k, a lower bound for ln C(m, k); needs m >= k > 0."""
    return LogNum(_sandwich_log(m, k, 0.0))


def binom_upper_bound(m: int, k: int) -> LogNum:
    """ln (e*m/k)^k, an upper bound for ln C(m, k); needs m >= k > 0."""
    return LogNum(_sandwich_log(m, k, 1.0))


def _sandwich_log(m: int, k: int, shift: float) -> float:
    """k * (shift + ln(m/k)), the sandwich bounds' log: a finite float, since
    k <= m <= 2^63-1."""
    if k <= 0 or k > m:
        raise ValueError(
            f"bounds hold for m >= k > 0, got (m={_shown(m)}, k={_shown(k)})")
    _require_at_most_max("m", m)
    return k * (shift + math.log(m / k))


# a named tuple, not a frozen dataclass: a curve builds one row per (n, spec),
# and a tuple is the cheapest immutable record with named fields
CurveRow = collections.namedtuple("CurveRow", "n h p epsilon")


def emit_epsilon_curve(
    n_grid: list[int], specs: list[HypothesisSpec]
) -> list[CurveRow]:
    """The divergence curve: a CurveRow per (n, spec), one epsilon_curve
    value each, rows ordered by (h, p, n). The grid must be nonempty and
    strictly ascending. ln n and sqrt n are taken once per grid point, h*p
    and gamma once per spec, and each row computes 2*sqrt(h*p*ln n + gamma)
    /sqrt n from them, operation for operation, so each eps is the one the
    per-point expression gives. Every grid point must lie in 2..2^63-1, and
    then every eps is a finite float."""
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    _require_at_most_max("sample size n", n_grid[-1])
    specs = sorted(specs, key=lambda s: (s.h, s.p))
    if not specs:
        return []
    if n_grid[0] < 2:
        raise ValueError(f"divergence curve needs n >= 2, got {_shown(n_grid[0])}")
    points = [(n, math.log(n), math.sqrt(n)) for n in n_grid]
    sqrt, new_row = math.sqrt, tuple.__new__
    rows: list[CurveRow] = []
    for spec in specs:
        h, p = spec.h, spec.p
        # the conversions that h*p*ln n and p*ln 2 + h*p make
        hp = float(h * p)
        gamma = p * LN2 + hp
        # tuple.__new__ skips the named tuple's Python-level __new__
        rows += [new_row(CurveRow, (n, h, p, 2.0 * sqrt(hp * ln_n + gamma) / sqrt_n))
                 for n, ln_n, sqrt_n in points]
    return rows


def epsilon_curve(n: int, spec: HypothesisSpec) -> float:
    """Divergence eps(n) = 2*sqrt(h*p*ln(n) + gamma) / sqrt(n), with the
    constant gamma = p*ln(2) + h*p collecting the n-free terms of the bound.

    The eps at which ln N(n), taken as its asymptotic form, meets n*eps^2/4:
    the paper's balance of the exponential and polynomial parts of the
    bound, which carries no delta. Grows with h and p, eventually decays in
    n. emit_epsilon_curve's one-point case: a finite float for every n in
    2..2^63-1, and ValueError for any other n.
    """
    return emit_epsilon_curve([n], [spec])[0].epsilon
