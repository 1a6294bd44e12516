"""Uniform-convergence bound on the risk divergence and its inverse solvers.

The probability that empirical and actual risk diverge by more than eps is
bounded by

    delta(n) = 2 * N(n) * exp(-n * eps^2 / 4)

with N(n) the shattering count 2 * sum_{i<=h} C(n-1, i)**p. This module
evaluates delta entirely in log space (its value underflows floats around
n ~ 10^5 already), solves for the minimal sample size reaching a target
delta, and inverts for the largest eps a given (n, delta) supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .logarithmetic import LN2, LogNum
from .shattering import CurveRow, HypothesisSpec, _curve_rows, _ln_count, _not_finite

__all__ = [
    "BracketTrace",
    "CurveRow",
    "NoBracketError",
    "DEFAULT_CEILING",
    "delta_bound",
    "solve_min_n",
    "solve_min_n_trace",
    "solve_max_eps",
    "emit_epsilon_curve",
]

DEFAULT_CEILING = 2**63 - 1


class NoBracketError(RuntimeError):
    """The bound never crossed the target below the ceiling: (delta, eps, h, p)
    is unachievable in practice."""

    def __init__(self, delta: float, eps: float, spec: HypothesisSpec,
                 ceiling: int, last_log: float):
        self.delta = delta
        self.eps = eps
        self.spec = spec
        self.ceiling = ceiling
        self.last_log = last_log
        super().__init__(
            f"no sample size up to {ceiling} brings the bound below "
            f"delta={delta} for eps={eps}, h={spec.h}, p={spec.p} "
            f"(log-bound at ceiling: {last_log:.6g} vs target {math.log(delta):.6g})"
        )


@dataclass(frozen=True)
class BracketTrace:
    """Audit record of the bracket expansion, bisection and log-bound at n*."""

    expansion: tuple[tuple[int, float], ...]
    bracket: tuple[int, int]
    bisection_steps: int
    tail_probes: tuple[tuple[int, float], ...]
    delta_log_at_n: float


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"divergence eps must lie in (0, 1), got {eps}")


def _log_bound(n: int, eps: float, h: int, p: int) -> float:
    """ln delta(n) on plain floats, eps already checked: what the solver
    probes. ValueError naming (n, h, p) when n is past the float range."""
    try:
        return LN2 + _ln_count(n, h, p) - n * eps * eps / 4.0
    except OverflowError:  # n * eps converts n to a float
        raise _not_finite(n, h, p, "log bound") from None


def delta_bound(n: int, eps: float, spec: HypothesisSpec) -> LogNum:
    """ln delta(n) = ln 2 + ln N(n) - n*eps^2/4, always on the log path.

    Values above 0 (bound exceeding 1) are returned as-is; they are vacuous
    but they are what the formula produces.
    """
    _require_eps(eps)
    return LogNum(_log_bound(n, eps, spec.h, spec.p))


def solve_min_n_trace(
    delta: float,
    eps: float,
    spec: HypothesisSpec,
    ceiling: int = DEFAULT_CEILING,
) -> tuple[int, BracketTrace]:
    """Smallest n with delta_bound(n) <= ln(delta), plus the search trace.

    The search walks the doubling ladder n = 1, 2, 4, ... whose last rung
    is the ceiling, to the first point at or below the target. At n = 1 the
    log-bound is ln 4 - eps^2/4 > 0 > ln(delta), so that point has a
    predecessor above the target and the two bracket the crossing. Integer
    bisection then pins the crossing, moving the bracket's low end only to
    points it compared above the target, so n* - 1 lies above it and n* is
    minimal by construction. The bound need not be monotone past n*, so
    up to 12 geometric tail probes beyond it, none past the ceiling, must
    lie at or below the target, else RuntimeError. The trace carries n*'s
    log-bound from its one evaluation, so callers need not repeat it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    target = math.log(delta)
    _require_eps(eps)
    h, p = spec.h, spec.p

    expansion: list[tuple[int, float]] = []
    # a ceiling below 1 is the first rung, so _log_bound rejects it
    lo, n = 0, min(1, ceiling)
    while True:
        cur = _log_bound(n, eps, h, p)
        expansion.append((n, cur))
        if cur <= target:
            break
        if n == ceiling:
            raise NoBracketError(delta, eps, spec, ceiling, cur)
        lo, n = n, min(2 * n, ceiling)

    hi, hi_log = n, cur
    bracket = (lo, hi)
    steps = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (val := _log_bound(mid, eps, h, p)) <= target:
            hi, hi_log = mid, val
        else:
            lo = mid
        steps += 1
    n_star = hi

    tail: list[tuple[int, float]] = []
    m = n_star
    while m < ceiling and len(tail) < 12:
        m = min(ceiling, max(m + 1, int(m * 1.5)))
        val = _log_bound(m, eps, h, p)
        tail.append((m, val))
        if val > target:
            raise RuntimeError(
                f"bound re-crossed the target after n*={n_star}: log-bound "
                f"{val!r} > {target!r} at n={m}"
            )

    return n_star, BracketTrace(
        expansion=tuple(expansion),
        bracket=bracket,
        bisection_steps=steps,
        tail_probes=tuple(tail),
        delta_log_at_n=hi_log,
    )


def solve_min_n(
    delta: float,
    eps: float,
    spec: HypothesisSpec,
    ceiling: int = DEFAULT_CEILING,
) -> int:
    """Minimal sample size guaranteeing divergence <= eps except with prob. delta."""
    n_star, _ = solve_min_n_trace(delta, eps, spec, ceiling)
    return n_star


def solve_max_eps(n: int, delta: float, spec: HypothesisSpec) -> float:
    """Largest eps supported by (n, delta): the closed-form inversion

        eps = sqrt( (4/n) * (ln(2*N(n)) - ln(delta)) )

    Returned even when >= 1 (vacuous); callers flag that case. ValueError
    naming (n, h, p) when n is past the float range.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    log_2n = LN2 + _ln_count(n, spec.h, spec.p)
    try:
        return math.sqrt((4.0 / n) * (log_2n - math.log(delta)))
    except OverflowError:  # 4.0 / n converts n to a float
        raise _not_finite(n, spec.h, spec.p, "sample size n") from None


def emit_epsilon_curve(
    n_grid: list[int], specs: list[HypothesisSpec]
) -> list[CurveRow]:
    """One divergence value per (n, spec), each the one epsilon_curve gives;
    rows ordered by (h, p, n)."""
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly ascending")
    return _curve_rows(n_grid, sorted(specs, key=lambda s: (s.h, s.p)))
