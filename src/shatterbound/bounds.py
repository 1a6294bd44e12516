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
from .shattering import _MAX_INPUT, HypothesisSpec, _ln_count, _require_at_most_max

__all__ = [
    "BracketTrace",
    "NoBracketError",
    "DEFAULT_CEILING",
    "delta_bound",
    "solve_min_n",
    "solve_min_n_trace",
    "solve_max_eps",
]

DEFAULT_CEILING = _MAX_INPUT


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
    """Audit record of the search for n*.

    expansion: each probe (n, ln delta(n)) in order; every probe but the last
    lies above the target, and each is the one before plus the bound's own
    step (or the ceiling). bracket: (the last probe above the target, the
    first at or below it). bisection_steps: the points compared inside the
    bracket, none when it is (n* - 1, n*). delta_log_at_n: ln delta(n*)
    from its one evaluation. tail_probes: always (), as the bound provably
    stays at or below the target past n* (see solve_min_n_trace); it stays
    while the benchmark's solve-n check reads it.
    """

    expansion: tuple[tuple[int, float], ...]
    bracket: tuple[int, int]
    bisection_steps: int
    delta_log_at_n: float
    tail_probes: tuple[tuple[int, float], ...] = ()


def _require_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"divergence eps must lie in (0, 1), got {eps}")


def _log_bound(n: int, eps: float, h: int, p: int) -> float:
    """ln delta(n) on plain floats, eps already checked: what the solver
    probes. _ln_count checks n, so n * eps is a finite float."""
    return LN2 + _ln_count(n, h, p) - n * eps * eps / 4.0


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

    The search steps by the bound itself. With f(n) = ln 2 + ln N(n) -
    n*eps^2/4 the log-bound and t = ln(delta): N(n) does not decrease in n,
    as no C(n-1, i) does, so f(m) >= f(n) - (m - n)*eps^2/4 for m >= n and
    no m < n + 4*(f(n) - t)/eps^2 reaches the target. From n = 1, where
    f(1) = ln 4 - eps^2/4 > 0 > t, each probe above the target is followed
    by n + ceil(4*(f(n) - t)/eps^2), a step of at least 1, or by the
    ceiling where that passes it (also when eps*eps underflows to 0); a
    ceiling above the target raises NoBracketError. Every point a step skips
    lies above the target, with no single-crossing assumption, and in exact
    arithmetic the steps land on n* itself. The last probe above the target
    and the first at or below it bracket the crossing. Integer bisection
    inside the bracket pins a float step that landed past the crossing
    (rounding allows that only above n ~ 2^50), moving the low end only to
    points it compared above the target; it takes no step when the bracket
    is (n* - 1, n*). So n* - 1 is always a compared point above the
    target, and n* is minimal.

    No n past n* climbs back above the target, at any h and p, so nothing
    past n* is probed. In exact arithmetic:

    (A) For h + 1 <= n <= m, N(m)/N(n) <= ((m - h)/(n - h))**(p*h): each
    factor (m-1-k)/(n-1-k) of C(m-1, i)/C(n-1, i), k < i <= h, is at most
    (m - h)/(n - h). So f(m) - f(n) <= p*h*ln((m - h)/(n - h)) - (m -
    n)*eps^2/4, which is concave in m, 0 at m = n and of slope p*h/(n - h)
    - eps^2/4 there: f(m) <= f(n) for every m >= n once (n - h)*eps^2 >=
    4*p*h.

    (B) f(n) < 0 implies (n - h)*eps^2 >= 4*p*h, trivially at h = 0. For
    n <= 2h + 1, C**p >= C for every count and i <= h covers at least half
    of row n - 1, so 2*N(n) >= 2**n and f(n) >= n*(ln 2 - eps^2/4) > 0.
    Otherwise let r = (n - 1)/h > 2, so C(n-1, h) >= r**h and f(n) >= 2 ln
    2 + p*h*ln r - n*eps^2/4. With eps < 1 and p >= 1, f(n) < 0 gives
    h*(r/4 - ln r) > 2 ln 2 - 1/4 > 0, which past r = 2 needs r > 8.6; then
    (n - h)*eps^2/4 > 2 ln 2 + p*h*(ln r - 1/4) > p*h.

    As t < 0, f(n*) <= t gives f(m) <= f(n*) <= t for every m >= n*. The
    trace carries n*'s log-bound from its one evaluation, so callers need
    not repeat it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    target = math.log(delta)
    _require_eps(eps)
    _require_at_most_max("ceiling", ceiling)
    h, p = spec.h, spec.p

    expansion: list[tuple[int, float]] = []
    e2 = eps * eps
    # a ceiling below 1 is the first probe, so _log_bound rejects it
    lo, n = 0, min(1, ceiling)
    while True:
        cur = _log_bound(n, eps, h, p)
        expansion.append((n, cur))
        if cur <= target:
            break
        if n == ceiling:
            raise NoBracketError(delta, eps, spec, ceiling, cur)
        # no m < n + step meets the target; an eps*eps that underflows to
        # 0, or a step past the ceiling, lands on the ceiling
        step = 4.0 * (cur - target) / e2 if e2 else math.inf
        lo, n = n, ceiling if step >= ceiling - n else n + math.ceil(step)

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
    return hi, BracketTrace(
        expansion=tuple(expansion),
        bracket=bracket,
        bisection_steps=steps,
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

    Returned even when >= 1 (vacuous); callers flag that case. _ln_count
    checks n, so 4.0 / n is a positive float.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    log_2n = LN2 + _ln_count(n, spec.h, spec.p)
    return math.sqrt((4.0 / n) * (log_2n - math.log(delta)))
