"""Independent reference computations the benchmark checks answers against.

Nothing here imports the package under test. Counts come from
``math.comb`` big integers, logs from ``math.log`` of those integers, and
general position from fraction-free integer determinants. Each check
returns None when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

LN2 = math.log(2.0)

# The crossing tolerance is the smaller of CROSSING_TOL and 2 % of the
# step ln delta takes from n* - 1 to n*, so n* - 1 is rejected unless the
# true crossing lies within 2 % of a step of it. At eps = 1e-5 a step is
# about 2.4e-11, so the tolerance there is about 5e-13; the float noise of
# the reference is below 1e-13 on the bounds checked here. Both are far
# below the 4e-7 error the log path makes at n* ~ 2.6e8.
CROSSING_TOL = 1e-10
CROSSING_STEP_SHARE = 0.02
LOG_REL_TOL = 1e-9
CURVE_REL_TOL = 1e-12
CSV_REL_TOL = 1e-9  # the curve CSV prints 10 significant digits


def count(n: int, h: int, p: int = 1) -> int:
    """2 * sum_{i<=h} C(n-1, i)**p as an exact integer."""
    return 2 * sum(math.comb(n - 1, i) ** p for i in range(min(h, n - 1) + 1))


def log_count(n: int, h: int, p: int = 1) -> float:
    return math.log(count(n, h, p))


def log_bound(n: int, eps: float, h: int, p: int) -> float:
    """ln delta(n) = ln 2 + ln count(n) - n eps^2 / 4, from the exact count."""
    return LN2 + log_count(n, h, p) - n * eps * eps / 4.0


def _bound_scale(n: int, eps: float, h: int, p: int) -> float:
    # the two terms of ln delta cancel; errors scale with the larger one
    return max(1.0, LN2 + log_count(n, h, p), n * eps * eps / 4.0)


def max_eps(n: int, delta: float, h: int, p: int) -> float:
    return math.sqrt((4.0 / n) * (LN2 + log_count(n, h, p) - math.log(delta)))


def epsilon_curve(n: int, h: int, p: int) -> float:
    gamma = p * LN2 + h * p
    return 2.0 * math.sqrt(h * p * math.log(n) + gamma) / math.sqrt(n)


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def min_n(delta, eps, h, p, lo: int, hi: int) -> int:
    """Least n in (lo, hi] whose exact bound reaches ln delta, by bisection;
    the bound must fall across the range and not reach ln delta at lo."""
    target = math.log(delta)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_bound(mid, eps, h, p) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def check_min_n(n_star, delta, eps, h, p) -> str | None:
    """The exact bound reaches ln delta at n* and not at n* - 1."""
    if not isinstance(n_star, int) or n_star < 1:
        return f"n*={n_star!r} is not a positive integer"
    target = math.log(delta)
    at = log_bound(n_star, eps, h, p)
    tol = CROSSING_TOL
    if n_star > 1:
        before = log_bound(n_star - 1, eps, h, p)
        tol = min(tol, CROSSING_STEP_SHARE * abs(at - before))
        if before <= target - tol:
            return f"bound already reaches ln delta at n*-1={n_star - 1} ({before - target:.3g})"
    if at > target + tol:
        return f"bound at n*={n_star} misses ln delta by {at - target:.3g}"
    return None


def check_log_count(log_value, n, h, p) -> str | None:
    want = log_count(n, h, p)
    err = _rel_err(log_value, want)
    if not err <= LOG_REL_TOL:
        return f"ln count({n},{h},{p})={log_value!r}, exact {want!r} (rel {err:.3g})"
    return None


def check_count(value, n, h, p) -> str | None:
    if value != count(n, h, p):
        return f"count({n},{h},{p})={value!r} differs from the math.comb sum"
    return None


def check_log_bound(log_value, n, eps, h, p) -> str | None:
    want = log_bound(n, eps, h, p)
    err = abs(log_value - want) / _bound_scale(n, eps, h, p)
    if not err <= LOG_REL_TOL:
        return f"ln delta({n},{eps},{h},{p})={log_value!r}, exact {want!r} (rel {err:.3g})"
    return None


def check_max_eps(value, n, delta, h, p) -> str | None:
    want = max_eps(n, delta, h, p)
    err = _rel_err(value, want)
    if not err <= LOG_REL_TOL:
        return f"eps({n},{delta},{h},{p})={value!r}, exact {want!r} (rel {err:.3g})"
    return None


def check_curve_value(value, n, h, p, tol=CURVE_REL_TOL) -> str | None:
    want = epsilon_curve(n, h, p)
    err = _rel_err(value, want)
    if not err <= tol:
        return f"eps curve({n},{h},{p})={value!r}, reference {want!r} (rel {err:.3g})"
    return None


def check_sci(text: str, log_value: float) -> str | None:
    """A 6-digit scientific string agrees with exp(log_value)."""
    if log_value == float("-inf"):
        return None if text == "0" else f"{text!r} should read 0"
    mant, _, exp10 = text.partition("e")
    try:
        got = math.log10(float(mant)) + int(exp10)
    except ValueError:
        return f"{text!r} is not scientific notation"
    if abs(got - log_value / math.log(10.0)) > 1e-5:
        return f"{text!r} does not match ln value {log_value!r}"
    return None


def log_spaced_grid(n_start: int, n_end: int, n_points: int) -> list[int]:
    """The CLI's documented grid: round(n_start * ratio**(i/(k-1))), clamped,
    duplicates collapsed."""
    ratio = n_end / n_start
    grid: list[int] = []
    for i in range(n_points):
        v = max(n_start, min(n_end, round(n_start * ratio ** (i / (n_points - 1)))))
        if not grid or v > grid[-1]:
            grid.append(v)
    return grid


def _int_det(rows: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of a square integer matrix."""
    a = [list(r) for r in rows]
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, m):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[m - 1][m - 1]


def _int_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals via exact elimination on integer rows."""
    a = [list(r) for r in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            f, g = a[i][c], a[rank][c]
            if f:
                a[i] = [g * x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def _lifted_int_row(point) -> list[int]:
    coords = [Fraction(x) for x in point] + [Fraction(1)]
    scale = math.lcm(*(c.denominator for c in coords))
    return [int(c * scale) for c in coords]


def check_general_position(points, dim: int) -> str | None:
    """Every min(dim+1, n) points are affinely independent, all distinct."""
    if any(len(pt) != dim for pt in points):
        return f"a point does not have {dim} coordinates"
    if len(set(points)) != len(points):
        return "points are not distinct"
    lifted = [_lifted_int_row(pt) for pt in points]
    m = min(dim + 1, len(points))
    for idx in itertools.combinations(range(len(points)), m):
        rows = [lifted[i] for i in idx]
        degenerate = _int_det(rows) == 0 if m == dim + 1 else _int_rank(rows) < m
        if degenerate:
            return f"points {list(idx)} are affinely dependent"
    return None
