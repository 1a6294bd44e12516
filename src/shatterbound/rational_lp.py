"""Dense single-phase simplex over exact rationals, for b >= 0.

Solves   maximize c.x  subject to  A x <= b,  x >= 0   exactly, so the
sign of the optimum is never a floating-point judgement call. With every
right-hand side nonnegative, x = 0 is feasible and the all-slack basis is
a starting vertex, so one phase suffices. Bland's smallest-index rule
governs both pivot choices, which rules out cycling.

Arithmetic uses integer pivoting: constraints are scaled to integers and
the tableau is kept as d * T for an integer scalar d (the previous pivot
element). One pivot on (r, c) with p = rows[r][c] maps every other row to
(p*row - row[c]*rows[r]) / d, an exact division, and leaves the pivot row
untouched with d' = p. Entries stay minor-sized instead of accumulating
gcd work, which is an order of magnitude faster than Fraction tableaus for
the small dense programs the dichotomy oracle generates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

__all__ = ["LPResult", "simplex_max", "OPTIMAL", "UNBOUNDED"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


def _scaled_int_rows(A, b):
    """Clear denominators row by row; scaling an inequality by a positive
    integer changes nothing."""
    rows = []
    rhs = []
    for arow, bv in zip(A, b):
        fr = [Fraction(v) for v in arow]
        fb = Fraction(bv)
        k = lcm(*(f.denominator for f in fr), fb.denominator)
        rows.append([int(f * k) for f in fr])
        rhs.append(int(fb * k))
    return rows, rhs


def _pivot(rows, obj, basis, r, c, d):
    """Integer pivot; returns the new scale divisor."""
    prow = rows[r]
    p = prow[c]
    for i in range(len(rows)):
        if i != r:
            row = rows[i]
            f = row[c]
            rows[i] = [(p * a - f * q) // d for a, q in zip(row, prow)]
    f = obj[c]
    obj[:] = [(p * a - f * q) // d for a, q in zip(obj, prow)]
    basis[r] = c
    return p


def _bland_entering(obj, n_enter):
    for j in range(n_enter):
        if obj[j] > 0:
            return j
    return None


def _bland_leaving(rows, col, basis):
    # min of rhs/entry over positive entries, compared by cross-multiplying;
    # ties go to the smallest basic variable index
    best = None
    bn = bd = None
    for i, row in enumerate(rows):
        a = row[col]
        if a > 0:
            num = row[-1]
            if (
                best is None
                or num * bd < bn * a
                or (num * bd == bn * a and basis[i] < basis[best])
            ):
                best, bn, bd = i, num, a
    return best


def simplex_max(c, A, b) -> LPResult:
    """Maximize c.x subject to A x <= b, x >= 0 (entries coerced to Fraction).

    Every entry of b must be nonnegative; a negative one raises ValueError.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    c_frac = [Fraction(v) for v in c]
    ck = lcm(*(f.denominator for f in c_frac)) if c_frac else 1
    c_int = [int(f * ck) for f in c_frac]
    a_int, b_int = _scaled_int_rows(A, b)
    for i, bv in enumerate(b_int):
        if bv < 0:
            raise ValueError(f"right-hand side must be nonnegative, got b[{i}] = {b[i]}")

    # columns: n structural | m slacks | rhs; the slacks form the start basis
    rows = []
    for i in range(m):
        row = a_int[i] + [0] * m + [b_int[i]]
        row[n + i] = 1
        rows.append(row)
    basis = list(range(n, n + m))
    # reduced costs d*(c - c_B B^-1 A) with d = 1 and c_B = 0
    obj = c_int + [0] * (m + 1)

    d = 1
    while True:
        col = _bland_entering(obj, n + m)
        if col is None:
            break
        row = _bland_leaving(rows, col, basis)
        if row is None:
            return LPResult(status=UNBOUNDED)
        d = _pivot(rows, obj, basis, row, col, d)

    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(rows[i][-1], d)
    value = sum((cv * xv for cv, xv in zip(c_frac, x)), Fraction(0))
    return LPResult(status=OPTIMAL, objective=value, x=tuple(x))
