"""Dense single-phase simplex on integer input with exact results, for b >= 0.

Solves   maximize c.x  subject to  A x <= b,  x >= 0   for integer c, A and
b, exactly, so the sign of the optimum is never a floating-point judgement
call. A caller with rational data scales each row by a positive integer
first, which leaves the feasible region unchanged. With every right-hand
side nonnegative, x = 0 is feasible and the all-slack basis is a starting
vertex, so one phase suffices. Bland's smallest-index rule governs both
pivot choices, which rules out cycling.

Arithmetic uses integer pivoting: the tableau is kept as d * T for an
integer scalar d (the previous pivot element). One pivot on (r, c) with
p = rows[r][c] maps every other row to (p*row - row[c]*rows[r]) / d, an
exact division, and leaves the pivot row untouched with d' = p. Entries
stay minor-sized instead of accumulating gcd work, which is an order of
magnitude faster than Fraction tableaus for the small dense programs the
dichotomy oracle generates. The optimum and the optimal point come back
as exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

__all__ = ["LPResult", "simplex_max", "OPTIMAL", "UNBOUNDED"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None = None
    x: tuple[Fraction, ...] | None = None


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
    """Maximize c.x subject to A x <= b, x >= 0 over integer entries.

    A non-integer entry raises TypeError; a negative entry of b raises
    ValueError.
    """
    m = len(A)
    n = len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    c_int = [index(v) for v in c]

    # columns: n structural | m slacks | rhs; the slacks form the start basis
    rows = []
    for i in range(m):
        bv = index(b[i])
        if bv < 0:
            raise ValueError(f"right-hand side must be nonnegative, got b[{i}] = {bv}")
        row = [index(v) for v in A[i]] + [0] * m + [bv]
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
    value = sum((cv * xv for cv, xv in zip(c_int, x)), Fraction(0))
    return LPResult(status=OPTIMAL, objective=value, x=tuple(x))
