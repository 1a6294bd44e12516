"""Exact simplex on a condensed integer tableau, primal and dual, for b >= 0.

Solves   maximize c.x  subject to  A x <= b,  x >= 0   for integer c, A and
b, exactly, so the sign of the optimum is never a floating-point judgement
call. A caller with rational data scales each row by a positive integer
first, which leaves the feasible region unchanged. With every right-hand
side nonnegative, x = 0 is feasible and the all-slack basis is a starting
vertex, so one phase suffices.

The tableau is condensed (a dictionary): one row per constraint and one
column per nonbasic variable plus the right-hand side, with no slack
columns. Labels record the variable basic in each row and nonbasic in each
column; x_0..x_{n-1} are the structural variables and n + i is the slack
of row i. Bland's smallest-index rule governs every pivot choice, which
rules out cycling (Bland 1977).

Arithmetic uses integer pivoting: the tableau is kept as d * T for an
integer d > 0, the absolute value of the previous pivot element. One pivot
on (r, c) with p = rows[r][c] maps every other row to
(|p|*row - row[c]*s*rows[r]) / d, s the sign of p, an exact division since
every entry is a minor of the input; the pivot row is multiplied by s and
d' = |p|. Entries stay minor-sized instead of accumulating gcd work, which
is an order of magnitude faster than Fraction tableaus for the small dense
programs the dichotomy oracle generates. The optimum is -obj[-1] / d and
the optimal point ``point()`` / d, exact integers over one d.

``Tableau`` is the one entry point; two drivers share its pivot.
``Tableau.maximize`` is primal simplex from the all-slack basis the
constructor builds. ``Tableau.reoptimize`` is dual simplex from a
dual-feasible tableau (Lemke 1954): an optimal tableau that gains rows
a.x <= 0 through ``Tableau.add_row`` stays dual feasible, so dual pivots
from the old basis reach the new optimum without solving from scratch.
"""

from __future__ import annotations

from operator import index

__all__ = ["Tableau"]


class Tableau:
    """d times a condensed simplex dictionary, in integers.

    Row i reads  d * x[basic[i]] + sum_j rows[i][j] * x[nonbasic[j]] = rows[i][-1];
    obj[j] is d times the reduced cost of x[nonbasic[j]] and obj[-1] is -d
    times the objective value. Pivots replace rows instead of changing them
    in place, so a copy shares its rows with the original.
    """

    __slots__ = ("n", "rows", "obj", "basic", "nonbasic", "d")

    def __init__(self, c, A, b):
        """The all-slack dictionary of  max c.x  s.t.  A x <= b, x >= 0.

        Non-integer entries raise TypeError, a negative b[i] ValueError."""
        m = len(A)
        n = len(c)
        if any(len(row) != n for row in A) or len(b) != m:
            raise ValueError("inconsistent LP dimensions")
        self.obj = [index(v) for v in c] + [0]
        self.rows = []
        for i in range(m):
            bv = index(b[i])
            if bv < 0:
                raise ValueError(f"right-hand side must be nonnegative, got b[{i}] = {bv}")
            self.rows.append([index(v) for v in A[i]] + [bv])
        self.n = n
        self.basic = list(range(n, n + m))
        self.nonbasic = list(range(n))
        self.d = 1

    def copy(self) -> Tableau:
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.rows = self.rows[:]
        t.obj = self.obj
        t.basic = self.basic[:]
        t.nonbasic = self.nonbasic[:]
        t.d = self.d
        return t

    def add_row(self, a) -> None:
        """Append the constraint a.x <= 0 on the structural variables.

        Its slack becomes basic in a row written in the current basis:
        d * a[nonbasic] - sum_i a[basic[i]] * rows[i], a minor of the
        enlarged program like every other entry.
        """
        n = self.n
        if len(a) != n:
            raise ValueError(f"row has {len(a)} entries for {n} variables")
        a = [index(v) for v in a]
        d = self.d
        new = [d * a[v] if v < n else 0 for v in self.nonbasic] + [0]
        for row, v in zip(self.rows, self.basic):
            if v < n and a[v]:
                f = a[v]
                new = [e - f * q for e, q in zip(new, row)]
        self.basic.append(n + len(self.rows))
        self.rows.append(new)

    def maximize(self) -> bool:
        """Primal simplex from a primal-feasible tableau; False if unbounded."""
        rows, basic, nonbasic = self.rows, self.basic, self.nonbasic
        while True:
            obj = self.obj
            col = None
            for j, v in enumerate(nonbasic):
                if obj[j] > 0 and (col is None or v < nonbasic[col]):
                    col = j
            if col is None:
                return True
            # min of rhs/entry over positive entries, compared by
            # cross-multiplying; ties go to the smallest basic variable
            r = None
            for i, row in enumerate(rows):
                a = row[col]
                if a > 0:
                    num = row[-1]
                    if (
                        r is None
                        or num * bd < bn * a
                        or (num * bd == bn * a and basic[i] < basic[r])
                    ):
                        r, bn, bd = i, num, a
            if r is None:
                return False
            _pivot(self, r, col)

    def reoptimize(self) -> None:
        """Dual simplex from a dual-feasible tableau, to a primal optimum.

        The leaving row is the smallest basic variable with a negative
        value, the entering column the least ratio obj[j]/row[j] over
        negative entries, ties to the smallest nonbasic variable. With
        b >= 0 and appended rows a.x <= 0, x = 0 stays feasible, so a row
        that no pivot can repair means the tableau is corrupt.
        """
        obj = self.obj
        if any(v > 0 for v in obj[:-1]):
            raise RuntimeError(f"dual simplex needs reduced costs <= 0, got {obj[:-1]}")
        rows, basic, nonbasic = self.rows, self.basic, self.nonbasic
        while True:
            r = None
            for i, row in enumerate(rows):
                if row[-1] < 0 and (r is None or basic[i] < basic[r]):
                    r = i
            if r is None:
                return
            row = rows[r]
            obj = self.obj
            col = None
            for j in range(len(row) - 1):
                a = row[j]
                if a < 0:
                    o = obj[j]
                    # o/a < bo/ba with a, ba < 0  <=>  o*ba < bo*a
                    if (
                        col is None
                        or o * ba < bo * a
                        or (o * ba == bo * a and nonbasic[j] < nonbasic[col])
                    ):
                        col, bo, ba = j, o, a
            if col is None:
                raise RuntimeError(
                    f"dual simplex found no entering column for x{basic[r]} = "
                    f"{row[-1]}/{self.d} < 0, row {row}: the program reads as "
                    f"infeasible although x = 0 is feasible"
                )
            _pivot(self, r, col)

    def point(self) -> list[int]:
        """d times the structural part of the basic solution."""
        n = self.n
        x = [0] * n
        for row, v in zip(self.rows, self.basic):
            if v < n:
                x[v] = row[-1]
        return x


def _pivot(t: Tableau, r: int, c: int) -> None:
    """Exchange x[basic[r]] and x[nonbasic[c]] by one integer pivot.

    A negative pivot element (dual simplex) flips the sign of the pivot row
    only, so d stays positive. Column c then describes the leaving variable:
    s*d in row r and -s*row[c] in every other row.
    """
    rows, d = t.rows, t.d
    prow = rows[r]
    p = prow[c]
    s = 1 if p > 0 else -1
    prow = [s * v for v in prow]
    p = s * p
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            new = [(p * a - f * q) // d for a, q in zip(row, prow)]
            new[c] = -s * f
            rows[i] = new
    obj = t.obj
    f = obj[c]
    new = [(p * a - f * q) // d for a, q in zip(obj, prow)]
    new[c] = -s * f
    t.obj = new
    prow[c] = s * d
    rows[r] = prow
    t.basic[r], t.nonbasic[c] = t.nonbasic[c], t.basic[r]
    t.d = p

