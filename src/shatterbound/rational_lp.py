"""Exact feasibility of integer inequalities over free variables.

Decides whether  A x <= b  has a solution x in Q^n for integer A and b,
exactly, so "feasible" versus "infeasible" is never a floating-point
judgement call. A caller with rational data scales each row by a positive
integer first, which leaves the feasible set unchanged. There is no
objective: the answer is a feasible point, or the Farkas multipliers of one
row of the final tableau, which prove that no point exists.

The tableau is condensed (a dictionary): one row per constraint and one
column per nonbasic variable plus the right-hand side, with no slack
columns. Labels record the variable basic in each row and nonbasic in each
column; x_0..x_{n-1} are the free structural variables and x_{n+i} >= 0
is the slack of row i. An empty tableau has every structural variable
nonbasic at 0, and ``add_row`` writes each new row in the current basis
with its slack basic, so any tableau can gain rows and be solved again.

``Tableau.solve`` is the one driver, dual simplex under Bland's rule
(Lemke 1954; Bland 1977). With no objective every basis is dual feasible,
so the ratio test ties on every candidate and Bland's smallest index
decides it alone: the leaving row is the smallest basic slack with a
negative value, the entering column the smallest nonbasic variable that
can repair it, a slack with a negative entry or a free variable with any
nonzero entry. A free variable that becomes basic never leaves, so it
enters at most once and the slack pivots between its entries cycle-free
under Bland's rule. A row that no column repairs reads
d * s_r + sum_j row[j] * s_j = row[-1] < 0 with every row[j] >= 0 over
nonbasic slacks and 0 over free variables: no nonnegative slacks satisfy
it, and its multipliers (d for s_r, row[j] for each s_j) combine the
original rows into 0 . x <= a negative number (Farkas 1902). ``solve``
returns them keyed by original row index, so a caller checks the proof
without reading the tableau's layout.

Arithmetic uses integer pivoting: the tableau is kept as d * T for an
integer d > 0, the absolute value of the previous pivot element. One pivot
on (r, c) with p = rows[r][c] maps every other row to
(|p|*row - row[c]*s*rows[r]) / d, s the sign of p, an exact division since
every entry is a minor of the input; the pivot row is multiplied by s and
d' = |p|. Entries stay minor-sized instead of accumulating gcd work. A
feasible point is ``point()`` / d, exact integers over one d.
"""

from __future__ import annotations

from operator import index

__all__ = ["Tableau"]


class Tableau:
    """d times a condensed dictionary of  A x <= b  over n free variables.

    Row i reads  d * x[basic[i]] + sum_j rows[i][j] * x[nonbasic[j]] = rows[i][-1].
    Pivots replace rows instead of changing them in place, so a copy shares
    its rows with the original.
    """

    __slots__ = ("n", "rows", "basic", "nonbasic", "d")

    def __init__(self, n: int):
        """The empty system over n free variables, every one nonbasic at 0."""
        self.n = n
        self.rows = []
        self.basic = []
        self.nonbasic = list(range(n))
        self.d = 1

    def copy(self) -> Tableau:
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.rows = self.rows[:]
        t.basic = self.basic[:]
        t.nonbasic = self.nonbasic[:]
        t.d = self.d
        return t

    def add_row(self, a, b) -> None:
        """Append the constraint a.x <= b; b may be negative.

        Its slack becomes basic in a row written in the current basis:
        d * (a[nonbasic], b) - sum_i a[basic[i]] * rows[i], a minor of the
        enlarged system like every other entry. Non-integer entries raise
        TypeError, a row of the wrong length ValueError.
        """
        n = self.n
        if len(a) != n:
            raise ValueError(f"row has {len(a)} entries for {n} variables")
        a = [index(v) for v in a]
        d = self.d
        new = [d * a[v] if v < n else 0 for v in self.nonbasic] + [d * index(b)]
        for row, v in zip(self.rows, self.basic):
            if v < n and a[v]:
                f = a[v]
                new = [e - f * q for e, q in zip(new, row)]
        self.basic.append(n + len(self.rows))
        self.rows.append(new)

    def solve(self) -> dict[int, int] | None:
        """Dual simplex to a feasible basis: None when the rows are
        feasible, else Farkas multipliers {row index i: y_i > 0} with
        sum_i y_i * a_i = 0 and sum_i y_i * b_i < 0 over the added rows."""
        n, rows, basic, nonbasic = self.n, self.rows, self.basic, self.nonbasic
        while True:
            r = None
            for i, row in enumerate(rows):
                if row[-1] < 0 and basic[i] >= n and (r is None or basic[i] < basic[r]):
                    r = i
            if r is None:
                return None
            row = rows[r]
            col = None
            for j, v in enumerate(nonbasic):
                a = row[j]
                if (a < 0 or a and v < n) and (col is None or v < nonbasic[col]):
                    col = j
            if col is None:
                y = {v - n: e for v, e in zip(nonbasic, row) if v >= n and e > 0}
                y[basic[r] - n] = self.d
                return y
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

    A negative pivot element flips the sign of the pivot row only, so d
    stays positive. Column c then describes the leaving variable: s*d in
    row r and -s*row[c] in every other row.
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
    prow[c] = s * d
    rows[r] = prow
    t.basic[r], t.nonbasic[c] = t.nonbasic[c], t.basic[r]
    t.d = p
