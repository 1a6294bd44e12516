import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterbound.rational_lp import Tableau


def solve(c, A, b):
    """The optimal tableau of max c.x s.t. A x <= b, x >= 0, with its
    optimum and optimal point as exact Fractions; None when unbounded."""
    tab = Tableau(c, A, b)
    if not tab.maximize():
        return None
    d = tab.d
    return tab, F(-tab.obj[-1], d), tuple(F(v, d) for v in tab.point())


def brute_force_lp_max(c, A, b):
    """Independent oracle: enumerate every vertex candidate of
    {A x <= b, x >= 0} by activating n of the constraints as equalities and
    solving the square system over Fractions. Valid for bounded regions;
    callers must box the variables. Returns (feasible, best value)."""
    n = len(c)
    rows = [list(map(F, row)) + [F(v)] for row, v in zip(A, b)]
    for j in range(n):
        nonneg = [F(0)] * (n + 1)
        nonneg[j] = F(-1)
        rows.append(nonneg)  # -x_j <= 0

    def solve_square(subset):
        mat = [rows[i][:n] for i in subset]
        rhs = [rows[i][n] for i in subset]
        # gaussian elimination
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                return None
            mat[col], mat[piv] = mat[piv], mat[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
            inv = F(1) / mat[col][col]
            mat[col] = [v * inv for v in mat[col]]
            rhs[col] *= inv
            for r in range(n):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [v - f * pv for v, pv in zip(mat[r], mat[col])]
                    rhs[r] -= f * rhs[col]
        return rhs

    best = None
    feasible = False
    for subset in itertools.combinations(range(len(rows)), n):
        x = solve_square(list(subset))
        if x is None:
            continue
        if any(xi < 0 for xi in x):
            continue
        if any(sum(r * v for r, v in zip(row[:n], x)) > row[n] for row in rows[: len(b)]):
            continue
        feasible = True
        val = sum(F(ci) * xi for ci, xi in zip(c, x))
        if best is None or val > best:
            best = val
    return feasible, best


class TestKnownPrograms:
    def test_axis_boxes(self):
        _, obj, x = solve([1, 1], [[1, 0], [0, 1]], [1, 2])
        assert obj == 3
        assert x == (F(1), F(2))

    def test_fractional_vertex(self):
        _, obj, x = solve([2, 3], [[1, 2], [3, 1]], [4, 5])
        assert obj == F(33, 5)
        assert x == (F(6, 5), F(7, 5))

    def test_unbounded(self):
        assert Tableau([1], [[-1]], [1]).maximize() is False

    def test_negative_rhs_rejected(self):
        # x = 0 must be feasible: the solver starts from the all-slack basis
        for b in ([-1, 5], [-3], [0, -2, 1]):
            with pytest.raises(ValueError, match="nonnegative"):
                Tableau([1], [[1]] * len(b), b)

    def test_non_integer_entries_rejected(self):
        # rational data is scaled to integers by the caller, never floored here
        for c, A, b in (
            ([F(1, 2)], [[1]], [1]),
            ([1], [[0.5]], [1]),
            ([1], [[1]], [F(2)]),
            ([1.0], [[1]], [1]),
        ):
            with pytest.raises(TypeError):
                Tableau(c, A, b)

    def test_beale_cycling_example_terminates(self):
        # classic degenerate program that cycles without an anti-cycling rule
        # (Beale 1955), with the objective scaled by 100 and its rows by 100,
        # 50 and 1 to make every entry an integer
        _, obj, x = solve(
            [75, -15000, 2, -600],
            [
                [25, -6000, -4, 900],
                [25, -4500, -1, 150],
                [0, 0, 1, 0],
            ],
            [0, 0, 1],
        )
        assert obj == 5
        assert x == (F(1, 25), F(0), F(1), F(0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Tableau([1, 2], [[1]], [1])


@st.composite
def small_lp(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    A = [
        [draw(st.integers(-4, 4)) for _ in range(n)]
        for _ in range(m)
    ]
    b = [draw(st.integers(0, 6)) for _ in range(m)]
    c = [draw(st.integers(-5, 5)) for _ in range(n)]
    # box every variable so the region is a polytope and the vertex
    # enumeration oracle is exhaustive
    for j in range(n):
        row = [0] * n
        row[j] = 1
        A.append(row)
        b.append(5)
    return c, A, b


class TestAgainstVertexEnumeration:
    @given(small_lp())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, lp):
        c, A, b = lp
        feasible, best = brute_force_lp_max(c, A, b)
        assert feasible  # b >= 0 makes x = 0 a vertex
        res = solve(c, A, b)
        assert res is not None
        _, obj, x = res
        assert obj == best
        # reported point must be feasible and achieve the value
        assert all(xi >= 0 for xi in x)
        for row, bv in zip(A, b):
            assert sum(F(a) * xi for a, xi in zip(row, x)) <= bv
        assert sum(F(ci) * xi for ci, xi in zip(c, x)) == best


def _holds(A, b, x):
    return all(xi >= 0 for xi in x) and all(
        sum(F(a) * xi for a, xi in zip(row, x)) <= bv for row, bv in zip(A, b)
    )


def _through(u, X):
    """A row a with a . X = 0 built from u; u itself when X = 0."""
    j = max(range(len(X)), key=lambda i: abs(X[i]))
    if X[j] == 0:
        return u
    a = [X[j] * v for v in u]
    a[j] = -sum(v * Xi for i, (v, Xi) in enumerate(zip(u, X)) if i != j)
    return a


@st.composite
def lp_with_cuts(draw):
    """A small_lp plus rows a.x <= 0 to add after it is solved. A ``cut``
    row is turned so that the first optimum does not satisfy it strictly; a
    ``tight`` one passes through that optimum, which then meets it with
    equality (slack 0), so the dual pivots start degenerate."""
    c, A, b = draw(small_lp())
    n = len(c)
    cuts = []
    for _ in range(draw(st.integers(1, 3))):
        u = [draw(st.integers(-4, 4)) for _ in range(n)]
        cuts.append((u, draw(st.sampled_from(("free", "cut", "tight")))))
    return c, A, b, cuts


class TestDualReoptimization:
    @given(lp_with_cuts())
    @settings(max_examples=300, deadline=None)
    def test_matches_cold_solve_of_the_full_program(self, case):
        c, A, b, cuts = case
        solved, _, first_x = solve(c, A, b)
        tab = solved.copy()
        rows = []
        for u, kind in cuts:
            if kind == "cut" and sum(a * xi for a, xi in zip(u, first_x)) < 0:
                u = [-a for a in u]
            elif kind == "tight":
                u = _through(u, solved.point())
                assert sum(a * xi for a, xi in zip(u, first_x)) == 0
            rows.append(u)
            tab.add_row(u)
        tab.reoptimize()
        full_A, full_b = A + rows, b + [0] * len(rows)
        _, cold_obj, _ = solve(c, full_A, full_b)
        x = tuple(F(v, tab.d) for v in tab.point())
        assert tab.d > 0
        assert _holds(full_A, full_b, x)
        assert sum(F(ci) * xi for ci, xi in zip(c, x)) == cold_obj
        assert F(-tab.obj[-1], tab.d) == cold_obj
        # the copy's pivots leave the first solve's tableau as it was
        assert solved.point() == [v * solved.d for v in first_x]

    def test_beale_rows_added_to_a_box(self):
        # the box optimum (1, 0, 1, 0) violates both of Beale's degenerate
        # rows; dual simplex must reach his optimum without cycling
        c = [75, -15000, 2, -600]
        box = [[int(i == j) for i in range(4)] for j in range(4)]
        tab = Tableau(c, box, [1, 1, 1, 1])
        assert tab.maximize()
        assert tab.point() == [tab.d, 0, tab.d, 0]
        tab.add_row([25, -6000, -4, 900])
        tab.add_row([25, -4500, -1, 150])
        tab.reoptimize()
        assert F(-tab.obj[-1], tab.d) == 5
        assert tuple(F(v, tab.d) for v in tab.point()) == (F(1, 25), 0, 1, 0)

    def test_broken_preconditions_raise(self):
        # a tableau with an improving column is not dual feasible
        with pytest.raises(RuntimeError, match="reduced costs"):
            Tableau([1], [[1]], [1]).reoptimize()
        # a negative basic value that no entry can repair reads as infeasible
        tab = Tableau([-1], [[1]], [0])
        tab.rows[0] = [1, -1]
        with pytest.raises(RuntimeError, match="infeasible"):
            tab.reoptimize()

    def test_added_rows_are_checked(self):
        tab = Tableau([1], [[1]], [1])
        assert tab.maximize()
        with pytest.raises(ValueError):
            tab.add_row([1, 2])
        with pytest.raises(TypeError):
            tab.add_row([F(1, 2)])
