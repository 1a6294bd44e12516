import copy
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterbound.rational_lp import Tableau


def fourier_motzkin_feasible(n, A, b):
    """Independent oracle: is {x in Q^n : A x <= b} nonempty? Eliminates
    one variable at a time over Fractions, pairing every row with a
    positive coefficient on it with every row with a negative one, and
    drops repeated rows after each step."""
    rows = [(tuple(map(F, a)), F(v)) for a, v in zip(A, b)]
    for j in range(n):
        rows = list(dict.fromkeys(rows))
        pos = [(a, v) for a, v in rows if a[j] > 0]
        neg = [(a, v) for a, v in rows if a[j] < 0]
        rows = [(a, v) for a, v in rows if a[j] == 0]
        for ap, vp in pos:
            for an, vn in neg:
                s, t = -an[j], ap[j]
                rows.append((tuple(s * p + t * q for p, q in zip(ap, an)), s * vp + t * vn))
    return all(v >= 0 for _, v in rows)


def tableau(n, A, b):
    tab = Tableau(n)
    for a, v in zip(A, b):
        tab.add_row(a, v)
    return tab


def check_answer(tab, y, n, A, b):
    """The answer of ``solve`` is proved by what it returns: None and a point
    that meets every row exactly, or multipliers {row index: positive int}
    with y A = 0 and y b < 0."""
    assert tab.d > 0
    if y is None:
        x = [F(v, tab.d) for v in tab.point()]
        for a, v in zip(A, b):
            assert sum(ai * xi for ai, xi in zip(a, x)) <= v
        return True
    assert y and all(type(i) is int and 0 <= i < len(A) for i in y)
    assert all(type(yi) is int and yi > 0 for yi in y.values())
    assert all(sum(yi * A[i][j] for i, yi in y.items()) == 0 for j in range(n))
    assert sum(yi * b[i] for i, yi in y.items()) < 0
    return False


def snapshot(tab):
    return copy.deepcopy(tab.rows), tab.basic[:], tab.nonbasic[:], tab.d


BEALE_C = [75, -15000, 2, -600]
BEALE_ROWS = [[25, -6000, -4, 900], [25, -4500, -1, 150]]


def beale():
    """Beale's rows, x3 <= 1, x >= 0 and c.x >= 5 as a list of rows A and
    right-hand sides b."""
    A = [r[:] for r in BEALE_ROWS] + [[0, 0, 1, 0]]
    A += [[-int(i == j) for i in range(4)] for j in range(4)]
    A.append([-v for v in BEALE_C])
    return A, [0, 0, 1, 0, 0, 0, 0, -5]


class TestKnownPrograms:
    def test_empty_system_is_feasible_at_zero(self):
        tab = Tableau(3)
        assert tab.solve() is None
        assert tab.point() == [0, 0, 0]

    def test_free_variables_take_negative_values(self):
        # x <= -2 and -y <= 3: no sign constraint on x or y
        A, b = [[1, 0], [0, -1]], [-2, 3]
        tab = tableau(2, A, b)
        assert tab.solve() is None
        assert check_answer(tab, None, 2, A, b)
        assert F(tab.point()[0], tab.d) <= -2

    def test_opposing_rows_pin_an_equality(self):
        A, b = [[1, 1], [-1, -1], [1, -1], [-1, 1]], [3, -3, 1, -1]
        tab = tableau(2, A, b)
        assert tab.solve() is None
        assert [F(v, tab.d) for v in tab.point()] == [2, 1]

    def test_infeasible_interval_gives_its_two_rows(self):
        A, b = [[2], [-3]], [1, -2]  # x <= 1/2 and x >= 2/3
        tab = tableau(1, A, b)
        y = tab.solve()
        assert not check_answer(tab, y, 1, A, b)
        # 3 * (2x <= 1) + 2 * (-3x <= -2) reads 0 <= -1
        assert y == {0: 3, 1: 2}

    def test_axis_boxes(self):
        # the box 0 <= x <= 1, 0 <= y <= 2 meets x + y >= 3 at its corner
        # only, and misses x + y >= 4
        A, b = [[1, 0], [0, 1], [-1, 0], [0, -1], [-1, -1]], [1, 2, 0, 0, -3]
        tab = tableau(2, A, b)
        assert tab.solve() is None
        assert check_answer(tab, None, 2, A, b)
        assert [F(v, tab.d) for v in tab.point()] == [1, 2]
        tab.add_row([-1, -1], -4)
        assert not check_answer(tab, tab.solve(), 2, A + [[-1, -1]], b + [-4])

    def test_fractional_vertex(self):
        # 2x + 3y >= 33/5, scaled by 5, holds only at the vertex (6/5, 7/5)
        # of x + 2y <= 4, 3x + y <= 5, x, y >= 0
        A = [[1, 2], [3, 1], [-1, 0], [0, -1], [-10, -15]]
        b = [4, 5, 0, 0, -33]
        tab = tableau(2, A, b)
        assert tab.solve() is None
        assert check_answer(tab, None, 2, A, b)
        assert tab.d > 1
        assert [F(v, tab.d) for v in tab.point()] == [F(6, 5), F(7, 5)]

    def test_beale_cycling_example_terminates(self):
        # Beale's (1955) degenerate program, which cycles without an
        # anti-cycling rule, with every entry scaled to an integer; its
        # optimum 5 becomes the row -c.x <= -5, and -c.x <= -6 cuts it off
        A, b = beale()
        tab = tableau(4, A, b)
        assert tab.solve() is None
        assert check_answer(tab, None, 4, A, b)
        x = [F(v, tab.d) for v in tab.point()]
        assert sum(ci * xi for ci, xi in zip(BEALE_C, x)) == 5
        A.append([-v for v in BEALE_C])
        b.append(-6)
        tab = tableau(4, A, b)
        assert not check_answer(tab, tab.solve(), 4, A, b)

    def test_non_integer_entries_rejected(self):
        # rational data is scaled to integers by the caller, never floored here
        for a, v in (([F(1, 2)], 1), ([0.5], 1), ([1], F(2)), ([1], 1.0)):
            with pytest.raises(TypeError):
                Tableau(1).add_row(a, v)

    def test_rejects_dimension_mismatch(self):
        tab = Tableau(2)
        for a in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="entries for 2 variables"):
                tab.add_row(a, 0)

    def test_degenerate_system_terminates(self):
        # 18 rows through (1, -2, 3), each of them twice, whose normals
        # positively span Q^3, so the point is the whole feasible set; then
        # a row that cuts it off while every other row stays tight there
        p = (1, -2, 3)
        A = [[i, j, k] for i in (-1, 0, 1) for j in (-1, 1) for k in (-1, 0, 1)] * 2
        b = [sum(ai * pi for ai, pi in zip(a, p)) for a in A]
        tab = tableau(3, A, b)
        assert tab.solve() is None
        assert [F(v, tab.d) for v in tab.point()] == list(p)
        A.append([1, 1, 1])
        b.append(1)  # 1 - 2 + 3 = 2 > 1
        tab.add_row(A[-1], b[-1])
        assert not check_answer(tab, tab.solve(), 3, A, b)


coeff = st.integers(-3, 3)


@st.composite
def two_batches(draw):
    """A system over 1-3 free variables with entries and right-hand sides
    in -3..3, in two batches of rows."""
    n = draw(st.integers(1, 3))
    row = st.tuples(st.lists(coeff, min_size=n, max_size=n), coeff)
    first = draw(st.lists(row, max_size=5))
    second = draw(st.lists(row, min_size=1, max_size=5))
    return n, first, second


@st.composite
def rows_through_a_point(draw):
    """Rows a.x <= a.p through one integer point p, some repeated, plus
    rows a.x <= b with small b, so the basic solutions are degenerate."""
    n = draw(st.integers(1, 3))
    p = draw(st.lists(coeff, min_size=n, max_size=n))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        a = draw(st.lists(coeff, min_size=n, max_size=n))
        if draw(st.booleans()):
            rows += [(a, sum(ai * pi for ai, pi in zip(a, p)))] * draw(st.integers(1, 3))
        else:
            rows.append((a, draw(coeff)))
    return n, rows


class TestAgainstFourierMotzkin:
    @given(two_batches())
    @settings(max_examples=400, deadline=None)
    def test_warm_resolve_of_a_copy_matches_the_reference(self, case):
        n, first, second = case
        A, b = [a for a, _ in first], [v for _, v in first]
        tab = tableau(n, A, b)
        y = tab.solve()
        assert check_answer(tab, y, n, A, b) == fourier_motzkin_feasible(n, A, b)
        before = snapshot(tab)
        warm = tab.copy()
        for a, v in second:
            warm.add_row(a, v)
        A2, b2 = A + [a for a, _ in second], b + [v for _, v in second]
        y2 = warm.solve()
        assert check_answer(warm, y2, n, A2, b2) == fourier_motzkin_feasible(n, A2, b2)
        # the copy's pivots leave the first solve's tableau as it was
        assert snapshot(tab) == before
        # a free variable that became basic never leaves
        assert {v for v in tab.basic if v < n} <= {v for v in warm.basic if v < n}

    @given(two_batches())
    @settings(max_examples=100, deadline=None)
    def test_a_solved_tableau_solves_again_without_pivots(self, case):
        n, first, second = case
        tab = tableau(n, *zip(*(first + second)))
        y = tab.solve()
        before = snapshot(tab)
        assert tab.solve() == y
        assert snapshot(tab) == before

    @given(rows_through_a_point())
    @settings(max_examples=200, deadline=None)
    def test_degenerate_systems_match_the_reference(self, case):
        n, rows = case
        A, b = [a for a, _ in rows], [v for _, v in rows]
        tab = tableau(n, A, b)
        assert check_answer(tab, tab.solve(), n, A, b) == fourier_motzkin_feasible(n, A, b)


def brute_force_feasible(n, A, b):
    """Independent oracle for a bounded system: it is nonempty exactly when
    it has a vertex, so try every n of its rows as equalities, solve the
    square system over Fractions and keep a solution that meets every row."""
    for subset in itertools.combinations(range(len(A)), n):
        mat = [list(map(F, A[i])) + [F(b[i])] for i in subset]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                break
            mat[col], mat[piv] = mat[piv], mat[col]
            mat[col] = [v / mat[col][col] for v in mat[col]]
            for r in range(n):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [v - f * pv for v, pv in zip(mat[r], mat[col])]
        else:
            x = [row[n] for row in mat]
            if all(sum(ai * xi for ai, xi in zip(a, x)) <= v for a, v in zip(A, b)):
                return True
    return False


@st.composite
def boxed_system(draw):
    """Rows with entries in -4..4 and right-hand sides in -6..6 over 1-3
    free variables, boxed by -5 <= x_j <= 5 so the vertex oracle is
    exhaustive."""
    n = draw(st.integers(1, 3))
    rows = draw(
        st.lists(
            st.tuples(st.lists(st.integers(-4, 4), min_size=n, max_size=n), st.integers(-6, 6)),
            min_size=1,
            max_size=4,
        )
    )
    A, b = [a for a, _ in rows], [v for _, v in rows]
    for j in range(n):
        for s in (1, -1):
            A.append([s * int(i == j) for i in range(n)])
            b.append(5)
    return n, A, b


class TestAgainstVertexEnumeration:
    @given(boxed_system())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, case):
        n, A, b = case
        tab = tableau(n, A, b)
        assert check_answer(tab, tab.solve(), n, A, b) == brute_force_feasible(n, A, b)


@st.composite
def system_with_cuts(draw):
    """A two_batches system whose second batch may be turned against the
    first batch's point: a ``cut`` row excludes it, a ``tight`` one passes
    through it, so the warm pivots start degenerate."""
    n, first, second = draw(two_batches())
    kind = st.sampled_from(("free", "cut", "tight"))
    kinds = draw(st.lists(kind, min_size=len(second), max_size=len(second)))
    return n, first, list(zip(second, kinds))


class TestDualReoptimization:
    @given(system_with_cuts())
    @settings(max_examples=300, deadline=None)
    def test_matches_cold_solve_of_the_full_program(self, case):
        n, first, second = case
        A, b = [a for a, _ in first], [v for _, v in first]
        solved = tableau(n, A, b)
        feasible = solved.solve() is None
        x, d = solved.point(), solved.d
        warm = solved.copy()
        for (a, v), kind in second:
            if feasible and kind != "free":
                # d * a.x <= a.point() holds at the point with equality
                a, v = [d * ai for ai in a], sum(ai * xi for ai, xi in zip(a, x))
                v -= kind == "cut"
            warm.add_row(a, v)
            A, b = A + [a], b + [v]
        cold = tableau(n, A, b)
        expect = check_answer(cold, cold.solve(), n, A, b)
        assert check_answer(warm, warm.solve(), n, A, b) == expect
        # the copy's pivots leave the first solve's point as it was
        assert solved.point() == x and solved.d == d

    def test_beale_rows_added_to_a_box(self):
        # c.x >= 5 over the box 0 <= x <= 1 holds at (1, 0, 1, 0), which
        # both of Beale's degenerate rows cut off; the re-solve must reach
        # his optimal face without cycling
        box = [[int(i == j) for i in range(4)] for j in range(4)]
        box += [[-v for v in r] for r in box]
        A, b = box + [[-v for v in BEALE_C]], [1] * 4 + [0] * 4 + [-5]
        tab = tableau(4, A, b)
        assert tab.solve() is None
        assert check_answer(tab, None, 4, A, b)
        for a in BEALE_ROWS:
            tab.add_row(a, 0)
            A, b = A + [a], b + [0]
        assert tab.solve() is None
        assert check_answer(tab, None, 4, A, b)
        x = [F(v, tab.d) for v in tab.point()]
        assert sum(ci * xi for ci, xi in zip(BEALE_C, x)) == 5

    def test_added_rows_are_checked(self):
        # a rejected row leaves a solved tableau as it was, still solvable
        tab = tableau(1, [[1], [-1]], [1, 0])
        assert tab.solve() is None
        before = snapshot(tab)
        bad = (([1, 2], 0, ValueError), ([F(1, 2)], 0, TypeError), ([1], 0.5, TypeError))
        for a, v, err in bad:
            with pytest.raises(err):
                tab.add_row(a, v)
            assert snapshot(tab) == before
        tab.add_row([-2], -1)
        assert tab.solve() is None
        assert F(tab.point()[0], tab.d) >= F(1, 2)
