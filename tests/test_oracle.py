import gc
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import shatterbound.oracle as om
from shatterbound.oracle import (
    GeneralPositionError,
    PointSet,
    count_dichotomies,
    generate_general_position,
    is_separable,
    separable_masks,
    verify_formula,
)
from shatterbound.shattering import HypothesisSpec, shatter_multi


def pts(*coords):
    return tuple(tuple(F(x) for x in p) for p in coords)


def gram_rank(rows):
    """Rank of the Gram matrix R R^T of Fraction rows, by Gaussian elimination."""
    g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    rank = 0
    for c in range(len(g)):
        piv = next((i for i in range(rank, len(g)) if g[i][c]), None)
        if piv is None:
            continue
        g[rank], g[piv] = g[piv], g[rank]
        for i in range(rank + 1, len(g)):
            f = g[i][c] / g[rank][c]
            g[i] = [a - f * b for a, b in zip(g[i], g[rank])]
        rank += 1
    return rank


def moment_curve(n, dim):
    """x -> (x, x^2, ..., x^dim) at x = 0..n-1: every dim + 1 of these points
    are affinely independent (Vandermonde)."""
    return [tuple(x**e for e in range(1, dim + 1)) for x in range(n)]


def room_fixtures():
    """Sets of n = dim - 1 .. dim + 2 points at dim 2..5, the sizes around the
    position test's room rule: the moment curve, accepted, and the same with
    its last point moved onto a line through two earlier ones (onto point 0
    when n = 2), rejected. n = dim - 1 leaves P one later row, dim two,
    dim + 1 three, and dim + 2 is the first n with two prefixes P."""
    cases = []
    for dim in range(2, 6):
        for n in range(dim - 1, dim + 3):
            coords = moment_curve(n, dim)
            cases.append((dim, coords, True))
            if n >= 2:
                last = tuple(F(x + y, 2) for x, y in zip(coords[0], coords[n - 2]))
                cases.append((dim, coords[:-1] + [last], False))
    return cases


LINE3 = PointSet(dim=1, points=pts((0,), (1,), (2,)))
XOR = PointSet(dim=2, points=pts((0, 0), (1, 1), (0, 1), (1, 0)))
# the points lift with different factors k: 1, 2, 3, 12, 5, 4, 12
MIXED = PointSet(
    dim=2,
    points=pts(
        (0, 0), ("1/2", 3), (2, "-1/3"), ("5/6", "1/4"), ("-7/5", 1),
        ("3/4", -2), ("1/12", "5/3"),
    ),
)


def lp_counters(monkeypatch):
    """Live counts of the work done through shatterbound.rational_lp: calls
    of Tableau.solve (cold and warm) and copy, pivots, and rows rewritten
    summed over all pivots (every row but the pivot row)."""
    import shatterbound.rational_lp as lp

    calls = {"solve": 0, "copy": 0, "pivot": 0, "rows": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    pivot_fn = lp._pivot

    def pivot(t, r, c):
        calls["pivot"] += 1
        calls["rows"] += len(t.rows) - 1
        return pivot_fn(t, r, c)

    for method in ("solve", "copy"):
        fn = getattr(lp.Tableau, method)
        monkeypatch.setattr(lp.Tableau, method, counted(method, fn))
    monkeypatch.setattr(lp, "_pivot", pivot)
    return calls


def proof_recorder(monkeypatch):
    """The infeasibility proofs the LP checks, in order, live through
    shatterbound.oracle: one (support mask, plus bits, last point) triple
    per proof, the last point being the highest index its tableau holds."""
    seen = []
    support = om._proof_support

    def recorded(y, plus, lifted):
        supp = support(y, plus, lifted)
        seen.append((supp, plus, len(lifted) - 1))
        return supp

    monkeypatch.setattr(om, "_proof_support", recorded)
    return seen


def walk_counters(monkeypatch, *more):
    """Live counts of the subset walk's work through shatterbound.oracle:
    row eliminations (_extend) and dot products (_side), and the calls of
    any functions named in ``more``."""
    calls = dict.fromkeys(("_side", "_extend") + more, 0)

    def counted(name):
        fn = getattr(om, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(om, name, wrapper)

    for name in calls:
        counted(name)
    return calls


def brute_force_masks(ps):
    """Labelings of ps that the cold is_separable certifies, one solve each,
    as plus-bit masks; every certificate must lie on the L1 sphere
    sum |w_j| + |b| = 1."""
    masks = set()
    for labels in itertools.product((1, -1), repeat=len(ps)):
        cert = is_separable(ps, labels)
        if cert is not None:
            assert sum(abs(wi) for wi in cert.w) + abs(cert.b) == 1
            masks.add(sum(1 << i for i, lab in enumerate(labels) if lab > 0))
    return masks


def mask_count(ps):
    return len(separable_masks(ps))


# the LP enumeration and the mask oracle, for tests that hold both to one value
BOTH_ORACLES = pytest.mark.parametrize(
    "count", [count_dichotomies, mask_count], ids=["lp", "masks"]
)


@st.composite
def small_general_position(draw):
    """Up to 8 points with small integer coordinates in dimension 1 to 3,
    drawn until they are in general position."""
    h, n = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    coords = draw(
        st.lists(
            st.tuples(*[st.integers(-6, 6)] * h), min_size=n, max_size=n, unique=True
        )
    )
    ps = PointSet(dim=h, points=pts(*coords))
    assume(om._in_general_position(ps.lifted, h))
    return ps


@st.composite
def wide_sets(draw):
    """Up to 7 points in dimension 2 to 4 with coordinates a / b, |a| up to
    10^6 and b up to 10^3; in about two draws of three one point is a copy
    of an earlier one or lies on a line through two others."""
    dim, n = draw(st.integers(2, 4)), draw(st.integers(1, 7))
    coord = st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**3))
    point = st.tuples(*[coord] * dim)
    kind = draw(st.sampled_from(("general", "copy", "line")))
    if kind == "copy" and n >= 2:
        coords = draw(st.lists(point, min_size=n - 1, max_size=n - 1))
        extra = draw(st.sampled_from(coords))
    elif kind == "line" and n >= 3:
        coords = draw(st.lists(point, min_size=n - 1, max_size=n - 1))
        i, j = draw(st.permutations(range(n - 1)))[:2]
        t = draw(coord)
        extra = tuple(a + t * (b - a) for a, b in zip(coords[i], coords[j]))
    else:
        return dim, draw(st.lists(point, min_size=n, max_size=n))
    coords.insert(draw(st.integers(0, n - 1)), extra)
    return dim, coords


@st.composite
def small_rational_sets(draw):
    """1 to 10 points in dimension 1 to 5 with coordinates a / b, |a| <= 5
    and b in {1, 2, 3}, as Fractions, with no assumption on their position:
    about a third of the sets are not in general position."""
    h, n = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    coord = st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3)))
    return h, draw(st.lists(st.tuples(*[coord] * h), min_size=n, max_size=n))


BIG = 2**53
HUGE = 10**200


def lifts(*coords):
    return tuple(om._lift(tuple(F(x) for x in p)) for p in coords)


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@st.composite
def image_cases(draw):
    """An integer 3-vector W_y, in general, with c = 0 or with b = c = 0,
    and up to seven W_x. In about two draws of three one W_x is a nonzero
    multiple of another (parallel or antiparallel cross products) or
    another or 0 plus a multiple of W_y (a repeated or zero cross product).
    Entries are small or lie past 2^53 or near 10^200 and 10^400, where
    float ratios round together or overflow."""
    entry = st.one_of(
        st.integers(-4, 4), st.sampled_from((BIG, BIG + 1, -BIG - 3, HUGE, -HUGE * HUGE))
    )
    vector = st.tuples(entry, entry, entry)
    a, b, c = draw(vector)
    wy = draw(st.sampled_from(((a, b, c), (a, b, 0), (a, 0, 0))))
    xs = draw(st.lists(vector, max_size=6))
    kind = draw(st.sampled_from(("apart", "multiple", "along")))
    if kind == "multiple" and xs:
        t = draw(st.sampled_from((-3, -2, -1, 2, 3)))
        xs.append(tuple(t * v for v in draw(st.sampled_from(xs))))
    elif kind == "along":
        t = draw(st.integers(-2, 2))
        base = draw(st.sampled_from(xs + [(0, 0, 0)]))
        xs.append(tuple(v + t * w for v, w in zip(base, wy)))
    return wy, draw(st.permutations(xs))


def first_row_keys(rows):
    """What the position test's float filter meets on the first of three or
    more integer rows: "distinct" keys p / q, a "collision" of two keys,
    "q = 0" or "overflow"."""
    (a, b, c), rest = rows[0], rows[1:]
    try:
        keys = {(b * z - c * y) / (c * x - a * z) for x, y, z in rest}
    except ZeroDivisionError:
        return "q = 0"
    except OverflowError:
        return "overflow"
    return "distinct" if len(keys) == len(rest) else "collision"


def flat_keys(wy, rest):
    """What the mask oracle's angular order meets at a flat whose last point
    projects to wy = (a, b, c): "c = 0" or "b = c = 0" when W_y has those
    zeros, and otherwise what the float keys p / -q of the other points'
    images meet, named as in first_row_keys."""
    a, b, c = wy
    if not c:
        return "c = 0" if b else "b = c = 0"
    try:
        keys = {(b * z - c * y) / (a * z - c * x) for _, x, y, z in rest}
    except ZeroDivisionError:
        return "q = 0"
    except OverflowError:
        return "overflow"
    return "distinct" if len(keys) == len(rest) else "collision"


def swept_flats(monkeypatch):
    """flat_keys of every flat that the mask oracle sweeps, live through
    shatterbound.oracle."""
    seen = []
    cells = om._cells

    def recorded(wy, rest):
        seen.append(flat_keys(wy, rest))
        return cells(wy, rest)

    monkeypatch.setattr(om, "_cells", recorded)
    return seen


def swept_rests(monkeypatch):
    """For every flat that the mask oracle sweeps, live through
    shatterbound.oracle, the mask of the points in _cells' ``rest``: the
    flat is the other points."""
    rests = []
    cells = om._cells

    def recorded(wy, rest):
        rests.append(sum(bit for bit, *_ in rest))
        return cells(wy, rest)

    monkeypatch.setattr(om, "_cells", recorded)
    return rests


class TestPointSet:
    """A PointSet holds any configuration; the position test,
    _in_general_position on its lifted rows, accepts or rejects it."""

    def test_rejects_duplicates(self):
        ps = PointSet(dim=2, points=pts((0, 0), (0, 0), (1, 2)))
        assert not om._in_general_position(ps.lifted, 2)

    def test_rejects_collinear_triple_in_the_plane(self):
        for coords in (
            ((0, 0), (1, 1), (2, 2), (5, 0)),
            (("1/2", "1/2"), (1, 1), ("3/2", "3/2"), (5, 0)),
        ):
            ps = PointSet(dim=2, points=pts(*coords))
            assert not om._in_general_position(ps.lifted, 2)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            PointSet(dim=2, points=pts((0, 0), (1,)))

    def test_rejects_dimension_zero_and_no_points(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            PointSet(dim=0, points=[()])
        with pytest.raises(ValueError, match="must be nonempty"):
            PointSet(dim=2, points=())

    def test_coerces_to_fractions(self):
        ps = PointSet(dim=1, points=((0,), (3,)))
        assert ps.points == ((F(0),), (F(3),))

    def test_single_point_is_fine(self):
        assert len(PointSet(dim=3, points=pts((1, 2, 3)))) == 1

    def test_rational_coordinates_allowed(self):
        ps = PointSet(dim=2, points=pts(("1/2", 0), (0, "2/3"), (4, 5)))
        assert ps.points[0][0] == F(1, 2)

    def test_construction_runs_no_position_test(self, monkeypatch):
        # a set rebuilt from known points, and a dependent one, are held as
        # they are: coercion and lifting are the whole cost
        calls = walk_counters(monkeypatch, "_in_general_position")
        known = PointSet(dim=3, points=generate_general_position(18, 3, 0).points)
        calls.update(dict.fromkeys(calls, 0))
        rebuilt = PointSet(dim=3, points=known.points)
        line = PointSet(dim=2, points=pts((0, 0), (1, 1), (2, 2), (2, 2)))
        assert rebuilt == known and len(line) == 4
        assert calls == {"_side": 0, "_extend": 0, "_in_general_position": 0}

    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.lists(
                    st.lists(
                        st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2, 3))),
                        min_size=dim,
                        max_size=dim,
                    ),
                    min_size=1,
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_accepts_iff_every_subset_has_nonzero_gram_determinant(self, case):
        # rows (x, 1) are independent iff their Gram matrix R R^T is
        # nonsingular; its determinant by permutation expansion, over Fractions
        dim, coords = case

        def gram_det(rows):
            g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
            total = F(0)
            for perm in itertools.permutations(range(len(g))):
                inversions = sum(
                    perm[i] > perm[j]
                    for i, j in itertools.combinations(range(len(perm)), 2)
                )
                term = F(-1) ** inversions
                for i, j in enumerate(perm):
                    term *= g[i][j]
                total += term
            return total

        rows = [list(p) + [F(1)] for p in coords]
        m = min(dim + 1, len(rows))
        expect = all(
            gram_det(subset) != 0 for subset in itertools.combinations(rows, m)
        )
        ps = PointSet(dim=dim, points=tuple(map(tuple, coords)))
        assert om._in_general_position(ps.lifted, dim) == expect

    @given(
        st.lists(
            st.lists(
                st.builds(F, st.integers(-1, 1), st.sampled_from((1, 2))),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_accepts_iff_every_subset_is_independent_in_four_dimensions(self, coords):
        # the generator's largest dimension; the reference takes each Gram
        # matrix's rank by Gaussian elimination over Fractions
        rows = [list(p) + [F(1)] for p in coords]
        m = min(5, len(rows))
        expect = all(
            gram_rank(subset) == m for subset in itertools.combinations(rows, m)
        )
        ps = PointSet(dim=4, points=tuple(map(tuple, coords)))
        assert om._in_general_position(ps.lifted, 4) == expect

    @pytest.mark.parametrize(
        "dim, coords, accepted",
        [
            # the first h points have first coordinate 0: their elimination
            # has no pivot in the leading column
            (3, [(0, 1, 2), (0, 3, -1), (0, -2, 5), (1, 1, 1), (2, -3, 7)], True),
            (2, [(0, 1), (0, 2), (0, 5), (1, 1)], False),
            # the first four lie on z = x + y, the others are general
            (
                3,
                [(1, 2, 3), (2, -1, 1), (-1, 3, 2), (4, 1, 5), (7, -2, 1), (-3, -5, 4)],
                False,
            ),
            (3, [(1, 2, 3), (2, -1, 1), (-1, 3, 2), (7, -2, 1), (-3, -5, 4)], True),
            # five points on x4 = x1 + 2 x2 - x3 + 1 among general ones
            (
                4,
                [
                    (1, 0, 0, 2), (0, 1, 0, 3), (0, 0, 1, 0), (2, 1, 1, 4),
                    (-1, 2, 3, 1), (3, -2, 5, 7), (-4, 1, -1, 6),
                ],
                False,
            ),
            (
                4,
                [
                    (1, 0, 0, 2), (0, 1, 0, 3), (0, 0, 1, 0), (2, 1, 1, 4),
                    (3, -2, 5, 7), (-4, 1, -1, 6),
                ],
                True,
            ),
            # n <= dim: the whole set must be independent
            (4, [(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 8)], False),
            (4, [(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 9)], True),
            # a collinear triple whose first point lies between the other
            # two: the later points project onto the prefix's complement in
            # opposite directions, which are parallel
            (2, [(1, 1), (0, 0), (2, 2), (5, 0)], False),
            (2, [("1/3", "1/3"), (0, 0), ("1/2", "1/2"), (5, 0)], False),
            # n == dim: only the last row is projected, and its projection
            # is zero exactly when the set is dependent
            (4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], True),
            (4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], False),
            # one dimension, lift factors 2, 3, 1 and 6; 4/8 repeats 1/2
            (1, [("1/2",), ("2/3",), (3,), ("-5/6",)], True),
            (1, [("1/2",), ("2/3",), (3,), ("-5/6",), ("4/8",)], False),
            (1, [(0,), (0,)], False),
            (1, [(7,), ("-7/3",), ("14/2",)], False),
        ]
        + room_fixtures(),
    )
    def test_degenerate_fixtures(self, dim, coords, accepted):
        rows = [[F(x) for x in p] + [F(1)] for p in coords]
        m = min(dim + 1, len(rows))
        assert accepted == all(
            gram_rank(subset) == m for subset in itertools.combinations(rows, m)
        )
        ps = PointSet(dim=dim, points=pts(*coords))
        assert om._in_general_position(ps.lifted, dim) == accepted

    @given(
        st.integers(1, 5).flatmap(
            lambda dim: st.tuples(
                st.just(dim),
                st.lists(
                    st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=9
                ),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_accepts_iff_every_subset_is_independent_on_a_small_grid(self, case):
        # coordinates in -2..2 make repeated points, collinear triples and
        # flat subsets common, in every dimension the generator supports and
        # in dimension 5
        dim, coords = case
        rows = [[F(x) for x in p] + [F(1)] for p in coords]
        m = min(dim + 1, len(rows))
        expect = all(
            gram_rank(subset) == m for subset in itertools.combinations(rows, m)
        )
        ps = PointSet(dim=dim, points=pts(*coords))
        assert om._in_general_position(ps.lifted, dim) == expect

    def test_one_elimination_per_short_prefix_and_one_projection_per_later_row(
        self, monkeypatch
    ):
        # machine-independent cost of the position test on an accepted
        # (18, 3) set: a 4-subset is a one-point prefix P = (i) and three
        # later rows, so a row elimination runs once per one-point prefix
        # with room for three later rows, i <= 14: C(15, 1) = 15. Each
        # prefix projects its 17 - i later rows with three dot products,
        # 17 + 16 + ... + 3 = 150 projections in all
        ps = generate_general_position(18, 3, 0)
        calls = walk_counters(monkeypatch)
        assert om._in_general_position(ps.lifted, 3)
        projections = sum(17 - i for i in range(15))
        assert projections == 150
        assert calls == {"_side": 3 * projections, "_extend": 15}

    def test_two_dimensions_take_the_lifted_rows_as_projections(self, monkeypatch):
        # at h = 2 the prefix is empty and u, v, w are the unit vectors, so
        # the walk eliminates nothing and the later rows are their own
        # projections
        ps = generate_general_position(14, 2, 3)
        calls = walk_counters(monkeypatch)
        assert om._in_general_position(ps.lifted, 2)
        assert calls == {"_side": 0, "_extend": 0}

    @pytest.mark.parametrize("n, h, seed", [(18, 3, 0), (12, 4, 0), (14, 2, 3)])
    def test_generated_sets_never_reach_the_exact_rule(self, monkeypatch, n, h, seed):
        # on integer coordinates in [-1000, 1000] the float keys decide
        # every row: the float filter stays the whole cost of the test
        ps = generate_general_position(n, h, seed)
        calls = walk_counters(monkeypatch, "_images", "_angles")
        assert om._in_general_position(ps.lifted, h)
        assert calls["_images"] == calls["_angles"] == 0

    @pytest.mark.parametrize(
        "coords, accepted",
        [
            ([(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 9)], True),
            ([(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 8)], False),
        ],
    )
    def test_at_most_dim_points_are_one_elimination_chain(
        self, monkeypatch, coords, accepted
    ):
        # n <= dim: the one subset is all n rows, each extending the form of
        # the rows before it; no prefix is walked and nothing is projected
        calls = walk_counters(monkeypatch, "_angles")
        assert om._in_general_position(lifts(*coords), 4) == accepted
        assert calls == {"_side": 0, "_extend": 3, "_angles": 0}

    @pytest.mark.parametrize("room", [2, 3])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_walk_yields_each_prefix_in_order_with_its_complement(self, dim, room):
        # the (dim - 2)-subsets with room rows after their last index, in
        # lexicographic order, each with integer u, v, w orthogonal to its
        # rows and spanning, with them, all dim + 1 coordinates
        n = dim + 4
        lifted = lifts(*moment_curve(n, dim))
        forms = list(om._prefix_forms(lifted, dim, room))
        expect = [
            p for p in itertools.combinations(range(n), dim - 2)
            if not p or n - 1 - p[-1] >= room
        ]
        assert [form[0] for form in forms] == expect
        for prefix, *basis in forms:
            rows = [lifted[i] for i in prefix]
            for vec in basis:
                assert all(type(x) is int for x in vec)
                assert all(sum(a * b for a, b in zip(vec, row)) == 0 for row in rows)
            assert gram_rank([[F(x) for x in r] for r in rows + basis]) == dim + 1

    def test_walk_yields_none_at_the_first_dependent_prefix(self):
        # point 2 repeats point 0, so of the prefixes (0, 1), (0, 2), (1, 2)
        # the second has dependent rows: one form, then None
        coords = moment_curve(5, 4)
        coords[2] = coords[0]
        walk = om._prefix_forms(lifts(*coords), 4, 2)
        assert next(walk)[0] == (0, 1)
        assert next(walk) is None


class TestFloatKeys:
    """The position test keys each later row's cross products by the float
    p / q and falls back to the exact rule of _angles, which the mask
    oracle's sweep shares, when the keys cannot decide.
    At dim 2 the prefix is empty and the lifted rows are the projections,
    so integer rows given to _in_general_position(rows, 2) reach the filter
    as they are; the first row (0, 0, 1), the lift of the origin, keys a
    point (x, y) by -y / x."""

    @pytest.mark.parametrize(
        "rows, branch, apart",
        [
            (lifts((0, 0), (1, 2), (3, 1)), "distinct", True),
            # 2^53 / (2^53 + 1) and (2^53 + 2) / (2^53 + 3) round to one float
            (lifts((0, 0), (BIG + 1, -BIG), (BIG + 3, -BIG - 2)), "collision", True),
            (lifts((0, 0), (BIG + 1, -BIG), (2 * BIG + 2, -2 * BIG)), "collision", False),
            (lifts((0, 0), (0, 1), (1, 0)), "q = 0", True),
            (lifts((0, 0), (0, 1), (0, 2)), "q = 0", False),
            (lifts((0, 0), (0, 0), (1, 0)), "q = 0", False),
            # a first row with c = 0: every key is 0 / -z
            (((1, 0, 0), (0, 1, 1), (0, 2, 1)), "collision", True),
            (((1, 0, 0), (0, 1, 1), (0, 2, 2)), "collision", False),
            # lifts (k, 10^400, 10^200): keys near -10^400 leave the float range
            (lifts((0, 0), (F(1, HUGE), HUGE), (F(2, HUGE), HUGE)), "overflow", True),
            (lifts((0, 0), (F(1, HUGE), HUGE), (F(2, HUGE), 2 * HUGE)), "overflow", False),
        ],
        ids=[
            "distinct", "collision-apart", "collision-parallel", "q0-apart",
            "q0-parallel", "q0-repeated", "c0-apart", "c0-parallel", "overflow-apart",
            "overflow-parallel",
        ],
    )
    def test_every_branch_decides_exactly(self, rows, branch, apart):
        assert first_row_keys(rows) == branch
        exact = [[F(v) for v in y] for y in rows]
        assert apart == all(
            gram_rank(subset) == 3 for subset in itertools.combinations(exact, 3)
        )
        assert om._in_general_position(rows, 2) == apart

    @pytest.mark.parametrize(
        "coords, accepted",
        [
            ([(1, 0, 0), (1, 1, 0), (-2, 1, 3), (3, 3, -3), (-1, -3, 0)], True),
            # the last point is p0 + p2 - p1, in the plane of the first three
            ([(1, 0, 0), (1, 1, 0), (-2, 1, 3), (3, 3, -3), (-2, 0, 3)], False),
        ],
    )
    def test_a_projection_with_c_zero(self, monkeypatch, coords, accepted):
        # the prefix (1, 0, 0) projects an integer point y to
        # (y2, y3, 1 - y1), so (1, 1, 0) projects to (1, 0, 0), the first
        # later row, whose float keys 0 / -z all tie: the exact rule decides it
        seen = []
        images = om._images

        def recorded(wy, rest):
            seen.append(wy)
            return images(wy, rest)

        monkeypatch.setattr(om, "_images", recorded)
        rows = [[F(x) for x in p] + [F(1)] for p in coords]
        assert accepted == all(
            gram_rank(subset) == 4 for subset in itertools.combinations(rows, 4)
        )
        assert om._in_general_position(lifts(*coords), 3) == accepted
        assert seen[0] == (1, 0, 0)

    @given(image_cases())
    @settings(max_examples=400, deadline=None)
    def test_the_exact_rule_against_brute_force(self, case):
        # _angles(_images(W_y, rest)) is None exactly when some W_y x W_x is
        # zero or two are parallel; otherwise it keys every image, and its
        # sorted keys give the images in strict angular order from angle 0,
        # judged by 2-D cross products of the images turned into the
        # half-plane q > 0 or q = 0 < p. Every 2-D cross product also has the
        # sign of the 3-D triple product W_y . (C_i x C_j), up to one sign
        # per W_y
        wy, xs = case
        crosses = [cross(wy, x) for x in xs]
        degenerate = any(c == (0, 0, 0) for c in crosses) or any(
            cross(c, d) == (0, 0, 0) for c, d in itertools.combinations(crosses, 2)
        )
        lines = om._images(wy, [(1 << i, *x) for i, x in enumerate(xs)])
        keyed = om._angles(lines)
        assert (keyed is None) == degenerate
        if keyed is None:
            return
        assert sorted(keyed.values()) == [1 << i for i in range(len(xs))]
        images = [(p, -nq) for p, nq, _ in lines]
        upper = [
            (p, q) if q > 0 or q == 0 and p > 0 else (-p, -q)
            for p, q in (images[keyed[k].bit_length() - 1] for k in sorted(keyed))
        ]
        assert all(p * s - q * r > 0 for (p, q), (r, s) in zip(upper, upper[1:]))
        orientation = {
            (p * s - q * r > 0) == (sum(map(math.prod, zip(wy, cross(ci, cj)))) > 0)
            for ((p, q), ci), ((r, s), cj) in itertools.combinations(
                zip(images, crosses), 2
            )
        }
        assert len(orientation) <= 1

    @given(wide_sets())
    @settings(max_examples=300, deadline=None)
    def test_accepts_iff_every_subset_is_independent_on_wide_coordinates(self, case):
        # numerators up to 10^6 over denominators up to 10^3: a float
        # collision between keys is no longer a sign of a parallel pair
        dim, coords = case
        rows = [list(p) + [F(1)] for p in coords]
        m = min(dim + 1, len(rows))
        expect = all(
            gram_rank(subset) == m for subset in itertools.combinations(rows, m)
        )
        ps = PointSet(dim=dim, points=coords)
        assert om._in_general_position(ps.lifted, dim) == expect


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_general_position(5, 2, 42)
        b = generate_general_position(5, 2, 42)
        assert a.points == b.points
        assert a.seed == 42
        assert generate_general_position(5, 2, 43).points != a.points

    def test_no_three_collinear(self):
        ps = generate_general_position(5, 2, 42)
        p = ps.points
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    (x1, y1), (x2, y2), (x3, y3) = p[i], p[j], p[k]
                    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
                    assert det != 0

    def test_one_dimension_means_distinct_scalars(self):
        ps = generate_general_position(3, 1, 7)
        vals = [p[0] for p in ps.points]
        assert len(set(vals)) == 3

    def test_resamples_are_pinned_on_real_draws(self):
        # every redraw is decided by the position test, so a test that
        # accepts or rejects differently on generated sets moves these
        resampled = {
            s: generate_general_position(20, 1, s).resamples for s in range(60)
        }
        assert {s: r for s, r in resampled.items() if r} == {
            20: 1, 21: 1, 25: 1, 31: 1, 35: 1, 44: 1, 50: 2, 51: 1, 59: 1,
        }
        for n, h in ((18, 3), (12, 4)):
            for seed in range(10):
                assert generate_general_position(n, h, seed).resamples == 0

    def test_single_point(self):
        ps = generate_general_position(1, 2, 3)
        assert len(ps) == 1

    def test_rejects_no_points(self):
        with pytest.raises(ValueError, match="need at least one point"):
            generate_general_position(0, 2, 0)

    def test_coordinates_in_declared_range(self):
        ps = generate_general_position(8, 3, 9)
        assert all(-1000 <= x <= 1000 for p in ps.points for x in p)

    def test_rejects_out_of_range_dimension(self):
        with pytest.raises(ValueError):
            generate_general_position(4, 5, 0)
        with pytest.raises(ValueError):
            generate_general_position(4, 0, 0)

    @pytest.mark.parametrize("n, h, seed, resamples", [(20, 1, 50, 2), (18, 3, 0, 0)])
    def test_one_position_test_per_draw(self, monkeypatch, n, h, seed, resamples):
        calls = walk_counters(monkeypatch, "_in_general_position")
        assert generate_general_position(n, h, seed).resamples == resamples
        assert calls["_in_general_position"] == resamples + 1


class TestSeparability:
    def test_line_alternation_is_infeasible(self):
        assert is_separable(LINE3, (1, -1, 1)) is None

    def test_line_threshold_is_feasible(self):
        cert = is_separable(LINE3, (1, 1, -1))
        assert cert is not None
        assert cert.margin > 0

    def test_xor_is_infeasible(self):
        assert is_separable(XOR, (1, 1, -1, -1)) is None

    def test_constant_labelings_always_separable(self):
        for ps in (LINE3, XOR):
            n = len(ps)
            assert is_separable(ps, (1,) * n) is not None
            assert is_separable(ps, (-1,) * n) is not None

    def test_certificate_is_sound_and_boxed(self):
        ps = generate_general_position(6, 2, 3)
        d = (1, 1, -1, 1, -1, -1)
        cert = is_separable(ps, d)
        assert cert is not None
        assert all(abs(wi) <= 1 for wi in cert.w)
        assert abs(cert.b) <= 1
        assert sum(abs(wi) for wi in cert.w) + abs(cert.b) == 1
        for pt, lab in zip(ps.points, d):
            assert lab * cert.side(pt) >= cert.margin > 0
        # the margin is the plane's own, attained at some point
        assert min(lab * cert.side(pt) for pt, lab in zip(ps.points, d)) == cert.margin

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            is_separable(LINE3, (1, -1))

    def test_dichotomy_validates_labels(self):
        with pytest.raises(ValueError, match=r"-1 or \+1"):
            is_separable(LINE3, (1, 0, -1))

    def test_revalidates_the_plane_it_returns(self, monkeypatch):
        # a tableau whose point fails the system must not become a
        # certificate: w = 0, b = 1 puts both points on the + side; the
        # check is an exception, so it holds under python -O
        import shatterbound.rational_lp as lp

        monkeypatch.setattr(lp.Tableau, "point", lambda self: [0, 1])
        ps = PointSet(dim=1, points=[(0,), (1,)])
        with pytest.raises(RuntimeError, match="feasible plane"):
            is_separable(ps, (1, -1))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_negation_symmetry(self, seed, n):
        ps = generate_general_position(n, 2, seed)
        rng = random.Random(seed ^ 0xA5A5)
        d = tuple(rng.choice((-1, 1)) for _ in range(n))
        a = is_separable(ps, d)
        b = is_separable(ps, tuple(-l for l in d))
        assert (a is None) == (b is None)


class TestCountDichotomies:
    def test_three_collinearish_points_on_a_line(self):
        assert count_dichotomies(LINE3) == 6

    def test_saturation_below_dimension(self):
        ps = generate_general_position(3, 2, 1)
        assert count_dichotomies(ps) == 8

    def test_four_points_plane(self):
        ps = generate_general_position(4, 2, 7)
        assert count_dichotomies(ps) == 14

    def test_five_points_plane(self):
        ps = generate_general_position(5, 2, 7)
        assert count_dichotomies(ps) == 22

    def test_count_is_even(self):
        for seed in (1, 2, 3):
            ps = generate_general_position(6, 2, seed)
            assert count_dichotomies(ps) % 2 == 0

    @BOTH_ORACLES
    def test_enumeration_guard(self, count):
        ps = PointSet(dim=1, points=tuple((F(i),) for i in range(21)))
        with pytest.raises(ValueError, match="guard"):
            count(ps)

    @BOTH_ORACLES
    def test_invariant_under_point_order(self, count):
        ps = generate_general_position(7, 2, 21)
        shuffled = list(ps.points)
        random.Random(0).shuffle(shuffled)
        ps2 = PointSet(dim=2, points=tuple(shuffled))
        assert count(ps2) == count(ps)

    @BOTH_ORACLES
    def test_invariant_under_unimodular_affine_maps(self, count):
        ps = generate_general_position(6, 2, 17)
        expect = count(ps)
        maps = [
            ((F(1), F(0)), (F(3), F(1))),   # shear
            ((F(0), F(1)), (F(-1), F(0))),  # rotation by 90 degrees
            ((F(2), F(1)), (F(1), F(1))),   # det 1
        ]
        for m in maps:
            moved = tuple(
                (
                    m[0][0] * x + m[0][1] * y + 7,
                    m[1][0] * x + m[1][1] * y - F(5, 3),
                )
                for x, y in ps.points
            )
            ps2 = PointSet(dim=2, points=moved)
            assert count(ps2) == expect

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_matches_formula_on_random_sets(self, seed):
        ps = generate_general_position(7, 2, seed)
        assert count_dichotomies(ps) == shatter_multi(7, HypothesisSpec(2))

    @BOTH_ORACLES
    def test_matches_formula_with_mixed_denominators(self, count):
        assert sorted({row[-1] for row in MIXED.lifted}) == [1, 2, 3, 4, 5, 12]
        assert count(MIXED) == shatter_multi(7, HypothesisSpec(2))

    def test_matches_formula_at_twelve_points(self):
        ps = generate_general_position(12, 3, 5)
        assert count_dichotomies(ps) == shatter_multi(12, HypothesisSpec(3))

    def test_matches_formula_at_sixteen_points(self):
        ps = generate_general_position(16, 3, 0)
        assert count_dichotomies(ps) == shatter_multi(16, HypothesisSpec(3))

    def test_each_decision_is_one_copy_and_one_warm_solve(self, monkeypatch):
        # machine-independent cost of the (12, 3, seed 5) count, pinned
        # exactly so that any change to the pivot path shows. Past the cold
        # root solve, each separable prefix of 1..11 labels (labels[0] = +1)
        # has two children, and each child is one copy and one warm solve;
        # the children that are not separable prefixes end in a proof
        calls = lp_counters(monkeypatch)
        proofs = proof_recorder(monkeypatch)
        ps = generate_general_position(12, 3, 5)
        assert count_dichotomies(ps) == 464
        half = [shatter_multi(k, HypothesisSpec(3)) // 2 for k in range(1, 13)]
        decisions = sum(half[:-1])
        assert decisions == 561
        assert calls == {"solve": 1123, "copy": 1122, "pivot": 808, "rows": 7375}
        assert calls["solve"] == calls["copy"] + 1 == 2 * decisions + 1
        assert len(proofs) == 2 * decisions - sum(half[1:]) == 330

    @pytest.mark.parametrize(
        ("n", "h", "seed", "count"),
        [(12, 3, 5, 464), (16, 3, 0, 1152)],
        ids=["12-3-5", "16-3-0"],
    )
    def test_counts_without_the_subset_walk(self, n, h, seed, count, monkeypatch):
        # the two oracles share only the point set: with the walk, its
        # projections and the mask oracle gone, the LP count stands
        ps = generate_general_position(n, h, seed)  # the position test walks first

        def walk(*args):
            raise AssertionError("the LP oracle ran the subset walk")

        for name in ("_side", "_prefix_forms", "separable_masks"):
            monkeypatch.setattr(om, name, walk)
        assert count_dichotomies(ps) == count

    @given(wide_sets())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_mask_oracle_on_wide_coordinates(self, case):
        dim, coords = case
        ps = PointSet(dim=dim, points=coords)
        assume(om._in_general_position(ps.lifted, dim))
        assert count_dichotomies(ps) == len(separable_masks(ps))

    @given(small_general_position())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_small_sets(self, ps):
        assert count_dichotomies(ps) == len(brute_force_masks(ps))

    @pytest.mark.parametrize(
        "ps",
        [MIXED, generate_general_position(8, 4, 2)],
        ids=["mixed-denominators", "8-points-dim-4"],
    )
    def test_matches_brute_force_on_fixed_sets(self, ps):
        assert count_dichotomies(ps) == len(brute_force_masks(ps))


@st.composite
def line_sets(draw):
    """1 to 10 points a + t * d on one line in dimension 1 to 4, with
    integer a, d != 0 and t in -4..4: repeated points are common. Returns
    (dim, points, number of distinct t)."""
    dim = draw(st.integers(1, 4))
    base = draw(st.tuples(*[st.integers(-5, 5)] * dim))
    d = draw(st.tuples(*[st.integers(-3, 3)] * dim).filter(any))
    ts = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=10))
    points = [tuple(a + t * b for a, b in zip(base, d)) for t in ts]
    return dim, points, len(set(ts))


@st.composite
def small_grid_sets(draw, max_size=9):
    """1 to max_size points in dimension 1 to 3 with coordinates in -2..2,
    as a PointSet: repeated, collinear and coplanar points are common."""
    dim = draw(st.integers(1, 3))
    coords = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=max_size)
    )
    return PointSet(dim=dim, points=coords)


class TestDegenerateSets:
    """The formula is the coefficient N(F, n), a maximum over samples; the
    LP oracle counts sets in any position, so the samples below it show."""

    @pytest.mark.parametrize(
        "sizes, count, formula",
        [((3, 3), 58, 74), ((4, 3), 100, 134), ((2, 2, 3), 298, 464)],
        ids=["3x3", "4x3", "2x2x3"],
    )
    def test_grids(self, sizes, count, formula):
        box = itertools.product(*(range(k) for k in sizes))
        ps = PointSet(dim=len(sizes), points=tuple(box))
        assert not om._in_general_position(ps.lifted, ps.dim)
        assert count_dichotomies(ps) == count
        assert shatter_multi(len(ps), HypothesisSpec(ps.dim)) == formula

    def test_a_repeated_point_counts_once(self):
        # six points in general position and a copy of one: a copy takes
        # its original's label in every separable labeling, so the count is
        # the n = 6 formula
        points = generate_general_position(6, 2, 0).points
        ps = PointSet(dim=2, points=points + (points[3],))
        assert count_dichotomies(ps) == shatter_multi(6, HypothesisSpec(2)) == 32

    @given(line_sets())
    @settings(max_examples=300, deadline=None)
    def test_points_on_a_line_count_two_per_distinct_point(self, case):
        # the planes meet a line in the thresholds between its distinct
        # points: each cut, either way round
        dim, points, distinct = case
        assert count_dichotomies(PointSet(dim=dim, points=points)) == 2 * distinct

    @given(small_grid_sets())
    @settings(max_examples=600, deadline=None)
    def test_never_above_the_formula_and_equal_in_general_position(self, ps):
        formula = shatter_multi(len(ps), HypothesisSpec(ps.dim))
        count = count_dichotomies(ps)
        assert count <= formula
        if om._in_general_position(ps.lifted, ps.dim):
            assert count == formula == len(separable_masks(ps))
        else:
            with pytest.raises(ValueError, match="not in general position"):
                separable_masks(ps)

    @given(small_grid_sets(max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_dependent_sets(self, ps):
        assume(not om._in_general_position(ps.lifted, ps.dim))
        assert count_dichotomies(ps) == len(brute_force_masks(ps))

    def test_a_conic_lowers_the_dimension_of_the_image(self):
        # ten points of x^2 + y^2 = 25 mapped by (x, y, x^2, xy, y^2) lie in
        # the hyperplane x3 + x5 = 25 of R^5, and count the h = 4 formula,
        # not the h = 5 one: the h that counts is the affine dimension of
        # the image. Dropping y^2 maps them into R^4 in general position
        circle = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
        ten = [p for p in circle if p[0]]
        assert len(circle) == 12 and len(ten) == 10
        ps = PointSet(dim=5, points=[(x, y, x * x, x * y, y * y) for x, y in ten])
        assert not om._in_general_position(ps.lifted, 5)
        count = count_dichotomies(ps)
        assert count == shatter_multi(10, HypothesisSpec(4)) == 512
        assert count < shatter_multi(10, HypothesisSpec(5)) == 764
        flat = PointSet(dim=4, points=[p[:4] for p in ps.points])
        assert len(separable_masks(flat)) == count


class TestSeparableMasks:
    @pytest.mark.parametrize(
        "ps",
        [
            generate_general_position(1, 1, 0),
            generate_general_position(2, 1, 0),
            generate_general_position(9, 1, 2),
            generate_general_position(12, 1, 0),
            generate_general_position(3, 2, 0),
            generate_general_position(7, 2, 0),
            generate_general_position(8, 2, 13),
            XOR,
            MIXED,
            generate_general_position(2, 3, 1),
            generate_general_position(10, 3, 1),
            generate_general_position(5, 4, 0),
            generate_general_position(6, 4, 1),
            generate_general_position(10, 4, 3),
        ],
        ids=[
            "1-1-0", "2-1-0", "9-1-2", "12-1-0", "3-2-0", "7-2-0", "8-2-13", "xor",
            "mixed-denominators", "2-3-1", "10-3-1", "5-4-0", "6-4-1", "10-4-3",
        ],
    )
    def test_matches_brute_force_on_small_cells(self, ps):
        # the labeling sets themselves, not only their sizes; n <= h + 1 at
        # 1-1-0, 2-1-0, 3-2-0, 2-3-1 and 5-4-0
        assert separable_masks(ps) == brute_force_masks(ps)

    @given(small_general_position())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_small_sets(self, ps):
        assert separable_masks(ps) == brute_force_masks(ps)

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts_match_the_lp_oracle(self, n, h):
        for seed in range(3):
            ps = generate_general_position(n, h, seed)
            assert mask_count(ps) == count_dichotomies(ps)

    @pytest.mark.parametrize("n", [10, 14])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_moment_curve_past_the_generator(self, n, dim):
        # the generator stops at h = 4; the moment curve is in general
        # position in every dimension
        ps = PointSet(dim=dim, points=moment_curve(n, dim))
        count = len(separable_masks(ps))
        assert count == shatter_multi(n, HypothesisSpec(dim))
        if n == 10:
            assert count == count_dichotomies(ps)

    @pytest.mark.parametrize("seed", range(6))
    def test_quadratic_features_of_plane_points(self, seed):
        # (x, y) -> (x, y, x^2, xy, y^2): the images of ten random integer
        # points of the plane are in general position in R^5, and their
        # count is the h = 5 formula
        rng = random.Random(seed)
        plane = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(10)]
        ps = PointSet(dim=5, points=[(x, y, x * x, x * y, y * y) for x, y in plane])
        count = len(separable_masks(ps))
        assert count == shatter_multi(10, HypothesisSpec(5)) == 764
        assert count == count_dichotomies(ps)

    def test_one_elimination_per_short_prefix_and_one_projection_per_outside_row(
        self, monkeypatch
    ):
        # machine-independent cost of the (18, 3) masks: every 3-subset S is
        # P + {y, z} with y < z after P's one index, so a prefix needs two
        # rows after it. A row elimination runs once per one-point prefix
        # with that room, C(16, 1) = 16, and each of the 16 prefixes
        # projects the 17 rows outside it with three dot products each,
        # 272 projections in all. Each prefix {i} sweeps one angular order
        # per flat {i, y}, y an even distance after i: the pairs of equal
        # parity among 0..17, 2 * C(9, 2) = 72 in all
        ps = generate_general_position(18, 3, 0)
        calls = walk_counters(monkeypatch, "_cells")
        assert len(separable_masks(ps)) == shatter_multi(18, HypothesisSpec(3))
        projections = 16 * 17
        assert projections == 272
        assert calls == {"_side": 3 * projections, "_extend": 16, "_cells": 72}

    def test_two_dimensions_take_the_lifted_rows_as_projections(self, monkeypatch):
        # one angular order per point but the last, at the flat {y}
        ps = generate_general_position(14, 2, 3)
        calls = walk_counters(monkeypatch, "_cells")
        assert len(separable_masks(ps)) == shatter_multi(14, HypothesisSpec(2))
        assert calls == {"_side": 0, "_extend": 0, "_cells": 13}

    def test_one_angular_order_per_flat(self, monkeypatch):
        # (12, 3): the prefixes {i}, i <= 9, each project the 11 rows outside
        # them and sweep the flats {i, y}, y - i = 2, 4, ...: the pairs of
        # equal parity among 0..11, 2 * C(6, 2) = 30
        ps = generate_general_position(12, 3, 5)
        calls = walk_counters(monkeypatch, "_cells")
        assert len(separable_masks(ps)) == shatter_multi(12, HypothesisSpec(3))
        assert calls == {"_side": 3 * 10 * 11, "_extend": 10, "_cells": 30}

    def test_one_angular_order_per_flat_in_four_dimensions(self, monkeypatch):
        # (12, 4): the prefixes {i, k}, k <= 9, are C(10, 2) = 45, reached by
        # 9 + 45 eliminations, and each projects the 10 rows outside it.
        # {i, k} sweeps the flats {i, k, y}, y - k = 2, 4, ... up to 11:
        # sum_k k * floor((11 - k) / 2) = 5 + 8 + 12 + 12 + 15 + 12 + 14 + 8
        # + 9 = 95
        ps = generate_general_position(12, 4, 0)
        calls = walk_counters(monkeypatch, "_cells")
        assert len(separable_masks(ps)) == shatter_multi(12, HypothesisSpec(4))
        assert calls == {"_side": 3 * 45 * 10, "_extend": 9 + 45, "_cells": 95}

    def test_one_angular_order_per_flat_in_five_dimensions(self, monkeypatch):
        # the dim-5 moment curve at n = 12: the prefixes {a, b, c}, c <= 9,
        # are C(10, 3) = 120, reached by 8 + 36 + 120 eliminations, and each
        # projects the 9 rows outside it. The flats {a, b, c, y}, y - c even:
        # sum_c C(c, 2) * floor((11 - c) / 2) = 4 + 12 + 18 + 30 + 30 + 42
        # + 28 + 36 = 200
        ps = PointSet(dim=5, points=moment_curve(12, 5))
        calls = walk_counters(monkeypatch, "_cells")
        assert len(separable_masks(ps)) == shatter_multi(12, HypothesisSpec(5))
        assert calls == {"_side": 3 * 120 * 9, "_extend": 8 + 36 + 120, "_cells": 200}

    @pytest.mark.parametrize(
        "dim, n",
        [(2, n) for n in range(4, 21)]
        + [(3, n) for n in range(5, 21)]
        + [(4, n) for n in range(6, 21)]
        + [(5, n) for n in range(7, 15)],
    )
    def test_every_subset_of_h_points_contains_a_swept_flat(self, monkeypatch, dim, n):
        # the planes through h points are read from the flats swept, so each
        # h-subset must contain one; generated sets at h = 2..4 and the
        # moment curve at h = 5
        rests = swept_rests(monkeypatch)
        if dim == 5:
            ps = PointSet(dim=5, points=moment_curve(n, 5))
        else:
            ps = generate_general_position(n, dim, n)
        separable_masks(ps)
        swept = {(1 << n) - 1 ^ rest for rest in rests}
        assert all(flat.bit_count() == dim - 1 for flat in swept)
        for subset in itertools.combinations(range(n), dim):
            s = sum(1 << i for i in subset)
            assert any(s ^ 1 << i in swept for i in subset), subset

    @pytest.mark.parametrize(
        "dim, coords, branch",
        [
            # from the origin, 2^53 / (2^53 + 1) and (2^53 + 2) / (2^53 + 3)
            # round to one float key, and the first of the two comes second
            (2, [(0, 0), (BIG + 1, -BIG), (BIG + 3, -BIG - 2), (1, 5), (-2, 7)], "collision"),
            # images with q = 0: (0, 3) seen from the origin, with p < 0, and
            # (1, -2) seen from (1, 1), with p > 0
            (2, [(0, 0), (0, 3), (1, 1), (1, -2), (-2, 5)], "q = 0"),
            # lifts (1, 10^400, 10^200) and (2, 10^400, 10^200): seen from the
            # origin, their keys 10^400 and 10^400 / 2 leave the float range
            (2, [(0, 0), (F(1, HUGE), HUGE), (F(2, HUGE), HUGE), (1, 2), (-3, 1)], "overflow"),
            # the prefix (1, 0, 0) projects an integer point y to
            # (y2, y3, 1 - y1): (1, 2, 3) to (2, 3, 0), (1, 1, 0) to (1, 0, 0),
            # each as the last point of the swept flat {0, 2}
            (3, [(1, 0, 0), (-2, 1, 3), (1, 2, 3), (3, 3, -3), (-1, -3, 0), (2, -1, 1)], "c = 0"),
            (3, [(1, 0, 0), (-2, 1, 3), (1, 1, 0), (3, 3, -3), (-1, -3, 0), (2, -1, 1)], "b = c = 0"),
        ],
        ids=["collision", "q0", "overflow", "c0", "b0-c0"],
    )
    def test_every_branch_of_the_angular_order(self, monkeypatch, dim, coords, branch):
        flats = swept_flats(monkeypatch)
        ps = PointSet(dim=dim, points=coords)
        assert separable_masks(ps) == brute_force_masks(ps)
        assert branch in flats

    @given(wide_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_wide_coordinates(self, case):
        dim, coords = case
        ps = PointSet(dim=dim, points=coords)
        assume(om._in_general_position(ps.lifted, dim))
        assert separable_masks(ps) == brute_force_masks(ps)

    @given(small_rational_sets())
    # the walk's own rejection, at the first prefix: a repeated point at
    # h = 4 and three collinear points at h = 5
    @example((4, pts((1, 2, 3, 4), (1, 2, 3, 4), *moment_curve(5, 4))))
    @example((5, pts(*[(i, 2 * i, 3 * i, 4 * i, 5 * i) for i in range(3)],
                     *moment_curve(7, 5)[3:])))
    # in one dimension: a rational repeated as 1/2 and 2/4, a point at 0, and
    # 1 beside 1 + 10^-20, whose float keys tie and the exact rule separates
    @example((1, ((F(1, 2),), (F(3),), (F(2, 4),))))
    @example((1, pts((2,), (0,), (-1,))))
    @example((1, ((F(1),), (1 + F(1, 10**20),), (F(-3),), (F(7, 2),))))
    @settings(max_examples=150, deadline=None)
    def test_the_sweep_decides_general_position(self, case):
        # the sweep is None exactly on the sets the position test rejects,
        # and otherwise gives the masks of the set as a PointSet; in one
        # dimension those are the 2n thresholds of the sorted points
        h, points = case
        lifted = [om._lift(p) for p in points]
        masks = om._sweep(lifted, h)
        assert (masks is None) == (not om._in_general_position(lifted, h))
        if masks is not None:
            assert masks == separable_masks(PointSet(dim=h, points=points))
        if masks is not None and h == 1:
            below = itertools.accumulate(
                sorted(range(len(points)), key=points.__getitem__),
                lambda m, i: m | 1 << i, initial=0,
            )
            full = (1 << len(points)) - 1
            assert masks == {m ^ flip for m in below for flip in (0, full)}
            assert len(masks) == 2 * len(points)

    def test_one_dimension_runs_no_position_test(self, monkeypatch):
        # at h = 1 the sweep's own angular order decides general position,
        # so neither a PointSet nor a raw draw is tested a second time
        ps = generate_general_position(20, 1, 0)
        calls = walk_counters(monkeypatch, "_in_general_position")
        assert len(separable_masks(ps)) == 2 * 20
        assert verify_formula(12, 1, 3, 13).passed
        assert calls["_in_general_position"] == 0

    @pytest.mark.parametrize(
        "coords, accepted",
        [
            (moment_curve(4, 3), True),
            ([(0, 0, 0), (1, 2, 3), (2, 4, 6), (1, 0, 0)], False),
        ],
    )
    def test_few_points_run_the_position_test_once(self, monkeypatch, coords, accepted):
        # n <= h + 1 points, from a user-built set to its masks: the
        # sweep's position test, run once, decides between all 2^n
        # labelings and a refusal
        calls = walk_counters(monkeypatch, "_in_general_position")
        ps = PointSet(dim=3, points=coords)
        if accepted:
            assert separable_masks(ps) == frozenset(range(16))
        else:
            with pytest.raises(ValueError, match="not in general position"):
                separable_masks(ps)
        assert calls["_in_general_position"] == 1

    def test_raises_on_a_set_the_sweep_finds_dependent(self):
        # the refusal is an exception, so it holds under python -O
        line = PointSet(dim=2, points=pts((0, 0), (1, 1), (2, 2), (0, 1)))
        with pytest.raises(ValueError, match="not in general position"):
            separable_masks(line)


def sub_labeling(ps, supp, plus):
    """The points of a support mask as a PointSet, labelled by the plus
    bits."""
    idx = [i for i in range(len(ps)) if supp >> i & 1]
    sub = PointSet(dim=ps.dim, points=tuple(ps.points[i] for i in idx))
    return sub, tuple(1 if plus >> i & 1 else -1 for i in idx)


class TestInfeasibilityProofs:
    @pytest.mark.parametrize(
        "ps",
        [
            MIXED,
            generate_general_position(14, 2, 1),
            generate_general_position(12, 3, 5),
            generate_general_position(16, 3, 0),
            generate_general_position(10, 4, 3),
        ],
        ids=["mixed-denominators", "14-2-1", "12-3-5", "16-3-0", "10-4-3"],
    )
    def test_every_proof_spans_h_plus_two_points_with_the_new_one(
        self, ps, monkeypatch
    ):
        # in general position a Radon partition needs all h + 2 points
        proofs = proof_recorder(monkeypatch)
        count_dichotomies(ps)
        assert proofs
        for supp, _, k in proofs:
            assert bin(supp).count("1") == ps.dim + 2
            assert supp >> k & 1

    @given(small_general_position())
    @settings(max_examples=60, deadline=None)
    def test_cold_lp_rejects_every_proof_support(self, ps):
        with pytest.MonkeyPatch.context() as mp:
            proofs = proof_recorder(mp)
            count_dichotomies(ps)
        for supp, plus, _ in proofs:
            for bits in (plus, supp ^ plus):
                assert is_separable(*sub_labeling(ps, supp, bits)) is None

    def test_xor_certificate_is_the_whole_square(self):
        _, y = om._separation(XOR.lifted, 0b0011)
        assert y is not None
        assert om._proof_support(y, 0b0011, XOR.lifted) == 0b1111

    def test_nonzero_combination_raises(self):
        _, y = om._separation(XOR.lifted, 0b0011)
        # the multipliers of one labeling do not cancel under another
        with pytest.raises(RuntimeError, match="prove nothing"):
            om._proof_support(y, 0b0101, XOR.lifted)
        # nor does a single row, under a labeling the tableau finds feasible
        _, none = om._separation(XOR.lifted, 0b0101)
        assert none is None
        for r in range(4):
            with pytest.raises(RuntimeError, match="prove nothing"):
                om._proof_support({r: 1}, 0b0101, XOR.lifted)
        # multipliers that cancel must also be positive
        for bad in ({r: -v for r, v in y.items()}, {}):
            with pytest.raises(RuntimeError, match="prove nothing"):
                om._proof_support(bad, 0b0011, XOR.lifted)

    def test_support_missing_the_new_point_raises(self, monkeypatch):
        # a proof without point k would make the parent's prefix inseparable
        support = om._proof_support

        def without_last(y, plus, lifted):
            return support(y, plus, lifted) & ~(1 << len(lifted) - 1)

        monkeypatch.setattr(om, "_proof_support", without_last)
        with pytest.raises(RuntimeError, match="leave out point 3"):
            count_dichotomies(XOR)

    def test_is_separable_checks_its_proof(self, monkeypatch):
        # a bogus proof of a separable labeling is refused, not returned as None
        monkeypatch.setattr(om, "_separation", lambda lifted, plus: (None, {0: 1}))
        with pytest.raises(RuntimeError, match="prove nothing"):
            is_separable(XOR, (1, 1, 1, 1))


class TestVerifyFormula:
    def test_four_points_dimension_two(self):
        rep = verify_formula(4, 2, trials=3, seed=7)
        assert rep.passed
        assert rep.formula_count == 14
        assert [t.count for t in rep.results] == [14, 14, 14]
        assert rep.prng == "python-random-mt19937"

    def test_six_points_on_a_line(self):
        rep = verify_formula(6, 1, trials=3, seed=7)
        assert rep.passed
        assert rep.formula_count == 2 * (1 + 5)

    def test_two_points_high_dimension(self):
        rep = verify_formula(2, 3, trials=1, seed=1)
        assert rep.passed
        assert rep.formula_count == 4

    def test_trial_seeds_reproducible(self):
        a = verify_formula(4, 2, trials=2, seed=5)
        b = verify_formula(4, 2, trials=2, seed=5)
        assert [t.seed for t in a.results] == [t.seed for t in b.results]

    def test_counts_without_an_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("verify_formula built an LP tableau")

        monkeypatch.setattr(om, "Tableau", no_lp)
        rep = verify_formula(12, 3, trials=2, seed=4, workers=2)
        assert rep.passed
        assert [t.count for t in rep.results] == [464, 464]

    @pytest.mark.parametrize(
        "n, h, trials, seed, coord_range",
        [(20, 1, 20, 0, 1000), (8, 2, 6, 0, 6), (7, 3, 6, 0, 3), (7, 4, 4, 0, 2)],
    )
    def test_trials_match_generation_and_the_masks(
        self, monkeypatch, n, h, trials, seed, coord_range
    ):
        # each trial equals generate_general_position on its trial seed with
        # len(separable_masks(ps)), resamples included: on [-1000, 1000] one
        # h = 1 trial of the twenty redraws, and the small ranges redraw at
        # h = 2..4
        monkeypatch.setattr(om, "COORD_RANGE", coord_range)
        rep = verify_formula(n, h, trials, seed)
        assert any(t.resamples for t in rep.results)
        for t in rep.results:
            ps = generate_general_position(n, h, t.seed)
            assert (t.resamples, t.count) == (ps.resamples, len(separable_masks(ps)))

    def test_counts_with_the_work_of_the_masks_alone(self, monkeypatch):
        # a trial that keeps its first draw makes the walk's eliminations,
        # dot products and angular orders of separable_masks on that set
        # (see test_one_angular_order_per_flat) and runs no position test
        calls = walk_counters(monkeypatch, "_cells", "_in_general_position")
        (trial,) = verify_formula(12, 3, 1, 4).results
        assert trial.resamples == 0
        fused = dict(calls)
        ps = generate_general_position(12, 3, trial.seed)
        calls.update(dict.fromkeys(calls, 0))
        assert len(separable_masks(ps)) == trial.count
        assert fused == calls == {
            "_side": 3 * 10 * 11, "_extend": 10, "_cells": 30, "_in_general_position": 0,
        }

    def test_leaves_no_cyclic_garbage(self):
        # no oracle entry point recurses through a self-referencing closure,
        # so each sweep, position test and LP enumeration, and the masks and
        # tableaux it holds, go at once rather than piling up between
        # collections
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            verify_formula(12, 3, 2, 4)
            generate_general_position(18, 3, 0)
            ps = PointSet(dim=2, points=generate_general_position(8, 2, 1).points)
            count_dichotomies(ps)
            is_separable(ps, (1, -1) * 4)
            separable_masks(ps)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_size_guards(self):
        with pytest.raises(ValueError):
            verify_formula(25, 2, 1, 0)
        with pytest.raises(ValueError):
            verify_formula(4, 5, 1, 0)
        with pytest.raises(ValueError):
            verify_formula(4, 2, 0, 0)
        with pytest.raises(ValueError, match="workers must be positive"):
            verify_formula(4, 2, 1, 0, workers=0)


class TestGenerationFailure:
    def test_exhausted_retries_raise(self, monkeypatch):
        monkeypatch.setattr(om, "_in_general_position", lambda pts, dim: False)
        with pytest.raises(GeneralPositionError):
            generate_general_position(5, 2, 0)

    def test_exhausted_retries_raise_in_verify(self, monkeypatch):
        # every draw is five copies of the origin, which the sweep rejects;
        # the error names the trial seed, as generation does
        monkeypatch.setattr(om, "COORD_RANGE", 0)
        ts = random.Random(3).randrange(2**32)
        message = f"no general-position set of n=5, h=2 after 100 resamples (seed={ts})"
        with pytest.raises(GeneralPositionError) as exc:
            verify_formula(5, 2, 1, 3)
        assert str(exc.value) == message
