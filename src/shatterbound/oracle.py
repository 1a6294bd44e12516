"""Brute-force dichotomy counting on exact rational point sets.

Two independent checks of the counting formula 2 * sum_{i<=h} C(n-1, i):
generate n points in general position in dimension h, and find the label
vectors in {-1,+1}^n whose classes some affine hyperplane strictly
separates, in two exact ways that share only the point set. A PointSet holds
any configuration, and the LP oracle counts any; general position is decided
only where a result needs it, by the generator and the mask oracle. A
labeling is one int whose bit i is set when point i is labelled +1. Each
point x is also kept as its integer lift k * (x, 1), the same ray as (x, 1),
with k the lcm of x's denominators. One walk over index subsets extends a
fraction-free elimination of the lifted rows along each prefix of h - 2
points and yields the prefix's 3-D complement to the loop over it, which
projects the other rows onto it once (in two dimensions the prefix is empty,
and the lifted rows are their own projections). The general-position test
decides every (h+1)-subset through the prefix from 2-D images of cross
products of the later rows' projections, and the mask oracle's sweep below
sorts such images, both by one exact rule: distinct correctly rounded float
ratios prove the images apart and give their angular order, and exact ratios
decide the rest (the float filter of exact predicates, Shewchuk 1997). In
one dimension the position test compares lifts, and the swept flat is empty.

The mask oracle, ``separable_masks``, runs no LP. ``verify_formula`` runs
its sweep on each draw directly: the sweep meets every dependency that the
position test looks for, so it decides general position as it counts, and
no PointSet is built. ``separable_masks`` refuses a set that the sweep
finds dependent. In general position a separating plane can be moved onto h
of the points without changing its labeling (Cover 1965), so the separable
labelings are the sign vectors of the planes through h points, read off the
same walk's projections, each with every labeling of those h points. The
planes through an (h-1)-flat of the points form a pencil: one half-turn
about the flat passes each other point once, and flips its label there, so
one angular sort of the other points' 2-D images gives the labelings of
all the pencil's planes as running XORs (the rotational sweep of an
arrangement, Edelsbrunner 1987). Only a cover of the h-subsets is swept:
for h >= 3, the flats whose last two indices lie an even distance apart.

The LP oracle, ``count_dichotomies``, is the reference the test suite holds
the mask oracle to. Separability is exact feasibility of
labels[i] * (W . lift_i) >= 1 over a free plane W = (w, b) (Gordan 1873),
so "separable" versus "not" is never a floating-point judgement call. The
enumeration decides each label prefix with one solve, cold at the root and
otherwise by dual simplex from its parent's tableau plus the new point's
row. A solve that ends infeasible hands back Farkas multipliers; their
weighted lifted rows are checked to cancel exactly in integers, and their
support, at most h + 2 points, is an inseparable sub-labeling (Kirchberger
1903). The LP oracle runs neither the subset walk nor its projections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .rational_lp import Tableau
from .shattering import HypothesisSpec, shatter_multi

__all__ = [
    "PointSet",
    "SeparabilityCertificate",
    "GeneralPositionError",
    "VerifyTrial",
    "VerifyReport",
    "PRNG_ID",
    "COORD_RANGE",
    "MAX_RESAMPLES",
    "MAX_ENUM_POINTS",
    "generate_general_position",
    "is_separable",
    "count_dichotomies",
    "separable_masks",
    "verify_formula",
]

PRNG_ID = "python-random-mt19937"
COORD_RANGE = 1000
MAX_RESAMPLES = 100
MAX_ENUM_POINTS = 20

_ZERO = Fraction(0)


def _require_enumerable(n) -> None:
    """Refuse an oracle run over more than MAX_ENUM_POINTS points."""
    if n > MAX_ENUM_POINTS:
        raise ValueError(
            f"size guard: n={n} exceeds {MAX_ENUM_POINTS} points "
            f"(2^n labelings is past desk scale)"
        )


class GeneralPositionError(RuntimeError):
    """Could not draw a general-position configuration within the retry budget."""


def _lift(point) -> tuple[int, ...]:
    """The integer point k * (x, 1), with k the lcm of x's denominators."""
    k = lcm(*(x.denominator for x in point))
    return tuple(x.numerator * (k // x.denominator) for x in point) + (k,)


def _extend(rows, cols, d, y):
    """Form of the rows plus integer row y, or None when y is in their span.
    A form (rows, cols, D) has row i equal to D at pivot cols[i] and 0 at
    the other pivots; its entries are minors of the input (Bareiss 1968),
    so the division by the old D is exact."""
    z = [d * v for v in y]
    for row, c in zip(rows, cols):
        z = [a - y[c] * b for a, b in zip(z, row)]
    c = next((j for j, v in enumerate(z) if v), None)
    if c is None:
        return None
    rows = [[(z[c] * a - row[c] * b) // d for a, b in zip(row, z)] for row in rows]
    return rows + [z], cols + (c,), z[c]


def _side(normal, y) -> int:
    """normal . y: in the loops over the subset walk, one coordinate of y's
    projection onto the complement of a prefix."""
    return sum(map(mul, normal, y))


def _prefix_forms(lifted, dim, room, rows=(), cols=(), d=1, prefix=()):
    """Yield (P, u, v, w) for every (dim - 2)-subset P of the lifted rows
    that has ``room`` rows after its last index, depth first over index
    subsets: a child adds one later row to its parent's fraction-free
    elimination (rows, cols, d) of ``prefix``, so subsets sharing a prefix
    share its work. P is a tuple of indices, and u, v, w are integer vectors
    spanning the complement of P's rows (u . p = v . p = w . p = 0 for every
    row p of P). At the first P whose rows are dependent it yields None, and
    the caller stops. Needs dim >= 2 and room >= 1."""
    depth = len(prefix)
    if depth == dim - 2:
        basis = []
        for f in (j for j in range(dim + 1) if j not in cols):
            b = [0] * (dim + 1)
            b[f] = d
            for row, c in zip(rows, cols):
                b[c] = -row[f]
            basis.append(b)
        yield prefix, *basis
        return
    start = prefix[-1] + 1 if prefix else 0
    for j in range(start, len(lifted) - room - dim + 3 + depth):  # room for the rest of P
        child = _extend(rows, cols, d, lifted[j])
        if child is None:
            yield None
            return
        yield from _prefix_forms(lifted, dim, room, *child, prefix + (j,))


def _images(wy, rest) -> list[tuple[int, int, int]]:
    """Each (bit, W_x) of ``rest`` as (p, -q, bit), (p, q) two entries of
    W_y x W_x, wy = W_y. The cross products are orthogonal to W_y, so the
    entry dropped, the last where W_y is nonzero, is fixed by the two kept:
    images are zero or parallel exactly when the cross products are."""
    a, b, c = wy
    if c:
        return [(b * z - c * y, a * z - c * x, bit) for bit, x, y, z in rest]
    if b:  # W_y = (a, b, 0)
        return [(b * z, b * x - a * y, bit) for bit, x, y, z in rest]
    return [(-a * z, -a * y, bit) for bit, x, y, z in rest]  # W_y = (a, 0, 0)


def _angles(lines) -> dict | None:
    """{key: bit} for the images (p, -q, bit) in ``lines``, keys sorting in
    the angular order of their lines from angle 0 (q = 0), or None when an
    image is zero or two are parallel. int / int is correctly rounded, so
    float keys p / -q are monotone in the exact ratios: distinct ones prove
    the images nonzero and apart. Else the exact keys (q != 0, p / -q)
    decide: only parallel images tie, and the zero image gets none."""
    try:
        keyed = {p / nq: bit for p, nq, bit in lines}
    except (ZeroDivisionError, OverflowError):
        keyed = {}
    if len(keyed) < len(lines):
        keyed = {(nq != 0, nq and Fraction(p, nq)): bit for p, nq, bit in lines if p or nq}
    return keyed if len(keyed) == len(lines) else None


def _in_general_position(lifted, dim) -> bool:
    """Whether the points are in general position: every min(dim + 1, n)
    of them affinely independent, so distinct, which is all it means in one
    dimension. Decided exactly from their lifted rows: n <= dim rows are
    eliminated in turn, and more go through the subset walk, whose subsets
    through each prefix are decided from cross products of the later rows'
    projections by one exact rule (``_angles``)."""
    if dim == 1:  # each rational has one lift (numerator, denominator)
        return len(set(lifted)) == len(lifted)
    if len(lifted) <= dim:  # the one subset is all n rows: eliminate them in turn
        form = (), (), 1
        return all(form := _extend(*form, y) for y in lifted)
    for form in _prefix_forms(lifted, dim, 3):
        if form is None:
            return False
        prefix, u, v, w = form
        # prefix + {x, y, z} is independent iff the projections X, Y, Z are:
        # each row's cross products with the later rows are nonzero and
        # apart. Distinct float keys prove that (see _angles; with c != 0 they
        # are the row's _images keys, negated); the exact rule decides the rest.
        if prefix:
            proj = [(_side(u, y), _side(v, y), _side(w, y)) for y in lifted[prefix[-1] + 1:]]
        else:  # dim == 2: u, v, w are the unit vectors
            proj = lifted
        for j, (a, b, c) in enumerate(proj):
            rest = proj[j + 1:]
            try:
                if len({(b * z - c * y) / (c * x - a * z) for x, y, z in rest}) == len(rest):
                    continue
            except (ZeroDivisionError, OverflowError):
                pass
            if _angles(_images((a, b, c), [(0, *x) for x in rest])) is None:
                return False
    return True


@dataclass(frozen=True)
class PointSet:
    """n points with exact rational coordinates, in any configuration:
    repeated, collinear or coplanar points are held as they are, and the
    results that need general position decide it (``_in_general_position``).
    ``seed`` and ``resamples`` record generation provenance when applicable.
    ``lifted`` holds each point's integer lift, read by the position test
    and by both oracles.
    """

    dim: int
    points: tuple[tuple[Fraction, ...], ...]
    seed: int | None = None
    resamples: int = 0
    lifted: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        pts = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in p)
            for p in self.points
        )
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("point set must be nonempty")
        if any(len(p) != self.dim for p in pts):
            raise ValueError("all points must have exactly dim coordinates")
        object.__setattr__(self, "lifted", tuple(_lift(p) for p in pts))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Explicit witness (w, b) with labels[i] * (w . x_i + b) >= margin > 0:
    a separating plane scaled to sum_j |w_j| + |b| = 1, with margin the
    smallest labels[i] * side(x_i) over the points, not the largest any
    plane attains."""

    w: tuple[Fraction, ...]
    b: Fraction
    margin: Fraction

    def side(self, point) -> Fraction:
        return sum((wi * xi for wi, xi in zip(self.w, point)), _ZERO) + self.b


def _draws(n: int, h: int, seed: int):
    """(attempt, points) for the draws of n points with integer coordinates
    uniform on [-COORD_RANGE, COORD_RANGE]^h from ``random.Random(seed)``: the
    first, then up to MAX_RESAMPLES redraws of the whole set, for a caller
    that stops at the first it accepts. GeneralPositionError after the last.

    Whole-set resampling keeps the draw a pure function of (n, h, seed); the
    Mersenne Twister behind ``random.Random`` is stable across platforms.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if not 1 <= h <= 4:
        raise ValueError(f"generation supports 1 <= h <= 4, got h={h}")
    rng = random.Random(seed)
    for attempt in range(MAX_RESAMPLES + 1):
        yield attempt, tuple(
            tuple(rng.randint(-COORD_RANGE, COORD_RANGE) for _ in range(h))
            for _ in range(n)
        )
    raise GeneralPositionError(
        f"no general-position set of n={n}, h={h} after {MAX_RESAMPLES} resamples "
        f"(seed={seed})"
    )


def generate_general_position(n: int, h: int, seed: int) -> PointSet:
    """Deterministic general-position sample: integer coordinates uniform on
    [-1000, 1000], whole set redrawn until the exact position test
    (``_in_general_position``) accepts it (see ``_draws``).
    """
    for attempt, pts in _draws(n, h, seed):
        ps = PointSet(dim=h, points=pts, seed=seed, resamples=attempt)
        if _in_general_position(ps.lifted, h):
            return ps


def _separation(lifted, plus) -> tuple[Tableau, dict[int, int] | None]:
    """The solved feasibility tableau of

        lab_i * (W . lifted[i]) >= 1   for every i

    over the free plane W = (w, b), with lab_i = +1 when bit i of ``plus``
    is set and -1 otherwise, and the Farkas multipliers ``Tableau.solve``
    returned, or None when the system is feasible. Row i is
    -lab_i * lifted[i] . W <= -1. Every lift k * (x, 1) has k > 0, so a
    plane strictly separating the labels, scaled up, solves the system,
    and a solution is such a plane: feasibility decides strict
    separability exactly (Gordan 1873).
    """
    tab = Tableau(len(lifted[0]))
    for i, y in enumerate(lifted):
        tab.add_row([-v for v in y] if plus >> i & 1 else y, -1)
    return tab, tab.solve()


def is_separable(ps: PointSet, labels: tuple[int, ...]) -> SeparabilityCertificate | None:
    """Certificate for a hyperplane strictly separating the points labelled
    +1 from those labelled -1, or None.

    ``labels`` holds one +1 or -1 per point. The plane is a separating one,
    not the max-margin one, scaled so that sum_j |w_j| + |b| = 1; its
    margin is the exact minimum of labels[i] * side(x_i). The certificate is
    re-validated against every point before being returned, and None only
    after the infeasibility proof is checked in integers, so a caller can
    trust either answer without reproving anything.
    """
    if len(labels) != len(ps):
        raise ValueError(f"got {len(labels)} labels for {len(ps)} points")
    if any(l not in (-1, 1) for l in labels):
        raise ValueError(f"labels must be -1 or +1, got {labels}")
    plus = sum(1 << i for i, lab in enumerate(labels) if lab > 0)
    tab, proof = _separation(ps.lifted, plus)
    if proof is not None:
        _proof_support(proof, plus, ps.lifted)
        return None
    plane = tab.point()
    norm = sum(map(abs, plane))
    w = tuple(Fraction(v, norm) for v in plane[:-1])
    b = Fraction(plane[-1], norm)
    margin = min(lab * (sum(map(mul, w, pt)) + b) for pt, lab in zip(ps.points, labels))
    if margin <= 0:
        raise RuntimeError(
            f"feasible plane w={w}, b={b} fails some point of {ps.points} "
            f"for labels {labels}: margin {margin}"
        )
    return SeparabilityCertificate(w=w, b=b, margin=margin)


def _proof_support(y, plus, lifted) -> int:
    """Support mask of the Farkas multipliers ``y`` that ``Tableau.solve``
    returned for ``_separation(lifted, plus)``, checked in integers: they
    must be positive with sum_i y_i * lab_i * lifted[i] = 0, so the
    support's +1 and -1 points have crossing hulls (Radon 1921)."""
    combo = [0] * len(lifted[0])
    supp = 0
    for i, yi in y.items():
        supp |= 1 << i
        yi = yi if plus >> i & 1 else -yi
        combo = [a + yi * b for a, b in zip(combo, lifted[i])]
    if not y or min(y.values()) <= 0 or any(combo):
        raise RuntimeError(
            f"multipliers {y} prove nothing for plus bits {plus:b}: sum {combo}"
        )
    return supp


def count_dichotomies(ps: PointSet) -> int:
    """Number of labelings of ps admitting a separating hyperplane.

    Exploits label negation (d separable iff -d separable, via
    (w, b) -> (-w, -b)): only labelings with labels[0] = +1 are enumerated
    and the count is doubled. A prefix of k labels keeps the feasible
    tableau whose row i holds point i; a child copies it, appends point k's
    row and re-solves, and an infeasible child is pruned, since a labeling
    whose prefix is not separable has no separable extension.
    """
    _require_enumerable(len(ps))
    # one point is always separable, so the root's solve is feasible
    return 2 * _count_from(ps.lifted, 1, 1, _separation(ps.lifted[:1], 1)[0])


def _count_from(lifted, k, plus, tab) -> int:
    """Number of separable labelings of ``lifted`` whose first k labels
    are the low k bits of ``plus``, tab the feasible tableau of those k
    points (see count_dichotomies)."""
    if k == len(lifted):
        return 1
    y = lifted[k]
    total = 0
    for bits in (plus | 1 << k, plus):
        child = tab.copy()
        child.add_row([-v for v in y] if bits >> k & 1 else y, -1)
        proof = child.solve()
        if proof is None:
            total += _count_from(lifted, k + 1, bits, child)
        elif not _proof_support(proof, bits, lifted[: k + 1]) >> k & 1:
            raise RuntimeError(
                f"multipliers {proof} for plus bits {bits:b} leave out "
                f"point {k}, but the points before it are separable"
            )
    return total


def _cells(wy, rest) -> list[int]:
    """The labelings that the planes through a flat F give the points
    outside F, one per cell of a half-turn about F, from one sort.

    ``wy`` = W_y projects F's last point y onto the complement of F's other
    points, and ``rest`` holds (bit, W_x) for each x outside F. A plane
    through F has a normal N orthogonal to W_y, and N . W_x has the sign of
    the 2-D cross product of N's and x's images, up to one sign per x. Over
    a half-turn of N each x flips once, as N passes its image: the labelings
    are the running XORs of the bits in angular order from the cell before
    angle 0 (images with q > 0, or q = 0 < p), less the last, the first's
    complement. None when two images are parallel or one is zero, which
    general position rules out. In one dimension F is empty, ``wy`` is
    (0, 0, 1), and a lift k * (x, 1) comes as (bit, k, k * x, 0): its image
    (-k * x, -k) has key x, and every point starts in the first cell."""
    lines = _images(wy, rest)
    keyed = _angles(lines)
    if keyed is None:
        return None
    cell = sum(bit for p, nq, bit in lines if nq < 0 or not nq and p > 0)
    cells = [cell]
    for key in sorted(keyed)[:-1]:
        cell ^= keyed[key]
        cells.append(cell)
    return cells


def separable_masks(ps: PointSet) -> frozenset[int]:
    """The labelings of ps that some hyperplane strictly separates, each as
    an int whose bit i is set when point i is labelled +1, found without an
    LP.

    n <= h + 1 points in general position are shattered: all 2^n labelings.
    Otherwise a separating plane keeps its labeling while it is moved until
    it passes through h of the points, and since their lifted rows are
    independent, a small tilt about them gives those h points any labels
    and moves no other point across (Cover 1965). So the separable labelings
    are the union, over every h-subset S, of the sign vector of
    det[lifted(S); lifted(z)] over the points z outside S and of its
    negation, each with all 2^h labelings of S. The walk shared with the
    position test reaches S as P + {y, z}, y < z after P's last index; with
    W_x = (u . x, v . x, w . x) the projection of x onto P's complement,
    (W_y x W_z) . W_x is that determinant times a nonzero factor fixed by
    P, whose sign the negation makes irrelevant. So the planes through S
    are those through the (h-1)-flat F = P + {y} and one more point, and
    one half-turn about F passes all of them: ``_cells`` reads their
    labelings off one angular sort of the other points per flat. One flat
    inside each S suffices: at h = 2 y is every point but the last, and at
    h >= 3 every point an even distance after P's last index. Of S's three
    largest indices two have equal parity, and dropping the third leaves
    such an F, whose P ends at least two rows before the last, the walk's
    room. Each labeling goes in with every labeling of F, and the negations
    are added once at the end. In one dimension F is empty and the planes
    are thresholds: one half-turn gives the 2n labelings that label the
    points below a cut -1 and the rest +1, or the reverse. ValueError if
    the sweep finds the points dependent, which ``count_dichotomies`` counts.
    """
    _require_enumerable(len(ps))
    masks = _sweep(ps.lifted, ps.dim)
    if masks is None:
        raise ValueError("points are not in general position")
    return masks


def _sweep(lifted, h) -> frozenset[int] | None:
    """separable_masks of n points in dimension h with integer lifts
    ``lifted``, or None when they are not in general position, decided on
    the way. For h = 1 the flat is empty, and equal points have parallel
    images. For h >= 2 and n <= h + 1 it is _in_general_position. Else every
    (h+1)-subset is a swept flat F = P + {y} (see separable_masks) and two
    points x, z of F's ``rest``, and it is dependent exactly when P's rows
    are, which stops the walk, or W_y is zero, which zeroes every image, or
    x's image is zero, or x's and z's are parallel: ``_angles`` reports the
    last three exactly."""
    n = len(lifted)
    full = (1 << n) - 1
    if h == 1:  # images (-x, -k): the cells are the sets above each cut
        cells = _cells((0, 0, 1), [(1 << i, k, x, 0) for i, (x, k) in enumerate(lifted)])
        return None if cells is None else frozenset(cells + [full ^ c for c in cells])
    if n <= h + 1:
        return frozenset(range(1 << n)) if _in_general_position(lifted, h) else None
    masks = set()
    for form in _prefix_forms(lifted, h, 2):
        if form is None:
            return None
        prefix, u, v, w = form
        held = sum(1 << i for i in prefix)
        tilts = [0]  # the 2^(h-2) labelings of P
        for i in prefix:
            tilts += [t | 1 << i for t in tilts]
        # every point outside P, as (its bit, its projection)
        if prefix:
            proj = [
                (1 << i, _side(u, z), _side(v, z), _side(w, z))
                for i, z in enumerate(lifted)
                if not held >> i & 1
            ]
        else:  # h == 2: u, v, w are the unit vectors
            proj = [(1 << i, *z) for i, z in enumerate(lifted)]
        found = set()  # labelings of the points outside P
        # F = P + {y}: y an even distance past P's last index, or any y but
        # the last point when h == 2 (proj[start] is the point after P)
        start = len(proj) - n + held.bit_length()
        for j in range(start + 1, len(proj), 2) if prefix else range(len(proj) - 1):
            ybit, *wy = proj[j]
            cells = _cells(wy, proj[:j] + proj[j + 1:])
            if cells is None:
                return None
            found.update(cells, [c | ybit for c in cells])
        for t in tilts:
            masks.update([t | m for m in found])
    return frozenset(masks | {full ^ m for m in masks})


@dataclass(frozen=True)
class VerifyTrial:
    seed: int
    resamples: int
    count: int


@dataclass(frozen=True)
class VerifyReport:
    """Per-trial oracle counts against the formula value."""

    n: int
    h: int
    trials: int
    seed: int
    prng: str
    formula_count: int
    results: tuple[VerifyTrial, ...]
    passed: bool


def verify_formula(
    n: int, h: int, trials: int, seed: int, workers: int = 1
) -> VerifyReport:
    """Draw ``trials`` fresh general-position sets and count the separable
    labelings of each as ``len(separable_masks(ps))``, ps the set that
    ``generate_general_position`` draws from the trial seed. The mask sweep
    decides each draw's general position as it counts (see ``_sweep``), so
    no PointSet is built and no separate position test runs for n > h + 1.

    PASS means every trial matched 2 * sum_{i<=h} C(n-1, i) exactly. Trial
    seeds are derived from the master seed so runs are reproducible while
    trials stay independent draws. The mask oracle runs in this process and
    builds no LP tableau. The LP oracle, ``count_dichotomies``, shares only
    the point set with it and is the reference the test suite holds it to.
    ``workers`` must be positive and changes nothing; it remains only for
    the benchmark's ``workers=1`` calls.
    """
    _require_enumerable(n)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    master = random.Random(seed)
    trial_seeds = [master.randrange(2**32) for _ in range(trials)]
    expected = shatter_multi(n, HypothesisSpec(h, 1))
    results = []
    for ts in trial_seeds:
        for attempt, pts in _draws(n, h, ts):
            # an integer point's lift is (x, 1): _lift's k is 1
            masks = _sweep([p + (1,) for p in pts], h)
            if masks is not None:
                break
        results.append(VerifyTrial(seed=ts, resamples=attempt, count=len(masks)))
    return VerifyReport(
        n=n,
        h=h,
        trials=trials,
        seed=seed,
        prng=PRNG_ID,
        formula_count=expected,
        results=tuple(results),
        passed=all(t.count == expected for t in results),
    )
