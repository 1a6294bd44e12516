"""The solver's answers and the shape of the bound it searches, decided in
exact arithmetic written here: integer counts from math.comb, logs in
decimal. Only the solver under test, and the CLI that runs it, come from the
package.

N(n) = 2 * sum_{i<=h} C(n-1, i)**p is the shattering count, and the bound
is delta(n) = 2 * N(n) * exp(-n * eps^2 / 4).
"""

import itertools
import json
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shatterbound.bounds import solve_min_n
from shatterbound.cli import main
from shatterbound.shattering import HypothesisSpec

# the calc-queries workload's pools: every (h, p) family with every delta
# and eps the workload can draw for a solve, 240 queries, plus the three
# solves of its large-n slice, whose n* reach 10^12
FAMILIES = tuple((h, p) for p in (1, 4, 16) for h in (1, 2, 3, 4))
DELTAS = (0.1, 0.05, 0.01, 0.001)
EPSILONS = (0.05, 0.07, 0.1, 0.14, 0.2)
POOL_QUERIES = [
    (delta, eps, h, p)
    for (h, p), delta, eps in itertools.product(FAMILIES, DELTAS, EPSILONS)
]
LARGE_N_QUERIES = [(0.001, 0.001, 3, 1), (0.001, 1e-5, 3, 1), (0.01, 1e-4, 3, 16)]


def count(n, h, p):
    """N(n), exactly; math.comb is 0 past the end of the row."""
    return 2 * sum(math.comb(n - 1, i) ** p for i in range(h + 1))


def margin(n, eps, delta, h, p, digits=60):
    """ln 2 + ln N(n) - n * eps^2 / 4 - ln delta, to within far less than its
    own size: <= 0 exactly when the bound at n meets delta.

    eps and delta enter as the exact binary values of the floats. Each ln is
    correctly rounded, so the error is a few units in the digits-th place of
    the largest term. The margin is never 0 (e^x is irrational for rational
    x != 0), so the precision doubles until the value clears that error."""
    eps, delta = Decimal(eps), Decimal(delta)
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            terms = (Decimal(2).ln(), Decimal(count(n, h, p)).ln(),
                     -n * eps * eps / 4, -delta.ln())
            value = sum(terms)
            size = sum(abs(t) for t in terms)
            if abs(value) > size * Decimal(10) ** (5 - digits):
                return value
        digits *= 2


class TestSolverAgainstTheExactBound:
    @pytest.mark.parametrize("delta,eps,h,p", POOL_QUERIES + LARGE_N_QUERIES)
    def test_n_star_is_the_first_n_the_exact_bound_accepts(self, delta, eps, h, p):
        n_star = solve_min_n(delta, eps, HypothesisSpec(h, p))
        assert margin(n_star, eps, delta, h, p) <= 0 < margin(n_star - 1, eps, delta, h, p)

    # n* above 2^53, where the float margin's rounding picks the answer
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize("eps", ["1e-7", "2e-8"])
    def test_solve_n_past_two_to_the_53(self, capsys, eps):
        code = main(["solve-n", "--delta", "0.01", "--eps", eps,
                     "--h", "1", "--p", "1", "--format", "json"])
        assert code == 0
        n_star = json.loads(capsys.readouterr().out)["result"]["n"]
        at = margin(n_star, float(eps), 0.01, 1, 1)
        before = margin(n_star - 1, float(eps), 0.01, 1, 1)
        assert at <= 0 < before

    def test_margin_sign_at_a_known_crossing(self):
        # the README's headline: n* = 1026778 for (delta, eps) = (0.01, 0.05)
        # at h = 3, p = 16, with a margin of about -8.8e-5 and a step of 6.25e-4
        assert -1e-4 < margin(1026778, 0.05, 0.01, 3, 16) < -5e-5
        assert 0 < margin(1026777, 0.05, 0.01, 3, 16) < 1e-3


@st.composite
def family_and_n_past_2h(draw):
    """(h, n) with h in 1..12 and n in 2h+1..2^63-2, n uniform over bit
    lengths so every scale gets examples."""
    h = draw(st.integers(1, 12))
    lo = 2 * h + 1
    bits = draw(st.integers(lo.bit_length() - 1, 62))
    return h, draw(st.integers(max(lo, 2**bits), min(2 ** (bits + 1) - 1, 2**63 - 2)))


def last_concavity_failure(h, p):
    """The largest n <= 2h with N(n-1) * N(n+1) > N(n)^2, or 1 if none."""
    failures = [
        n for n in range(2, 2 * h + 1)
        if count(n - 1, h, p) * count(n + 1, h, p) > count(n, h, p) ** 2
    ]
    return max(failures, default=1)


class TestSingleCrossing:
    """ROADMAP item 16's two integer conditions. With them the log-bound
    f(n) = ln 2 + ln N(n) - n * eps^2 / 4 rises up to v and is concave from
    v on, so it crosses any ln delta once: (b) makes every step before v
    multiply N by 2 > e^(1/4) > e^(eps^2/4), and (a) makes ln N concave."""

    @given(family_and_n_past_2h(), st.integers(1, 256))
    @example((1, 3), 2)
    @example((12, 25), 256)
    @example((12, 2**63 - 2), 256)
    @settings(max_examples=200, deadline=None)
    def test_log_concave_from_2h_plus_1(self, h_n, p):
        # (a) N(n-1) * N(n+1) <= N(n)^2 for every n >= 2h + 1
        h, n = h_n
        assert count(n - 1, h, p) * count(n + 1, h, p) <= count(n, h, p) ** 2

    @given(st.integers(1, 12), st.integers(1, 256))
    @example(12, 256)
    @settings(max_examples=200, deadline=None)
    def test_count_doubles_before_the_last_concavity_failure(self, h, p):
        # (b) with v the largest n <= 2h where (a) fails, or 1 if none,
        # N(n+1) >= 2 N(n) for 1 <= n < v
        v = last_concavity_failure(h, p)
        assert all(count(n + 1, h, p) >= 2 * count(n, h, p) for n in range(1, v))

    def test_concavity_fails_for_some_p_above_1_and_never_at_p_1(self):
        # the scan that (b) rests on finds failures, so (b) is not vacuous
        assert all(last_concavity_failure(h, 1) == 1 for h in range(1, 13))
        assert any(last_concavity_failure(h, p) > 1 for h in range(1, 13) for p in (2, 4, 16))
