import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shatterbound.bounds import delta_bound
from shatterbound.logarithmetic import LN2, _log_add, _log_binomial_row
from shatterbound.shattering import (
    HypothesisSpec,
    _LN_I,
    _LN_I_END,
    _ln_count,
    binom_lower_bound,
    binom_upper_bound,
    complement_count,
    epsilon_curve,
    is_saturated,
    shatter_log,
    shatter_multi,
    shatter_upper_closed,
)


class TestHypothesisSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            HypothesisSpec(h=-1, p=1)
        with pytest.raises(ValueError):
            HypothesisSpec(h=2, p=0)
        assert HypothesisSpec(h=0, p=1).h == 0


class TestShatterSingle:
    def test_four_point_ladder(self):
        # the 2 / 8 / 14 ladder for four points as the dimension grows
        assert shatter_multi(4, HypothesisSpec(0)) == 2
        assert shatter_multi(4, HypothesisSpec(1)) == 8
        assert shatter_multi(4, HypothesisSpec(2)) == 14

    def test_saturates_to_power_of_two(self):
        assert shatter_multi(3, HypothesisSpec(5)) == 8
        for n in range(1, 20):
            assert shatter_multi(n, HypothesisSpec(n - 1)) == 2**n
            assert shatter_multi(n, HypothesisSpec(n + 3)) == 2**n

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            shatter_multi(0, HypothesisSpec(2))
        with pytest.raises(ValueError):
            shatter_multi(4, HypothesisSpec(-1))

    @given(st.integers(1, 64), st.integers(0, 64))
    def test_monotone_in_n_and_h(self, n, h):
        v = shatter_multi(n, HypothesisSpec(h))
        assert shatter_multi(n + 1, HypothesisSpec(h)) >= v
        assert shatter_multi(n, HypothesisSpec(h + 1)) >= v


class TestShatterMulti:
    def test_reduces_to_single_at_p_1(self):
        for n in range(1, 30):
            for h in range(0, 6):
                want = 2 * sum(math.comb(n - 1, i) for i in range(h + 1))
                assert shatter_multi(n, HypothesisSpec(h, 1)) == want

    def test_two_hyperplane_value(self):
        # 2 * (C(3,0)^2 + C(3,1)^2) = 2 * (1 + 9)
        assert shatter_multi(4, HypothesisSpec(h=1, p=2)) == 20

    def test_p_16_against_term_by_term_evaluation(self):
        expected = 2 * (
            math.comb(9, 0) ** 16
            + math.comb(9, 1) ** 16
            + math.comb(9, 2) ** 16
            + math.comb(9, 3) ** 16
        )
        assert shatter_multi(10, HypothesisSpec(h=3, p=16)) == expected


def threshold_labelings(n, p):
    """Every labeling of n points on a line that a Boolean function of p
    threshold bits realizes, by brute force. A threshold splits the ordered
    points at a cut 0..n, which puts the first c on one side; a multiset of
    p cuts gives each point a code of p bits, and a function of those bits
    is a truth table over the 2^p codes. Flipping a threshold's side negates
    its bit, which some other table absorbs, so one side per cut suffices."""
    labelings = set()
    for cuts in itertools.combinations_with_replacement(range(n + 1), p):
        codes = [sum((x >= c) << j for j, c in enumerate(cuts)) for x in range(n)]
        for table in range(2 ** 2 ** p):
            labelings.add(tuple(table >> code & 1 for code in codes))
    return labelings


class TestThresholdsOnALine:
    """At h = 1 every n distinct points have one order type, so p thresholds
    realize the same labelings on any of them: those with at most p sign
    changes along the line, 2 * sum_{i<=p} C(n-1, i). The published p-plane
    count 2 * (1 + (n-1)^p) bounds it, equal at p = 1 and loose for p >= 2
    once n >= 3."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_brute_force_count_is_at_most_p_sign_changes(self, p):
        for n in range(1, 9):
            count = len(threshold_labelings(n, p))
            assert count == 2 * sum(math.comb(n - 1, i) for i in range(p + 1))
            formula = shatter_multi(n, HypothesisSpec(1, p))
            assert count <= formula
            assert (count == formula) == (p == 1 or n <= 2)

    def test_slack_at_eight_points_and_three_planes(self):
        assert len(threshold_labelings(8, 3)) == 128
        assert shatter_multi(8, HypothesisSpec(1, 3)) == 688


class TestShatterLog:
    def test_matches_ln_of_known_count(self):
        got = shatter_log(4, HypothesisSpec(2, 1)).log_value
        assert got == pytest.approx(math.log(14), abs=1e-12)

    def test_single_point_is_ln_2(self):
        for h in (0, 1, 7):
            for p in (1, 3, 16):
                got = shatter_log(1, HypothesisSpec(h, p)).log_value
                assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_agrees_with_exact_path_at_scale(self):
        spec = HypothesisSpec(h=3, p=16)
        exact = math.log(shatter_multi(10**6, spec))
        got = shatter_log(10**6, spec).log_value
        assert abs(got - exact) <= 1e-9 * abs(exact)

    @given(st.integers(1, 200), st.integers(0, 6), st.sampled_from([1, 2, 5, 16]))
    @settings(max_examples=80)
    def test_agrees_with_exact_path_everywhere(self, n, h, p):
        spec = HypothesisSpec(h, p)
        exact = math.log(shatter_multi(n, spec))
        got = shatter_log(n, spec).log_value
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))


class TestFloatFold:
    @pytest.mark.parametrize("p", [10**308, 10**400], ids=["1e308", "1e400"])
    def test_log_count_past_the_float_range_raises(self, p):
        # 10**308 fits a float and the terms overflow to inf, where inf - inf
        # would be NaN; 10**400 does not convert to a float at all
        with pytest.raises(ValueError, match=rf"n=100, h=3, p={p}$"):
            shatter_log(100, HypothesisSpec(3, p))

    @pytest.mark.parametrize("p", [10**308, 10**400], ids=["1e308", "1e400"])
    @pytest.mark.parametrize("call, at", [
        (lambda spec: epsilon_curve(100, spec), "n=100, h=3"),
    ], ids=["epsilon_curve"])
    def test_curve_functions_past_the_float_range_raise(self, call, at, p):
        # at 10**308, h * p or p times a log leaves the float range (as inf
        # or as an OverflowError converting h * p); at 10**400 p itself does
        with pytest.raises(ValueError, match=rf"not a finite float at {at}, p={p}$"):
            call(HypothesisSpec(3, p))

    @pytest.mark.parametrize("call", [
        lambda spec: shatter_upper_closed(100, spec),
    ], ids=["shatter_upper_closed"])
    def test_closed_form_with_h_past_the_float_range_raises(self, call):
        # 10**400 * ln(e(n-1)) would raise OverflowError converting h; the
        # closed form takes the product as inf and reports it like a huge p
        h = 10**400
        with pytest.raises(ValueError, match=rf"not a finite float at n=100, h={h}, p=1$"):
            call(HypothesisSpec(h, 1))

    @pytest.mark.parametrize("call", [epsilon_curve], ids=["asymptotic_condition"])
    def test_margin_with_n_past_the_float_range_raises(self, call):
        # the asymptotic condition balances at epsilon_curve; sqrt(n) would
        # raise OverflowError converting n, so the curve takes it as inf and
        # reports it like a huge p
        n = 10**400
        with pytest.raises(ValueError, match=rf"not a finite float at n={n}, h=3, p=1$"):
            call(n, HypothesisSpec(3, 1))

    @pytest.mark.parametrize("n,h", [(1, 3), (2, 3), (100, 0)])
    def test_huge_p_with_unit_binomials_stays_exact(self, n, h):
        # every C(n-1, i) in the sum is 1, so the count is 2(min(h, n-1) + 1)
        spec = HypothesisSpec(h, 10**400)
        got = shatter_log(n, spec).log_value
        assert got == pytest.approx(math.log(shatter_multi(n, spec)), abs=1e-15)


@st.composite
def log_uniform_n(draw):
    """n in 1..2^63-1, uniform over bit lengths so every scale gets examples."""
    bits = draw(st.integers(0, 62))
    return draw(st.integers(2**bits, 2 ** (bits + 1) - 1))


def _reference_ln_count(n, h, p):
    """ln N(n) as _log_binomial_row and _log_add give it, term by term."""
    acc = -math.inf
    try:
        for c in _log_binomial_row(n - 1, min(h, n - 1)):
            acc = _log_add(acc, p * c if c else 0.0)
    except OverflowError:
        acc = math.inf
    if not math.isfinite(acc):
        raise ValueError(f"log count is not a finite float at n={n}, h={h}, p={p}")
    return LN2 + acc


def _value_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestLnCountKernel:
    # h runs past the end of the kernel's ln i table, _LN_I_END = 64
    @given(
        log_uniform_n(),
        st.integers(0, 200),
        st.one_of(st.integers(1, 16), st.sampled_from([10**300, 10**400])),
    )
    @example(2**63 - 1, 60, 10**300)
    @example(2**63 - 1, 60, 16)
    @example(2**63 - 1, _LN_I_END - 1, 16)
    @example(2**63 - 1, _LN_I_END, 16)
    @example(2**63 - 1, 200, 16)
    @example(2**63 - 1, 200, 10**400)
    @example(_LN_I_END + 1, _LN_I_END, 3)  # n = h + 1: the whole row
    @example(_LN_I_END, 200, 3)  # n < h + 1: the row ends first
    @example(5, 4, 10**400)
    @example(2, 60, 10**400)
    @example(1, 0, 10**400)
    @example(1, 200, 16)
    @settings(max_examples=500)
    def test_bit_identical_to_the_l0_helpers(self, n, h, p):
        got = _value_or_error(_ln_count, n, h, p)
        assert got == _value_or_error(_reference_ln_count, n, h, p)

    def test_ln_i_table_is_math_log(self):
        assert len(_LN_I) == _LN_I_END
        assert all(_LN_I[i] == math.log(i) for i in range(1, _LN_I_END))

    @pytest.mark.parametrize("n,h,p", [
        (n, h, p)
        for n in (1, 2, 3, 10, 10**6, 2**62, 2**63 - 1)
        for h in range(5)
        for p in (1, 4, 16)
    ])
    def test_grid_bit_identical_under_shatter_log_and_delta_bound(self, n, h, p):
        spec = HypothesisSpec(h, p)
        ref = _reference_ln_count(n, h, p)
        assert shatter_log(n, spec).log_value == ref
        for eps in (0.001, 0.05, 0.5):
            assert delta_bound(n, eps, spec).log_value == LN2 + ref - n * eps * eps / 4.0


class TestLogPathToTheCeiling:
    @given(
        log_uniform_n(), st.integers(0, 4), st.sampled_from([1, 16]), st.integers(0, 8)
    )
    @example(2**63 - 1, 4, 16, 8)
    @example(2**62, 1, 1, 1)
    @settings(max_examples=300)
    def test_matches_big_integer_path(self, n, h, p, k):
        spec = HypothesisSpec(h, p)
        exact = math.log(shatter_multi(n, spec))
        assert shatter_log(n, spec).log_value == pytest.approx(exact, rel=1e-12)
        if k <= n:
            exact = math.log(math.comb(n, k))
            assert _log_binomial_row(n, k)[-1] == pytest.approx(exact, rel=1e-12)


class TestShatterValue:
    def test_is_saturated_boundary(self):
        assert is_saturated(4, 3)
        assert not is_saturated(4, 2)


class TestComplementCount:
    def test_examples(self):
        assert complement_count(4, 2) == 2**4 - 14
        assert complement_count(4, 3) == 0
        assert complement_count(10, 2) == 1024 - 2 * (1 + 9 + 36)

    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError, match="h must be nonnegative"):
            complement_count(5, -1)

    def test_identity_against_full_space(self):
        for n in range(1, 65):
            for h in range(0, n + 1):
                assert shatter_multi(n, HypothesisSpec(h)) + complement_count(n, h) == 2**n


class TestClosedFormUpperBound:
    def test_smallest_legal_n(self):
        got = shatter_upper_closed(2, HypothesisSpec(1, 1)).log_value
        assert got == pytest.approx(math.log(2 * math.e + 2), abs=1e-12)

    def test_dominates_exact_count(self):
        for p in (1, 2, 16):
            for h in (1, 2, 3, 4):
                spec = HypothesisSpec(h, p)
                for n in (2, 3, 5, 10, 50, 100):
                    assert (
                        shatter_log(n, spec).log_value
                        <= shatter_upper_closed(n, spec).log_value
                    )

    def test_rejects_small_n_and_flat_h(self):
        with pytest.raises(ValueError, match="closed-form bound needs n >= 2, got 1"):
            shatter_upper_closed(1, HypothesisSpec(2, 1))
        with pytest.raises(ValueError, match="needs h >= 1, got 0"):
            shatter_upper_closed(5, HypothesisSpec(0, 1))

    @pytest.mark.parametrize("p", [10**308, 10**400], ids=["1e308", "1e400"])
    def test_log_past_the_float_range_raises(self, p):
        # 10**308 fits a float and the product overflows to inf; 10**400
        # does not convert to a float at all
        with pytest.raises(ValueError, match=rf"n=100, h=3, p={p}$"):
            shatter_upper_closed(100, HypothesisSpec(3, p))


class TestBinomialSandwich:
    def test_hand_values(self):
        assert binom_lower_bound(4, 2).log_value == pytest.approx(
            math.log(4), abs=1e-12
        )
        assert binom_upper_bound(4, 2).log_value == pytest.approx(
            2 * math.log(2 * math.e), abs=1e-12
        )

    def test_sandwich_at_50_17(self):
        mid = math.log(math.comb(50, 17))
        assert binom_lower_bound(50, 17).log_value <= mid
        assert mid <= binom_upper_bound(50, 17).log_value

    def test_sandwich_everywhere_up_to_100(self):
        for m in range(1, 101):
            for k in range(1, m + 1):
                mid = math.log(math.comb(m, k))
                assert binom_lower_bound(m, k).log_value <= mid
                assert mid <= binom_upper_bound(m, k).log_value

    @pytest.mark.parametrize("k", [1, 2, 10**200], ids=["1", "2", "1e200"])
    def test_m_over_k_past_the_float_range(self, k):
        # m / k would raise OverflowError; its log and the bounds are finite
        m = 10**400
        lower = binom_lower_bound(m, k).log_value
        assert lower == pytest.approx(k * math.log(10**400 // k), rel=1e-15)
        assert binom_upper_bound(m, k).log_value == pytest.approx(lower + k, rel=1e-15)

    def test_k_equal_to_m_past_the_float_range(self):
        # (m/k)^k = 1 whatever k is
        assert binom_lower_bound(10**400, 10**400).log_value == 0.0

    @pytest.mark.parametrize("call", [binom_lower_bound, binom_upper_bound],
                             ids=["lower", "upper"])
    def test_bound_past_the_float_range_raises(self, call):
        # k * ln(m / k) = 10**399 * ln 10 leaves the float range
        m, k = 10**400, 10**399
        with pytest.raises(ValueError, match=rf"not a finite float at m={m}, k={k}$"):
            call(m, k)

    def test_rejects_out_of_range(self):
        for m, k in [(4, 0), (4, 5), (0, 1)]:
            with pytest.raises(ValueError):
                binom_lower_bound(m, k)
            with pytest.raises(ValueError):
                binom_upper_bound(m, k)


class TestGammaConst:
    """gamma = p*ln(2) + h*p, the n-free part of epsilon_curve's radicand."""

    @staticmethod
    def gamma(spec, n=4):
        return n * epsilon_curve(n, spec) ** 2 / 4 - spec.h * spec.p * math.log(n)

    def test_values(self):
        assert self.gamma(HypothesisSpec(3, 16)) == pytest.approx(
            59.090354888959125, abs=1e-12
        )
        assert self.gamma(HypothesisSpec(0, 1)) == pytest.approx(
            math.log(2), abs=1e-15
        )
        assert self.gamma(HypothesisSpec(1, 1)) == pytest.approx(
            math.log(2) + 1, abs=1e-15
        )


class TestEpsilonCurve:
    def test_headline_value(self):
        got = epsilon_curve(10**6, HypothesisSpec(3, 16))
        assert got == pytest.approx(0.05374885530581072, abs=1e-12)

    def test_flat_space_term_vanishes(self):
        n = 3
        got = epsilon_curve(n, HypothesisSpec(0, 1))
        assert got == pytest.approx(2 * math.sqrt(math.log(2)) / math.sqrt(n), abs=1e-12)

    def test_upward_offset_in_h_and_p(self):
        n = 1000
        assert epsilon_curve(n, HypothesisSpec(3, 16)) > epsilon_curve(
            n, HypothesisSpec(2, 16)
        )
        assert epsilon_curve(n, HypothesisSpec(2, 16)) > epsilon_curve(
            n, HypothesisSpec(2, 1)
        )

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError, match="needs n >= 2, got 1"):
            epsilon_curve(1, HypothesisSpec(1))

    @given(st.integers(3, 10**7), st.integers(0, 5), st.integers(1, 32))
    @settings(max_examples=80)
    def test_eventually_decreasing(self, n, h, p):
        spec = HypothesisSpec(h, p)
        assert epsilon_curve(n + 1, spec) < epsilon_curve(n, spec)


class TestAsymptoticCondition:
    """The condition ln N(n) - n*eps^2/4 < 0, with ln N(n) in its asymptotic
    form h*p*ln(n) + gamma. epsilon_curve is the eps at which it is zero, so
    the margin at eps is n*(epsilon_curve(n)^2 - eps^2)/4."""

    @staticmethod
    def margin(n, spec, eps):
        return n * (epsilon_curve(n, spec) ** 2 - eps * eps) / 4

    def test_small_n_positive(self):
        got = self.margin(2, HypothesisSpec(3, 16), 0.05)
        assert got == pytest.approx(92.3601695558365, abs=1e-10)

    def test_rejects_n_below_two(self):
        with pytest.raises(ValueError, match="needs n >= 2, got 1"):
            self.margin(1, HypothesisSpec(1), 0.05)

    def test_flat_space_closed_form_root(self):
        # h=0 reduces to ln2 - n*eps^2/4, crossing at n = 4*ln2/eps^2
        eps = 0.05
        root = 4 * math.log(2) / eps**2
        spec = HypothesisSpec(0, 1)
        assert self.margin(math.floor(root), spec, eps) > 0
        assert self.margin(math.ceil(root) + 1, spec, eps) < 0

    def test_root_near_exact_solver_answer(self):
        # asymptotic-form root should land within a factor of two of ~1.0e6
        spec = HypothesisSpec(3, 16)
        lo, hi = 2, 10**8
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.margin(mid, spec, 0.05) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * 1.02678e6 <= hi <= 2 * 1.02678e6
