import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shatterbound.logarithmetic import (
    LogNum,
    _binomial_row,
    _log_add,
    _log_binomial_row,
)
from shatterbound.shattering import HypothesisSpec, shatter_log, shatter_multi


class TestExactBinomial:
    def test_identity_cases(self):
        assert list(_binomial_row(3, 0)) == [1]
        assert list(_binomial_row(0, 0)) == [1]
        assert list(_binomial_row(4, 2))[-1] == 6

    def test_row_value_used_by_count_of_14(self):
        # the i=2 summand of 2*(C(3,0)+C(3,1)+C(3,2)) = 14
        assert list(_binomial_row(3, 2)) == [1, 3, 3]
        assert shatter_multi(4, HypothesisSpec(h=2)) == 14

    def test_k_beyond_n_is_zero(self):
        # the row stops at its end; the terms past it are zero, so any
        # h >= n-1 counts all 2^n labelings
        for n in range(1, 12):
            for h in range(n - 1, n + 4):
                assert shatter_multi(n, HypothesisSpec(h)) == 2**n

    def test_large_small_k_is_cheap(self):
        got = list(_binomial_row(10**6, 3))[-1]
        assert got == 10**6 * (10**6 - 1) * (10**6 - 2) // 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shatter_multi(-1, HypothesisSpec(1))
        with pytest.raises(ValueError):
            shatter_multi(3, HypothesisSpec(-2))

    @given(st.integers(1, 200), st.integers(0, 10**9))
    def test_pascal_identity(self, n, k_raw):
        k = 1 + k_raw % n
        row = list(_binomial_row(n, k))
        prev = list(_binomial_row(n - 1, n - 1)) + [0]
        assert row[k] == prev[k] + prev[k - 1]

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 64, 200])
    def test_row_matches_comb_up_to_the_row_end(self, m):
        for k in range(m + 1):
            assert list(_binomial_row(m, k)) == [math.comb(m, i) for i in range(k + 1)]

    def test_row_at_large_m(self):
        m = 2**63 - 1
        assert list(_binomial_row(m, 4)) == [math.comb(m, i) for i in range(5)]


class TestLogBinomial:
    def test_small_values(self):
        assert _log_binomial_row(3, 1)[-1] == pytest.approx(math.log(3), abs=1e-12)
        assert _log_binomial_row(10, 5)[-1] == pytest.approx(
            5.529429087511423, abs=1e-12
        )

    def test_k_beyond_n_is_log_zero(self):
        # terms past the row end add log zero: any h >= n-1 gives ln 2^n
        for n in range(1, 12):
            for h in range(n - 1, n + 4):
                got = shatter_log(n, HypothesisSpec(h)).log_value
                assert got == pytest.approx(n * math.log(2), abs=1e-12)

    def test_matches_exact_path_up_to_170(self):
        # the whole row, past its middle too: shatter_log walks those
        # entries whenever h >= (n-1)/2
        for n in range(171):
            row = _log_binomial_row(n, n)
            for k in range(n + 1):
                assert abs(row[k] - math.log(math.comb(n, k))) <= 1e-9

    def test_huge_argument_against_big_integer_oracle(self):
        exact = math.log(math.comb(10**6, 3))
        got = _log_binomial_row(10**6, 3)[-1]
        assert abs(got - exact) <= 1e-9 * abs(exact)
        # the middle of a long row, its largest entry
        exact = math.log(math.comb(200, 100))
        assert abs(_log_binomial_row(200, 100)[-1] - exact) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shatter_log(-1, HypothesisSpec(1))
        with pytest.raises(ValueError):
            shatter_log(3, HypothesisSpec(-2))


class TestLogAdd:
    def test_plain_addition(self):
        got = _log_add(math.log(2), math.log(6))
        assert got == pytest.approx(math.log(8), abs=1e-12)

    def test_zero_is_additive_identity(self):
        x = 1.234
        zero = -math.inf
        assert _log_add(x, zero) == x
        assert _log_add(zero, x) == x
        assert _log_add(zero, zero) == -math.inf

    def test_doubling_far_beyond_float_range(self):
        big = math.log(1e300)
        got = _log_add(big, big)
        assert got == pytest.approx(math.log(2) + math.log(1e300), abs=1e-12)

    @given(
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
    )
    def test_commutative(self, a, b):
        assert abs(_log_add(a, b) - _log_add(b, a)) <= 1e-12

    @given(
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
    )
    def test_associative(self, a, b, c):
        left = _log_add(_log_add(a, b), c)
        right = _log_add(a, _log_add(b, c))
        assert abs(left - right) <= 1e-12


class TestLogOfBigcount:
    def test_basics(self):
        # math.log of an exact count, the oracle the log path is held to
        assert math.log(shatter_multi(1, HypothesisSpec(0))) == math.log(2)
        assert shatter_log(1, HypothesisSpec(0)).log_value == math.log(2)
        assert math.log(shatter_multi(4, HypothesisSpec(2))) == pytest.approx(
            math.log(14), abs=1e-12
        )
        # a count past the float range needs no float conversion
        count = shatter_multi(10**4, HypothesisSpec(3, 32))
        assert count.bit_length() > 1024
        exact = math.log(count)
        got = shatter_log(10**4, HypothesisSpec(3, 32)).log_value
        assert abs(got - exact) <= 1e-9 * abs(exact)

    def test_cross_path_consistency(self):
        # the two row builders agree term by term over a whole long row
        exact_row = list(_binomial_row(200, 100))
        log_row = _log_binomial_row(200, 100)
        for c, ln_c in zip(exact_row, log_row, strict=True):
            assert abs(math.log(c) - ln_c) <= 1e-9


class TestLogNum:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            LogNum(float("nan"))

    def test_ordering_matches_value_ordering(self):
        assert LogNum(-math.inf) < LogNum(0.0) < LogNum(1.0)

    @given(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False))
    def test_round_trip(self, x):
        back = math.exp(LogNum(math.log(x)).log_value)
        assert abs(back - x) <= 1e-12 * x
