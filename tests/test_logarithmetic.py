import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shatterbound.logarithmetic import (
    LogNum,
    _binomial_row,
    exact_binomial,
    log_binomial,
    log_of_bigcount,
    log_pow,
    log_sum,
)

NEG_INF = float("-inf")


class TestExactBinomial:
    def test_identity_cases(self):
        assert exact_binomial(3, 0) == 1
        assert exact_binomial(0, 0) == 1
        assert exact_binomial(4, 2) == 6

    def test_row_value_used_by_count_of_14(self):
        # the i=2 summand of 2*(C(3,0)+C(3,1)+C(3,2)) = 14
        assert exact_binomial(3, 2) == 3

    def test_k_beyond_n_is_zero(self):
        assert exact_binomial(3, 5) == 0

    def test_large_small_k_is_cheap(self):
        assert exact_binomial(10**6, 3) == 10**6 * (10**6 - 1) * (10**6 - 2) // 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            exact_binomial(-1, 0)
        with pytest.raises(ValueError):
            exact_binomial(3, -2)

    @given(st.integers(1, 200), st.integers(0, 10**9))
    def test_pascal_identity(self, n, k_raw):
        k = 1 + k_raw % n
        assert exact_binomial(n, k) == exact_binomial(n - 1, k) + exact_binomial(
            n - 1, k - 1
        )

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 64, 200])
    def test_row_matches_comb_up_to_the_row_end(self, m):
        for k in range(m + 1):
            assert list(_binomial_row(m, k)) == [math.comb(m, i) for i in range(k + 1)]

    def test_row_at_large_m(self):
        m = 2**63 - 1
        assert list(_binomial_row(m, 4)) == [math.comb(m, i) for i in range(5)]


class TestLogBinomial:
    def test_small_values(self):
        assert log_binomial(3, 1).log_value == pytest.approx(math.log(3), abs=1e-12)
        assert log_binomial(10, 5).log_value == pytest.approx(
            5.529429087511423, abs=1e-12
        )

    def test_k_beyond_n_is_log_zero(self):
        assert log_binomial(3, 5).is_zero()

    def test_matches_exact_path_up_to_170(self):
        for n in range(171):
            for k in range(n + 1):
                exact = math.log(exact_binomial(n, k))
                assert abs(log_binomial(n, k).log_value - exact) <= 1e-9

    def test_huge_argument_against_big_integer_oracle(self):
        exact = log_of_bigcount(exact_binomial(10**6, 3)).log_value
        got = log_binomial(10**6, 3).log_value
        assert abs(got - exact) <= 1e-9 * abs(exact)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_binomial(-1, 0)


class TestLogSum:
    def test_plain_addition(self):
        got = log_sum(LogNum(math.log(2)), LogNum(math.log(6)))
        assert got.log_value == pytest.approx(math.log(8), abs=1e-12)

    def test_zero_is_additive_identity(self):
        x = LogNum(1.234)
        assert log_sum(x, LogNum.zero()) == x
        assert log_sum(LogNum.zero(), x) == x
        assert log_sum(LogNum.zero(), LogNum.zero()).is_zero()

    def test_doubling_far_beyond_float_range(self):
        big = LogNum(math.log(1e300))
        got = log_sum(big, big)
        assert got.log_value == pytest.approx(math.log(2) + math.log(1e300), abs=1e-12)

    @given(
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
    )
    def test_commutative(self, a, b):
        x, y = LogNum(a), LogNum(b)
        assert abs(log_sum(x, y).log_value - log_sum(y, x).log_value) <= 1e-12

    @given(
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
        st.floats(min_value=-700, max_value=700, allow_nan=False),
    )
    def test_associative(self, a, b, c):
        x, y, z = LogNum(a), LogNum(b), LogNum(c)
        left = log_sum(log_sum(x, y), z).log_value
        right = log_sum(x, log_sum(y, z)).log_value
        assert abs(left - right) <= 1e-12


class TestLogPow:
    def test_square(self):
        assert log_pow(LogNum(math.log(3)), 2).log_value == pytest.approx(
            math.log(9), abs=1e-12
        )

    def test_zero_stays_zero(self):
        assert log_pow(LogNum.zero(), 5).is_zero()

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            log_pow(LogNum(1.0), 0)

    def test_sixteenth_power_against_big_integer_oracle(self):
        base = exact_binomial(999999, 3)
        exact = log_of_bigcount(base**16).log_value
        got = log_pow(log_binomial(999999, 3), 16).log_value
        assert abs(got - exact) <= 1e-9 * abs(exact)

    @given(
        st.integers(0, 10**4),
        st.integers(0, 50),
        st.integers(1, 32),
    )
    @settings(max_examples=60)
    def test_consistent_with_integer_power(self, n, k, p):
        v = exact_binomial(n, k)
        if v == 0:
            assert log_pow(log_of_bigcount(v), p).is_zero()
            return
        got = log_pow(log_of_bigcount(v), p).log_value
        exact = log_of_bigcount(v**p).log_value
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))


class TestLogOfBigcount:
    def test_basics(self):
        assert log_of_bigcount(1).log_value == 0.0
        assert log_of_bigcount(8).log_value == pytest.approx(math.log(8), abs=1e-12)
        assert log_of_bigcount(0).is_zero()

    def test_cross_path_consistency(self):
        got = log_of_bigcount(exact_binomial(200, 100)).log_value
        ref = log_binomial(200, 100).log_value
        assert abs(got - ref) <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_of_bigcount(-1)


class TestLogNum:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            LogNum(float("nan"))

    def test_ordering_matches_value_ordering(self):
        assert LogNum.zero() < LogNum(0.0) < LogNum(1.0)

    @given(st.floats(min_value=1e-300, max_value=1e300, allow_nan=False))
    def test_round_trip(self, x):
        back = LogNum.from_value(x).value()
        assert abs(back - x) <= 1e-12 * x

    def test_from_value_rejects_negative(self):
        with pytest.raises(ValueError):
            LogNum.from_value(-1.0)

    def test_from_value_zero(self):
        assert LogNum.from_value(0.0).is_zero()
