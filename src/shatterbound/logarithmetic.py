"""Exact big-integer and log-domain arithmetic shared by every formula path.

Counts of realizable labelings blow past any fixed-precision float long
before the sample sizes of interest, so every quantity travels either as a
python int (exact) or as its natural logarithm (LogNum). The two paths are
kept mutually checkable: anything computed in log space can be compared
against the exact integer it represents.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "BigCount",
    "LogNum",
    "LN2",
    "exact_binomial",
    "log_binomial",
    "log_sum",
    "log_pow",
    "log_of_bigcount",
]

LN2 = math.log(2.0)
_NEG_INF = float("-inf")

# Arbitrary-precision nonnegative integer; python ints are already exact
# under +, * and ** so no wrapper type is needed.
BigCount = int


@dataclass(frozen=True, order=True)
class LogNum:
    """A nonnegative extended-real stored as its natural log.

    ``-inf`` encodes zero. NaN is rejected outright, which keeps the
    ordering (inherited from the float) total.
    """

    log_value: float

    def __post_init__(self) -> None:
        if math.isnan(self.log_value):
            raise ValueError("LogNum cannot carry NaN")

    @classmethod
    def from_value(cls, x: float) -> "LogNum":
        """Encode a nonnegative linear-scale value."""
        if x < 0:
            raise ValueError(f"LogNum represents nonnegative quantities, got {x}")
        return cls(math.log(x)) if x > 0 else cls(float("-inf"))

    @classmethod
    def zero(cls) -> "LogNum":
        return cls(float("-inf"))

    def is_zero(self) -> bool:
        return self.log_value == float("-inf")

    def value(self) -> float:
        """Back to linear scale; overflows to inf beyond the float range."""
        return math.exp(self.log_value)


def exact_binomial(n: int, k: int) -> BigCount:
    """C(n, k) as an exact integer; 0 when k > n, and C(n, 0) = 1.

    math.comb multiplies the k short factors directly, so even C(10**6, 3)
    costs microseconds.
    """
    return math.comb(n, k)


def _binomial_row(m: int, k: int) -> Iterator[BigCount]:
    """C(m, i) for i = 0..k, needs 0 <= k <= m; the exact twin of
    _log_binomial_row, yielded so that a sum over a long row holds one
    term at a time.

    Built by C(m, i) = C(m, i-1) * (m-i+1) // i, exact because
    i * C(m, i) = (m-i+1) * C(m, i-1): one short multiply and divide per
    term, where a math.comb per term would redo the whole product.
    """
    c = 1
    yield c
    for i in range(1, k + 1):
        c = c * (m - i + 1) // i
        yield c


def _log_binomial_row(m: int, k: int) -> list[float]:
    """ln C(m, i) for i = 0..k, needs k <= m.

    Built by ln C(m, i) = ln C(m, i-1) + ln(m-i+1) - ln i, which adds logs
    of exact integers and cannot cancel. The log-gamma difference
    lgamma(m+1) - lgamma(i+1) - lgamma(m-i+1) subtracts near-equal terms and
    loses digits as m grows: all of them by m = 2^62.
    """
    row = [0.0]
    for i in range(1, k + 1):
        row.append(row[-1] + math.log(m - i + 1) - math.log(i))
    return row


def log_binomial(n: int, k: int) -> LogNum:
    """ln C(n, k) in O(min(k, n-k)) steps; LogNum.zero() when k > n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    if k > n:
        return LogNum.zero()
    return LogNum(_log_binomial_row(n, min(k, n - k))[-1])


def _log_add(a: float, b: float) -> float:
    """ln(e^a + e^b) on plain floats, -inf standing for zero.

    Factors out the larger term so nothing overflows:
    ln(x + y) = ln x + ln(1 + y/x) with x >= y.
    """
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def log_sum(a: LogNum, b: LogNum) -> LogNum:
    """ln(e^a + e^b); the LogNum face of ``_log_add``."""
    return LogNum(_log_add(a.log_value, b.log_value))


def log_pow(a: LogNum, p: int) -> LogNum:
    """p-th power in log space, i.e. p * a; 0^p stays 0."""
    if p < 1:
        raise ValueError(f"exponent must be a positive integer, got {p}")
    return LogNum(p * a.log_value)


def log_of_bigcount(v: BigCount) -> LogNum:
    """Natural log of an exact count of any size; -inf for zero.

    math.log handles arbitrary ints without intermediate float conversion,
    so counts with hundreds of digits are fine.
    """
    if v < 0:
        raise ValueError(f"counts are nonnegative, got {v}")
    return LogNum(math.log(v)) if v > 0 else LogNum.zero()
