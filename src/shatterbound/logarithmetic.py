"""The arithmetic under the two formula paths: binomial rows, exact and in
log space, and the log-domain result type.

Counts of realizable labelings blow past any fixed-precision float long
before the sample sizes of interest, so every quantity travels either as a
python int (exact) or as its natural logarithm (LogNum).
_binomial_row and _log_binomial_row build the same row of C(m, i) on each
path, so the two stay checkable against each other term by term.
_log_binomial_row and _log_add are also the reference that the log count's
fused float kernel, shattering._ln_count, is tested against bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

__all__ = [
    "LogNum",
    "LN2",
]

LN2 = math.log(2.0)
_NEG_INF = float("-inf")


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


def _binomial_row(m: int, k: int) -> Iterator[int]:
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

