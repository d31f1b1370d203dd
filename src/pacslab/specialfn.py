"""Exact combinatorics and polynomial evaluations used by the closed forms.

Stirling numbers of the second kind are kept as exact Python integers (no
floating point in the table); Laguerre polynomials use the stable three-term
recurrence; log-factorials come from a cached cumulative sum.
"""

import math
from functools import lru_cache

from .errors import NumericalFailureError

STIRLING_N_MAX = 64
LAGUERRE_M_MAX = 512
LOG_FACTORIAL_N_MAX = 10**6


@lru_cache(maxsize=8)
def stirling_table(n_max: int) -> tuple:
    """Table of S(n, k) for 0 <= k <= n <= n_max, exact integers.

    Built from S(n, k) = k S(n-1, k) + S(n-1, k-1) with S(0, 0) = 1.
    Row n is a tuple of length n + 1.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = [(1,)]
    for n in range(1, n_max + 1):
        prev = rows[n - 1]
        row = [0] * (n + 1)
        for k in range(1, n):
            row[k] = k * prev[k] + prev[k - 1]
        row[n] = 1
        rows.append(tuple(row))
    return tuple(rows)


def stirling2(n: int, k: int, n_max: int = STIRLING_N_MAX) -> int:
    """Stirling number of the second kind S(n, k), exact."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if n > n_max or k > n_max:
        raise ValueError(f"n, k must not exceed n_max={n_max}")
    if k > n:
        return 0
    return stirling_table(n_max)[n][k]


def laguerre_values(m_max: int, x: float):
    """L_0(x), L_1(x), ..., L_{m_max}(x) from one three-term recurrence.

    L_0 = 1, k L_k = (2k-1-x) L_{k-1} - (k-1) L_{k-2} (so L_1 = 1 - x).
    For x < 0 every series term is positive, so the recurrence is
    cancellation-free on the arguments used here.  Raises
    NumericalFailureError at the first order whose value leaves the double
    range (a non-finite value stays non-finite at every higher order).
    """
    if m_max < 0:
        raise ValueError("order m must be nonnegative")
    if m_max > LAGUERRE_M_MAX:
        raise ValueError(f"order m must not exceed {LAGUERRE_M_MAX}")
    prev, cur = 0.0, 1.0
    yield cur
    for k in range(1, m_max + 1):
        prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
        if not math.isfinite(cur):
            raise NumericalFailureError(f"laguerre({k}, {x}) left the double range")
        yield cur


def laguerre(m: int, x: float) -> float:
    """Laguerre polynomial L_m(x), the last of ``laguerre_values(m, x)``."""
    for value in laguerre_values(m, x):
        pass
    return value


_LOG_FACT = (0.0, 0.0)


def log_factorial(n: int) -> float:
    """ln(n!) via a cached cumulative sum of logs."""
    global _LOG_FACT
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > LOG_FACTORIAL_N_MAX:
        raise ValueError(f"n must not exceed {LOG_FACTORIAL_N_MAX}")
    table = _LOG_FACT
    if n >= len(table):
        # grow a fresh table and publish it whole; published tables are
        # immutable, so concurrent readers always see a consistent prefix
        ext = list(table)
        while len(ext) <= n:
            ext.append(ext[-1] + math.log(len(ext)))
        table = tuple(ext)
        _LOG_FACT = table
    return table[n]
