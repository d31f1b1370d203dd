"""Exact combinatorics and special functions, in the standard library only.

Stirling numbers of the second kind are kept as exact Python integers (no
floating point in the table); Laguerre polynomials use the stable three-term
recurrence, kept per argument in bounded tables; log-factorials are a
left-to-right sum of logs.  Bessel functions J_0..J_n come from one Miller
backward recurrence (the Chebyshev coefficients of the pair propagator).
"""

import math
import operator
import threading
from functools import cache, lru_cache

from .errors import NumericalFailureError

STIRLING_N_MAX = 64
LAGUERRE_M_MAX = 512


@cache
def stirling_table() -> tuple:
    """Table of S(n, k) for 0 <= k <= n <= STIRLING_N_MAX, exact integers.

    Built from S(n, k) = k S(n-1, k) + S(n-1, k-1) with S(0, 0) = 1.
    Row n is a tuple of length n + 1.
    """
    rows = [(1,)]
    for n in range(1, STIRLING_N_MAX + 1):
        prev = rows[n - 1]
        row = [0] * (n + 1)
        for k in range(1, n):
            row[k] = k * prev[k] + prev[k - 1]
        row[n] = 1
        rows.append(tuple(row))
    return tuple(rows)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if n > STIRLING_N_MAX or k > STIRLING_N_MAX:
        raise ValueError(f"n, k must not exceed {STIRLING_N_MAX}")
    if k > n:
        return 0
    return stirling_table()[n][k]


# tables of L_0(x).. kept, one per argument x; a table of 513 orders takes
# about 16 kB
LAGUERRE_TABLES = 16
# a table only grows, and one scan at a time appends to it
_LAGUERRE_GROWTH = threading.Lock()


@lru_cache(maxsize=LAGUERRE_TABLES, typed=True)
def _laguerre_table(x: float) -> list:
    """x's table L_0(x)..L_k(x), as far as laguerre_values has run at x; a
    value that is not finite ends it."""
    return [1.0]


def _left_range(order: int, x: float) -> NumericalFailureError:
    return NumericalFailureError(f"laguerre({order}, {x}) left the double range")


def laguerre_values(m_max: int, x: float):
    """L_0(x), L_1(x), ..., L_{m_max}(x) from one three-term recurrence.

    L_0 = 1, k L_k = (2k-1-x) L_{k-1} - (k-1) L_{k-2} (so L_1 = 1 - x).
    For x < 0 every series term is positive, so the recurrence is
    cancellation-free on the arguments used here.  Raises
    NumericalFailureError when it reaches the first order whose value
    leaves the double range (a non-finite value stays non-finite at every
    higher order).

    Each order is computed once per x: the scan reads x's table (kept in a
    bounded cache of LAGUERRE_TABLES arguments) as far as it goes and runs
    the recurrence on from there.  When the scan stops, however early, what
    it computed, a non-finite value included, is appended to the table,
    unless another scan has grown it meanwhile.  An x that cannot be hashed
    raises TypeError.
    """
    if m_max < 0:
        raise ValueError("order m must be nonnegative")
    if m_max > LAGUERRE_M_MAX:
        raise ValueError(f"order m must not exceed {LAGUERRE_M_MAX}")
    table = _laguerre_table(x)
    start = len(table)
    end = start if math.isfinite(table[start - 1]) else start - 1
    yield from table[: min(end, m_max + 1)]
    if end > m_max:
        return
    if end < start:
        raise _left_range(end, x)
    prev, cur = table[start - 2] if start > 1 else 0.0, table[start - 1]
    run = []
    append = run.append
    try:
        for k in range(start, m_max + 1):
            prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
            finite = math.isfinite(cur)
            append(cur)
            if not finite:
                raise _left_range(k, x)
            yield cur
    finally:
        with _LAGUERRE_GROWTH:
            if len(table) == start:
                table.extend(run)


def laguerre(m: int, x: float) -> float:
    """Laguerre polynomial L_m(x), bit for bit the last of
    ``laguerre_values(m, x)``.

    Read from x's table; one that is too short is first grown by a scan to
    order max(m, twice its length), at most LAGUERRE_M_MAX, so an
    ascending loop over m = 0..LAGUERRE_M_MAX runs 9 scans rather than one
    per order.  NumericalFailureError names the first order that left the
    double range when it is <= m.
    """
    m = operator.index(m)
    if m < 0:
        raise ValueError("order m must be nonnegative")
    if m > LAGUERRE_M_MAX:
        raise ValueError(f"order m must not exceed {LAGUERRE_M_MAX}")
    table = _laguerre_table(x)
    if m < len(table) and math.isfinite(table[m]):
        return table[m]
    top = min(max(m, 2 * len(table)), LAGUERRE_M_MAX)
    found = None
    try:
        for k, value in enumerate(laguerre_values(top, x)):
            if k == m:
                found = value
    except NumericalFailureError:
        if found is None:
            raise
    return found


def log_factorial(n: int) -> float:
    """ln(n!) as the left-to-right sum 0 + ln 2 + ... + ln n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0.0
    for k in range(2, n + 1):
        total += math.log(k)
    return total


def bessel_j_values(n_max: int, x: float) -> list:
    """[J_0(x), ..., J_{n_max}(x)] for x >= 0 from one Miller backward
    recurrence.

    J_{k-1} = (2k/x) J_k - J_{k+1} is run down from an even order
    max(n_max, x) + 20 + 15 max(n_max, x)^(1/3), far enough into the
    region where J decays that the dominant solution swamps the start, and
    normalised by J_0 + 2 sum_k J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967);
    Abramowitz & Stegun 9.12).  The values are rescaled by 1e-250 whenever
    they grow past 1e250; orders that then underflow are truly below the
    double range.  2k/x is rounded afresh at every step, so no systematic
    error in 2/x drifts the phase at large x.  For x <= 1e-8 the leading
    term of the power series is exact to double precision and is used
    instead.
    """
    if n_max < 0:
        raise ValueError("order n_max must be nonnegative")
    if not (0.0 <= x < math.inf):
        raise ValueError("x must be finite and nonnegative")
    if x <= 1e-8:
        # J_n = (x/2)^n / n! * (1 - (x/2)^2 / (n+1) + ...), and the
        # correction is below half an ulp; the recurrence's growth 2k/x per
        # step could overflow between two rescalings here
        vals = [1.0]
        for k in range(1, n_max + 1):
            vals.append(vals[-1] * (0.5 * x) / k)
        return vals
    top = max(n_max, x)
    start = int(top + 20 + 15 * top ** (1.0 / 3.0))
    start += start % 2
    vals = [0.0] * (start + 1)
    nxt, cur = 0.0, 1e-300
    for k in range(start, 0, -1):
        vals[k] = cur
        nxt, cur = cur, 2.0 * k / x * cur - nxt
        if abs(cur) > 1e250:
            vals[k:] = [v * 1e-250 for v in vals[k:]]
            nxt *= 1e-250
            cur *= 1e-250
    vals[0] = cur
    norm = math.fsum([cur, *(2.0 * v for v in vals[2::2])])
    return [v / norm for v in vals[: n_max + 1]]
