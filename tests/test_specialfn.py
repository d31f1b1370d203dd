import math

import mpmath
import pytest
from scipy.special import eval_laguerre, gammainc, jv

from pacslab import specialfn
from pacslab.errors import NumericalFailureError


def partitions_into_blocks(n: int, k: int) -> int:
    """Independent oracle: count restricted growth strings of length n whose
    largest label is k - 1 (= set partitions of n items into k blocks)."""
    def count(pos: int, top: int) -> int:
        if pos == n:
            return 1 if top == k - 1 else 0
        total = 0
        for label in range(min(top + 1, k - 1) + 1):
            total += count(pos + 1, max(top, label))
        return total

    if n == 0:
        return 1 if k == 0 else 0
    return count(1, 0)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("k", range(0, 8))
def test_stirling_against_enumeration(n, k):
    assert specialfn.stirling2(n, k) == partitions_into_blocks(n, k)


def test_stirling_frozen_values():
    assert specialfn.stirling2(3, 2) == 3
    assert specialfn.stirling2(4, 2) == 7
    assert specialfn.stirling2(0, 0) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 9, 17])
def test_stirling_boundaries(n):
    assert specialfn.stirling2(n, 0) == 0
    assert specialfn.stirling2(n, 1) == 1
    assert specialfn.stirling2(n, n) == 1
    assert specialfn.stirling2(n, n + 1) == 0


def test_stirling_recurrence_exact():
    tab = specialfn.stirling_table()
    assert len(tab) == specialfn.STIRLING_N_MAX + 1
    for n in range(2, len(tab)):
        for k in range(1, n):
            assert tab[n][k] == k * tab[n - 1][k] + tab[n - 1][k - 1]


def test_stirling_bounds_checked():
    with pytest.raises(ValueError):
        specialfn.stirling2(65, 2)
    with pytest.raises(ValueError):
        specialfn.stirling2(-1, 0)


def test_laguerre_low_orders():
    assert specialfn.laguerre(0, 123.4) == 1.0
    assert specialfn.laguerre(1, -0.64) == pytest.approx(1.64, abs=1e-14)
    # 1 - 2x + x^2/2 and 1 - 3x + 3x^2/2 - x^3/6 at x = -0.64
    assert specialfn.laguerre(2, -0.64) == pytest.approx(2.4848, abs=1e-12)
    assert specialfn.laguerre(3, -0.64) == pytest.approx(3.5780906667, abs=1e-9)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 20, 87])
@pytest.mark.parametrize("x", [-2.5, -0.64, 0.0, 0.3, 4.0])
def test_laguerre_against_scipy(m, x):
    ours = specialfn.laguerre(m, x)
    ref = eval_laguerre(m, x)
    assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


def test_laguerre_positive_on_negative_axis():
    for m in range(0, 60, 7):
        assert specialfn.laguerre(m, -1.3) > 0


def test_laguerre_generating_function():
    t, x = 0.5, -0.3
    series = sum(t**m * specialfn.laguerre(m, x) for m in range(201))
    assert series == pytest.approx(math.exp(x * t / (t - 1)) / (1 - t), abs=1e-10)


@pytest.mark.parametrize("x", [-377.9, -2.5, -0.64, 0.0, 0.3, 4.0, 60.0])
def test_laguerre_values_match_per_order_recurrence(x):
    # the recurrence as (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}, restarted
    # for every order, must give the single pass bit for bit
    def per_order(m):
        if m == 0:
            return 1.0
        prev, cur = 1.0, 1.0 - x
        for k in range(1, m):
            prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        return cur

    values = list(specialfn.laguerre_values(300, x))
    assert values == [per_order(m) for m in range(301)]
    assert specialfn.laguerre(300, x) == values[-1]


def test_laguerre_order_cap():
    with pytest.raises(ValueError):
        specialfn.laguerre(513, 0.1)
    with pytest.raises(NumericalFailureError):
        specialfn.laguerre(400, -1e6)


def test_log_factorial():
    assert specialfn.log_factorial(0) == 0.0
    assert specialfn.log_factorial(1) == 0.0
    assert specialfn.log_factorial(3) == pytest.approx(math.log(6), rel=1e-15)
    assert math.exp(specialfn.log_factorial(10)) == pytest.approx(3628800, rel=1e-12)
    product = 0.0
    for n in range(1, 31):
        product += math.log(n)
        assert specialfn.log_factorial(n) == product  # the same left-to-right sum


# Chebyshev bounds 2 r sqrt(dim_a dim_b) of the pair propagator: dc-pm's
# default (0.8, 1) at 72 x 47, criterion 02's (0.8, 2) at 383 x 361 and
# (1.5, 2) at 483 x 459, and one beyond
BESSEL_XS = [
    1e-3, 0.3, 7.5, 116.34431657799189, 1487.3493200993505, 1883.3884357720794, 1900.0
]


@pytest.mark.parametrize("x", BESSEL_XS)
def test_bessel_against_mpmath(x):
    k_hi = int(x + 40 + 15 * x ** (1.0 / 3.0))  # as dc_evolve_numeric sizes it
    values = specialfn.bessel_j_values(k_hi, x)
    assert len(values) == k_hi + 1
    orders = sorted({*range(0, k_hi + 1, max(1, k_hi // 24)), int(x), int(x) + 1, k_hi})
    with mpmath.workdps(40):
        for n in orders:
            exact = float(mpmath.besselj(n, x))
            assert abs(values[n] - exact) <= 1e-15, n
            # scipy's jv drifts by up to ~2.4e-14 at x ~ 1900
            assert abs(values[n] - float(jv(n, x))) <= 5e-14, n


def test_bessel_small_and_degenerate_arguments():
    assert specialfn.bessel_j_values(3, 0.0) == [1.0, 0.0, 0.0, 0.0]
    assert specialfn.bessel_j_values(0, 5.0)[0] == pytest.approx(jv(0, 5.0), abs=1e-16)
    # the power-series branch, and underflow instead of overflow at tiny x
    tiny = specialfn.bessel_j_values(400, 1e-300)
    assert tiny[:2] == [1.0, 5e-301] and tiny[-1] == 0.0
    with mpmath.workdps(40):
        for x in (1e-9, 1.1e-8, 1e-3):
            values = specialfn.bessel_j_values(60, x)
            for n in (0, 1, 5, 20):
                exact = float(mpmath.besselj(n, x))
                assert values[n] == pytest.approx(exact, rel=1e-14, abs=1e-300)
            assert all(math.isfinite(v) for v in values)
    with pytest.raises(ValueError):
        specialfn.bessel_j_values(-1, 1.0)
    with pytest.raises(ValueError):
        specialfn.bessel_j_values(3, -1.0)
    with pytest.raises(ValueError):
        specialfn.bessel_j_values(3, math.inf)


POISSON_MUS = [1e-8, 0.01, 0.64, 1.0, 2.25, 10.0, 99.5, 100.0, 400.0, 899.5, 900.0]
POISSON_DIMS = [1, 2, 5, 32, 48, 64, 100, 101, 200, 400, 401, 512, 899, 900, 901, 1000, 1156]


@pytest.mark.parametrize("mu", POISSON_MUS)
def test_poisson_tail_against_gammainc(mu):
    for dim in sorted({*POISSON_DIMS, int(mu), int(mu) + 1, int(mu) + 2} - {0}):
        ours = specialfn.poisson_tail(dim, mu)
        ref = float(gammainc(dim, mu))
        if ref >= 1e-3:
            assert abs(ours - ref) <= 1e-13, dim
        elif ref >= 1e-20:
            # below ~1e-30 scipy's own gammainc drifts by ~1e-12 (mpmath below)
            assert ours == pytest.approx(ref, rel=1e-12, abs=0.0), dim
        with mpmath.workdps(40):
            exact = float(mpmath.gammainc(dim, 0, mu, regularized=True))
        if exact < 1e-3:
            assert ours == pytest.approx(exact, rel=1e-12, abs=1e-300), dim
        else:
            assert abs(ours - exact) <= 1e-13, dim


def test_poisson_tail_edges():
    assert specialfn.poisson_tail(1, 0.0) == 0.0
    assert specialfn.poisson_tail(1156, 0.0) == 0.0
    for mu in (1e-12, 0.3, 5.0, 900.0):
        assert specialfn.poisson_tail(1, mu) == pytest.approx(-math.expm1(-mu), rel=1e-14)
    # both sides of dim = mu: the series and the complement meet
    below = specialfn.poisson_tail(900, 900.0)
    above = specialfn.poisson_tail(901, 900.0)
    assert 0.0 < above < below < 1.0
    with mpmath.workdps(40):
        pmf = float(mpmath.exp(-900) * mpmath.mpf(900) ** 900 / mpmath.factorial(900))
    assert below - above == pytest.approx(pmf, rel=1e-12)
    assert specialfn.poisson_tail(3, math.inf) == 1.0
    assert math.isnan(specialfn.poisson_tail(3, math.nan))
    with pytest.raises(ValueError):
        specialfn.poisson_tail(0, 1.0)
