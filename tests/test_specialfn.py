import cmath
import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import eval_laguerre, gammainc, jv

from pacslab import fock, specialfn
from pacslab.downconversion import DcParams, auto_dims, dc_evolve_closed
from pacslab.errors import NumericalFailureError, TruncationError
from pacslab.pacs import PacsSpec, pacs_state


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


def assert_poisson_tail(values, cut, mu):
    """Each of ``values`` is P(N >= cut) for N ~ Poisson(mu)."""
    ref = float(gammainc(cut, mu))
    with mpmath.workdps(40):
        exact = float(mpmath.gammainc(cut, 0, mu, regularized=True))
    for ours in values:
        if ref >= 1e-3:
            assert abs(ours - ref) <= 1e-13, cut
        elif ref >= 1e-20:
            # below ~1e-30 scipy's own gammainc drifts by ~1e-12 (mpmath below)
            assert ours == pytest.approx(ref, rel=1e-12, abs=0.0), cut
        if exact < 1e-3:
            assert ours == pytest.approx(exact, rel=1e-12, abs=1e-300), cut
        else:
            assert abs(ours - exact) <= 1e-13, cut


@pytest.mark.parametrize("mu", POISSON_MUS)
def test_poisson_tail_against_gammainc(mu):
    # the coherent truncation tail, taken from the amplitudes of |alpha> with
    # |alpha|^2 = mu (fock.coherent_tail_mass), real and complex: cut at the
    # end of the amplitudes, as coherent_state takes it, and inside them;
    # and pacs_state's cut dim - m, read off the TruncationError it raises
    cuts = sorted({*POISSON_DIMS, int(mu), int(mu) + 1, int(mu) + 2} - {0})
    for alpha in (math.sqrt(mu), cmath.rect(math.sqrt(mu), 2.0)):
        amp = fock.coherent_state(alpha, cuts[-1] + 8, tail_tol=1.0).amp
        for cut in cuts:
            values = [
                fock.coherent_tail_mass(amp[:cut], alpha, cut),
                fock.coherent_tail_mass(amp, alpha, cut),
            ]
            if values[1] > fock.DEFAULT_TAIL_TOL:
                with pytest.raises(TruncationError, match="too small for pacs") as exc:
                    pacs_state(PacsSpec(alpha, 3), cut + 3)
                values.append(exc.value.tail_mass)
            assert_poisson_tail(values, cut, abs(alpha) ** 2)


def test_poisson_tail_edges():
    for dim in (1, 1156):
        assert fock.coherent_tail_mass(fock.coherent_state(0.0, dim).amp, 0.0, dim) == 0.0
    for mu in (1e-12, 0.3, 5.0, 900.0):
        alpha = math.sqrt(mu)
        for dim in (1, 64):
            amp = fock.coherent_state(alpha, dim, tail_tol=1.0).amp
            tail = fock.coherent_tail_mass(amp, alpha, 1)
            assert tail == pytest.approx(-math.expm1(-abs(alpha) ** 2), rel=1e-14)
    # both sides of cut = mu: the complement of the head and the tail sum meet
    amp = fock.coherent_state(30.0, 1156, tail_tol=1.0).amp
    below = fock.coherent_tail_mass(amp, 30.0, 900)
    above = fock.coherent_tail_mass(amp, 30.0, 901)
    assert 0.0 < above < below < 1.0
    with mpmath.workdps(40):
        pmf = float(mpmath.exp(-900) * mpmath.mpf(900) ** 900 / mpmath.factorial(900))
    assert below - above == pytest.approx(pmf, rel=1e-12)
    # dc_evolve_closed's headroom cut dim_a - (dim_b - 1) of |alpha / cosh r>,
    # on auto_dims sizes and, read off its TruncationError, on small ones
    for alpha, r in [(0.8, 0.0), (0.8, 1.0), (1.5j, 2.0), (3.0, 0.5), (10 + 5j, 0.3),
                     (25.0, 0.2), (cmath.rect(5.0, 1.0), 1.2)]:
        dim_a, dim_b = auto_dims(alpha, r)
        p = DcParams(alpha, r, dim_a=dim_a, dim_b=dim_b)
        at = p.alpha_eff()
        amp = fock.coherent_state(at, dim_a, tail_tol=1.0).amp
        cut = dim_a - (dim_b - 1)
        assert_poisson_tail([fock.coherent_tail_mass(amp, at, cut)], cut, abs(at) ** 2)
    for p in (DcParams(0.8, 0.5, dim_a=12, dim_b=10), DcParams(3j, 1.0, dim_a=30, dim_b=20)):
        with pytest.raises(TruncationError, match="top column") as exc:
            dc_evolve_closed(p)
        cut = p.dim_a - (p.dim_b - 1)
        assert_poisson_tail([exc.value.tail_mass], cut, abs(p.alpha_eff()) ** 2)
    # an infinite |alpha| underflows e^{-|alpha|^2/2} before any tail; a NaN
    # one gives a NaN state at once; no amplitudes, no tail at dim 0
    with pytest.raises(NumericalFailureError, match="underflows"):
        fock.coherent_state(math.inf, 3)
    start = time.perf_counter()
    assert np.isnan(fock.coherent_state(math.nan, 32).amp).all()
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="dim must be >= 1"):
        fock.coherent_state(0.8, 0)
