import math

import pytest
from scipy.special import eval_laguerre

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
    tab = specialfn.stirling_table(40)
    for n in range(2, 41):
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
        assert specialfn.log_factorial(n) == pytest.approx(product, rel=1e-14)
