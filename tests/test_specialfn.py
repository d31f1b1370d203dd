import cmath
import contextlib
import math
import random
import struct
import sys
import threading
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


def _laguerre_reference(m_max, x):
    """Laguerre's recurrence from order 0, as laguerre ran it for every call
    before its tables: L_0..L_{m_max}, or up to the first non-finite order,
    with that order."""
    values, prev, cur = [1.0], 0.0, 1.0
    for k in range(1, m_max + 1):
        prev, cur = cur, ((2 * k - 1 - x) * cur - (k - 1) * prev) / k
        if not math.isfinite(cur):
            return values, k
        values.append(cur)
    return values, None


@pytest.mark.parametrize("x", [-377.9, -2.5, -0.64, 0.0, 0.3, 4.0, 60.0, -1e6, math.nan])
def test_laguerre_tables_equal_the_recurrence_bitwise(x):
    # every order up to the cap, asked for in shuffled order so that tables
    # of every cap are built in every order, each value compared by its bytes
    specialfn._laguerre_table.cache_clear()
    ref, bad = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
    values = []
    with pytest.raises(NumericalFailureError) if bad else contextlib.nullcontext():
        for value in specialfn.laguerre_values(specialfn.LAGUERRE_M_MAX, x):
            values.append(value)
    assert struct.pack(f"<{len(ref)}d", *ref) == struct.pack(f"<{len(values)}d", *values)
    orders = list(range(specialfn.LAGUERRE_M_MAX + 1))
    random.Random(f"laguerre/{x}").shuffle(orders)
    for m in orders:
        if m < len(ref):
            got = specialfn.laguerre(m, x)
            assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", ref[m]), (m, x)
        else:
            with pytest.raises(NumericalFailureError) as exc:
                specialfn.laguerre(m, x)
            assert str(exc.value) == f"laguerre({bad}, {x}) left the double range"
    if 7 < len(ref):
        assert specialfn.laguerre(np.int64(7), x) == ref[7]
    with pytest.raises(ValueError, match="^order m must be nonnegative$"):
        specialfn.laguerre(-1, x)
    with pytest.raises(ValueError, match="^order m must be nonnegative$"):
        next(specialfn.laguerre_values(-1, x))
    with pytest.raises(ValueError, match="^order m must not exceed 512$"):
        specialfn.laguerre(513, x)
    with pytest.raises(TypeError):
        specialfn.laguerre(2.0, x)


def test_laguerre_orders_below_an_overflow_survive_a_larger_table():
    # the table of cap 512 stops where the values leave the double range; an
    # order below that still reads its value, from that table or a smaller one
    for x in (-1e6, -377.9):
        specialfn._laguerre_table.cache_clear()
        ref, bad = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
        assert bad is not None
        with pytest.raises(NumericalFailureError, match=rf"^laguerre\({bad}, {x}\) left"):
            specialfn.laguerre(specialfn.LAGUERRE_M_MAX, x)
        for m in (bad - 1, bad // 2, 3, 0):
            assert specialfn.laguerre(m, x) == ref[m], (x, m)
    # equal arguments of other types keep their own tables, so the type of a
    # value and the text of an error do not depend on what was asked first;
    # a 0-d array, which cannot be hashed, raises the cache's TypeError
    with pytest.raises(NumericalFailureError, match=r"^laguerre\(67, -1000000\) left"):
        specialfn.laguerre(100, -1000000)
    assert type(specialfn.laguerre(5, -0.3)) is float
    assert type(specialfn.laguerre(5, np.float64(-0.3))) is np.float64
    assert specialfn.laguerre(5, np.float64(-0.3)) == _laguerre_reference(5, -0.3)[0][5]
    with pytest.raises(TypeError, match="unhashable"):
        specialfn.laguerre(5, np.array(-0.3))


def test_log_factorial():
    assert specialfn.log_factorial(0) == 0.0
    assert specialfn.log_factorial(1) == 0.0
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        specialfn.log_factorial(-1)
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
        amp = fock.coherent_amplitudes(alpha, cuts[-1] + 8)
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
            amp = fock.coherent_amplitudes(alpha, dim)
            tail = fock.coherent_tail_mass(amp, alpha, 1)
            assert tail == pytest.approx(-math.expm1(-abs(alpha) ** 2), rel=1e-14)
    # both sides of cut = mu: the complement of the head and the tail sum meet
    amp = fock.coherent_amplitudes(30.0, 1156)
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
        amp = fock.coherent_amplitudes(at, dim_a)
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


def test_laguerre_scans_share_one_table_per_argument():
    # a scan that stops early leaves the orders it computed in x's table;
    # laguerre reads them and grows the table only past them, to twice its
    # length; a later scan continues it; every value is the recurrence's,
    # and a table ends at its first non-finite order
    specialfn._laguerre_table.cache_clear()
    x = -0.37
    ref, _ = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
    scan = specialfn.laguerre_values(specialfn.LAGUERRE_M_MAX, x)
    assert [next(scan) for _ in range(40)] == ref[:40]
    scan.close()
    assert specialfn._laguerre_table(x) == ref[:40]
    assert specialfn.laguerre(39, x) == ref[39]
    assert len(specialfn._laguerre_table(x)) == 40
    assert specialfn.laguerre(45, x) == ref[45]
    assert specialfn._laguerre_table(x) == ref[:81]
    assert list(specialfn.laguerre_values(100, x)) == ref[:101]
    assert specialfn._laguerre_table(x) == ref[:101]
    for x in (-1e6, math.nan):
        ref, bad = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
        for _ in range(2):
            with pytest.raises(NumericalFailureError, match=rf"^laguerre\({bad}, {x}\) left"):
                list(specialfn.laguerre_values(specialfn.LAGUERRE_M_MAX, x))
        table = specialfn._laguerre_table(x)
        assert table[:bad] == ref and len(table) == bad + 1 and not math.isfinite(table[-1])


def test_ascending_laguerre_loop_doubles_its_table(monkeypatch):
    # each order of an ascending loop, by its bytes, from a table that
    # doubles whenever it is short: from a fresh table, 9 scans (at 1, 3,
    # 7, ... orders) reach order 512
    specialfn._laguerre_table.cache_clear()
    x = -0.37
    ref, _ = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
    scans = []
    scan = specialfn.laguerre_values

    def counted(m_max, x):
        scans.append(m_max)
        return scan(m_max, x)

    monkeypatch.setattr(specialfn, "laguerre_values", counted)
    values = [specialfn.laguerre(m, x) for m in range(specialfn.LAGUERRE_M_MAX + 1)]
    assert struct.pack(f"<{len(ref)}d", *ref) == struct.pack(f"<{len(values)}d", *values)
    assert len(scans) <= 10


def test_an_overtaken_scan_keeps_its_values_and_drops_its_run():
    # two scans start on a one-order table; laguerre(100) grows it past them;
    # the scan closed then and the scan run on to its end both leave the
    # table as that growth left it, and the second still yields every order
    # of the recurrence
    specialfn._laguerre_table.cache_clear()
    x = -2.5
    ref, _ = _laguerre_reference(specialfn.LAGUERRE_M_MAX, x)
    closed = specialfn.laguerre_values(specialfn.LAGUERRE_M_MAX, x)
    finished = specialfn.laguerre_values(specialfn.LAGUERRE_M_MAX, x)
    assert [next(closed) for _ in range(40)] == ref[:40]
    head = [next(finished) for _ in range(40)]
    assert specialfn.laguerre(100, x) == ref[100]
    closed.close()
    assert specialfn._laguerre_table(x) == ref[:101]
    values = head + list(finished)
    assert struct.pack(f"<{len(ref)}d", *ref) == struct.pack(f"<{len(values)}d", *values)
    assert specialfn._laguerre_table(x) == ref[:101]


def _laguerre_outcome(m_max, x, n):
    """The bytes of the first n values of laguerre_values(m_max, x), closed
    after them, and the text of the error that ended them, if any."""
    scan = specialfn.laguerre_values(m_max, x)
    values, error = [], None
    try:
        for _ in range(n):
            values.append(next(scan))
    except StopIteration:
        pass
    except NumericalFailureError as exc:
        error = str(exc)
    finally:
        scan.close()
    return struct.pack(f"<{len(values)}d", *values), error


def test_threaded_laguerre_calls_and_scans_keep_the_recurrence():
    # 8 threads of random laguerre calls and scans closed part-way, on
    # arguments whose tables end at an overflow or run to the cap; every
    # value and error is the recurrence's, and every table stays a prefix of
    # it, however the growths interleave
    top = specialfn.LAGUERRE_M_MAX
    xs = (-377.9, -1e6, -0.64, 4.0, 60.0)
    refs = {x: _laguerre_reference(top, x) for x in xs}

    def expected(m_max, x, n):
        ref, bad = refs[x]
        k = min(n, m_max + 1)
        if k <= len(ref):
            return struct.pack(f"<{k}d", *ref[:k]), None
        return struct.pack(f"<{len(ref)}d", *ref), f"laguerre({bad}, {x}) left the double range"

    faults = []

    def work(seed, barrier):
        rng = random.Random(seed)
        try:
            barrier.wait()
            for _ in range(40):
                x, m = rng.choice(xs), rng.randrange(top + 1)
                if rng.random() < 0.5:
                    try:
                        got = struct.pack("<d", specialfn.laguerre(m, x))
                    except NumericalFailureError as exc:
                        got = str(exc)
                    ref_bytes, error = expected(m, x, m + 1)
                    want = error or ref_bytes[-8:]
                else:
                    n = rng.randrange(m + 2)
                    got, want = _laguerre_outcome(m, x, n), expected(m, x, n)
                if got != want:
                    faults.append((seed, x, m))
        except Exception as exc:  # a thread's failure reaches the test
            faults.append((seed, repr(exc)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' scans finely
    try:
        for round_ in range(5):
            specialfn._laguerre_table.cache_clear()
            barrier = threading.Barrier(8, timeout=60)
            threads = [
                threading.Thread(target=work, args=(f"{round_}/{i}", barrier)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert faults == []
            for x, (ref, bad) in refs.items():
                table = specialfn._laguerre_table(x)
                assert table[: len(ref)] == ref[: len(table)], x
                assert len(table) <= len(ref) or (
                    len(table) == bad + 1 and not math.isfinite(table[-1])
                ), x
    finally:
        sys.setswitchinterval(switch)
