import cmath
import math
import random
import re
import struct

import numpy as np
import pytest
from scipy.linalg import expm

from pacslab import downconversion as dc
from pacslab import chains, checks, fock, jaynes, specialfn
from pacslab.errors import EmptyBranchError, NumericalFailureError, TruncationError
from pacslab.pacs import PacsSpec, pacs_state
from pacslab.specialfn import LAGUERRE_M_MAX, laguerre


def test_closed_zero_interaction_is_product_state():
    p = dc.DcParams(0.8, 0.0)
    state = dc.dc_evolve_closed(p)
    ref = fock.tensor_product(
        fock.coherent_state(0.8, p.dim_a), fock.fock_state(0, p.dim_b)
    )
    assert np.max(np.abs(state.amp - ref.amp)) == 0.0


def test_closed_vacuum_seed_is_two_mode_squeezed_vacuum():
    p = dc.DcParams(0.0, 0.5, 0.3)
    state = dc.dc_evolve_closed(p)
    th, ch = math.tanh(0.5), math.cosh(0.5)
    for n in range(p.dim_b):
        expected = (-1j * np.exp(0.3j) * th) ** n / ch
        assert state.amp[n, n] == pytest.approx(expected, abs=1e-14)
    off = state.amp.copy()
    np.fill_diagonal(off, 0.0)
    assert np.max(np.abs(off)) == 0.0


def test_closed_norm_checked_not_renormalized():
    # the dims a tail target of 1e-11 gives, tighter than auto_dims
    state = dc.dc_evolve_closed(dc.DcParams(0.8, 1.0, 0.0, 82, 57))
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)
    # undersized idler truncation must raise, carrying the tail mass
    with pytest.raises(TruncationError) as exc:
        dc.dc_evolve_closed(dc.DcParams(0.8, 2.0, 0.0, 48, 24))
    assert exc.value.tail_mass > 1e-3


def test_closed_rejects_missing_signal_headroom():
    with pytest.raises(TruncationError):
        dc.dc_evolve_closed(dc.DcParams(0.8, 1.0, 0.0, 10, 24))


def test_numeric_zero_interaction_exact():
    p = dc.DcParams(0.8, 0.0)
    state = dc.dc_evolve_numeric(p)
    ref = fock.tensor_product(
        fock.coherent_state(0.8, p.dim_a), fock.fock_state(0, p.dim_b)
    )
    assert np.max(np.abs(state.amp - ref.amp)) == 0.0


def dense_pair_evolution(p):
    """exp(-i r (e^{i phi} adag bdag + h.c.)) |alpha>|0> by dense expm."""
    adag = fock.creation_matrix(p.dim_a).entries
    bdag = fock.creation_matrix(p.dim_b).entries
    pair = np.exp(1j * p.phi) * np.kron(adag, bdag)
    h = p.r * (pair + pair.conj().T)
    seed = fock.tensor_product(
        fock.coherent_state(p.alpha, p.dim_a), fock.fock_state(0, p.dim_b)
    )
    return (expm(-1j * h) @ seed.amp.reshape(-1)).reshape(p.dim_a, p.dim_b)


DENSE_EXPM_CASES = [
    (dc.DcParams(0.5 + 0.4j, 0.7, math.pi / 5, 12, 10), 12),
    (dc.DcParams(0.3 + 0.2j, 0.9, 1.1, 9, 12), 9),  # chains shorter than dim_b
    (dc.DcParams(0.0, 0.8, 0.4, 1, 7), 1),
    # chains the seed leaves below 1e-30 in weight are skipped
    (dc.DcParams(0.4 + 0.3j, 0.6, 0.9, 40, 12), 20),
    (dc.DcParams(0.0, 0.8, 0.4, 30, 20), 1),
    (dc.DcParams(1.2, 0.5, 2.0, 48, 16), 32),
]


@pytest.mark.parametrize(
    "p, kept",
    DENSE_EXPM_CASES,
    ids=[
        "square",
        "dim_b_above_dim_a",
        "dim_a_one",
        "half_chains_skipped",
        "vacuum_seed_one_chain",
        "dim_b_below_kept_chains",
    ],
)
def test_numeric_matches_dense_expm(p, kept, monkeypatch):
    laid_out = []
    propagate = chains.propagate

    def spy(lengths, *args):
        laid_out.append(len(lengths))
        return propagate(lengths, *args)

    monkeypatch.setattr(chains, "propagate", spy)
    state = dc.dc_evolve_numeric(p)
    assert laid_out == [kept]
    assert np.max(np.abs(state.amp - dense_pair_evolution(p))) < 1e-13


def test_numeric_rejects_tol_outside_unit_interval():
    # inf once kept no chain and returned a zero state, nan ran silently at
    # the 5e-17 floor, and 1 and 10 returned states of norm 0.964 and 0.627
    p = dc.DcParams(0.8, 0.5, 0.0, 40, 20)
    for tol in (math.inf, math.nan, 1.0, 10.0, 0.0, -1e-3):
        text = f"tol must be in (0, 1), got {tol}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            dc.dc_evolve_numeric(p, tol=tol)
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            dc.dc_evolve_numeric(dc.DcParams(0.8, 0.0), tol=tol)


def test_numeric_matches_closed_at_default_dims():
    p = dc.DcParams(0.8, 0.5)
    closed = dc.dc_evolve_closed(p)
    numeric = dc.dc_evolve_numeric(p)
    assert fock.fidelity(closed, numeric) >= 1 - 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.8])
@pytest.mark.parametrize("phi", [0.0, math.pi / 3])
def test_numeric_matches_closed_with_phase(alpha, phi):
    da, db = dc.auto_dims(alpha, 1.0)
    p = dc.DcParams(alpha, 1.0, phi, da, db)
    closed = dc.dc_evolve_closed(p)
    numeric = dc.dc_evolve_numeric(p)
    assert fock.fidelity(closed, numeric) >= 1 - 1e-8


def test_numeric_vacuum_marginal_is_geometric():
    p = dc.DcParams(0.0, 0.5, 0.0, 24, 20)
    state = dc.dc_evolve_numeric(p)
    th2, ch2 = math.tanh(0.5) ** 2, math.cosh(0.5) ** 2
    marginal = np.sum(np.abs(state.amp) ** 2, axis=0)
    for m in range(10):
        assert marginal[m] == pytest.approx(th2**m / ch2, abs=1e-12)


def test_conditional_single_addition_is_ideal():
    da, db = dc.auto_dims(0.8, 1.0)
    p = dc.DcParams(0.8, 1.0, 0.0, da, db)
    state = dc.dc_evolve_closed(p)
    res = dc.conditional_mpacs(state, 1, alpha_eff=p.alpha_eff())
    assert p.alpha_eff().real == pytest.approx(0.8 / math.cosh(1.0), abs=1e-15)
    assert p.alpha_eff().real == pytest.approx(0.5184434189, abs=1e-9)
    assert res.fidelity >= 1 - 1e-10


def test_conditional_zero_photons_leaves_rescaled_coherent():
    p = dc.DcParams(0.8, 1.0, 0.0, 69, 44)
    res = dc.conditional_mpacs(dc.dc_evolve_closed(p), 0, alpha_eff=p.alpha_eff())
    ref = fock.coherent_state(p.alpha_eff(), p.dim_a)
    assert abs(fock.inner_product(ref, res.state)) ** 2 >= 1 - 1e-12


def test_conditional_large_squeeze_approaches_number_state(monkeypatch):
    # at r = 3 the rescaled amplitude is ~0.08, so adag^2|alpha_eff> is close
    # to |2>; the exact fidelity is e^{-x}/L_2(-x) with x = |alpha_eff|^2
    # dim_b = 8 leaves most of the norm out at r = 3; column 2 is exact
    p = dc.DcParams(0.8, 3.0, 0.0, 48, 8)
    monkeypatch.setattr(dc, "DEFAULT_NORM_TOL", 1.0)
    state = dc.dc_evolve_closed(p)
    res = dc.conditional_mpacs(state, 2, alpha_eff=p.alpha_eff())
    two = fock.fock_state(2, p.dim_a)
    fid = abs(fock.inner_product(two, res.state)) ** 2
    x = abs(p.alpha_eff()) ** 2
    assert fid == pytest.approx(math.exp(-x) / (1 + 2 * x + x * x / 2), rel=1e-10)
    assert fid > 0.98


def test_conditional_empty_branch():
    p = dc.DcParams(0.8, 0.0)
    with pytest.raises(EmptyBranchError):
        dc.conditional_mpacs(dc.dc_evolve_closed(p), 1, alpha_eff=p.alpha_eff())


def test_ideal_pacs_deficit_counts_empty_branch_as_one():
    # at r = 0 no idler photon is made: the m = 1 record is empty and the
    # check fails its bound instead of raising
    rows = checks.ideal_rows(0.8, [0.0], [1])
    assert (rows[0]["fidelity"], rows[0]["prob"]) == (None, 0.0)
    assert checks.ideal_pacs_deficit((0.8,), (0.0,), (1,)) == 1.0


def test_p_m_zero_interaction():
    assert dc.p_m(0.8, 0.0, 0) == 1.0
    assert dc.p_m(0.8, 0.0, 3) == 0.0


def test_p_m_anchor_value():
    # frozen from two independent routes: the closed form and the projection
    # probability of the numeric evolution (they agree to ~4e-15)
    assert dc.p_m(0.8, 1.0, 1) == pytest.approx(0.2132260537596123, abs=1e-12)


def test_p_m_matches_numeric_projection():
    da, db = dc.auto_dims(0.8, 1.0)
    state = dc.dc_evolve_numeric(dc.DcParams(0.8, 1.0, 0.0, da, db))
    for m in range(7):
        col = state.amp[:, m]
        numeric = float(np.vdot(col, col).real)
        assert dc.p_m(0.8, 1.0, m) == pytest.approx(numeric, abs=1e-8)


def test_p_m_closure():
    assert dc.p_m_cumulative(0.8, 1.0, 60) == pytest.approx(1.0, abs=1e-10)


def per_order_p_m(alpha, r, m):
    """The closed form of p_m evaluated on its own for one m."""
    if r == 0.0:
        return 1.0 if m == 0 else 0.0
    th2, ch2, aa = math.tanh(r) ** 2, math.cosh(r) ** 2, abs(alpha) ** 2
    return math.exp(-aa * th2) / ch2 * th2**m * laguerre(m, -aa / ch2)


@pytest.mark.parametrize(
    "alpha, r", [(0.8, 0.0), (0.7 + 0.4j, 1.3), (0.8, 2.0), (1.5, 2.0), (0.3, 0.05)]
)
def test_single_pass_p_m_equals_per_order_loop(alpha, r):
    terms = [per_order_p_m(alpha, r, m) for m in range(LAGUERRE_M_MAX + 1)]
    for m in (0, 1, 7, 200, LAGUERRE_M_MAX):
        assert dc.p_m(alpha, r, m) == terms[m]
    # left-to-right partial sums; builtin sum() compensates from Python 3.12
    partial, csum = [], 0.0
    for term in terms:
        csum += term
        partial.append(csum)
    for m_max in (0, 1, 60, 333, LAGUERRE_M_MAX):
        assert dc.p_m_cumulative(alpha, r, m_max) == partial[m_max]
    m = next(m for m, csum in enumerate(partial) if 1.0 - csum <= 1e-9)
    assert dc.required_dim_b(alpha, r) == m + 1


def test_required_dim_b_stops_at_laguerre_limit():
    # r = 3 needs an idler truncation beyond the Laguerre order limit
    with pytest.raises(TruncationError):
        dc.required_dim_b(0.8, 3.0)
    with pytest.raises(ValueError):
        dc.p_m_cumulative(0.8, 3.0, LAGUERRE_M_MAX + 1)


def test_required_dim_b_meets_tail_target():
    for alpha, r in ((0.5, 0.5), (0.8, 1.0), (1.5, 2.0)):
        db = dc.required_dim_b(alpha, r)
        assert 1.0 - dc.p_m_cumulative(alpha, r, db - 1) <= 1e-9
        assert 1.0 - dc.p_m_cumulative(alpha, r, db - 2) > 1e-9


def test_overlap_closed_form_values():
    assert dc.spacs_overlap_closed(0.8, 0.0) == 1.0
    # frozen evaluation of the verbatim expression at (0.8, 1):
    # (1 + 0.64/cosh^2 1)/1.64 * exp(-0.64 (1 - 1/cosh^2 1))
    assert dc.spacs_overlap_closed(0.8, 1.0) == pytest.approx(
        0.5337359522112713, abs=1e-12
    )
    assert dc.spacs_overlap_saturation(0.8) == pytest.approx(0.3215197708, abs=1e-9)
    assert dc.spacs_overlap_closed(0.8, 25.0) == pytest.approx(
        dc.spacs_overlap_saturation(0.8), abs=1e-9
    )


def test_overlap_closed_form_monotone_and_bounded():
    sat = dc.spacs_overlap_saturation(0.8)
    values = [dc.spacs_overlap_closed(0.8, r) for r in np.linspace(0, 6, 121)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
    assert all(v >= sat - 1e-12 for v in values)


def test_overlap_numeric_oracle_value():
    # |<a,1|b,1>|^2 / ((1+a^2)(1+b^2)) with b = a / cosh r; frozen from the
    # ladder-algebra closed form (1 + a b)^2 e^{-(a-b)^2}, cross-checked in
    # Fock space
    got = dc.spacs_overlap_numeric(0.8, 1.0)
    assert got == pytest.approx(0.8885924264610803, abs=1e-9)
    a, b = 0.8, 0.8 / math.cosh(1.0)
    analytic = (1 + a * b) ** 2 * math.exp(-((a - b) ** 2)) / ((1 + a * a) * (1 + b * b))
    assert got == pytest.approx(analytic, abs=1e-12)


def test_overlap_closed_and_oracle_share_endpoints_only():
    # the verbatim closed form and the brute-force overlap agree at r = 0 and
    # in the large-r saturation, and at nothing in between
    assert dc.spacs_overlap_numeric(0.8, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert dc.spacs_overlap_numeric(0.8, 16.0) == pytest.approx(
        dc.spacs_overlap_saturation(0.8), abs=1e-6
    )
    mid_gap = abs(dc.spacs_overlap_closed(0.8, 1.0) - dc.spacs_overlap_numeric(0.8, 1.0))
    assert mid_gap > 0.3


def test_seed_amplitude():
    assert dc.seed_amplitude(0.8, 0.0) == 0.8
    assert dc.seed_amplitude(0.8, 1.0).real == pytest.approx(1.2344645, abs=1e-6)


def test_seed_round_trip():
    seed = dc.seed_amplitude(0.8, 1.0)
    da, db = dc.auto_dims(seed, 1.0)
    p = dc.DcParams(seed, 1.0, 0.0, da, db)
    res = dc.conditional_mpacs(dc.dc_evolve_closed(p), 1, alpha_eff=0.8)
    assert res.fidelity >= 1 - 1e-10
    target = pacs_state(PacsSpec(0.8, 1), da, normalized=True)
    assert abs(fock.inner_product(target, res.state)) ** 2 >= 1 - 1e-10


def test_complex_seed_amplitude_supported():
    alpha = 0.5 + 0.25j
    da, db = dc.auto_dims(alpha, 0.7)
    p = dc.DcParams(alpha, 0.7, math.pi / 5, da, db)
    closed = dc.dc_evolve_closed(p)
    numeric = dc.dc_evolve_numeric(p)
    assert fock.fidelity(closed, numeric) >= 1 - 1e-8
    res = dc.conditional_mpacs(closed, 2, alpha_eff=p.alpha_eff())
    assert res.fidelity >= 1 - 1e-10
    col = numeric.amp[:, 2]
    assert dc.p_m(alpha, 0.7, 2) == pytest.approx(
        float(np.vdot(col, col).real), abs=1e-8
    )


def test_params_validation():
    with pytest.raises(ValueError):
        dc.DcParams(0.8, -0.1)
    with pytest.raises(ValueError):
        dc.p_m(0.8, 1.0, -1)
    # NaN passes `r < 0` and the closed form's norm check alike; r = inf
    # overflowed in dc_evolve_numeric.  Every function that takes r checks it
    # alike: p_m once returned NaN, p_m_cumulative 0.0 and seed_amplitude
    # inf, and spacs_overlap_numeric took a negative r
    takes_r = (
        lambda r: dc.DcParams(0.8, r, 0.0, 48, 24),
        lambda r: dc.p_m(0.8, r, 0),
        lambda r: dc.p_m_cumulative(0.8, r, 3),
        lambda r: dc.required_dim_b(0.8, r),
        lambda r: dc.required_dim_a(0.8, r, 24),
        lambda r: dc.auto_dims(0.8, r),
        lambda r: dc.spacs_overlap_closed(0.8, r),
        lambda r: dc.spacs_overlap_numeric(0.8, r),
        lambda r: dc.seed_amplitude(0.8, r),
    )
    for r in (-0.1, math.nan, math.inf, -math.inf):
        text = f"squeeze parameter r must be finite and nonnegative, got {r}"
        for call in takes_r:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call(r)
    for phi in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            dc.DcParams(0.8, 1.0, phi, 48, 24)
    # r = 0 once returned 0.0 here, while r > 0 raised from the Laguerre scan
    for r in (0.0, 1.0):
        with pytest.raises(ValueError, match="m_max must be nonnegative"):
            dc.p_m_cumulative(0.8, r, -1)
    for dims in ((0, 24), (48, 0)):
        with pytest.raises(ValueError, match="^truncations must be >= 1$"):
            dc.DcParams(0.8, 1.0, 0.0, *dims)
    # a NaN alpha passed every check of the pair routes, which returned a
    # grid of NaN, and default_dim raised int()'s "cannot convert float NaN"
    # (OverflowError for an infinite alpha).  Each route that sizes a state
    # or builds a pair names alpha before any work
    takes_alpha = (
        lambda a: dc.DcParams(a, 0.5, 0.0, 40, 20),
        lambda a: fock.default_dim(a),
        lambda a: dc.spacs_overlap_numeric(a, 0.5),
        lambda a: jaynes.jc_overlap_curve(a, [0.5], [1]),
    )
    for alpha in (math.nan, math.inf, complex(math.nan, 0.0), complex(0.0, -math.inf)):
        text = f"seed amplitude alpha must be finite, got {alpha}"
        for call in takes_alpha:
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call(alpha)


def _closed_reference(p, norm_tol=dc.DEFAULT_NORM_TOL):
    """dc_evolve_closed as its column loop built it before the blocks: the
    headroom and seed-tail checks, the seed loop, then one band shift a+
    (fock.create's body with the real band) and one scalar product per
    column, each column written into the grid, then the norm of the whole
    grid checked."""
    at = p.alpha_eff()
    headroom = p.dim_a - (p.dim_b - 1)
    if headroom < 1:
        raise TruncationError(f"dim_a={p.dim_a} below dim_b-1={p.dim_b - 1} column reach", 1.0)
    z = -1j * np.exp(1j * p.phi) * math.tanh(p.r)
    pref = math.exp(-abs(p.alpha) ** 2 * math.tanh(p.r) ** 2 / 2.0) / math.cosh(p.r)
    seed = np.zeros(p.dim_a, dtype=np.complex128)
    seed[0] = math.exp(-abs(at) ** 2 / 2.0)
    for n in range(1, p.dim_a):
        seed[n] = seed[n - 1] * at / math.sqrt(n)
    a_tail = fock.coherent_tail_mass(seed, at, headroom)
    if a_tail > norm_tol:
        raise TruncationError(
            f"dim_a={p.dim_a} too small for top column of dim_b={p.dim_b}", a_tail
        )
    band = np.sqrt(np.arange(1.0, p.dim_a))
    amp = np.zeros((p.dim_a, p.dim_b), dtype=np.complex128)
    col = pref * seed
    amp[:, 0] = col
    for n in range(1, p.dim_b):
        lifted = np.zeros(p.dim_a, np.complex128)
        lifted[1:] = band * col[:-1]
        col = (z / math.sqrt(n)) * lifted
        amp[:, n] = col
    deficit = abs(1.0 - np.vdot(amp, amp).real)
    if deficit > norm_tol:
        raise TruncationError(
            f"dims ({p.dim_a}, {p.dim_b}) leave closed-form norm short of 1", deficit
        )
    return amp


def test_closed_blocks_equal_the_column_loop_bitwise():
    # dim_b around the 32-column block (one column, one block short of full,
    # one full, one past, two full, two full and one past), at phi = 0 and
    # phi != 0, criterion 02's large grid, then seeded automatic dims with
    # complex alpha
    points = [
        dc.DcParams(0.8, 1e-4, 0.3, 24, 1),
        dc.DcParams(0.8 - 0.3j, 0.4, 1.1, 60, 31),
        dc.DcParams(-0.5j, 0.5, -2.0, 64, 32),
        dc.DcParams(1.2, 0.45, 0.0, 70, 33),
        dc.DcParams(0.7, 0.6, 0.0, 100, 64),
        dc.DcParams(0.7 - 0.2j, 0.6, 1.9, 100, 64),
        dc.DcParams(0.6 + 0.6j, 0.7, 2.9, 101, 65),
        dc.DcParams(-0.0, 0.9, math.pi, 80, 65),
        dc.DcParams(0.8j, 2.0, 0.7, *dc.auto_dims(0.8j, 2.0)),
        dc.DcParams(0.8, 2.0, 0.0, *dc.auto_dims(0.8, 2.0)),
    ]
    rng = np.random.default_rng(20)
    for _ in range(8):
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        r, phi = rng.uniform(0.05, 2.0), rng.uniform(-math.pi, math.pi)
        points.append(dc.DcParams(alpha, r, phi, *dc.auto_dims(alpha, r)))
    dims_b = {p.dim_b for p in points}
    assert dims_b >= {1, 31, 32, 33, 64, 65} and max(dims_b) > 96
    assert {p.phi == 0.0 for p in points} == {True, False}
    for p in points:
        assert dc.dc_evolve_closed(p).amp.tobytes() == _closed_reference(p).tobytes(), p


def test_closed_truncation_errors_equal_the_column_loop():
    # every undersized grid raises the reference's error with its text, the
    # tail mass or norm deficit printed to four digits included
    cases = [
        dc.DcParams(0.8, 1.0, 0.3, 20, 8),
        dc.DcParams(0.8, 1.0, 0.0, 20, 8),
        dc.DcParams(0.8, 0.5, 0.0, 12, 10),
        dc.DcParams(0.8, 1.0, 0.3, 5, 10),
        dc.DcParams(0.8, 2.0, 0.0),
        dc.DcParams(1.2 - 0.4j, 1.5, 2.0, 60, 33),
        dc.DcParams(0.5, 1.8, -1.0, 90, 65),
        dc.DcParams(30.0, 0.1, 0.0, 1000, 34),
    ]
    for p in cases:
        with pytest.raises(TruncationError) as got:
            dc.dc_evolve_closed(p)
        with pytest.raises(TruncationError) as want:
            _closed_reference(p)
        assert str(got.value) == str(want.value), p
        assert got.value.tail_mass == pytest.approx(want.value.tail_mass, rel=1e-12, abs=1e-15)


def _p_m_reference(alpha, r, m_max):
    """p_m for m = 0..m_max as the Laguerre generator gave them before the
    shared tables: its own recurrence, raising at the first non-finite
    order."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        yield from (1.0 if m == 0 else 0.0 for m in range(m_max + 1))
        return
    th2, ch2, aa = math.tanh(r) ** 2, math.cosh(r) ** 2, abs(alpha) ** 2
    pref, x = math.exp(-aa * th2) / ch2, -aa / ch2
    prev, cur = 0.0, 1.0
    for m in range(m_max + 1):
        if m > 0:
            prev, cur = cur, ((2 * m - 1 - x) * cur - (m - 1) * prev) / m
            if not math.isfinite(cur):
                raise NumericalFailureError(f"laguerre({m}, {x}) left the double range")
        yield pref * th2**m * cur


def _p_m_family_reference(name, alpha, r, arg=None):
    if name == "p_m":
        *_, value = _p_m_reference(alpha, r, arg)
        return value
    if name == "p_m_cumulative":
        total = 0.0
        for value in _p_m_reference(alpha, r, arg):
            total += value
        return total
    csum = 0.0
    for m, value in enumerate(_p_m_reference(alpha, r, LAGUERRE_M_MAX)):
        csum += value
        if 1.0 - csum <= dc.DEFAULT_TAIL_TARGET:
            return m + 1
    raise TruncationError(
        f"no idler truncation up to {LAGUERRE_M_MAX + 1} reaches tail 1e-09", 1.0 - csum
    )


def _bits_or_error(fn, *args):
    try:
        value = fn(*args)
    except (NumericalFailureError, TruncationError) as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, struct.pack("<d", value) if isinstance(value, float) else value


def test_p_m_family_equals_the_generator_reference_bitwise():
    # p_m, p_m_cumulative and required_dim_b, called in shuffled order so
    # that each finds x's Laguerre table empty, short or long: their bits,
    # or their error text, among them "laguerre(501, -377.97...) left the
    # double range" of `pacslab --scenario dc-pm --alpha 30`
    specialfn._laguerre_table.cache_clear()
    rng = random.Random(23)
    points = [(0.8, 0.0), (0.7 + 0.4j, 1.3), (1.5, 2.0), (0.3, 0.05), (30.0, 1.0),
              (30.0, 0.88), (10.0, 1.0), (0.8, 3.0), (-0.0, 0.4)]
    points += [(cmath.rect(rng.uniform(0.0, 3.0), rng.uniform(-3.2, 3.2)), rng.uniform(0.0, 2.5))
               for _ in range(40)]
    calls = [
        (name, alpha, r, arg)
        for alpha, r in points
        for name, arg in [("required_dim_b", None), ("p_m_cumulative", 60),
                          ("p_m_cumulative", LAGUERRE_M_MAX), ("p_m", 0), ("p_m", 4),
                          ("p_m", 333), ("p_m", LAGUERRE_M_MAX)]
    ]
    for _ in range(2):
        rng.shuffle(calls)
        for name, alpha, r, arg in calls:
            args = (alpha, r) if arg is None else (alpha, r, arg)
            got = _bits_or_error(getattr(dc, name), *args)
            want = _bits_or_error(lambda *a: _p_m_family_reference(name, *a), alpha, r, arg)
            assert got == want, (name, alpha, r, arg)
    with pytest.raises(NumericalFailureError, match=r"^laguerre\(501, -377\.97\d+\) left"):
        dc.auto_dims(30.0, 1.0)
