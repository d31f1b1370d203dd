import math

import numpy as np
import pytest
from scipy.linalg import expm

from pacslab import downconversion as dc
from pacslab import fock
from pacslab.errors import EmptyBranchError, TruncationError
from pacslab.pacs import PacsSpec, pacs_state
from pacslab.specialfn import LAGUERRE_M_MAX, laguerre


def two_mode_fidelity(x, y):
    ov = abs(np.vdot(x.amp, y.amp)) ** 2
    return ov / (x.norm_sq() * y.norm_sq())


def test_su11_factors():
    z = dc.su11_factors(0.0)
    assert (z.u, z.v, z.w) == (0.0, 0.0, 0.0)
    f = dc.su11_factors(1.0)
    assert f.u == pytest.approx(0.7615942, abs=1e-7)
    assert f.v == pytest.approx(-0.4337809, abs=1e-7)
    assert f.w == pytest.approx(-0.7615942, abs=1e-7)
    for r in (0.0, 0.3, 1.7, 4.0):
        f = dc.su11_factors(r)
        assert f.u + f.w == 0.0
        assert f.v <= 0.0


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
    da, db = dc.auto_dims(0.8, 1.0, tail_target=1e-11)
    state = dc.dc_evolve_closed(dc.DcParams(0.8, 1.0, 0.0, da, db))
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


@pytest.mark.parametrize(
    "p, kept",
    [
        (dc.DcParams(0.5 + 0.4j, 0.7, math.pi / 5, 12, 10), 12),
        (dc.DcParams(0.3 + 0.2j, 0.9, 1.1, 9, 12), 9),  # chains shorter than dim_b
        (dc.DcParams(0.0, 0.8, 0.4, 1, 7), 1),
        # chains the seed leaves below 1e-30 in weight are skipped
        (dc.DcParams(0.4 + 0.3j, 0.6, 0.9, 40, 12), 20),
        (dc.DcParams(0.0, 0.8, 0.4, 30, 20), 1),
        (dc.DcParams(1.2, 0.5, 2.0, 48, 16), 32),
    ],
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
    pair_chains = dc._pair_chains

    def spy(n_chains, *args):
        laid_out.append(n_chains)
        return pair_chains(n_chains, *args)

    monkeypatch.setattr(dc, "_pair_chains", spy)
    state = dc.dc_evolve_numeric(p)
    assert laid_out == [kept]
    assert np.max(np.abs(state.amp - dense_pair_evolution(p))) < 1e-13


def test_numeric_matches_closed_at_default_dims():
    p = dc.DcParams(0.8, 0.5)
    closed = dc.dc_evolve_closed(p)
    numeric = dc.dc_evolve_numeric(p)
    assert two_mode_fidelity(closed, numeric) >= 1 - 1e-8


@pytest.mark.parametrize("alpha", [0.0, 0.8])
@pytest.mark.parametrize("phi", [0.0, math.pi / 3])
def test_numeric_matches_closed_with_phase(alpha, phi):
    da, db = dc.auto_dims(alpha, 1.0)
    p = dc.DcParams(alpha, 1.0, phi, da, db)
    closed = dc.dc_evolve_closed(p)
    numeric = dc.dc_evolve_numeric(p)
    assert two_mode_fidelity(closed, numeric) >= 1 - 1e-8


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


def test_conditional_large_squeeze_approaches_number_state():
    # at r = 3 the rescaled amplitude is ~0.08, so adag^2|alpha_eff> is close
    # to |2>; the exact fidelity is e^{-x}/L_2(-x) with x = |alpha_eff|^2
    p = dc.DcParams(0.8, 3.0, 0.0, 48, 8)
    state = dc.dc_evolve_closed(p, norm_tol=1.0)
    res = dc.conditional_mpacs(state, 2)
    two = fock.fock_state(2, p.dim_a)
    fid = abs(fock.inner_product(two, res.state)) ** 2
    x = abs(p.alpha_eff()) ** 2
    assert fid == pytest.approx(math.exp(-x) / (1 + 2 * x + x * x / 2), rel=1e-10)
    assert fid > 0.98


def test_conditional_empty_branch():
    p = dc.DcParams(0.8, 0.0)
    with pytest.raises(EmptyBranchError):
        dc.conditional_mpacs(dc.dc_evolve_closed(p), 1)


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
    for m_max in (0, 1, 60, 333, LAGUERRE_M_MAX):
        assert dc.p_m_cumulative(alpha, r, m_max) == sum(terms[: m_max + 1])
    csum = 0.0
    for m, term in enumerate(terms):
        csum += term
        if 1.0 - csum <= 1e-9:
            break
    assert dc.required_dim_b(alpha, r, tail_target=1e-9) == m + 1


def test_required_dim_b_stops_at_laguerre_limit():
    # r = 3 needs an idler truncation beyond the Laguerre order limit
    with pytest.raises(TruncationError):
        dc.required_dim_b(0.8, 3.0)
    with pytest.raises(ValueError):
        dc.p_m_cumulative(0.8, 3.0, LAGUERRE_M_MAX + 1)


def test_required_dim_b_meets_tail_target():
    for alpha, r in ((0.5, 0.5), (0.8, 1.0), (1.5, 2.0)):
        db = dc.required_dim_b(alpha, r, tail_target=1e-9)
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
    assert two_mode_fidelity(closed, numeric) >= 1 - 1e-8
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
        dc.su11_factors(-1.0)
    with pytest.raises(ValueError):
        dc.p_m(0.8, 1.0, -1)
