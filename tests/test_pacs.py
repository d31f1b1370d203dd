import math
import warnings

import numpy as np
import pytest

from pacslab import fock, pacs
from pacslab.errors import NumericalFailureError, TruncationError
from pacslab.pacs import PacsSpec, pacs_kets, pacs_norm_sq, pacs_overlap, pacs_state


def test_zero_order_reduces_to_coherent():
    st = pacs_state(PacsSpec(0.8, 0), 32)
    ref = fock.coherent_state(0.8, 32)
    assert np.max(np.abs(st.amp - ref.amp)) == 0.0
    with pytest.raises(ValueError, match="^photon-addition order m must be nonnegative$"):
        PacsSpec(0.8, -1)


def test_vacuum_double_addition_is_two_photon_state():
    st = pacs_state(PacsSpec(0.0, 2), 16, normalized=True)
    assert np.max(np.abs(st.amp - fock.fock_state(2, 16).amp)) < 1e-15


def test_norm_sq_closed_forms():
    assert pacs_norm_sq(PacsSpec(0.8, 0)) == pytest.approx(1.0, abs=1e-14)
    assert pacs_norm_sq(PacsSpec(0.8, 1)) == pytest.approx(1.64, abs=1e-12)
    assert pacs_norm_sq(PacsSpec(0.8, 2)) == pytest.approx(4.9696, abs=1e-12)
    assert pacs_norm_sq(PacsSpec(0.8, 3)) == pytest.approx(21.468544, abs=1e-10)


def test_numeric_norm_matches_closed_form():
    st = pacs_state(PacsSpec(0.8, 1), 48)
    assert st.norm_sq() == pytest.approx(1.64, abs=1e-10)
    for alpha in (0.5, 0.8, 1.5):
        for m in range(6):
            spec = PacsSpec(alpha, m)
            closed = pacs_norm_sq(spec)
            assert pacs_state(spec, 64).norm_sq() == pytest.approx(closed, rel=1e-9)


def test_truncation_headroom_enforced():
    with pytest.raises(TruncationError):
        pacs_state(PacsSpec(1.5, 4), 12)
    with pytest.raises(TruncationError, match="no room for m=8"):
        pacs_state(PacsSpec(0.8, 8), 8)


def test_self_overlap_normalized():
    spec = PacsSpec(0.8, 2)
    assert abs(pacs_overlap(spec, spec, 48)) == pytest.approx(1.0, abs=1e-12)


def test_overlap_against_ladder_algebra():
    # <a,1|a,m> from normal ordering: a adag^2 -> conj(a)^2 a + 2 conj(a),
    # a adag^3 -> conj(a)^3 a + 3 conj(a)^2; norms from m! L_m(-|a|^2).
    alpha = 0.8
    raw12 = alpha**2 * alpha + 2 * alpha
    expected12 = raw12 / math.sqrt(1.64 * 4.9696)
    got12 = abs(pacs_overlap(PacsSpec(alpha, 1), PacsSpec(alpha, 2), 64))
    assert got12 == pytest.approx(expected12, abs=1e-10)
    assert got12 == pytest.approx(0.73980, abs=1e-5)

    raw13 = alpha**3 * alpha + 3 * alpha**2
    expected13 = raw13 / math.sqrt(1.64 * 21.468544)
    got13 = abs(pacs_overlap(PacsSpec(alpha, 1), PacsSpec(alpha, 3), 64))
    assert got13 == pytest.approx(expected13, abs=1e-10)
    assert got13 == pytest.approx(0.39261, abs=1e-5)


def test_overlap_mixed_amplitudes_unnormalized():
    # <a,1|b,1> = (1 + conj(a) b) <a|b> for coherent a, b
    a, b = 0.8, 0.8 / math.cosh(1.0)
    got = fock.inner_product(pacs_state(PacsSpec(a, 1), 64), pacs_state(PacsSpec(b, 1), 64))
    expected = (1 + a * b) * math.exp(a * b - a * a / 2 - b * b / 2)
    assert got.real == pytest.approx(expected, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-14)


def test_gram_matrix_linearly_independent():
    vecs = [pacs_state(PacsSpec(0.8, m), 48, normalized=True) for m in range(5)]
    gram = np.array([[fock.inner_product(u, v) for v in vecs] for u in vecs])
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() > 1e-8
    off = np.abs(gram[~np.eye(5, dtype=bool)])
    assert np.all(off > 0.0)
    assert np.all(off < 1.0)


def test_spacs_sub_poissonian():
    st = pacs_state(PacsSpec(0.8, 1), 48, normalized=True)
    mean, var = fock.number_moments(st)
    assert var < mean


def test_kets_that_leave_the_double_range_raise():
    # a+^m overflows the amplitudes (m = 400) or only their squared norm
    # (m = 200): one NumericalFailureError naming alpha, m and dim, with no
    # numpy warning, from pacs_state in both conventions and from pacs_kets
    # at the first order that leaves the range
    for alpha, m, dim in [(0.8, 400, 500), (0.8, 200, 300), (0.5 + 0.2j, 200, 300)]:
        norm = _plain(alpha, m, dim)[1]
        assert not math.isfinite(norm)
        text = f"pacs(alpha={alpha}, m={m}) at dim={dim} leaves the double range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for normalized in (False, True):
                with pytest.raises(NumericalFailureError) as exc:
                    pacs_state(PacsSpec(alpha, m), dim, normalized=normalized)
                assert str(exc.value) == f"{text} (squared norm {norm})"
    first = next(m for m in range(1, 300) if not math.isfinite(_plain(0.8, m, 300)[1]))
    with pytest.raises(NumericalFailureError, match=rf"^pacs\(alpha=0.8, m={first}\) at dim=300 "):
        pacs_kets(0.8, 299, 300)
    with pytest.raises(NumericalFailureError, match=rf"m={first}\)"):
        pacs_state(PacsSpec(0.8, first), 300)


def _plain(alpha, m, dim):
    """a+^m |alpha> at dim by the bare creation chain, and its squared norm,
    with overflow left to numpy."""
    amp = fock.coherent_amplitudes(alpha, dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m):
            amp = fock.create(amp)
        return amp, np.vdot(amp, amp).real


def test_kets_near_the_double_range_keep_their_bits():
    # below the bound every order skips the range check; past it, a ket whose
    # squared norm stays finite is still the bare chain, bit for bit
    for alpha, m, dim in [(0.8, 5, 64), (1.5, 100, 1000), (0.8, 150, 200), (0.8, 160, 300)]:
        assert ((m + 1) * math.log(dim) < pacs._LOG_SAFE) == (m <= 100)
        amp, norm = _plain(alpha, m, dim)
        assert math.isfinite(norm)
        assert pacs_state(PacsSpec(alpha, m), dim).amp.tobytes() == amp.tobytes()
        assert pacs_kets(alpha, m, dim)[-1].tobytes() == amp.tobytes()
