"""Two-mode pair-creation dynamics and conditional photon-added states.

The closed-form evolved state comes from the SU(1,1) factorization of the
pair-coupling propagator; the numeric route drives the same generator with a
Chebyshev expansion of the exponential and knows nothing about the
factorization, so agreement between the two is a genuine check.  Measuring
the idler (b) mode in a number state leaves the signal (a) mode in a
photon-added coherent state of rescaled amplitude alpha / cosh r.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import (
    FockVector,
    TwoModeState,
    coherent_state,
    coherent_tail_mass,
    create,
    default_dim,
    fock_state,
    inner_product,
    project_b,
    tensor_product,
)
from .pacs import PacsSpec, pacs_overlap, pacs_state
from .specialfn import LAGUERRE_M_MAX, bessel_j_values, laguerre_values

DEFAULT_DIM_A = 48
DEFAULT_DIM_B = 24
DEFAULT_NORM_TOL = 1e-6
DEFAULT_EVOLVE_TOL = 1e-13
DEFAULT_TAIL_TARGET = 1e-9


@dataclass(frozen=True)
class DcParams:
    """Pair-coupling run: seed amplitude, squeeze parameter r = |lambda| t,
    coupling phase phi (lambda t = r e^{i phi}), and the two truncations."""

    alpha: complex
    r: float
    phi: float = 0.0
    dim_a: int = DEFAULT_DIM_A
    dim_b: int = DEFAULT_DIM_B

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("squeeze parameter r must be nonnegative")
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("truncations must be >= 1")

    def alpha_eff(self) -> complex:
        """Rescaled conditional amplitude alpha / cosh r."""
        return self.alpha / math.cosh(self.r)


def dc_evolve_closed(p: DcParams, norm_tol: float = DEFAULT_NORM_TOL) -> TwoModeState:
    """Closed-form evolved state of |alpha>_a |0>_b.

    Column n of the grid is
        e^{-|alpha|^2 tanh^2 r / 2} / cosh r
        * (-i e^{i phi} tanh r)^n / sqrt(n!) * adag^n |alpha/cosh r>,
    built by a stable column recurrence (no explicit factorials).  The total
    norm is checked against 1 rather than renormalized, so a transcription
    error or an undersized truncation surfaces as TruncationError instead of
    being masked.
    """
    at = p.alpha_eff()
    headroom = p.dim_a - (p.dim_b - 1)
    if headroom < 1:
        raise TruncationError(
            f"dim_a={p.dim_a} below dim_b-1={p.dim_b - 1} column reach", 1.0
        )
    z = -1j * np.exp(1j * p.phi) * math.tanh(p.r)
    pref = math.exp(-abs(p.alpha) ** 2 * math.tanh(p.r) ** 2 / 2.0) / math.cosh(p.r)
    # the seed column before the grid is allocated, so an amplitude out of
    # range fails first; its tail at dim_a is below the one checked next
    seed = coherent_state(at, p.dim_a, tail_tol=1.0).amp
    a_tail = coherent_tail_mass(seed, at, headroom)
    if a_tail > norm_tol:
        raise TruncationError(
            f"dim_a={p.dim_a} too small for top column of dim_b={p.dim_b}", a_tail
        )
    amp = np.zeros((p.dim_a, p.dim_b), dtype=np.complex128)
    col = pref * seed
    amp[:, 0] = col
    for n in range(1, p.dim_b):
        col = (z / math.sqrt(n)) * create(col)
        amp[:, n] = col
    state = TwoModeState(amp)
    deficit = abs(1.0 - state.norm_sq())
    if deficit > norm_tol:
        raise TruncationError(
            f"dims ({p.dim_a}, {p.dim_b}) leave closed-form norm short of 1", deficit
        )
    return state


def _pair_chains(n_chains: int, dim_a: int, dim_b: int, scale: float):
    """Flat layout of the cells |d+k>_a |k>_b, 0 <= d < n_chains, chain
    after chain.

    Chain d holds min(dim_a - d, dim_b) cells, padded to even length so that
    cell k of every chain sits at a flat index of the parity of k.  Returns
    per flat cell its chain d, its place k in the chain, whether it is a
    grid cell rather than padding, and the hop scale * sqrt((d+k+1)(k+1))
    to the next cell of its chain (zero at the end of a chain).
    """
    length = np.minimum(dim_a - np.arange(n_chains), dim_b)
    padded = length + (length & 1)
    chain = np.repeat(np.arange(n_chains), padded)
    k = np.arange(padded.sum()) - np.repeat(np.cumsum(padded) - padded, padded)
    cell_len = length[chain]
    hop = scale * np.sqrt((chain + k + 1.0) * (k + 1.0))
    hop[k + 1 >= cell_len] = 0.0
    return chain, k, k < cell_len, hop


def _chebyshev_chains(hop: np.ndarray, start: np.ndarray, coeff: np.ndarray):
    """sum_k coeff[k] T_k(H) e_0 for the real tridiagonal chains H.

    H has a zero diagonal and links flat cell i to i + 1 by hop[i], so it
    only links even cells to odd ones: T_k(H) e_0 lives on the even cells
    for even k and on the odd cells for odd k, and each half is stored
    apart.  e_0 is the unit vector at every chain start (``start``, one flag
    per even cell).  Returns the even-k sum on the even cells and the odd-k
    sum on the odd cells.
    """
    t_even = start.astype(np.float64)
    t_odd = hop[0::2] * t_even  # a chain start has no hop to its left
    y_even = coeff[0] * t_even
    y_odd = coeff[1] * t_odd
    # odd cell j links even cells j (hop_even[j]) and j + 1 (hop_odd[j]);
    # even cell j links odd cells j (hop_even[j]) and j - 1 (hop_odd[j - 1])
    hop_even, hop_odd = 2.0 * hop[0::2], 2.0 * hop[1::2][:-1]
    head, tail = np.s_[:-1], np.s_[1:]
    scratch = np.empty_like(t_even)
    for k in range(2, len(coeff)):
        if k % 2:
            new, src, acc, lo, hi = t_odd, t_even, y_odd, head, tail
        else:
            new, src, acc, lo, hi = t_even, t_odd, y_even, tail, head
        # new <- 2 H src - new, i.e. T_k from T_{k-1} and T_{k-2}
        np.multiply(hop_even, src, out=scratch)
        np.subtract(scratch, new, out=new)
        np.multiply(hop_odd, src[hi], out=scratch[lo])
        new[lo] += scratch[lo]
        np.multiply(coeff[k], new, out=scratch)
        acc += scratch
    return y_even, y_odd


def dc_evolve_numeric(p: DcParams, tol: float = DEFAULT_EVOLVE_TOL) -> TwoModeState:
    """Brute-force evolution: exponential of the pair-coupling generator
    -i r (e^{i phi} adag bdag + e^{-i phi} a b) applied to |alpha>_a |0>_b.

    The generator conserves n_a - n_b, so |d>_a |0>_b only reaches the
    chain |d+k>_a |k>_b; gauging out the phase e^{i phi k} leaves a real
    symmetric tridiagonal generator on each chain, applied in O(cells).
    The exponential is expanded in Chebyshev polynomials with
    Bessel-function coefficients over the spectral bound
    2 r sqrt(dim_a dim_b); (-i)^k makes the even terms real and the odd
    ones imaginary.  Phases enter exactly as in the closed form.

    Only the chains the seed populates are propagated: chain d starts from
    seed[d] times a unit vector, and the chain propagator is unitary, so
    the chains d >= D with sum_{n >= D} |seed[n]|^2 <= thresh^2 are left at
    zero, which moves the state by at most thresh in 2-norm.  thresh =
    max(5e-17, tol 1e-2) is also the cut-off on the Bessel coefficients.
    The kept cells come out exactly as if every chain were propagated.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    seed = coherent_state(p.alpha, p.dim_a)
    if p.r == 0.0:
        return tensor_product(seed, fock_state(0, p.dim_b))
    bound = 2.0 * p.r * math.sqrt(p.dim_a * p.dim_b)
    k_hi = int(bound + 40 + 15 * bound ** (1.0 / 3.0))
    bes = np.array(bessel_j_values(k_hi, bound))
    thresh = max(5e-17, tol * 1e-2)
    keep = np.nonzero(np.abs(bes) > thresh)[0]
    k_last = max(2, int(keep[-1])) if keep.size else 2
    # (-i)^k is 1, -i, -1, i: the real factor for even k, the imaginary one
    # for odd k
    sign = np.array([1.0, -1.0, -1.0, 1.0])[np.arange(k_last + 1) % 4]
    coeff = sign * bes[: k_last + 1]
    coeff[1:] *= 2.0
    # seed weight of chains d..dim_a-1 is tail[dim_a-1-d]; tail never falls
    tail = np.cumsum(np.abs(seed.amp[::-1]) ** 2)
    n_chains = p.dim_a - int(np.count_nonzero(tail <= thresh**2))
    chain, k, live, hop = _pair_chains(n_chains, p.dim_a, p.dim_b, p.r / bound)
    y_even, y_odd = _chebyshev_chains(hop, k[0::2] == 0, coeff)
    y = np.empty(k.size, dtype=np.complex128)
    y[0::2] = y_even
    y[1::2] = 1j * y_odd
    chain, k = chain[live], k[live]
    amp = np.zeros((p.dim_a, p.dim_b), dtype=np.complex128)
    amp[chain + k, k] = seed.amp[chain] * np.exp(1j * p.phi * k) * y[live]
    return TwoModeState(amp)


@dataclass(frozen=True)
class ConditionalResult:
    """Conditioned signal-mode state, outcome probability, and its fidelity
    with the ideal photon-added target."""

    state: FockVector
    prob: float
    fidelity: float


def conditional_mpacs(state: TwoModeState, m: int, alpha_eff: complex) -> ConditionalResult:
    """Project the b mode onto |m> and compare against adag^m |alpha_eff>;
    raises EmptyBranchError for an empty branch (see fock.normalize)."""
    vec, prob = project_b(state, m)
    target = pacs_state(PacsSpec(alpha_eff, m), state.dim_a, normalized=True)
    return ConditionalResult(vec, prob, abs(inner_product(target, vec)) ** 2)


def _p_m_values(alpha: complex, r: float, m_max: int):
    """p_m for m = 0..m_max from one Laguerre recurrence (see p_m)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        yield from (1.0 if m == 0 else 0.0 for m in range(m_max + 1))
        return
    th2 = math.tanh(r) ** 2
    ch2 = math.cosh(r) ** 2
    aa = abs(alpha) ** 2
    pref = math.exp(-aa * th2) / ch2
    for m, lag in enumerate(laguerre_values(m_max, -aa / ch2)):
        yield pref * th2**m * lag


def p_m(alpha: complex, r: float, m: int) -> float:
    """Closed-form probability of finding the b mode in |m>:

    e^{-|alpha|^2 tanh^2 r} / cosh^2 r * tanh^{2m} r * L_m(-|alpha|^2 / cosh^2 r).
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    for value in _p_m_values(alpha, r, m):
        pass
    return value


def p_m_cumulative(alpha: complex, r: float, m_max: int) -> float:
    """Sum of p_m for m = 0..m_max, added left to right: builtin sum()
    compensates floats from Python 3.12 on."""
    total = 0.0
    for value in _p_m_values(alpha, r, m_max):
        total += value
    return total


def required_dim_b(alpha: complex, r: float) -> int:
    """Smallest idler truncation whose closed-form tail mass is below
    DEFAULT_TAIL_TARGET.

    The scan stops at the Laguerre order limit and raises TruncationError
    beyond it.
    """
    csum = 0.0
    for m, value in enumerate(_p_m_values(alpha, r, LAGUERRE_M_MAX)):
        csum += value
        if 1.0 - csum <= DEFAULT_TAIL_TARGET:
            return m + 1
    raise TruncationError(
        f"no idler truncation up to {LAGUERRE_M_MAX + 1} reaches tail "
        f"{DEFAULT_TAIL_TARGET}",
        1.0 - csum,
    )


def auto_dims(alpha: complex, r: float) -> tuple[int, int]:
    """Truncations meeting DEFAULT_TAIL_TARGET for the given seed and squeeze."""
    dim_b = max(DEFAULT_DIM_B, required_dim_b(alpha, r))
    aa = abs(alpha) / math.cosh(r)
    dim_a = dim_b + int(math.ceil(aa * aa + 8.0 * aa + 16.0)) + 4
    return dim_a, dim_b


def spacs_overlap_closed(alpha: complex, r: float) -> float:
    """Closed-form overlap-squared expression for the single-addition case:

    [(1 + |alpha|^2 / cosh^2 r) / (1 + |alpha|^2)]
      * exp[-|alpha|^2 (1 - 1 / cosh^2 r)].

    Evaluated verbatim.  The cross-validation suite shows this expression
    disagrees with the brute-force normalized overlap of the two states it
    nominally describes (see spacs_overlap_numeric) everywhere except r = 0
    and the r -> infinity saturation; both routes are therefore emitted
    side by side and never silently reconciled.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    aa = abs(alpha) ** 2
    ch2 = math.cosh(r) ** 2
    return (1.0 + aa / ch2) / (1.0 + aa) * math.exp(-aa * (1.0 - 1.0 / ch2))


def spacs_overlap_saturation(alpha: complex) -> float:
    """Large-r limit e^{-|alpha|^2} / (1 + |alpha|^2) shared by both routes."""
    aa = abs(alpha) ** 2
    return math.exp(-aa) / (1.0 + aa)


def spacs_overlap_numeric(alpha: complex, r: float, dim: int | None = None) -> float:
    """Brute-force |<alpha,1 | alpha/cosh r,1>|^2 with both states normalized."""
    if dim is None:
        dim = default_dim(alpha) + 8
    at = alpha / math.cosh(r)
    ov = pacs_overlap(PacsSpec(alpha, 1), PacsSpec(at, 1), dim)
    return abs(ov) ** 2


def seed_amplitude(alpha_target: complex, r: float) -> complex:
    """Seed amplitude alpha_target * cosh r whose conditioned photon-added
    state comes out with amplitude alpha_target."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return alpha_target * math.cosh(r)
