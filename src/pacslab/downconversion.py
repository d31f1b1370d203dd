"""Two-mode pair-creation dynamics and conditional photon-added states.

The closed-form evolved state comes from the SU(1,1) factorization of the
pair-coupling propagator; the numeric route drives the same generator with a
Chebyshev expansion of the exponential and knows nothing about the
factorization, so agreement between the two is a genuine check.  Measuring
the idler (b) mode in a number state leaves the signal (a) mode in a
photon-added coherent state of rescaled amplitude alpha / cosh r.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import chains
from .errors import TruncationError
from .fock import (
    FockVector,
    TwoModeState,
    coherent_amplitudes,
    coherent_state,
    coherent_tail_mass,
    complex_ladder,
    default_dim,
    fock_state,
    inner_product,
    ladder,
    project_b,
    tensor_product,
    vdot_rows,
)
from .pacs import PacsSpec, pacs_overlap, pacs_state
from .specialfn import LAGUERRE_M_MAX, laguerre_values

DEFAULT_DIM_A = 48
DEFAULT_DIM_B = 24
DEFAULT_NORM_TOL = 1e-6
DEFAULT_EVOLVE_TOL = 1e-13
DEFAULT_TAIL_TARGET = 1e-9
# grid columns dc_evolve_closed builds per block
CLOSED_BLOCK = 32


def _check_r(r: float) -> None:
    """Raise ValueError unless the squeeze parameter r is finite and >= 0."""
    if not 0 <= r < math.inf:
        raise ValueError(f"squeeze parameter r must be finite and nonnegative, got {r}")


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
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"seed amplitude alpha must be finite, got {self.alpha}")
        _check_r(self.r)
        if not math.isfinite(self.phi):
            raise ValueError(f"coupling phase phi must be finite, got {self.phi}")
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("truncations must be >= 1")

    def alpha_eff(self) -> complex:
        """Rescaled conditional amplitude alpha / cosh r."""
        return self.alpha / math.cosh(self.r)


def dc_evolve_closed(p: DcParams) -> TwoModeState:
    """Closed-form evolved state of |alpha>_a |0>_b.

    Column n of the grid is
        e^{-|alpha|^2 tanh^2 r / 2} / cosh r
        * (-i e^{i phi} tanh r)^n / sqrt(n!) * adag^n |alpha/cosh r>,
    built by a stable column recurrence (no explicit factorials).  The total
    norm is checked against 1 rather than renormalized (its deficit, like the
    seed's tail beyond the top column, must stay within DEFAULT_NORM_TOL), so
    a transcription error or an undersized truncation surfaces as
    TruncationError instead of being masked.  The headroom and seed-tail
    checks run before the grid is allocated.

    Each column is computed in place as a row of a C-order block of
    CLOSED_BLOCK columns, by the two products of (z / sqrt(n)) create(col):
    the complex band fock.complex_ladder times the column above, then the
    column's factor, all factors from one division z / fock.ladder(dim_b).
    The block's row 0 carries the last column of the block before.  Each
    finished block is copied into the grid at once, and its column norms
    (fock.vdot_rows) are kept for the norm check, so the grid is the only
    array of its size and is not read again.
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
    seed = coherent_amplitudes(at, p.dim_a)
    a_tail = coherent_tail_mass(seed, at, headroom)
    if a_tail > DEFAULT_NORM_TOL:
        raise TruncationError(
            f"dim_a={p.dim_a} too small for top column of dim_b={p.dim_b}", a_tail
        )
    amp = np.empty((p.dim_a, p.dim_b), dtype=np.complex128)
    norms = np.empty(p.dim_b)
    size = min(CLOSED_BLOCK, p.dim_b)
    block = np.zeros((size + 1, p.dim_a), dtype=np.complex128)
    # block row i + 1 holds column n0 + i, row 0 the column before; each
    # column is (z / sqrt(n)) create(col), operands in that order: the band
    # product writes row[1:] from the row above, then the factor scales the
    # whole row, whose entry 0 is +0 before it
    rows = list(block)
    steps = [(above[:-1], row[1:], row) for above, row in zip(rows, rows[1:])]
    factors = list(z / ladder(p.dim_b))
    band = complex_ladder(p.dim_a)
    np.multiply(pref, seed, out=rows[1])
    for n0 in range(0, p.dim_b, CLOSED_BLOCK):
        n1 = min(n0 + CLOSED_BLOCK, p.dim_b)
        if n0 > 0:
            block[0] = block[size]
            block[1:, 0] = 0.0
        lo = max(n0, 1)
        for (above, lifted, row), factor in zip(steps[lo - n0 : n1 - n0], factors[lo - 1 :]):
            np.multiply(band, above, out=lifted)
            np.multiply(factor, row, out=row)
        done = block[1 : n1 - n0 + 1]
        amp[:, n0:n1] = done.T
        norms[n0:n1] = vdot_rows(done, done).real
    deficit = abs(1.0 - math.fsum(norms.tolist()))
    if deficit > DEFAULT_NORM_TOL:
        raise TruncationError(
            f"dims ({p.dim_a}, {p.dim_b}) leave closed-form norm short of 1", deficit
        )
    return TwoModeState(amp)


def dc_evolve_numeric(p: DcParams, tol: float = DEFAULT_EVOLVE_TOL) -> TwoModeState:
    """Brute-force evolution: exponential of the pair-coupling generator
    -i r (e^{i phi} adag bdag + e^{-i phi} a b) applied to |alpha>_a |0>_b.

    The generator conserves n_a - n_b, so |d>_a |0>_b only reaches the
    chain |d+k>_a |k>_b, of min(dim_a - d, dim_b) cells; gauging out the
    phase e^{i phi k} leaves a real symmetric tridiagonal generator on each
    chain, with hop r sqrt((d+k+1)(k+1)) from cell k to k + 1.  The chains
    go through chains.propagate over the spectral bound 2 r sqrt(dim_a
    dim_b), and phases enter exactly as in the closed form.

    Only the chains the seed populates are propagated: chain d starts from
    seed[d] times a unit vector, and the chain propagator is unitary, so
    the chains d >= D with sum_{n >= D} |seed[n]|^2 <= thresh^2 are left at
    zero, which moves the state by at most thresh = chains.cutoff(tol) in
    2-norm.  The kept cells come out exactly as if every chain were
    propagated.
    """
    if not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    seed = coherent_state(p.alpha, p.dim_a)
    if p.r == 0.0:
        return tensor_product(seed, fock_state(0, p.dim_b))
    bound = 2.0 * p.r * math.sqrt(p.dim_a * p.dim_b)
    # seed weight of chains d..dim_a-1 is tail[dim_a-1-d]; tail never falls
    tail = np.cumsum(np.abs(seed.amp[::-1]) ** 2)
    n_chains = p.dim_a - int(np.count_nonzero(tail <= chains.cutoff(tol) ** 2))
    lengths = np.minimum(p.dim_a - np.arange(n_chains), p.dim_b)
    chain = np.repeat(np.arange(n_chains), lengths)
    k = np.arange(chain.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    hops = (p.r / bound) * np.sqrt((chain + k + 1.0) * (k + 1.0))
    y = chains.propagate(lengths, hops, bound, tol)
    amp = np.zeros((p.dim_a, p.dim_b), dtype=np.complex128)
    amp[chain + k, k] = seed.amp[chain] * np.exp(1j * p.phi * k) * y
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
    """p_m for m = 0..m_max (see p_m), its Laguerre values read from
    specialfn.laguerre's tables: auto_dims, p_m and p_m_cumulative at one
    (alpha, r) share one recurrence."""
    _check_r(r)
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
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
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


def required_dim_a(alpha: complex, r: float, dim_b: int) -> int:
    """Signal truncation for the idler truncation dim_b: the dim_b - 1
    columns the pair creation reaches, plus headroom for |alpha / cosh r>."""
    _check_r(r)
    aa = abs(alpha) / math.cosh(r)
    return dim_b + int(math.ceil(aa * aa + 8.0 * aa + 16.0)) + 4


def auto_dims(alpha: complex, r: float) -> tuple[int, int]:
    """Truncations meeting DEFAULT_TAIL_TARGET for the given seed and squeeze."""
    dim_b = max(DEFAULT_DIM_B, required_dim_b(alpha, r))
    return required_dim_a(alpha, r, dim_b), dim_b


def spacs_overlap_closed(alpha: complex, r: float) -> float:
    """Closed-form overlap-squared expression for the single-addition case:

    [(1 + |alpha|^2 / cosh^2 r) / (1 + |alpha|^2)]
      * exp[-|alpha|^2 (1 - 1 / cosh^2 r)].

    Evaluated verbatim.  With beta = alpha / cosh r it equals
    [L_1(-|beta|^2) / L_1(-|alpha|^2)] e^{-|alpha|^2 tanh^2 r}, since
    L_1(-y) = 1 + y and 1 - 1 / cosh^2 r = tanh^2 r.  The cross-validation
    suite shows this expression disagrees with the brute-force normalized
    overlap of the two states it nominally describes (see
    spacs_overlap_numeric) everywhere except r = 0 and the r -> infinity
    saturation; both routes are therefore emitted side by side and never
    silently reconciled.  r = inf raises: spacs_overlap_saturation is that
    limit.
    """
    _check_r(r)
    aa = abs(alpha) ** 2
    ch2 = math.cosh(r) ** 2
    return (1.0 + aa / ch2) / (1.0 + aa) * math.exp(-aa * (1.0 - 1.0 / ch2))


def spacs_overlap_saturation(alpha: complex) -> float:
    """Large-r limit e^{-|alpha|^2} / (1 + |alpha|^2) shared by both routes."""
    aa = abs(alpha) ** 2
    return math.exp(-aa) / (1.0 + aa)


def spacs_overlap_numeric(alpha: complex, r: float, dim: int | None = None) -> float:
    """Brute-force |<alpha,1 | alpha/cosh r,1>|^2 with both states normalized."""
    _check_r(r)
    if dim is None:
        dim = default_dim(alpha) + 8
    at = alpha / math.cosh(r)
    ov = pacs_overlap(PacsSpec(alpha, 1), PacsSpec(at, 1), dim)
    return abs(ov) ** 2


def seed_amplitude(alpha_target: complex, r: float) -> complex:
    """Seed amplitude alpha_target * cosh r whose conditioned photon-added
    state comes out with amplitude alpha_target."""
    _check_r(r)
    return alpha_target * math.cosh(r)
