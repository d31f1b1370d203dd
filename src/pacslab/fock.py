"""Truncated-Fock-space states, operators and the exact diagonal exponential.

Everything is dense complex128 over the number basis |0>..|dim-1>.  All
values are treated as immutable after construction and every operation is a
pure function of its inputs, so parameter sweeps can run concurrently.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyBranchError,
    NumericalFailureError,
    TruncationError,
)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_EXPM_TOL = 1e-12


@dataclass(eq=False)
class FockVector:
    """Amplitudes of a single-mode state, amp[n] = <n|psi>."""

    amp: np.ndarray

    def __post_init__(self):
        self.amp = np.ascontiguousarray(self.amp, dtype=np.complex128)
        if self.amp.ndim != 1 or self.dim < 1:
            raise ValueError("FockVector needs a 1-d amplitude array, dim >= 1")

    @property
    def dim(self) -> int:
        return self.amp.shape[0]

    def norm_sq(self) -> float:
        return vdot(self.amp, self.amp).real


@dataclass(eq=False)
class OperatorMatrix:
    """Dense matrix realization of a single-mode operator."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.ascontiguousarray(self.entries, dtype=np.complex128)
        if (
            self.entries.ndim != 2
            or self.entries.shape[0] != self.entries.shape[1]
            or self.dim < 1
        ):
            raise ValueError("OperatorMatrix needs a square array, dim >= 1")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(eq=False)
class TwoModeState:
    """Bipartite amplitudes, amp[n, m] = <n|_a <m|_b psi."""

    amp: np.ndarray

    def __post_init__(self):
        self.amp = np.ascontiguousarray(self.amp, dtype=np.complex128)
        if self.amp.ndim != 2 or self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("TwoModeState needs a 2-d amplitude grid")

    @property
    def dim_a(self) -> int:
        return self.amp.shape[0]

    @property
    def dim_b(self) -> int:
        return self.amp.shape[1]

    def norm_sq(self) -> float:
        return vdot(self.amp, self.amp).real


def default_dim(alpha: complex) -> int:
    """Truncation keeping the coherent tail below ~1e-14 for |alpha| <= 1.5;
    ValueError for a non-finite alpha, NumericalFailureError when |alpha|^2
    overflows (|alpha| above about 1.3e154)."""
    if not cmath.isfinite(alpha):
        raise ValueError(f"seed amplitude alpha must be finite, got {alpha}")
    try:
        a = abs(alpha)
    except OverflowError:  # finite parts whose modulus passes the double range
        a = math.inf
    size = a * a + 8.0 * a + 16.0
    if size == math.inf:
        raise NumericalFailureError(
            f"default truncation for seed amplitude {alpha}: |alpha|^2 overflows the double range"
        )
    return max(32, int(math.ceil(size)))


# sqrt(1), sqrt(2), ... for the largest dim asked for so far, and its complex
# twin sqrt(n) + 0j; each band views its head, as a block kept per dim
# fragments the heap (+1 MB peak RSS)
_SQRT_N = np.zeros(0)
_SQRT_N_COMPLEX = np.zeros(0, np.complex128)


def ladder(dim: int) -> np.ndarray:
    """The read-only ladder band sqrt(1..dim-1)."""
    global _SQRT_N, _SQRT_N_COMPLEX
    if dim < 1:
        raise ValueError("dim must be >= 1")
    band = _SQRT_N
    if len(band) < dim - 1:
        band = np.sqrt(np.arange(1.0, dim))
        twin = band.astype(np.complex128)
        band.flags.writeable = twin.flags.writeable = False
        _SQRT_N, _SQRT_N_COMPLEX = band, twin
    return band[: dim - 1]


def complex_ladder(dim: int) -> np.ndarray:
    """ladder(dim) as read-only complex128, sqrt(n) + 0j: a product with a
    complex vector skips the cast of the real band and gives the same bits.

    A factor with a zero imaginary part gives the same bits in either
    operand order, in a contiguous product and in an accumulate alike, so a
    recurrence over the real ladder factors may run as one
    np.multiply.accumulate.  A recurrence of contiguous array products
    with a complex factor stays step by step, each step one product in its
    operand order with its own output: numpy's SIMD complex multiply fuses
    multiply-adds, c*x and x*c round differently there, and an accumulate,
    whose output overlaps its input, runs a loop that does not fuse them.
    That holds for the z/sqrt(n) columns of dc_evolve_closed.  A recurrence
    of numpy scalar products, which do not fuse either, may run as one
    accumulate, as the alpha/sqrt(n) coherent amplitudes do.
    """
    if not 0 < dim <= len(_SQRT_N_COMPLEX) + 1:
        ladder(dim)
    return _SQRT_N_COMPLEX[: dim - 1]


def create(amp: np.ndarray) -> np.ndarray:
    """a+ as a band shift: (a+ amp)[n] = sqrt(n) amp[n-1], truncated at dim."""
    out = np.zeros(len(amp), np.complex128)
    out[1:] = complex_ladder(len(amp)) * amp[:-1]
    return out


def vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum conj(a) b over the last axis, broadcast over the leading axes: every
    norm, overlap and moment, one row or a stack of rows at a time.

    np.vecdot calls the BLAS zdotc per row that np.vdot calls on a whole
    array, so each row of finite parts sums bit for bit as np.vdot sums it,
    strided views too.  A row with an infinite part can differ: for
    [1 + inf j] the real part is inf here and NaN in np.vdot.  Unlike
    np.vdot, it reports overflow and invalid values as numpy warnings.
    """
    return np.vecdot(a, b)


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """sum conj(a) b over two arrays of one shape: vdot_rows over the last
    axis, the rows' real and imaginary parts each added exactly by fsum.

    A 1-d array is one row and sums as vdot_rows sums it: bit for bit as
    np.vdot sums it, strided columns too, unless a part is infinite (see
    vdot_rows).  Its parts are returned as fsum returns one value, with
    + 0.0, which turns -0.0 into 0.0 and passes NaN and inf.  A grid goes to
    BLAS a row at a time, since OpenBLAS splits a zdotc over about 10,000
    entries by its thread count.  fsum raises OverflowError when finite rows
    overflow, ValueError on inf - inf.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dims differ: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        row = complex(vdot_rows(a, b))
        return complex(row.real + 0.0, row.imag + 0.0)
    rows = vdot_rows(a, b).reshape(-1)
    return complex(math.fsum(rows.real.tolist()), math.fsum(rows.imag.tolist()))


def annihilation_matrix(dim: int) -> OperatorMatrix:
    """Ladder matrix with entries[n-1, n] = sqrt(n)."""
    return OperatorMatrix(np.diag(ladder(dim), 1))


def creation_matrix(dim: int) -> OperatorMatrix:
    return OperatorMatrix(annihilation_matrix(dim).entries.conj().T)


def number_matrix(dim: int) -> OperatorMatrix:
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return OperatorMatrix(np.diag(np.arange(dim, dtype=np.complex128)))


def coherent_tail_mass(amp: np.ndarray, alpha: complex, cut: int) -> float:
    """Poisson tail sum_{n>=cut} |<n|alpha>|^2 from the coherent amplitudes
    ``amp`` of alpha, 1 <= cut <= len(amp); NaN for a NaN alpha.

    Past the peak (cut > |alpha|^2): the sum of amp[cut:], continued by
    p_n = p_{n-1} |alpha|^2 / n from |amp[-1]|^2 until a term is at most
    1e-17 of it.  Up to the peak: 1 minus the head sum, since the squares
    below the peak underflow above |alpha| of about 26.6.
    """
    mu = abs(alpha) ** 2
    if cut <= mu:
        return 1.0 - vdot(amp[:cut], amp[:cut]).real
    tail = vdot(amp[cut:], amp[cut:]).real
    term = abs(complex(amp[-1])) ** 2
    n = len(amp)
    while term > 1e-17 * tail:
        term *= mu / n
        tail += term
        n += 1
    return tail


# coherent amplitude vectors kept, one per (alpha, dim): a state is asked for
# again soon after it is built (a pair grid, then its conditioned targets),
# so a library-sweep pass reuses as much with 4 entries as with 32
COHERENT_STATES = 8


@lru_cache(maxsize=COHERENT_STATES, typed=True)
def _coherent_amplitudes(alpha: complex, dim: int, signs: tuple) -> np.ndarray:
    """The amplitude recurrence of coherent_amplitudes, amp[0] =
    e^{-|alpha|^2/2} and amp[n] = amp[n-1] * alpha / sqrt(n), with the bits
    of that step loop.  ``signs``, the signs of alpha's parts, only keys the
    cache: 0.0 and -0.0 are equal keys whose amplitudes differ in the sign
    of their zeros.

    One complex np.multiply.accumulate over [amp[0], alpha, 1/sqrt(1) - 0j,
    alpha, 1/sqrt(2) - 0j, ...], read at the even indices, rounds twice per
    step as the loop does: numpy divides a complex scalar by sqrt(n) as a
    product with 1.0/sqrt(n) (Smith's method), and the -0j factor gives
    the loop's signed zeros.  Where a part of amp[n-1] * alpha is not zero
    but its product with 1/sqrt(n) underflows to zero, the division keeps
    that part's sign, while the accumulate adds a signed zero from the
    other part to it, which can turn -0.0 into 0.0; from the first such
    step the loop takes over.
    """
    steps = np.empty(2 * dim - 1, dtype=np.complex128)
    steps[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    steps[1::2] = alpha
    recips = steps[2::2]
    np.divide(1.0, ladder(dim), out=recips.real)
    recips.imag = -0.0
    np.multiply.accumulate(steps, out=steps)
    amp = steps[::2]
    # with no part lost, the zero parts are amp[0]'s imaginary one or, for a
    # real or imaginary alpha, one part of every entry: a part of amp[n] is
    # zero only where that of amp[n-1] * alpha is or where it underflowed
    parts = steps.view(np.float64)
    structural = 1 if alpha.real and alpha.imag else 2 * dim - 1
    if len(parts) - np.count_nonzero(parts) != structural:
        pairs = parts[2:].reshape(-1, 2, 2)  # [n - 1, (amp[n-1] * alpha, amp[n]), part]
        lost = np.flatnonzero(((pairs[:, 1] == 0) & (pairs[:, 0] != 0)).any(axis=1))
        for n in range(lost[0] + 1 if len(lost) else dim, dim):
            amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    amp = amp.copy()
    amp.flags.writeable = False
    return amp


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), n < dim, read-only,
    with no truncation check: for a caller that checks the tail at its own
    cut (coherent_tail_mass).

    Raises NumericalFailureError when e^{-|a|^2/2} underflows the normal
    double range (|a| above about 37.6): there it keeps too few digits for
    the norm and reaches 0 at |a| of about 38.6.  This is checked first,
    then dim >= 1 (ValueError), then that the recurrence's 2 dim - 1
    complex steps fit in the largest array numpy can describe, sys.maxsize
    bytes (MemoryError, as a failed allocation of a smaller one raises;
    dim above about 2.9e17).

    The amplitudes come from one recurrence per (alpha, dim), one
    accumulate with the bits of the step loop (_coherent_amplitudes), kept
    in a bounded cache (COHERENT_STATES entries) and shared, read-only, by
    every state built on them; an alpha that cannot be hashed raises
    TypeError.
    """
    vacuum_amp = math.exp(-abs(alpha) ** 2 / 2.0)
    if vacuum_amp < sys.float_info.min:
        raise NumericalFailureError(
            f"coherent amplitude {alpha}: exp(-|alpha|^2/2) = {vacuum_amp:.3g} "
            "underflows the double range"
        )
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if 16 * (2 * dim - 1) > sys.maxsize:
        raise MemoryError(
            f"coherent amplitudes at dim={dim}: {2 * dim - 1} complex steps "
            "exceed the largest numpy array"
        )
    signs = (math.copysign(1.0, alpha.real), math.copysign(1.0, alpha.imag))
    return _coherent_amplitudes(alpha, dim, signs)


def coherent_state(alpha: complex, dim: int) -> FockVector:
    """The coherent state |alpha> at dim: coherent_amplitudes, then
    TruncationError when their tail beyond dim (coherent_tail_mass) exceeds
    DEFAULT_TAIL_TOL."""
    amp = coherent_amplitudes(alpha, dim)
    tail = coherent_tail_mass(amp, alpha, dim)
    if tail > DEFAULT_TAIL_TOL:
        raise TruncationError(f"dim={dim} too small for coherent amplitude {alpha}", tail)
    return FockVector(amp)


def fock_state(n: int, dim: int) -> FockVector:
    if not 0 <= n < dim:
        raise ValueError(f"fock index {n} outside dim {dim}")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[n] = 1.0
    return FockVector(amp)


def inner_product(psi: FockVector, phi: FockVector) -> complex:
    """<psi|phi> = sum conj(psi[n]) phi[n]."""
    return vdot(psi.amp, phi.amp)


def fidelity(psi: FockVector | TwoModeState, phi: FockVector | TwoModeState) -> float:
    """|<psi|phi>|^2 between the normalized states, single- or two-mode."""
    return abs(vdot(psi.amp, phi.amp)) ** 2 / (psi.norm_sq() * phi.norm_sq())


def normalize_rows(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row (last axis) of a stack of measurement branches normalized,
    its probability |row|^2, and whether the branch is empty (_empty); a
    1-d ``amps`` is one branch and gives scalars.

    An empty row is not normalized: it is divided by sqrt of the smallest
    normal double, which keeps it finite.  |row|^2 is taken from ``amps`` as
    given, strided views too.
    """
    probs = vdot_rows(amps, amps).real
    # complex division by the real sqrt, as one branch was always divided
    roots = np.sqrt(np.maximum(probs, sys.float_info.min))
    return amps / roots[..., None], probs, _empty(probs)


def _empty(probs):
    """Whether a branch of probability |row|^2 is empty, elementwise: below
    the smallest normal double, where the normalized state loses digits.
    The one rule normalize_rows and normalize share; NaN is not empty."""
    return probs < sys.float_info.min


def normalize(amp: np.ndarray) -> tuple[FockVector, float]:
    """Normalized state of one measurement branch and its probability |amp|^2:
    normalize_rows of one row, bit for bit, NaN rows too, in Python floats.
    EmptyBranchError for an empty branch (_empty)."""
    prob = float(vdot_rows(amp, amp).real)
    if _empty(prob):
        raise EmptyBranchError(f"branch probability {prob:.3g} is below the normal range")
    # normalize_rows divides by sqrt(max(prob, that double)), here sqrt(prob)
    return FockVector(amp / math.sqrt(prob)), prob


def expm_apply(m: OperatorMatrix, psi: FockVector, tol: float = DEFAULT_EXPM_TOL) -> FockVector:
    """e^M psi for a generator M with no nonzero entry off its diagonal
    (-i theta N, say), applied exactly, as e^{M_nn} psi_n (Moler and Van
    Loan, SIAM Rev. 45, 3 (2003)).  ``tol`` must be positive; the exact
    product does not read it.

    ValueError for a non-finite entry of M, then for a nonzero entry off its
    diagonal; NumericalFailureError when some |e^{M_nn}| is not a finite
    normal double (Re M_nn outside about [-708, 709]), where the product
    would lose its digits, and for a result that is not finite.
    """
    if m.dim != psi.dim:
        raise DimensionMismatchError(f"dims differ: {m.dim} vs {psi.dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(m.entries).all():
        raise ValueError("expm_apply: generator entries must be finite")
    diag = np.diagonal(m.entries)
    if np.count_nonzero(m.entries) != np.count_nonzero(diag):
        raise ValueError("expm_apply: generator has a nonzero entry off its diagonal")
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        factors = np.exp(diag)
        sizes = np.abs(factors)
        acc = factors * psi.amp
    if not np.all((sizes >= sys.float_info.min) & (sizes < np.inf)):
        raise NumericalFailureError(
            "expm_apply: some |e^M_nn| is not a finite normal double "
            f"(Re M_nn from {diag.real.min():.3e} to {diag.real.max():.3e})"
        )
    if not np.all(np.isfinite(acc)):
        raise NumericalFailureError("expm_apply produced non-finite amplitudes")
    return FockVector(acc)


def tensor_product(a: FockVector, b: FockVector) -> TwoModeState:
    """|a>_a |b>_b on the truncated bipartite grid."""
    return TwoModeState(np.outer(a.amp, b.amp))


def project_b(state: TwoModeState, m: int) -> tuple[FockVector, float]:
    """Condition on the b-mode number outcome m.

    Returns the renormalized a-mode state and the outcome probability;
    raises EmptyBranchError for an empty branch (see normalize).
    """
    if not 0 <= m < state.dim_b:
        raise ValueError(f"b-mode index {m} outside dim_b {state.dim_b}")
    return normalize(state.amp[:, m])


def number_moments(psi: FockVector) -> tuple[float, float]:
    """(mean, variance) of the photon number of the normalized state."""
    p = np.abs(psi.amp) ** 2 / psi.norm_sq()
    ns = np.arange(psi.dim)
    mean = vdot(p, ns).real
    var = vdot(p, (ns - mean) ** 2).real
    return mean, var
