"""Truncated-Fock-space states, operators and the brute-force evolution oracle.

Everything is dense complex128 over the number basis |0>..|dim-1>.  All
values are treated as immutable after construction and every operation is a
pure function of its inputs, so parameter sweeps can run concurrently.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyBranchError,
    NumericalFailureError,
    TruncationError,
)

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_EXPM_TOL = 1e-12
EXPM_MAX_TERMS = 160


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
    """Truncation keeping the coherent tail below ~1e-14 for |alpha| <= 1.5."""
    a = abs(alpha)
    return max(32, int(math.ceil(a * a + 8.0 * a + 16.0)))


# sqrt(1), sqrt(2), ... for the largest dim asked for so far; each band views
# its head, as a block kept per dim fragments the heap (+1 MB peak RSS)
_SQRT_N = np.zeros(0)


def ladder(dim: int) -> np.ndarray:
    """The read-only ladder band sqrt(1..dim-1)."""
    global _SQRT_N
    if dim < 1:
        raise ValueError("dim must be >= 1")
    band = _SQRT_N
    if len(band) < dim - 1:
        band = np.sqrt(np.arange(1.0, dim))
        band.flags.writeable = False
        _SQRT_N = band
    return band[: dim - 1]


def create(amp: np.ndarray) -> np.ndarray:
    """a+ as a band shift: (a+ amp)[n] = sqrt(n) amp[n-1], truncated at dim."""
    out = np.zeros(len(amp), np.complex128)
    out[1:] = ladder(len(amp)) * amp[:-1]
    return out


def annihilate(amp: np.ndarray) -> np.ndarray:
    """a as a band shift: (a amp)[n] = sqrt(n+1) amp[n+1]."""
    out = np.zeros(len(amp), np.complex128)
    out[:-1] = ladder(len(amp)) * amp[1:]
    return out


def vdot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum conj(a) b over the last axis, broadcast over the leading axes: every
    norm, overlap and moment, one row or a stack of rows at a time.

    np.vecdot calls the BLAS zdotc per row that np.vdot calls on a whole
    array, so each row sums bit for bit as np.vdot sums it, strided views too.
    Unlike np.vdot, it reports overflow and invalid values as numpy warnings.
    """
    return np.vecdot(a, b)


def vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """vdot_rows of two arrays of one shape, each taken whole as one row.

    The rows are reshaped, not ravelled: a strided column stays a view, as in
    np.vdot, since BLAS sums a strided row in another order than a copy.
    """
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dims differ: {a.shape} vs {b.shape}")
    return complex(vdot_rows(a.reshape(-1), b.reshape(-1)))


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


def coherent_state(
    alpha: complex, dim: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Coherent state amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Raises NumericalFailureError when e^{-|a|^2/2} underflows the normal
    double range (|a| above about 37.6): there it keeps too few digits for
    the norm and reaches 0 at |a| of about 38.6.  This is checked first,
    then dim >= 1 (ValueError); TruncationError when the tail of the built
    amplitudes beyond dim (coherent_tail_mass) exceeds ``tail_tol``.
    """
    vacuum_amp = math.exp(-abs(alpha) ** 2 / 2.0)
    if vacuum_amp < sys.float_info.min:
        raise NumericalFailureError(
            f"coherent amplitude {alpha}: exp(-|alpha|^2/2) = {vacuum_amp:.3g} "
            "underflows the double range"
        )
    if dim < 1:
        raise ValueError("dim must be >= 1")
    amp = np.zeros(dim, dtype=np.complex128)
    amp[0] = vacuum_amp
    for n in range(1, dim):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    tail = coherent_tail_mass(amp, alpha, dim)
    if tail > tail_tol:
        raise TruncationError(
            f"dim={dim} too small for coherent amplitude {alpha}", tail
        )
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
    its probability |row|^2, and whether the branch is empty; a 1-d ``amps``
    is one branch and gives scalars.

    The one place that decides a branch is empty: when |row|^2 is below the
    smallest normal double, where the normalized state loses digits.  An
    empty row is not normalized: it is divided by sqrt of that double, which
    keeps it finite.  |row|^2 is taken from ``amps`` as given, strided views
    too.
    """
    probs = vdot_rows(amps, amps).real
    # complex division by the real sqrt, as one branch was always divided
    roots = np.sqrt(np.maximum(probs, sys.float_info.min))
    return amps / roots[..., None], probs, probs < sys.float_info.min


def normalize(amp: np.ndarray) -> tuple[FockVector, float]:
    """Normalized state of one measurement branch and its probability |amp|^2
    (normalize_rows of one row).  EmptyBranchError for an empty branch."""
    unit, prob, empty = normalize_rows(amp)
    if empty:
        raise EmptyBranchError(f"branch probability {prob:.3g} is below the normal range")
    return FockVector(unit), float(prob)


def apply_operator(m: OperatorMatrix, psi: FockVector) -> FockVector:
    if m.dim != psi.dim:
        raise DimensionMismatchError(f"dims differ: {m.dim} vs {psi.dim}")
    return FockVector(m.entries @ psi.amp)


def _l2_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row (last axis) of ``x``: its arithmetic, one
    strided dot per part through vdot_rows, without its Python wrapper."""
    return np.sqrt(vdot_rows(x.real, x.real) + vdot_rows(x.imag, x.imag))


# |acc| must lie in [_NORM_MIN, _NORM_MAX), where its square sum is a normal
# double; outside it the stop test compares norms that have lost their digits
_NORM_MIN = 2.0**-511
_NORM_MAX = 2.0**512
# segments of 1-norm <= 16 the series may take: a 1-norm up to 65,536
EXPM_MAX_SEGMENTS = 4096


def expm_apply(
    m: OperatorMatrix,
    psi: FockVector,
    tol: float = DEFAULT_EXPM_TOL,
    max_terms: int = EXPM_MAX_TERMS,
) -> FockVector:
    """e^M psi.  ValueError for a non-finite entry of M; NumericalFailureError
    for a result that is not finite.

    With no nonzero entry off its diagonal (-i theta N, say), M is applied
    exactly, as e^{M_nn} psi_n (Moler and Van Loan, SIAM Rev. 45, 3 (2003)),
    whatever ``tol`` and ``max_terms``; NumericalFailureError when some
    |e^{M_nn}| is not a finite normal double (Re M_nn outside about
    [-708, 709]), where the product would lose its digits.

    Any other M takes a segmented Taylor series with term-norm stopping
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011)), relative
    accuracy ~tol, on psi times 2^-e, whose largest real or imaginary part is
    in [0.5, 1); the sum is multiplied back by 2^e, both exactly.  It raises
    NumericalFailureError past EXPM_MAX_SEGMENTS segments, when a segment
    does not converge in ``max_terms``, and when a finite, nonzero partial
    sum's norm leaves [2^-511, 2^512), where the stop test loses its digits.
    """
    if m.dim != psi.dim:
        raise DimensionMismatchError(f"dims differ: {m.dim} vs {psi.dim}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(m.entries).all():
        raise ValueError("expm_apply: generator entries must be finite")
    diag = np.diagonal(m.entries)
    if np.count_nonzero(m.entries) == np.count_nonzero(diag):
        with np.errstate(over="ignore", invalid="ignore"):  # raised just below
            factors = np.exp(diag)
            sizes = np.abs(factors)
            acc = factors * psi.amp
        if not np.all((sizes >= sys.float_info.min) & (sizes < np.inf)):
            raise NumericalFailureError(
                "expm_apply: some |e^M_nn| is not a finite normal double "
                f"(Re M_nn from {diag.real.min():.3e} to {diag.real.max():.3e})"
            )
    else:
        with np.errstate(over="ignore"):  # an infinite 1-norm is raised just below
            norm_one = float(np.max(np.sum(np.abs(m.entries), axis=0)))
        if not norm_one <= 16.0 * EXPM_MAX_SEGMENTS:
            raise NumericalFailureError(
                f"expm_apply: 1-norm {norm_one:.3e} needs over {EXPM_MAX_SEGMENTS} segments"
            )
        segments = max(1, int(math.ceil(norm_one / 16.0)))  # 1-norm <= 16 per segment
        seg_tol = tol / (2.0 * segments)
        # the parts as float64, whose abs cannot overflow as a complex abs can;
        # e is clamped so that 2^-e and 2^e are both finite
        top = float(np.max(np.abs(psi.amp.view(np.float64))))
        e = min(max(math.frexp(top)[1], -1021), 1023) if math.isfinite(top) else 0
        acc = psi.amp * 2.0**-e
        for _ in range(segments):
            term = acc
            for k in range(1, max_terms + 1):
                term = np.matmul(m.entries, term) / (k * segments)
                acc = acc + term
                with np.errstate(over="ignore"):  # an overflowing norm is raised just below
                    acc_norm, term_norm = _l2_norms(acc), _l2_norms(term)
                if not _NORM_MIN <= acc_norm < _NORM_MAX and np.isfinite(acc).all() and acc.any():
                    raise NumericalFailureError(
                        f"expm_apply: partial sum norm {acc_norm:.3e} outside "
                        "[2^-511, 2^512), where its square sum is not a normal double"
                    )
                if term_norm <= seg_tol * acc_norm:
                    break
            else:
                raise NumericalFailureError(
                    f"expm_apply: no convergence in {max_terms} terms per segment "
                    f"(segments={segments}, 1-norm={norm_one:.3e})"
                )
        with np.errstate(over="ignore"):  # an overflow is raised just below
            acc = acc * 2.0**e
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
    p = np.abs(psi.amp) ** 2
    p = p / p.sum()
    ns = np.arange(psi.dim)
    mean = vdot(p, ns).real
    var = vdot(p, (ns - mean) ** 2).real
    return mean, var
