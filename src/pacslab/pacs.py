"""Photon-added coherent states: construction, norms, overlaps.

The m-photon-added coherent state is the (unnormalized) result of applying
the creation operator m times to a coherent state; its squared norm has the
closed form m! L_m(-|alpha|^2).  Both unnormalized and normalized variants
are exposed because downstream expansions need to select a convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, TruncationError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockVector,
    coherent_amplitudes,
    coherent_tail_mass,
    create,
    inner_product,
    normalize,
    vdot,
)
from .specialfn import laguerre, log_factorial

# (m + 1) ln dim below which a+^m |alpha> at dim cannot overflow (see _lift)
_LOG_SAFE = 700.0


@dataclass(frozen=True)
class PacsSpec:
    """Order-m photon addition on a coherent state of the given amplitude."""

    alpha: complex
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("photon-addition order m must be nonnegative")


def _checked_coherent(spec: PacsSpec, dim: int):
    """The coherent amplitudes under pacs_state, after its checks in their
    order: room for m additions, then the range and dim checks of
    coherent_amplitudes, then the tail at dim - m, since each creation
    application shifts weight one level up."""
    if dim <= spec.m:
        # every amplitude would be lifted past the truncation
        raise TruncationError(f"dim={dim} leaves no room for m={spec.m} additions", 1.0)
    amp = coherent_amplitudes(spec.alpha, dim)
    tail = coherent_tail_mass(amp, spec.alpha, dim - spec.m)
    if tail > DEFAULT_TAIL_TOL:
        raise TruncationError(
            f"dim={dim} too small for pacs(alpha={spec.alpha}, m={spec.m})", tail
        )
    return amp


def _lift(amp, spec: PacsSpec, dim: int, times: int):
    """amp after `times` creation applications, the last of which reaches
    order spec.m; NumericalFailureError, with no numpy warning, when the
    squared norm of that order leaves the double range.

    An amplitude of a+^m |alpha> at dim is below dim^(m/2), as the coherent
    ones are at most 1, so its squared norm is below dim^(m+1): an (m, dim)
    that keeps that below e^_LOG_SAFE cannot overflow and skips the check."""
    if (spec.m + 1) * math.log(dim) < _LOG_SAFE:
        for _ in range(times):
            amp = create(amp)
        return amp
    with np.errstate(over="ignore", invalid="ignore"):  # raised just below
        for _ in range(times):
            amp = create(amp)
        norm_sq = vdot(amp, amp).real
    if not math.isfinite(norm_sq):
        raise NumericalFailureError(
            f"pacs(alpha={spec.alpha}, m={spec.m}) at dim={dim} leaves the double "
            f"range (squared norm {norm_sq})"
        )
    return amp


def pacs_state(spec: PacsSpec, dim: int, normalized: bool = False) -> FockVector:
    """Fock amplitudes of the order-m photon-added coherent state: m
    creation applications to the coherent state (see _checked_coherent for
    the truncation checks and _lift for the range check)."""
    amp = _lift(_checked_coherent(spec, dim), spec, dim, spec.m)
    return normalize(amp)[0] if normalized else FockVector(amp)


def pacs_kets(alpha: complex, m_max: int, dim: int) -> list:
    """The raw amplitudes of pacs_state(PacsSpec(alpha, m), dim) for
    m = 1..m_max, bit for bit, as one chain of creation applications; each
    order is checked as pacs_state checks it, in ascending order."""
    kets, amp = [], None
    for m in range(1, m_max + 1):
        spec = PacsSpec(alpha, m)
        seed = _checked_coherent(spec, dim)
        amp = _lift(seed if amp is None else amp, spec, dim, 1)
        kets.append(amp)
    return kets


def pacs_norm_sq(spec: PacsSpec) -> float:
    """Closed-form squared norm m! L_m(-|alpha|^2)."""
    return math.exp(log_factorial(spec.m)) * laguerre(spec.m, -abs(spec.alpha) ** 2)


def pacs_overlap(a: PacsSpec, b: PacsSpec, dim: int) -> complex:
    """Numeric overlap of two normalized photon-added coherent states.

    The amplitudes need not coincide; there is no general closed form, the
    value comes from the truncated inner product.
    """
    va, vb = (pacs_state(spec, dim, normalized=True) for spec in (a, b))
    return inner_product(va, vb)
