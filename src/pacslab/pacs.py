"""Photon-added coherent states: construction, norms, overlaps.

The m-photon-added coherent state is the (unnormalized) result of applying
the creation operator m times to a coherent state; its squared norm has the
closed form m! L_m(-|alpha|^2).  Both unnormalized and normalized variants
are exposed because downstream expansions need to select a convention.
"""

import math
from dataclasses import dataclass

from .errors import TruncationError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockVector,
    coherent_state,
    coherent_tail_mass,
    create,
    inner_product,
    normalize,
)
from .specialfn import laguerre, log_factorial


@dataclass(frozen=True)
class PacsSpec:
    """Order-m photon addition on a coherent state of the given amplitude."""

    alpha: complex
    m: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("photon-addition order m must be nonnegative")


def pacs_state(spec: PacsSpec, dim: int, normalized: bool = False) -> FockVector:
    """Fock amplitudes of the order-m photon-added coherent state.

    Each creation application shifts weight one level up, so the coherent
    tail check is enforced at dim - m rather than dim, after the coherent
    state's own range check.
    """
    if dim <= spec.m:
        # every amplitude would be lifted past the truncation
        raise TruncationError(f"dim={dim} leaves no room for m={spec.m} additions", 1.0)
    amp = coherent_state(spec.alpha, dim, tail_tol=1.0).amp
    tail = coherent_tail_mass(amp, spec.alpha, dim - spec.m)
    if tail > DEFAULT_TAIL_TOL:
        raise TruncationError(
            f"dim={dim} too small for pacs(alpha={spec.alpha}, m={spec.m})", tail
        )
    for _ in range(spec.m):
        amp = create(amp)
    return normalize(amp)[0] if normalized else FockVector(amp)


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
