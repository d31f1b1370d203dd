"""Numerical laboratory for photon-added coherent states.

Two generation schemes are simulated in truncated Fock space: resonant
atom-cavity interaction and two-mode pair creation (parametric
down-conversion).  Every closed-form expression has an independent
brute-force oracle next to it, and the CLI emits reproducible curve data.
"""

from .downconversion import (
    ConditionalResult,
    DcParams,
    SqueezeFactors,
    auto_dims,
    conditional_mpacs,
    dc_evolve_closed,
    dc_evolve_numeric,
    p_m,
    p_m_cumulative,
    required_dim_b,
    seed_amplitude,
    spacs_overlap_closed,
    spacs_overlap_numeric,
    spacs_overlap_saturation,
    su11_factors,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyBranchError,
    NumericalFailureError,
    PacslabError,
    TruncationError,
)
from .fock import (
    FockVector,
    OperatorMatrix,
    TwoModeState,
    annihilation_matrix,
    apply_operator,
    coherent_state,
    coherent_tail_mass,
    creation_matrix,
    default_dim,
    expm_apply,
    fidelity,
    fock_state,
    inner_product,
    number_matrix,
    number_moments,
    project_b,
    tensor_product,
)
from .jaynes import (
    CurvePoint,
    JcParams,
    JointAtomFieldState,
    MpacsExpansion,
    jc_conditional_ground,
    jc_evolve_exact,
    jc_evolve_series,
    jc_overlap_curve,
    joint_fidelity,
    mpacs_expansion,
)
from .pacs import PacsSpec, pacs_norm_sq, pacs_overlap, pacs_state
from .specialfn import laguerre, log_factorial, stirling2

__version__ = "0.1.0"
