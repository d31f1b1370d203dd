"""Resonant two-level-atom / cavity-mode dynamics and conditional states.

The atom starts in its upper level with the cavity in a coherent state.  The
exact closed-form Rabi solution is the primary evolution path; the operator
power series of the evolution operator is kept as an independent check that
must converge to it; as a a+ is diagonal, it is summed per Fock index, as
the Taylor series of the Rabi cosine and sine.  Detecting the atom in the
lower level leaves the cavity in a photon-added superposition whose
re-expansion over photon-added coherent states is reconstructed here under
selectable conventions.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailureError
from .fock import (
    FockVector,
    coherent_state,
    default_dim,
    inner_product,
    ladder,
    normalize,
    normalize_rows,
    vdot_rows,
)
from .pacs import PacsSpec, pacs_kets, pacs_norm_sq, pacs_state
from .specialfn import stirling2

BASIS_VARIANTS = ("raw", "normalized")
# above this the doubles around a Rabi phase are 1 rad apart: cos/sin keep no digit
RABI_PHASE_MAX = 2.0**52
# beta_t rows of jc_overlap_curve evaluated together: memory
# O(CURVE_BLOCK * dim) at any grid length
CURVE_BLOCK = 64


@dataclass(frozen=True)
class JcParams:
    """Initial coherent amplitude and dimensionless interaction phase.

    ``beta_t`` is the product of coupling constant and interaction time;
    unit conversion happens at the CLI boundary, not here.
    """

    alpha: complex
    beta_t: float
    dim: int | None = None

    def __post_init__(self):
        if self.beta_t < 0:
            raise ValueError("beta_t must be nonnegative")

    def resolved_dim(self) -> int:
        return self.dim if self.dim is not None else default_dim(self.alpha)


@dataclass(eq=False)
class JointAtomFieldState:
    """Cavity amplitudes paired with the upper (e) and lower (g) atom level."""

    field_e: FockVector
    field_g: FockVector

    def total_norm_sq(self) -> float:
        return self.field_e.norm_sq() + self.field_g.norm_sq()


def joint_fidelity(a: JointAtomFieldState, b: JointAtomFieldState) -> float:
    ov = inner_product(a.field_e, b.field_e) + inner_product(a.field_g, b.field_g)
    return abs(ov) ** 2 / (a.total_norm_sq() * b.total_norm_sq())


def _check_rabi_phase(p: JcParams) -> None:
    """NumericalFailureError once the largest Rabi phase beta_t sqrt(dim) is
    non-finite or above RABI_PHASE_MAX."""
    dim = p.resolved_dim()
    phase = float(p.beta_t) * math.sqrt(dim)
    if not phase <= RABI_PHASE_MAX:
        raise NumericalFailureError(
            f"Rabi phase beta_t*sqrt(dim) = {phase:.3g} at beta_t={p.beta_t}, "
            f"dim={dim} is beyond 2^52, where adjacent doubles are 1 rad apart"
        )


def _lower_branch(c: np.ndarray, beta_ts) -> np.ndarray:
    """Lower-level Rabi amplitudes of |alpha>|e>, one row per beta_t:
    out[k, n+1] = -i c_n sin(beta_ts[k] sqrt(n+1)), out[k, 0] = 0."""
    rabi = np.multiply.outer(np.asarray(beta_ts, dtype=np.float64), ladder(len(c)))
    out = np.zeros((len(rabi), len(c)), dtype=np.complex128)
    out[:, 1:] = -1j * c[:-1] * np.sin(rabi)
    return out


def jc_evolve_exact(p: JcParams) -> JointAtomFieldState:
    """Closed-form resonant Rabi evolution of |alpha>|e>.

    field_e[n] = c_n cos(beta_t sqrt(n+1)),
    field_g[n+1] = -i c_n sin(beta_t sqrt(n+1)), field_g[0] = 0.
    field_g is the one-row case of the Rabi helper that jc_overlap_curve
    evaluates its grid blocks with.  Raises NumericalFailureError when
    beta_t sqrt(dim) is non-finite or above 2^52, where the phases keep no
    correct digit.
    """
    _check_rabi_phase(p)
    dim = p.resolved_dim()
    c = coherent_state(p.alpha, dim).amp
    fe = c * np.cos(p.beta_t * ladder(dim + 1))
    (fg,) = _lower_branch(c, [p.beta_t])
    return JointAtomFieldState(FockVector(fe), FockVector(fg))


def jc_evolve_series(p: JcParams, n_terms: int) -> JointAtomFieldState:
    """Partial sums of the evolution-operator power series.

    The even powers contribute (a a+)^n |alpha> to the upper branch, the
    odd powers a+ (a a+)^n |alpha> to the lower one.  Converges to
    jc_evolve_exact.

    a a+ = N + 1 is diagonal, so on the Fock index k the series is the
    Taylor series of cos and sin of x_k = beta_t sqrt(k+1), summed to the
    powers x^(2 n_terms - 1).  Row j of one real np.multiply.accumulate is
    (-1)^(j//2) x_k^j / j!, row j-1 times +-x_k/j with the minus on even j.
    One np.add.reduce sums the rows in order: the even rows give field_e =
    c cos, the odd rows field_g[k+1] = -i c_k sin, field_g[0] = 0, with c
    the coherent amplitudes and x_k read from the ladder as jc_evolve_exact
    reads it.  No cos or sin is called.  A term underflows with its weight,
    so a convergent sum stays finite; NumericalFailureError names the first
    term that is not, which happens only past beta_t sqrt(dim) of about
    700, where the sum has lost every digit.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    dim = p.resolved_dim()
    c = coherent_state(p.alpha, dim).amp
    steps = np.arange(1.0, 2 * n_terms)
    steps[1::2] *= -1.0  # the even steps carry the minus
    rows = np.empty((2 * n_terms, dim))
    rows[0] = 1.0
    with np.errstate(over="ignore"):  # raised just below
        np.divide(p.beta_t * ladder(dim + 1), steps[:, None], out=rows[1:])
        np.multiply.accumulate(rows, axis=0, out=rows)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NumericalFailureError(
            f"series term {int(np.argmin(finite)) // 2} non-finite at "
            f"beta_t={p.beta_t}, dim={dim}; the partial sums are diverging"
        )
    # summed as row pairs (even | odd), 2 dim wide: a one-column reduce would
    # sum pairwise rather than in row order
    cos_sums, sin_sums = np.add.reduce(rows.reshape(n_terms, 2, dim))
    fg = np.zeros(dim, dtype=np.complex128)
    fg[1:] = -1j * c[:-1] * sin_sums[:-1]
    return JointAtomFieldState(FockVector(c * cos_sums), FockVector(fg))


@dataclass(eq=False)
class MpacsExpansion:
    """Coefficient table plus the reconstruction fidelity of each convention."""

    table: np.ndarray
    fidelities: dict
    best_convention: str
    best_fidelity: float
    oracle: FockVector


def mpacs_expansion(p: JcParams, n_max: int) -> MpacsExpansion:
    """Re-expand the conditional cavity state over the photon-added states
    of order m = 1..n_max + 1.

    ``table[n, m]`` holds the verbatim coefficient

        B(n, m, alpha) = alpha^{m-1} [m S(n,m) + S(n,m-1) m! alpha] sqrt(m! L_m(-|alpha|^2)).

    Because the verbatim formula both carries the photon-added norm factor
    sqrt(m! L_m) and an m! alpha inside the bracket, the reconstruction is
    evaluated under all four combinations of bracket variant
    ("with_factorial" keeps the m! alpha, "plain" drops it) and basis state
    reading ("raw" = unnormalized, "normalized").  The convention with the
    highest fidelity against the conditional state of the exact evolution is
    recorded; the n = 0 row uses the table convention S(0, 0) = 1 so the
    leading single-addition term is present.  A negative n_max raises
    ValueError before any work.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    m_max = n_max + 1
    # the highest-order basis state needs m_max levels of headroom
    dim = p.dim if p.dim is not None else default_dim(p.alpha) + m_max
    oracle_params = JcParams(p.alpha, p.beta_t, dim)
    alpha, orders = p.alpha, range(1, m_max + 1)
    norms = [None] + [math.sqrt(pacs_norm_sq(PacsSpec(alpha, m))) for m in orders]
    # alpha^{m-1}, m! and S(n, m) (0 for m > n) read once for all weights
    powers = [None] + [alpha ** (m - 1) for m in orders]
    factorials = [None] + [math.factorial(m) for m in orders]
    stirling = [
        [stirling2(n, k) for k in range(n + 1)] + [0] * (m_max - n)
        for n in range(n_max + 1)
    ]
    # bracket -> weight[n][m], alpha^{m-1} [m S(n,m) + S(n,m-1) m! alpha] for
    # "with_factorial" and alpha^{m-1} [m S(n,m) + S(n,m-1)] for "plain",
    # each computed once for the table and the sums
    bracket_weights = {
        "with_factorial": [
            [None] + [powers[m] * (m * s[m] + s[m - 1] * factorials[m] * alpha) for m in orders]
            for s in stirling
        ],
        "plain": [[None] + [powers[m] * (m * s[m] + s[m - 1]) for m in orders] for s in stirling],
    }
    table = np.zeros((n_max + 1, m_max + 1), dtype=np.complex128)
    for n, row in enumerate(bracket_weights["with_factorial"]):
        for m in orders:
            table[n, m] = row[m] * norms[m]

    oracle, _ = normalize(jc_evolve_exact(oracle_params).field_g.amp)
    tau = -1j * p.beta_t
    # tau^{2n+1}/(2n+1)! prefactors, built incrementally
    prefs = np.zeros(n_max + 1, dtype=np.complex128)
    prefs[0] = tau
    for n in range(1, n_max + 1):
        prefs[n] = prefs[n - 1] * tau * tau / ((2 * n) * (2 * n + 1))
    prefs = list(prefs)  # the same numpy scalars, taken out once

    kets_raw = [None, *pacs_kets(alpha, m_max, dim)]

    fidelities = {}
    for bracket, weight in bracket_weights.items():
        weights = [None] + [
            norms[m] * sum(pref * row[m] for pref, row in zip(prefs, weight))
            for m in orders
        ]
        for basis in BASIS_VARIANTS:
            rec = np.zeros(dim, dtype=np.complex128)
            for m in orders:
                ket = kets_raw[m] if basis == "raw" else kets_raw[m] / norms[m]
                rec += weights[m] * ket
            vec = FockVector(rec)
            fid = abs(inner_product(oracle, vec)) ** 2 / vec.norm_sq()
            fidelities[f"{bracket}+{basis}"] = fid
    best = max(fidelities, key=fidelities.get)  # the first of equal fidelities

    return MpacsExpansion(
        table=table,
        fidelities=fidelities,
        best_convention=best,
        best_fidelity=fidelities[best],
        oracle=oracle,
    )


class CurvePoint(NamedTuple):
    """One overlap sample; None marks an empty conditioning branch."""

    beta_t: float
    m: int
    overlap_modulus: float | None
    overlap_sq: float | None
    ground_prob: float


def jc_overlap_curve(
    alpha: complex,
    beta_t_grid,
    m_list,
    dim: int | None = None,
) -> list[CurvePoint]:
    """Overlap of the conditional cavity state with each normalized
    photon-added target, across the interaction grid.

    Both the modulus and its square are reported for every point.  Points
    whose lower-level branch is empty (see fock.normalize) are emitted with
    null overlaps and ground_prob 0.

    A non-finite alpha raises ValueError before any work, as DcParams does;
    then every beta_t is checked, as jc_evolve_exact checks it, and the
    first failing one in grid order raises.  The coherent state and the
    targets are built once; the lower-level branch comes from the same Rabi
    helper as jc_evolve_exact, CURVE_BLOCK grid rows at a time.  Each block
    is normalized and overlapped with every target by the row-wise fock
    reductions, which sum each row as its one-row evaluation does, so every
    point equals its one-row evaluation.  Each block makes its points in C:
    the moduli by np.hypot, which rounds as Python's complex abs does, and
    the squares by one elementwise product; an empty row's points, finite
    but meaningless, are then replaced by its null ones.
    """
    beta_t_grid = list(beta_t_grid)
    m_list = list(m_list)
    if not beta_t_grid or not m_list:
        raise ValueError("beta_t grid and m list must be nonempty")
    if not cmath.isfinite(alpha):
        raise ValueError(f"seed amplitude alpha must be finite, got {alpha}")
    if dim is None:
        dim = default_dim(alpha)
    targets = np.array(
        [pacs_state(PacsSpec(alpha, m), dim, normalized=True).amp for m in m_list]
    )
    grid = np.asarray(beta_t_grid)
    if grid.ndim == 1 and grid.dtype.kind in "biuf":
        # the checks of JcParams and _check_rabi_phase in one pass; only the
        # first failing beta_t goes through them, to raise their error
        with np.errstate(over="ignore", invalid="ignore"):
            ok = (grid >= 0) & (grid * math.sqrt(dim) <= RABI_PHASE_MAX)
        suspects = np.flatnonzero(~ok)[:1]
    else:  # complex, str or object elements: check each as JcParams does
        suspects = range(len(beta_t_grid))
    for i in suspects:
        _check_rabi_phase(JcParams(alpha, beta_t_grid[i], dim))
    c = coherent_state(alpha, dim).amp
    # CurvePoint(...) runs the NamedTuple's Python-level __new__; this builds
    # the same instance in C
    new_point = tuple.__new__
    width = len(m_list)
    points = []
    for start in range(0, len(beta_t_grid), CURVE_BLOCK):
        block = beta_t_grid[start : start + CURVE_BLOCK]
        conds, probs, empty = normalize_rows(_lower_branch(c, block))
        overlaps = vdot_rows(targets, conds[:, None, :])  # [row, m]
        mods = np.hypot(overlaps.real, overlaps.imag)  # np.abs rounds differently
        fields = zip(
            chain.from_iterable(map(repeat, block, repeat(width))),
            m_list * len(block),
            mods.ravel().tolist(),
            (mods * mods).ravel().tolist(),
            chain.from_iterable(map(repeat, probs.tolist(), repeat(width))),
        )
        first = len(points)
        points.extend(map(new_point, repeat(CurvePoint), fields))
        for i in np.flatnonzero(empty).tolist():
            at = first + i * width
            points[at : at + width] = [CurvePoint(block[i], m, None, None, 0.0) for m in m_list]
    return points
