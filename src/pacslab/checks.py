"""Cross-validation checks: each closed form measured against its oracle.

The ``*_rows`` functions pair a closed form with its oracle once, over a
grid, and return the records of one CLI scenario as dicts whose keys are the
columns in order.  Every measurement takes its grid as arguments and returns
the measured value, a worst-case deviation or fidelity deficit over that
grid; where a scenario exists, it reduces that scenario's rows.  ``verify``
runs the suite of ``pacslab --scenario verify`` on fixed grids; the release
gate in ``tests/test_acceptance.py`` calls the same functions on its own
grids.
"""

import math

import numpy as np

from . import downconversion as dc
from . import fock, jaynes, pacs, specialfn
from .errors import EmptyBranchError, NumericalFailureError, TruncationError

# cavity overlap moduli |<psi_g | alpha, m>| of alpha = 0.8 as beta_t -> 0+
JC_ANCHORS = {1: 1.0, 2: 0.73980, 3: 0.39261}
VERIFY_COLUMNS = ("check", "passed", "measured", "tolerance", "provenance")


def worst_of(values) -> float:
    """Largest of 0.0 and values: the worst deviation or deficit over a grid.

    NaN if any value is NaN, so that a broken measurement fails its bound
    (max() would drop a NaN after the first value).
    """
    values = [float(v) for v in values]
    if any(math.isnan(v) for v in values):
        return math.nan
    return max([0.0, *values])


def curve_rows(alpha: complex, beta_ts, ms, dim=None) -> list:
    """jc-curve: overlaps of the conditional cavity state with the
    photon-added targets over beta_t (closed form only)."""
    points = jaynes.jc_overlap_curve(alpha, beta_ts, ms, dim=dim)
    return [{**p._asdict(), "provenance": "closed_form"} for p in points]


def overlap_rows(alpha: complex, rs, dim=None) -> list:
    """dc-overlap: the closed-form overlap of the generated one-photon-added
    state next to its brute-force oracle, over r."""
    rows = []
    sat = dc.spacs_overlap_saturation(alpha)
    for r in rs:
        closed = dc.spacs_overlap_closed(alpha, float(r))
        numeric = dc.spacs_overlap_numeric(alpha, float(r), dim=dim)
        rows.append(
            {
                "r": float(r),
                "overlap_sq_closed": closed,
                "overlap_sq_numeric": numeric,
                "abs_deviation": abs(closed - numeric),
                "saturation": sat,
                "provenance": "both",
            }
        )
    return rows


def _pair_dims(alpha: complex, rs, ms, dim_a, dim_b) -> list:
    """(r, dim_a, dim_b) per r, automatic unless forced.  auto_dims runs only
    for a missing dim_b, so a forced one passes its Laguerre order cap; a
    missing dim_a is sized from the dim_b in use.  Raises, before any
    evolution: NumericalFailureError for an m order above the Laguerre order
    cap, which p_m cannot reach and whose photon-added state overflows;
    TruncationError, before any sizing for a forced dim_b, for an m order
    that does not fit."""
    if ms and max(ms) > specialfn.LAGUERRE_M_MAX:
        raise NumericalFailureError(
            f"m={max(ms)} exceeds the Laguerre order cap {specialfn.LAGUERRE_M_MAX}"
        )
    out = []
    for r in rs:
        r = float(r)
        db = dc.auto_dims(alpha, r)[1] if dim_b is None else dim_b
        if ms and max(ms) >= db:
            raise TruncationError(f"dim_b={db} leaves no room for m={max(ms)}", 1.0)
        da = dc.required_dim_a(alpha, r, db) if dim_a is None else dim_a
        out.append((r, da, db))
    return out


def pm_rows(alpha: complex, rs, ms, tol: float, dim_a=None, dim_b=None) -> list:
    """dc-pm: closed-form idler probabilities p_m next to the idler
    projection of the Chebyshev-propagated pair state."""
    rows = []
    for r, da, db in _pair_dims(alpha, rs, ms, dim_a, dim_b):
        state = dc.dc_evolve_numeric(dc.DcParams(alpha, r, 0.0, da, db), tol=tol)
        psum = dc.p_m_cumulative(alpha, r, 60)
        for m in ms:
            closed = dc.p_m(alpha, r, m)
            col = state.amp[:, m]
            numeric = fock.vdot(col, col).real
            rows.append(
                {
                    "r": r,
                    "m": m,
                    "p_m_closed": closed,
                    "p_m_numeric": numeric,
                    "abs_deviation": abs(closed - numeric),
                    "p_sum_m60_closed": psum,
                    "provenance": "both",
                }
            )
    return rows


def ideal_rows(alpha: complex, rs, ms, dim_a=None, dim_b=None) -> list:
    """dc-ideal-check: fidelity of the signal conditioned on m idler photons
    with the ideal m-photon-added state of amplitude alpha / cosh r; an
    empty branch has fidelity None and prob 0."""
    rows = []
    for r, da, db in _pair_dims(alpha, rs, ms, dim_a, dim_b):
        params = dc.DcParams(alpha, r, 0.0, da, db)
        state = dc.dc_evolve_closed(params)
        aeff = params.alpha_eff()
        for m in ms:
            try:
                res = dc.conditional_mpacs(state, m, alpha_eff=aeff)
            except EmptyBranchError:
                fidelity, prob = None, 0.0
            else:
                fidelity, prob = res.fidelity, res.prob
            rows.append(
                {
                    "r": r,
                    "m": m,
                    "alpha_eff_re": aeff.real,
                    "alpha_eff_im": aeff.imag,
                    "fidelity": fidelity,
                    "prob": prob,
                    "provenance": "both",
                }
            )
    return rows


def _interior_rel_dev(lhs: np.ndarray, rhs: np.ndarray, interior: int) -> float:
    block = np.s_[:interior, :interior]
    diff = np.abs(lhs[block] - rhs[block])
    scale = np.maximum(1.0, np.abs(rhs[block]))
    return float(np.max(diff / scale))


def _ladders(dim: int) -> tuple[np.ndarray, np.ndarray]:
    return fock.annihilation_matrix(dim).entries, fock.creation_matrix(dim).entries


def normal_ordering_dev(dim: int, n_max: int) -> float:
    """(adag a)^n against sum_k S(n, k) adag^k a^k for n = 1..n_max, on the
    block the truncation leaves exact."""
    a, c = _ladders(dim)
    num = c @ a

    def dev(n):
        lhs = np.linalg.matrix_power(num, n)
        rhs = np.zeros_like(lhs)
        ck, ak = np.eye(dim, dtype=complex), np.eye(dim, dtype=complex)
        for k in range(1, n + 1):
            ck = ck @ c
            ak = a @ ak
            rhs += specialfn.stirling2(n, k) * (ck @ ak)
        return _interior_rel_dev(lhs, rhs, dim - n)

    return worst_of(dev(n) for n in range(1, n_max + 1))


def pushthrough_dev(dim: int, k_max: int) -> float:
    """adag^k a^k adag against k adag^k a^(k-1) + adag^(k+1) a^k for
    k = 1..k_max, on the block the truncation leaves exact."""
    a, c = _ladders(dim)

    def dev(k):
        ck = np.linalg.matrix_power(c, k)
        ak = np.linalg.matrix_power(a, k)
        lhs = ck @ ak @ c
        rhs = k * (ck @ np.linalg.matrix_power(a, k - 1)) + (ck @ c) @ ak
        return _interior_rel_dev(lhs, rhs, dim - k - 1)

    return worst_of(dev(k) for k in range(1, k_max + 1))


def series_vs_exact_deficit(alpha: complex, beta_ts, n_terms: int) -> float:
    """Worst 1 - fidelity of the n_terms cavity series against the exact
    evolution."""

    def deficit(p):
        series = jaynes.jc_evolve_series(p, n_terms)
        return 1.0 - jaynes.joint_fidelity(series, jaynes.jc_evolve_exact(p))

    return worst_of(deficit(jaynes.JcParams(alpha, bt)) for bt in beta_ts)


def jc_anchor_moduli(alpha: complex, beta_t: float) -> dict:
    """Overlap moduli at beta_t for the orders of JC_ANCHORS, keyed by m."""
    rows = curve_rows(alpha, [beta_t], list(JC_ANCHORS))
    return {row["m"]: row["overlap_modulus"] for row in rows}


def jc_anchors_hold(mods: dict, bound: float) -> bool:
    """Each modulus lies within bound of JC_ANCHORS and they fall with m."""
    close = all(abs(mods[m] - v) <= bound for m, v in JC_ANCHORS.items())
    return close and mods[1] > mods[2] > mods[3]


def factorization_deficit(points, tol: float) -> float:
    """Worst 1 - fidelity of the closed-form pair evolution against the
    Chebyshev propagator over (alpha, r, phi) points, at automatic dims."""

    def deficit(alpha, r, phi):
        params = dc.DcParams(alpha, r, phi, *dc.auto_dims(alpha, r))
        closed = dc.dc_evolve_closed(params)
        return 1.0 - fock.fidelity(closed, dc.dc_evolve_numeric(params, tol=tol))

    return worst_of(deficit(*point) for point in points)


def ideal_pacs_deficit(alphas, rs, ms) -> float:
    """Worst 1 - fidelity of the signal conditioned on m idler photons
    against the ideal m-photon-added state of amplitude alpha / cosh r; an
    empty branch counts as deficit 1."""
    return worst_of(
        1.0 if row["fidelity"] is None else 1.0 - row["fidelity"]
        for alpha in alphas
        for row in ideal_rows(alpha, rs, ms)
    )


def pm_closure_dev(alpha: complex, r: float, m_max: int) -> float:
    """|sum_{m <= m_max} p_m - 1| of the closed-form probabilities."""
    return abs(dc.p_m_cumulative(alpha, r, m_max) - 1.0)


def pm_projection_dev(alpha: complex, r: float, ms, tol: float) -> float:
    """Worst |p_m - idler projection of the propagated state| over ms."""
    return worst_of(row["abs_deviation"] for row in pm_rows(alpha, [r], ms, tol))


def overlap_gap(alphas, rs) -> float:
    """Worst |closed-form overlap - brute-force overlap| (red by design)."""
    return worst_of(
        row["abs_deviation"] for alpha in alphas for row in overlap_rows(alpha, rs)
    )


def saturation_gap(alphas, r: float) -> float:
    """Worst |closed-form overlap at r - its r -> inf saturation|."""
    return worst_of(
        abs(dc.spacs_overlap_closed(alpha, r) - dc.spacs_overlap_saturation(alpha))
        for alpha in alphas
    )


def seed_round_trip_deficit(alpha_eff: complex, r: float) -> float:
    """1 - fidelity of the one-photon-added state conditioned from the seed
    alpha_eff cosh r against the ideal one of amplitude alpha_eff."""
    seed = dc.seed_amplitude(alpha_eff, r)
    da, db = dc.auto_dims(seed, r)
    params = dc.DcParams(seed, r, 0.0, da, db)
    res = dc.conditional_mpacs(dc.dc_evolve_closed(params), 1, alpha_eff=alpha_eff)
    return 1.0 - res.fidelity


def verify(tol: float) -> list:
    """The records of ``pacslab --scenario verify``, in its fixed order;
    ``tol`` goes to the pair propagator."""
    results = []

    def check(name, measured, bound, passed=None):
        ok = measured <= bound if passed is None else passed
        values = (name, bool(ok), float(measured), float(bound), "both")
        results.append(dict(zip(VERIFY_COLUMNS, values)))

    dim = 32
    annih, create = _ladders(dim)
    comm = annih @ create - create @ annih
    check(
        "ladder_commutator_interior",
        np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))),
        1e-12,
    )

    alpha = 0.8
    coh = fock.coherent_state(alpha, dim)
    theta = 0.7
    gen = fock.OperatorMatrix(-1j * theta * fock.number_matrix(dim).entries)
    rotated = fock.expm_apply(gen, coh)
    target = fock.coherent_state(alpha * np.exp(-1j * theta), dim)
    check("expm_phase_rotation", 1.0 - fock.fidelity(rotated, target), 1e-10)
    back = fock.expm_apply(fock.OperatorMatrix(-gen.entries), rotated)
    check("expm_inverse_pair", np.max(np.abs(back.amp - coh.amp)), 1e-10)

    check("normal_ordering_identity", normal_ordering_dev(24, 8), 1e-9)
    check("ladder_pushthrough_identity", pushthrough_dev(24, 6), 1e-9)

    t, x = 0.5, -0.3
    series = 0.0  # left to right: builtin sum() compensates from Python 3.12
    for m in range(201):
        series += t**m * specialfn.laguerre(m, x)
    exact = math.exp(x * t / (t - 1)) / (1 - t)
    check("laguerre_generating_function", abs(series - exact), 1e-10)

    specs = [pacs.PacsSpec(a, m) for a in (0.5, 0.8, 1.5) for m in range(6)]
    norms = [(pacs.pacs_state(s, 64).norm_sq(), pacs.pacs_norm_sq(s)) for s in specs]
    check(
        "pacs_norm_consistency",
        worst_of(abs(numeric - closed) / closed for numeric, closed in norms),
        1e-9,
    )

    vecs = [pacs.pacs_state(pacs.PacsSpec(0.8, m), 48, normalized=True) for m in range(5)]
    gram = np.array([[fock.inner_product(u, v) for v in vecs] for u in vecs])
    eig_min = np.linalg.eigvalsh(gram).min()
    off = np.abs(gram[~np.eye(5, dtype=bool)])
    gram_ok = eig_min > 1e-8 and np.all(off > 0) and np.all(off < 1)
    check("pacs_gram_independent", eig_min, 1e-8, passed=gram_ok)

    mean, var = fock.number_moments(
        pacs.pacs_state(pacs.PacsSpec(0.8, 1), 48, normalized=True)
    )
    check("spacs_sub_poissonian", var - mean, 0.0, passed=var < mean)

    state = jaynes.jc_evolve_exact(jaynes.JcParams(0.8, 5.0))
    check("jc_unitarity", abs(state.total_norm_sq() - 1.0), 1e-12)
    check("jc_ground_support", abs(state.field_g.amp[0]), 0.0)
    check("jc_series_vs_exact", series_vs_exact_deficit(0.8, (0.1, 1.0, 5.0), 40), 1e-12)

    mods = jc_anchor_moduli(0.8, 1e-3)
    check(
        "jc_overlap_anchors",
        abs(mods[2] - JC_ANCHORS[2]),
        1e-4,
        passed=jc_anchors_hold(mods, 1e-4),
    )

    exp = jaynes.mpacs_expansion(jaynes.JcParams(0.8, 0.5), n_max=20)
    check("mpacs_reconstruction", 1.0 - exp.best_fidelity, 1e-8)

    points = [
        (a, r, phi)
        for a in (0.5, 0.8)
        for r in (0.1, 0.5, 1.0)
        for phi in (0.0, math.pi / 3)
    ]
    points.append((0.8, 2.0, 0.0))
    check("dc_factorization", factorization_deficit(points, tol), 1e-8)
    worst = ideal_pacs_deficit((0.5, 0.8, 1.5), (0.1, 1.0, 2.0), range(5))
    check("dc_ideal_pacs", worst, 1e-10)
    check("pm_closure", pm_closure_dev(0.8, 1.0, 60), 1e-10)
    check("pm_vs_projection", pm_projection_dev(0.8, 1.0, range(7), tol), 1e-8)
    check("overlap_closed_vs_oracle", overlap_gap((0.8,), (0.1, 0.5, 1.0, 2.0)), 1e-8)

    sat_gap = saturation_gap((0.8,), 20.0)
    endpoints_ok = dc.spacs_overlap_closed(0.8, 0.0) == 1.0 and sat_gap <= 1e-6
    check("overlap_endpoints", sat_gap, 1e-6, passed=endpoints_ok)

    check("seed_round_trip", seed_round_trip_deficit(0.8, 1.0), 1e-10)
    return results
