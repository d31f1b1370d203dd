import math
import warnings

import numpy as np
import pytest

from pacslab import fock, jaynes, pacs
from pacslab.checks import JC_ANCHORS, jc_anchor_moduli, jc_anchors_hold
from pacslab.errors import EmptyBranchError, NumericalFailureError
from pacslab.jaynes import (
    CURVE_BLOCK,
    CurvePoint,
    JcParams,
    JointAtomFieldState,
    jc_evolve_exact,
    jc_evolve_series,
    jc_overlap_curve,
    joint_fidelity,
    mpacs_expansion,
)
from pacslab.pacs import PacsSpec, pacs_state


def test_exact_identity_at_zero_time():
    st = jc_evolve_exact(JcParams(0.8, 0.0))
    ref = fock.coherent_state(0.8, st.field_e.dim)
    assert np.max(np.abs(st.field_e.amp - ref.amp)) == 0.0
    assert st.field_g.norm_sq() == 0.0


def test_vacuum_half_rabi_cycle():
    st = jc_evolve_exact(JcParams(0.0, math.pi / 2))
    assert abs(st.field_e.amp[0]) < 1e-15
    assert st.field_g.amp[1] == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("beta_t", [0.3, 5.0, 50.0])
def test_unitarity(beta_t):
    st = jc_evolve_exact(JcParams(0.8, beta_t))
    assert st.total_norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_ground_branch_has_no_vacuum_component():
    for beta_t in (0.1, 1.0, 7.0):
        st = jc_evolve_exact(JcParams(0.8, beta_t))
        assert st.field_g.amp[0] == 0.0


def test_exact_rejects_rabi_phase_without_correct_digits():
    # beta_t sqrt(32) = 5.7e13 keeps its phase; 5.7e15 is above 2^52, where
    # adjacent doubles are 1 rad apart; 1e308 sqrt(32) overflows
    jc_evolve_exact(JcParams(0.8, 1e13))
    for beta_t in (1e15, 1e300, 1e308):
        with pytest.raises(NumericalFailureError, match="Rabi phase"):
            jc_evolve_exact(JcParams(0.8, beta_t))


def test_series_single_term_is_first_order_state():
    p = JcParams(0.8, 0.01)
    st = jc_evolve_series(p, 1)
    coh = fock.coherent_state(0.8, st.field_e.dim)
    lifted = fock.creation_matrix(coh.dim).entries @ coh.amp
    assert np.max(np.abs(st.field_e.amp - coh.amp)) == 0.0
    assert np.max(np.abs(st.field_g.amp - (-1j * 0.01) * lifted)) < 1e-18
    for n_terms in (0, -1):
        with pytest.raises(ValueError, match="^n_terms must be >= 1$"):
            jc_evolve_series(p, n_terms)


def test_series_zero_time_any_terms():
    st = jc_evolve_series(JcParams(0.8, 0.0), 7)
    ref = fock.coherent_state(0.8, st.field_e.dim)
    assert np.max(np.abs(st.field_e.amp - ref.amp)) == 0.0
    assert st.field_g.norm_sq() == 0.0


@pytest.mark.parametrize("beta_t", [0.1, 1.0, 5.0])
def test_series_converges_to_exact(beta_t):
    p = JcParams(0.8, beta_t)
    series = jc_evolve_series(p, 40)
    exact = jc_evolve_exact(p)
    assert joint_fidelity(series, exact) >= 1 - 1e-12


@pytest.mark.parametrize("beta_t", [0.5, 2.0, 4.0])
def test_series_term_budget_rule(beta_t):
    # n_terms >= 4 beta_t + 20 suffices for 1e-12 agreement
    n_terms = int(4 * beta_t + 20)
    p = JcParams(0.8, beta_t)
    assert joint_fidelity(jc_evolve_series(p, n_terms), jc_evolve_exact(p)) >= 1 - 1e-12


def test_conditional_ground_probability_small_time():
    # prob = (beta_t)^2 (1 + |alpha|^2) + O(beta_t^4); the quartic term is
    # (beta_t)^4 E[(n+1)^2]/3 ~ 1.11e-8 at beta_t = 0.01, alpha = 0.8
    _, prob = fock.normalize(jc_evolve_exact(JcParams(0.8, 0.01)).field_g.amp)
    assert prob == pytest.approx(1.64e-4, abs=2e-8)


def test_conditional_ground_matches_spacs_at_small_time():
    cond, _ = fock.normalize(jc_evolve_exact(JcParams(0.8, 0.001)).field_g.amp)
    target = pacs_state(PacsSpec(0.8, 1), cond.dim, normalized=True)
    assert abs(fock.inner_product(target, cond)) ** 2 >= 1 - 1e-6


def test_conditional_ground_vacuum_seed_gives_one_photon():
    cond, _ = fock.normalize(jc_evolve_exact(JcParams(0.0, 1.3)).field_g.amp)
    assert abs(abs(cond.amp[1]) - 1.0) < 1e-14


def test_conditional_ground_empty_branch():
    with pytest.raises(EmptyBranchError):
        fock.normalize(jc_evolve_exact(JcParams(0.8, 0.0)).field_g.amp)


def test_expansion_table_band_support():
    exp = mpacs_expansion(JcParams(0.8, 0.5), n_max=8)
    for n in range(9):
        for m in range(n + 2, 9 + 1):
            assert exp.table[n, m] == 0


def test_expansion_leading_coefficient():
    exp = mpacs_expansion(JcParams(0.8, 0.5), n_max=6)
    # n = 1, m = 1: bracket collapses to S(1,1) = 1, weight sqrt(1! L_1(-0.64))
    assert exp.table[1, 1] == pytest.approx(math.sqrt(1.64), abs=1e-12)


def test_expansion_best_convention_reconstructs_conditional_state():
    exp = mpacs_expansion(JcParams(0.8, 0.5), n_max=20)
    assert exp.best_fidelity >= 1 - 1e-8
    assert exp.best_convention == "plain+normalized"
    # verbatim coefficient conventions stay clearly below the winner
    for name, fid in exp.fidelities.items():
        if name != exp.best_convention:
            assert fid < exp.best_fidelity


def test_expansion_small_time_dominated_by_single_addition():
    # reconstruction at tiny beta_t is the first-order photon-added state
    exp = mpacs_expansion(JcParams(0.8, 1e-3), n_max=6)
    target = pacs_state(PacsSpec(0.8, 1), exp.oracle.dim, normalized=True)
    assert abs(fock.inner_product(target, exp.oracle)) ** 2 >= 1 - 1e-5


def test_overlap_curve_anchors_and_ordering():
    pts = jc_overlap_curve(0.8, [1e-3], [1, 2, 3])
    mods = {p.m: p.overlap_modulus for p in pts}
    assert mods[1] == pytest.approx(1.0, abs=1e-4)
    assert mods[2] == pytest.approx(0.73980, abs=1e-4)
    assert mods[3] == pytest.approx(0.39261, abs=1e-4)
    assert mods[1] > mods[2] > mods[3]


def test_jc_anchors_hold_rejects_moved_or_unordered_moduli():
    assert jc_anchors_hold(jc_anchor_moduli(0.8, 1e-3), 1e-4)
    assert jc_anchors_hold(dict(JC_ANCHORS), 1e-4)
    for m in JC_ANCHORS:
        for shift in (2e-4, -2e-4):
            moved = {**JC_ANCHORS, m: JC_ANCHORS[m] + shift}
            assert not jc_anchors_hold(moved, 1e-4), (m, shift)
    # every modulus within the bound of its anchor, but not falling with m
    for rising in ({1: 0.5, 2: 0.6, 3: 0.4}, {1: 1.0, 2: 0.5, 3: 0.6}):
        assert all(abs(rising[m] - v) <= 0.5 for m, v in JC_ANCHORS.items())
        assert not jc_anchors_hold(rising, 0.5), rising


def test_overlap_curve_emits_null_markers():
    pts = jc_overlap_curve(0.8, [0.0, 0.5], [1, 2])
    zero_rows = [p for p in pts if p.beta_t == 0.0]
    assert len(zero_rows) == 2
    for p in zero_rows:
        assert p.overlap_modulus is None
        assert p.overlap_sq is None
    live = [p for p in pts if p.beta_t == 0.5]
    for p in live:
        assert 0 < p.overlap_modulus <= 1
        assert p.overlap_sq == pytest.approx(p.overlap_modulus**2, rel=1e-12)


def test_overlap_curve_tiny_time_keeps_anchors_until_branch_leaves_normal_range():
    # ground_prob 1.64e-16 is a normal double: the overlaps are the anchors
    pts = jc_overlap_curve(0.8, [1e-8], [1, 2, 3])
    for p in pts:
        assert p.overlap_modulus == pytest.approx(JC_ANCHORS[p.m], abs=1e-4)
        assert p.ground_prob == pytest.approx(1.64e-16, rel=1e-12)
    # 1.64e-320 is subnormal: an empty branch, blank overlaps and prob 0
    (p,) = jc_overlap_curve(0.8, [1e-160], [1])
    assert (p.overlap_modulus, p.overlap_sq, p.ground_prob) == (None, None, 0.0)


def test_overlap_curve_orders_rows_by_grid_then_m():
    pts = jc_overlap_curve(0.8, [0.2, 0.1], [2, 1])
    key = [(p.beta_t, p.m) for p in pts]
    assert key == [(0.2, 2), (0.2, 1), (0.1, 2), (0.1, 1)]


def test_overlap_curve_rejects_empty_inputs():
    with pytest.raises(ValueError):
        jc_overlap_curve(0.8, [], [1])
    with pytest.raises(ValueError):
        jc_overlap_curve(0.8, [0.1], [])


def _curve_per_point(alpha, grid, ms, dim=None):
    """The overlap curve one beta_t at a time, from the exact evolution."""
    dim = fock.default_dim(alpha) if dim is None else dim
    targets = {m: pacs_state(PacsSpec(alpha, m), dim, normalized=True) for m in ms}
    points = []
    for bt in grid:
        field_g = jc_evolve_exact(JcParams(alpha, bt, dim)).field_g.amp
        try:
            cond, prob = fock.normalize(field_g)
        except EmptyBranchError:
            points.extend(CurvePoint(bt, m, None, None, 0.0) for m in ms)
            continue
        for m in ms:
            ov = abs(fock.inner_product(targets[m], cond))
            points.append(CurvePoint(bt, m, ov, ov * ov, prob))
    return points


@pytest.mark.parametrize("alpha, dim", [(0.8, None), (0.6 - 0.9j, None), (1.2, 48)])
def test_overlap_curve_equals_per_point_evaluation(alpha, dim):
    # empty branches at 0 and 1e-160, then a grid longer than two blocks
    grid = [0.0, 1e-160, 1e-8, *np.linspace(1e-3, 170.0, 2 * CURVE_BLOCK + 3)]
    ms = [1, 3, 2]
    curve = jc_overlap_curve(alpha, grid, ms, dim=dim)
    assert curve == _curve_per_point(alpha, grid, ms, dim)
    # equal tuples are not enough: checks.curve_rows reads each point's _asdict()
    assert all(type(point) is CurvePoint for point in curve)


def test_overlap_curve_builds_each_state_once(monkeypatch):
    calls = {"jaynes": 0, "pacs": 0}

    def spy(name, module, builder):
        real = getattr(module, builder)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, builder, counted)

    spy("jaynes", jaynes, "coherent_state")
    spy("pacs", pacs, "coherent_amplitudes")
    jc_overlap_curve(0.8, np.linspace(0.0, 5.0, 3 * CURVE_BLOCK), [1, 2])
    # one coherent state for the evolution, one per photon-added target
    assert calls == {"jaynes": 1, "pacs": 2}


def _first_exact_error(alpha, grid):
    """The error jc_evolve_exact raises at the first beta_t it rejects."""
    for bt in grid:
        try:
            jc_evolve_exact(JcParams(alpha, bt))
        except (ValueError, NumericalFailureError) as exc:
            return exc
    raise AssertionError(f"no beta_t of {grid} is rejected")


def test_overlap_curve_checks_every_beta_t_in_grid_order():
    # the whole grid is checked in one pass, which warns of no overflow or NaN
    # (warnings are errors in this suite); the first failing beta_t raises
    # what jc_evolve_exact raises for it
    cases = [
        ([0.1, -1.0, 1e300], ValueError),
        ([0.1, 1e300, -1.0], NumericalFailureError),
        ([0.1, math.nan, -1.0], NumericalFailureError),
        ([0.1, math.inf], NumericalFailureError),
        ([-math.inf, math.nan], ValueError),
        ([0.1, 1e308], NumericalFailureError),  # beta_t*sqrt(dim) overflows
        ([-0.0, 0.2, -1e-300], ValueError),
    ]
    for grid, kind in cases:
        expected = _first_exact_error(0.8, grid)
        assert type(expected) is kind
        for as_given in (grid, np.array(grid)):
            with pytest.raises(kind) as exc:
                jc_overlap_curve(0.8, as_given, [1])
            assert str(exc.value) == str(expected)
    # a grid numpy cannot check as reals goes through JcParams point by point
    with pytest.raises(TypeError, match="'<' not supported"):
        jc_overlap_curve(0.8, [0.1, 1j, -1.0], [1])


def test_overlap_curve_builds_params_only_for_the_first_failing_beta_t(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return JcParams(*args)

    monkeypatch.setattr(jaynes, "JcParams", counted)
    jc_overlap_curve(0.8, np.linspace(0.0, 5.0, 3 * CURVE_BLOCK), [1, 2])
    assert built == []
    with pytest.raises(ValueError, match="nonnegative"):
        jc_overlap_curve(0.8, [0.1, -1.0, 0.2, -2.0], [1])
    assert built == [(0.8, -1.0, 32)]


def _series_reference(p, n_terms):
    """jc_evolve_series step by step: on every Fock index k, each Taylor
    term of cos and sin of x_k = beta_t sqrt(k+1) is the previous one times
    +-x_k/j (the minus on even j), checked for finiteness and added to its
    branch's running sum, rows in order; c, -i and the one-index lift of the
    lower branch come after the sums."""
    dim = p.resolved_dim()
    x = p.beta_t * np.sqrt(np.arange(1.0, dim + 1))
    term = np.ones(dim)
    sums = [term.copy(), np.zeros(dim)]
    for j in range(1, 2 * n_terms):
        term = term * (x / (j if j % 2 else -j))
        if not np.isfinite(term).all():
            raise NumericalFailureError(
                f"series term {j // 2} non-finite at beta_t={p.beta_t}, dim={dim}; "
                "the partial sums are diverging"
            )
        sums[j % 2] = sums[j % 2] + term
    c = fock.coherent_state(p.alpha, dim).amp
    g_amp = np.zeros(dim, dtype=np.complex128)
    g_amp[1:] = -1j * c[:-1] * sums[1][:-1]
    return c * sums[0], g_amp


def _series_outcome(fn, p, n_terms):
    with np.errstate(over="ignore", invalid="ignore"):  # the reference warns
        try:
            out = fn(p, n_terms)
        except NumericalFailureError as exc:
            return str(exc)
    if isinstance(out, JointAtomFieldState):
        out = out.field_e.amp, out.field_g.amp
    return b"".join(a.tobytes() for a in out)


def test_series_equals_the_step_by_step_loop_bitwise():
    # real, negative and complex alpha, parts of either zero sign; dims 1
    # and 2 (an alpha small enough for them) leave one or two Fock indices,
    # where a one-column sum would not run in row order, and at beta_t = 200
    # the large late terms show any misplaced sign or index; some beta_t
    # diverge (the reference warns, the kernel must not), so the error texts
    # are compared too
    alphas = [0.8, -0.8, 0.6 - 0.9j, complex(0.0, -0.0), complex(-0.0, 0.7), complex(1.2, -0.0)]
    cases = [
        (alpha, bt, dim, n_terms)
        for alpha in alphas
        for bt in (0.0, 1e-3, 0.5, 2.0, 5.0)
        for dim in (None,)
        for n_terms in (1, 2, 40, 65)
    ]
    cases += [
        (1e-9, bt, dim, n)
        for bt in (1.5, 200.0)
        for dim in (1, 2, 3)
        for n in (1, 2, 65)
    ]
    cases += [(0.8, bt, None, 40) for bt in (1e20, 1e30, 1e100, math.inf)]
    # finite over 131, 1,000 and 200 terms; then diverging at terms 78
    # (beta_t 1000) and 121 (beta_t 300)
    cases += [(3.0 + 1.0j, 0.7, None, 131), (1e-9, 1e-3, 3, 1000), (0.8, 120.0, None, 200)]
    cases += [(0.8, 1000.0, None, 200), (0.8, 300.0, None, 200)]
    # a NaN alpha gives NaN fields, as jc_evolve_exact does
    cases += [(math.nan, 0.5, 4, 3)]
    for alpha, bt, dim, n_terms in cases:
        p = JcParams(alpha, bt, dim)
        got = _series_outcome(jc_evolve_series, p, n_terms)
        assert got == _series_outcome(_series_reference, p, n_terms), (alpha, bt, dim, n_terms)


def test_thousand_term_series_converge():
    # each term underflows with its weight, so a long convergent series stays
    # finite; (0.8, 1e-3) once raised "series term 220 non-finite"
    for alpha in (0.8, 1.5 + 0.7j, 2.5, -0.3 + 1.1j, 0.0):
        for beta_t in (1e-3, 0.1, 0.5, 1.0, 2.0, 5.0):
            p = JcParams(alpha, beta_t)
            exact = jc_evolve_exact(p)
            for n_terms in (40, 1000):
                series = jc_evolve_series(p, n_terms)
                assert np.isfinite(series.field_e.amp).all()
                assert np.isfinite(series.field_g.amp).all()
                deficit = abs(1 - joint_fidelity(series, exact))
                assert deficit <= 1e-14, (alpha, beta_t, n_terms, deficit)


@pytest.mark.parametrize("beta_t, term", [(1e20, 8), (1e100, 2), (1e30, 5)])
def test_series_divergence_raises_its_error_without_a_warning(beta_t, term):
    # numpy's overflow and invalid-value warnings used to come before the
    # error; warnings are errors here, so any leak fails the match
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailureError) as exc:
            jc_evolve_series(JcParams(0.8, beta_t), 40)
    assert str(exc.value) == (
        f"series term {term} non-finite at beta_t={beta_t}, dim=32; "
        "the partial sums are diverging"
    )


def _mpacs_reference(p, n_max):
    """mpacs_expansion as it computed before its kets became one chain:
    every weight from the Stirling numbers, m! and alpha^{m-1} afresh, and
    every ket from pacs_state, with its checks."""
    from pacslab.specialfn import stirling2

    def weight(n, m, alpha, bracket):
        s_nm = stirling2(n, m) if m <= n else 0
        s_nm1 = stirling2(n, m - 1) if m - 1 <= n else 0
        if bracket == "with_factorial":
            inner = m * s_nm + s_nm1 * math.factorial(m) * alpha
        else:
            inner = m * s_nm + s_nm1
        return alpha ** (m - 1) * inner

    m_max = n_max + 1
    dim = p.dim if p.dim is not None else fock.default_dim(p.alpha) + m_max
    norms = [None] + [
        math.sqrt(pacs.pacs_norm_sq(PacsSpec(p.alpha, m))) for m in range(1, m_max + 1)
    ]
    bracket_weights = {
        bracket: [
            [None] + [weight(n, m, p.alpha, bracket) for m in range(1, m_max + 1)]
            for n in range(n_max + 1)
        ]
        for bracket in ("with_factorial", "plain")
    }
    table = np.zeros((n_max + 1, m_max + 1), dtype=np.complex128)
    for n, row in enumerate(bracket_weights["with_factorial"]):
        for m in range(1, m_max + 1):
            table[n, m] = row[m] * norms[m]
    oracle, _ = fock.normalize(jc_evolve_exact(JcParams(p.alpha, p.beta_t, dim)).field_g.amp)
    tau = -1j * p.beta_t
    prefs = np.zeros(n_max + 1, dtype=np.complex128)
    prefs[0] = tau
    for n in range(1, n_max + 1):
        prefs[n] = prefs[n - 1] * tau * tau / ((2 * n) * (2 * n + 1))
    kets = [None] + [pacs_state(PacsSpec(p.alpha, m), dim).amp for m in range(1, m_max + 1)]
    fidelities = {}
    for bracket, wts in bracket_weights.items():
        weights = [None] + [
            norms[m] * sum(prefs[n] * wts[n][m] for n in range(n_max + 1))
            for m in range(1, m_max + 1)
        ]
        for basis in ("raw", "normalized"):
            rec = np.zeros(dim, dtype=np.complex128)
            for m in range(1, m_max + 1):
                ket = kets[m] if basis == "raw" else kets[m] / norms[m]
                rec += weights[m] * ket
            vec = fock.FockVector(rec)
            fid = abs(fock.inner_product(oracle, vec)) ** 2 / vec.norm_sq()
            fidelities[f"{bracket}+{basis}"] = fid
    return table, fidelities, oracle


def test_mpacs_expansion_rejects_a_negative_n_max(monkeypatch):
    # -1 once ended in numpy's IndexError and -2 in its "negative dimensions"
    # ValueError; both are now named before the oracle evolution runs
    monkeypatch.setattr("pacslab.jaynes.jc_evolve_exact", None)
    for n_max in (-1, -2):
        with pytest.raises(ValueError, match=rf"^n_max must be nonnegative, got {n_max}$"):
            mpacs_expansion(JcParams(0.8, 0.5), n_max)


def test_mpacs_expansion_equals_the_reference_bitwise():
    # the table, the four fidelities in their order and the oracle, byte for
    # byte; then the errors: dims too small for the tail of some order or
    # for the headroom of all, and n_max beyond the Stirling table
    for alpha in (0.8, -0.8, 0.6 - 0.9j, complex(-0.0, 0.5), 1.4):
        for beta_t in (1e-3, 0.5, 1.0):
            for n_max in (0, 6, 20):
                p = JcParams(alpha, beta_t)
                exp = mpacs_expansion(p, n_max)
                table, fids, oracle = _mpacs_reference(p, n_max)
                assert exp.table.tobytes() == table.tobytes(), (alpha, beta_t, n_max)
                assert list(exp.fidelities.items()) == list(fids.items())
                assert exp.best_convention == max(fids, key=fids.get)
                assert exp.best_fidelity == fids[exp.best_convention]
                assert exp.oracle.amp.tobytes() == oracle.amp.tobytes()
    for p, n_max in ((JcParams(0.8, 0.5, 12), 20), (JcParams(1.4, 0.5, 30), 20),
                     (JcParams(0.8, 0.5), 65), (JcParams(0.8, 0.5, 3), 6)):
        with pytest.raises(Exception) as got:
            mpacs_expansion(p, n_max)
        with pytest.raises(Exception) as want:
            _mpacs_reference(p, n_max)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
