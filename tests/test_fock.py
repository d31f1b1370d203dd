import ast
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from pacslab import fock
from pacslab.errors import (
    DimensionMismatchError,
    EmptyBranchError,
    NumericalFailureError,
    TruncationError,
)


def test_annihilation_matrix_entries():
    m = fock.annihilation_matrix(2).entries
    assert np.array_equal(m, np.array([[0, 1], [0, 0]], dtype=complex))
    m3 = fock.annihilation_matrix(3).entries
    assert m3[1, 2] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert np.count_nonzero(m3) == 2


def test_annihilation_rejects_zero_dim():
    with pytest.raises(ValueError):
        fock.annihilation_matrix(0)


def test_truncated_commutator_structure():
    dim = 16
    a = fock.annihilation_matrix(dim).entries
    c = fock.creation_matrix(dim).entries
    comm = a @ c - c @ a
    assert np.max(np.abs(np.diag(comm)[:-1] - 1.0)) < 1e-12
    assert np.diag(comm)[-1] == pytest.approx(1 - dim, abs=1e-12)
    assert np.max(np.abs(comm - np.diag(np.diag(comm)))) < 1e-12


def test_coherent_state_values():
    vac = fock.coherent_state(0.0, 8)
    assert vac.amp[0] == 1.0
    assert np.all(vac.amp[1:] == 0)

    st = fock.coherent_state(0.8, 32)
    assert st.amp[0] == pytest.approx(math.exp(-0.32), abs=1e-12)
    assert st.amp[0] == pytest.approx(0.7261490, abs=1e-7)
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_truncation_error_carries_tail():
    with pytest.raises(TruncationError) as exc:
        fock.coherent_state(2.0, 6)
    assert exc.value.tail_mass > 1e-12


def test_coherent_state_underflow_raises():
    # exp(-|alpha|^2 / 2) is 0 at 40 and a subnormal with 10 digits at 38,
    # where the norm of the vector it would build is off by 9e-11; at 1e154
    # the amplitudes, were they built before this check, would fill a vector
    # of default_dim ~ 1e308 entries
    for alpha in (40.0, 38.0, 38.0j, 1e154):
        with pytest.raises(NumericalFailureError, match="underflows"):
            fock.coherent_state(alpha, fock.default_dim(alpha))
    st = fock.coherent_state(37.5, fock.default_dim(37.5))
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_inner_product_examples():
    st = fock.coherent_state(0.8, 32)
    assert fock.inner_product(st, st).real == pytest.approx(st.norm_sq(), rel=1e-14)
    vac = fock.fock_state(0, 32)
    assert abs(fock.inner_product(vac, st)) == pytest.approx(0.7261490, abs=1e-7)
    one = fock.fock_state(1, 32)
    lifted = fock.apply_operator(fock.creation_matrix(32), vac)
    assert fock.inner_product(one, lifted) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DimensionMismatchError):
        fock.inner_product(vac, fock.fock_state(0, 16))


def test_apply_operator_examples():
    dim = 32
    st = fock.coherent_state(0.8, dim)
    ident = fock.OperatorMatrix(np.eye(dim, dtype=complex))
    assert np.array_equal(fock.apply_operator(ident, st).amp, st.amp)
    lifted = fock.apply_operator(fock.creation_matrix(dim), fock.fock_state(0, dim))
    assert np.array_equal(lifted.amp, fock.fock_state(1, dim).amp)
    counted = fock.apply_operator(fock.number_matrix(dim), st)
    mean = fock.inner_product(st, counted).real
    assert mean == pytest.approx(0.64, abs=1e-10)


def test_ladder_algebra_interior():
    dim = 24
    a, c = fock.annihilation_matrix(dim), fock.creation_matrix(dim)
    st = fock.coherent_state(0.9, dim, tail_tol=1e-6)
    left = fock.apply_operator(a, fock.apply_operator(c, st)).amp
    right = fock.apply_operator(c, fock.apply_operator(a, st)).amp
    diff = left - right - st.amp
    assert np.max(np.abs(diff[: dim - 1])) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 32])
def test_band_shifts_equal_dense_ladder_matrices(dim):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        st = fock.FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        lifted = fock.apply_operator(fock.creation_matrix(dim), st).amp
        lowered = fock.apply_operator(fock.annihilation_matrix(dim), st).amp
        assert np.array_equal(fock.create(st.amp), lifted)
        assert np.array_equal(fock.annihilate(st.amp), lowered)


def test_ladder_band_is_read_only():
    for dim in (6, 1, 40, 3):
        band = fock.ladder(dim)
        assert band.tobytes() == np.sqrt(np.arange(1.0, dim)).tobytes()
        with pytest.raises(ValueError):
            band[:] = 2.0
    with pytest.raises(ValueError):
        fock.ladder(0)


def test_vdot_rejects_mismatched_shapes():
    assert fock.vdot(np.array([1j, 2.0]), np.array([1j, 1.0])) == 3.0
    with pytest.raises(DimensionMismatchError):
        fock.vdot(np.zeros(3, complex), np.zeros(4, complex))
    # same size, other shape: np.vdot alone would flatten both and sum
    with pytest.raises(DimensionMismatchError):
        fock.vdot(np.zeros((2, 3), complex), np.zeros((3, 2), complex))


def _vdot_rows_mismatches(seed=0):
    """Where fock.vdot_rows differs in any bit from fock.vdot and np.vdot row
    by row: stacks, (M, dim) targets against a (64, 1, dim) block as the
    overlap curve passes them, and strided columns."""

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def differs(got, rows_a, rows_b):
        pairs = list(zip(rows_a, rows_b))
        per_row = np.array([fock.vdot(a, b) for a, b in pairs], dtype=np.complex128)
        blas = np.array([np.vdot(a, b) for a, b in pairs], dtype=np.complex128)
        flat = got.reshape(-1)
        return flat.tobytes() != per_row.tobytes() or flat.tobytes() != blas.tobytes()

    rng = np.random.default_rng(seed)
    bad = []
    for dim in (1, 7, 32, 97):
        for scale in (1e-150, 1.0, 1e150):
            stack = scale * cplx(64, dim)
            targets = cplx(3, dim)
            if differs(fock.vdot_rows(stack, stack), stack, stack):
                bad.append(("stack", dim, scale))
            got = fock.vdot_rows(targets, stack[:, None, :])
            rows_t = [t for _ in stack for t in targets]
            rows_s = [row for row in stack for _ in targets]
            if got.shape != (64, 3) or differs(got, rows_t, rows_s):
                bad.append(("broadcast", dim, scale))
            grid = scale * cplx(dim, 5)  # rows of grid.T are strided columns
            cols = [grid[:, j] for j in range(5)]
            if differs(fock.vdot_rows(grid.T, grid.T), cols, cols):
                bad.append(("columns", dim, scale))
    return bad


def test_vdot_rows_equals_per_row_vdot_bitwise():
    assert _vdot_rows_mismatches() == []


def test_vdot_rows_equals_per_row_vdot_bitwise_on_other_blas_kernels():
    # a single-threaded, generic-kernel OpenBLAS: the rows still sum as
    # np.vdot sums them there
    here = Path(__file__).resolve().parent
    path = [str(here), str(Path(fock.__file__).resolve().parents[1])]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(path),
        "OPENBLAS_NUM_THREADS": "1",
        "OPENBLAS_CORETYPE": "Prescott",
    }
    code = "import test_fock; print(test_fock._vdot_rows_mismatches(1))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_only_fock_sums_amplitudes():
    # the amplitude sum and the ladder band have one home, fock.py: a
    # reduction or band written elsewhere would escape fock.vdot/fock.ladder;
    # inside fock.py every sum, expm_apply's norms too, is the one
    # np.vecdot in vdot_rows, so its body is the only one to switch
    src = Path(fock.__file__).parent
    pattern = re.compile(r"np\.v?dot\b|\.dot\(|vecdot\(|np\.sqrt\(np\.arange\(")
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "fock.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, offenders
    tree = ast.parse(Path(fock.__file__).read_text())
    body = next(f for f in tree.body if getattr(f, "name", None) == "vdot_rows")
    sums = [
        (node.attr, body.lineno <= node.lineno <= body.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("dot", "vdot", "vecdot")
    ]
    assert sums == [("vecdot", True)]


def test_l2_norm_is_numpy_norm_bitwise():
    # the expm_apply stop test: np.linalg.norm's arithmetic, not its wrapper,
    # on one row, on a stack and on strided rows such as a chunk's terms
    rng = np.random.default_rng(17)
    for n in (1, 2, 17, 64, 513):
        for scale in (1e-160, 1.0, 1e150):
            x = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
            assert fock._l2_norms(x) == np.linalg.norm(x), (n, scale)
            stack = scale * (rng.normal(size=(9, n)) + 1j * rng.normal(size=(9, n)))
            grid = scale * (rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))
            for rows in (stack, stack[1::2], stack[:, ::3], grid.T):
                norms = fock._l2_norms(rows)
                assert norms.shape == rows.shape[:1], (n, scale)
                for row, norm in zip(rows, norms):
                    assert norm == np.linalg.norm(row), (n, scale)


def test_expm_apply_zero_and_inverse():
    dim = 16
    st = fock.coherent_state(0.5, dim)
    zero = fock.OperatorMatrix(np.zeros((dim, dim), dtype=complex))
    assert np.array_equal(fock.expm_apply(zero, st).amp, st.amp)

    rng = np.random.default_rng(11)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = fock.OperatorMatrix(0.4 * m)
    there = fock.expm_apply(m, st, tol=1e-13)
    back = fock.expm_apply(fock.OperatorMatrix(-m.entries), there, tol=1e-13)
    assert np.max(np.abs(back.amp - st.amp)) < 1e-10


def test_expm_apply_phase_rotation():
    dim = 32
    theta, alpha = 0.7, 0.8
    st = fock.coherent_state(alpha, dim)
    gen = fock.OperatorMatrix(-1j * theta * fock.number_matrix(dim).entries)
    rotated = fock.expm_apply(gen, st, tol=1e-12)
    target = fock.coherent_state(alpha * np.exp(-1j * theta), dim)
    assert fock.fidelity(rotated, target) >= 1 - 1e-10
    # -i theta N is diagonal, so it is applied exactly: verify's rotation and
    # seeded ones give e^{-i theta n} psi_n bit for bit, at any scale of psi
    rng = np.random.default_rng(5)
    cases = [(0.8, 0.7, 32)] + [
        (rng.uniform(0.5, 1.5), rng.uniform(-6.3, 6.3), dim) for dim in (32, 48, 64, 96)
    ]
    for alpha, theta, dim in cases:
        n = np.arange(dim)
        gen = fock.OperatorMatrix(-1j * theta * fock.number_matrix(dim).entries)
        for scale in (1.0, 1e160, 1e-160, 1e300, 1e-300):
            st = scale * fock.coherent_state(alpha, dim).amp
            got = fock.expm_apply(gen, fock.FockVector(st), tol=1e-12).amp
            assert got.tobytes() == (np.exp(-1j * theta * n) * st).tobytes(), (dim, scale)


def test_expm_apply_rejects_a_norm_whose_square_is_not_normal():
    # psi is scaled by a power of two before the series, so a state far from
    # 1 rotates as a unit state does.  Unscaled, the 1e160 and 1e-165 states
    # had norms whose squares are not normal doubles, and at 2^-509 the late
    # terms' squares underflowed and the segments stopped early (2.8e-9 off).
    # The corner entry of 1e-300 sends a generator through the series; without
    # it the generator is diagonal and applied exactly.  Real growth or decay
    # past [2^-511, 2^512) raises in the series, and is exact on the diagonal
    dim = 32
    st = fock.coherent_state(0.8, dim).amp
    for theta in (0.7, 3.0):
        exact = np.exp(-1j * theta * np.arange(dim)) * st
        rotation = -1j * theta * fock.number_matrix(dim).entries
        banded = rotation.copy()
        banded[0, dim - 1] = 1e-300
        for gen in (rotation, banded):
            m = fock.OperatorMatrix(gen)
            for scale in (1e160, 1e-165, 2.0**-509, 1e150, 1e-150):
                got = fock.expm_apply(m, fock.FockVector(scale * st), tol=1e-12).amp / scale
                assert np.max(np.abs(got - exact)) <= 1e-13, (theta, scale, gen is banded)
    for rate in (400.0, -400.0):
        gen = rate * np.eye(dim, dtype=complex)
        got = fock.expm_apply(fock.OperatorMatrix(gen), fock.FockVector(st), tol=1e-12)
        assert got.amp.tobytes() == (np.exp(np.diagonal(gen)) * st).tobytes(), rate
        gen[0, dim - 1] = 1e-300
        with pytest.raises(NumericalFailureError, match=r"outside \[2\^-511, 2\^512\)"):
            fock.expm_apply(fock.OperatorMatrix(gen), fock.FockVector(st), tol=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.7, 4.0])
def test_expm_apply_preserves_norm_for_anti_hermitian(theta):
    dim = 20
    rng = np.random.default_rng(int(theta * 10))
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2
    gen = fock.OperatorMatrix(-1j * theta * h)
    st = fock.coherent_state(0.7, dim, tail_tol=1e-8)
    out = fock.expm_apply(gen, st, tol=1e-12)
    assert out.norm_sq() == pytest.approx(st.norm_sq(), rel=1e-10)


def test_expm_apply_matches_scipy():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    v = rng.normal(size=10) + 1j * rng.normal(size=10)
    got = fock.expm_apply(fock.OperatorMatrix(m), fock.FockVector(v), tol=1e-14)
    ref = expm(m) @ v
    assert np.max(np.abs(got.amp - ref)) / np.max(np.abs(ref)) < 1e-12


def _hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2


_ORACLE_GENERATORS = {  # a diagonal (1-d) or a matrix from (rng, dim)
    "rotation": lambda rng, dim: -1j * rng.uniform(-6.3, 6.3) * np.arange(dim),
    "real": lambda rng, dim: rng.uniform(-3, 3, dim),
    "imaginary": lambda rng, dim: 1j * rng.uniform(-20, 20, dim),
    "complex": lambda rng, dim: rng.uniform(-3, 3, dim) + 1j * rng.uniform(-20, 20, dim),
    "dense": lambda rng, dim: rng.uniform(0.1, 1) * rng.normal(size=(dim, dim, 2)) @ [1, 1j],
    "hermitian": lambda rng, dim: -1j * rng.uniform(0.1, 3) * _hermitian(rng, dim),
}


@pytest.mark.parametrize("kind", list(_ORACLE_GENERATORS))
def test_expm_apply_meets_independent_oracles(kind):
    # the contract against oracles that share no code with expm_apply:
    # scipy's expm_multiply, and e^{M_nn} psi_n for a diagonal M, on seeded
    # states scaled by 1, 1e+-160 and 1e+-300 and scaled back.  The calls
    # must not warn.  The bound is the oracles' own error: a diagonal is
    # applied exactly, and the dense series stops at tol 1e-14
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(8, 41))
        gen = _ORACLE_GENERATORS[kind](rng, dim)
        diag = gen if gen.ndim == 1 else None
        m = fock.OperatorMatrix(np.diag(gen) if diag is not None else gen)
        alpha = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 6.3))
        coherent = fock.coherent_state(alpha, dim, tail_tol=1e-3).amp
        random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for st in (coherent, random):
            oracles = [expm_multiply(m.entries, st)]
            if diag is not None:
                oracles.append(np.exp(diag) * st)
            for scale in (1.0, 1e160, 1e-160, 1e300, 1e-300):
                got = fock.expm_apply(m, fock.FockVector(scale * st), tol=1e-14).amp / scale
                for oracle in oracles:
                    dev = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
                    assert dev <= 1e-11, (seed, st is random, scale, dev)


def test_expm_apply_non_convergence_raises():
    # a diagonal would be applied exactly; the corner entry keeps the series
    dim = 8
    gen = np.eye(dim, dtype=complex) * 30.0
    gen[0, dim - 1] = 1e-300
    m = fock.OperatorMatrix(gen)
    st = fock.fock_state(0, dim)
    with pytest.raises(NumericalFailureError):
        fock.expm_apply(m, st, tol=1e-14, max_terms=3)


def test_expm_apply_reports_non_convergence():
    gen = np.eye(4, dtype=np.complex128) * 50.0
    gen[0, 3] = 1e-300
    m = fock.OperatorMatrix(gen)
    v = fock.FockVector(np.ones(4, dtype=np.complex128))
    with pytest.raises(NumericalFailureError, match="no convergence in 5 terms"):
        fock.expm_apply(m, v, tol=1e-14, max_terms=5)


def test_expm_apply_rejects_generators_it_cannot_finish():
    # a non-finite entry is the caller's error, found before any term is
    # built.  A 1-norm past EXPM_MAX_SEGMENTS segments of 1-norm 16 is refused
    # before the series: the band of 1e12 would take 6.25e10 segments
    dim = 8
    st = fock.coherent_state(0.8, dim, tail_tol=1e-6)
    calls = []
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        for at in ((2, 2), (0, 1)):  # on the diagonal and off it
            gen = -0.7j * fock.number_matrix(dim).entries
            gen[at] = bad
            calls.append((ValueError, "generator entries must be finite", gen))
    band = np.zeros((dim, dim))
    band[0, 1] = 1e12
    past = np.nextafter(16.0 * fock.EXPM_MAX_SEGMENTS, np.inf) * np.eye(dim, k=1)
    # the last has finite entries and a 1-norm that overflows
    for gen, norm in ((band, "1.000e+12"), (past, "6.554e+04"), (np.full((dim, dim), 1e308), "inf")):
        calls.append((NumericalFailureError, f"1-norm {norm} needs over 4096 segments", gen))
    for error, text, gen in calls:
        start = time.perf_counter()
        with pytest.raises(error, match=re.escape(text)):
            fock.expm_apply(fock.OperatorMatrix(gen), st)
        assert time.perf_counter() - start < 1.0, gen


def _expm_apply_reference(m, psi, tol, max_terms=fock.EXPM_MAX_TERMS):
    """expm_apply's Taylor loop written on its own: psi scaled by a power of
    two, a new term per step by the dense product and complex division, both
    norms and the range of |acc| every term, and the sum scaled back."""

    def norm(x):
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))

    norm_one = float(np.max(np.sum(np.abs(m.entries), axis=0)))
    segments = max(1, int(math.ceil(norm_one / 16.0)))
    seg_tol = tol / (2.0 * segments)
    top = np.max(np.abs(np.concatenate([psi.amp.real, psi.amp.imag])))
    e = int(np.clip(math.frexp(top)[1], -1021, 1023)) if np.isfinite(top) else 0
    out = psi.amp * 2.0**-e
    for _ in range(segments):
        acc = out.copy()
        term = out.copy()
        for k in range(1, max_terms + 1):
            term = m.entries @ term
            term /= k * segments
            acc += term
            acc_norm = norm(acc)
            if not 2.0**-511 <= acc_norm < 2.0**512 and np.isfinite(acc).all() and acc.any():
                raise NumericalFailureError(
                    f"expm_apply: partial sum norm {acc_norm:.3e} outside "
                    "[2^-511, 2^512), where its square sum is not a normal double"
                )
            if norm(term) <= seg_tol * acc_norm:
                break
        else:
            raise NumericalFailureError(
                f"expm_apply: no convergence in {max_terms} terms per segment "
                f"(segments={segments}, 1-norm={norm_one:.3e})"
            )
        out = acc
    with np.errstate(over="ignore"):
        out = out * 2.0**e
    if not np.all(np.isfinite(out)):
        raise NumericalFailureError("expm_apply produced non-finite amplitudes")
    return fock.FockVector(out)


def _expm_cases():
    """(generator, state, tol, max_terms) covering the library's calls and
    the edges of the stop test.  Most edges are on diagonal generators,
    which are applied exactly; the ones that end in an error in the series
    come again at the end, kept in it by a corner entry."""
    rng = np.random.default_rng(12)
    ref = _expm_apply_reference
    cases = []

    def both_ways(gen, st, tol=1e-12):
        cases.append((gen, st, tol, None))
        try:
            there = ref(fock.OperatorMatrix(gen), fock.FockVector(st), tol)
        except NumericalFailureError:
            return
        cases.append((-gen, there.amp, tol, None))

    number = fock.number_matrix
    for dim in (32, 48, 64, 96):  # seeded phase rotations and their inverses
        theta, alpha = rng.uniform(0.1, 6.3), rng.uniform(0.5, 1.5)
        both_ways(-1j * theta * number(dim).entries, fock.coherent_state(alpha, dim).amp)
    both_ways(-0.7j * number(32).entries, fock.coherent_state(0.8, 32).amp)  # verify's
    for alpha in (0.0, 0.6 - 0.9j):
        both_ways(-1.3j * number(40).entries, fock.coherent_state(alpha, 40).amp)
    for scale in (0.4, 3.0):  # dense, one segment and several
        gen = scale * (rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20)))
        both_ways(gen, rng.normal(size=20) + 1j * rng.normal(size=20), tol=1e-13)
    for theta in (0.3, 1.7, 4.0):  # Hermitian
        h = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        both_ways(-1j * theta * (h + h.conj().T) / 2, fock.coherent_state(0.7, 20, 1e-8).amp)
    # states far from 1, which the prescale brings to a largest part in
    # [0.5, 1): unscaled, |acc| was below 2^-511 or grew past 2^512
    for scale in (1e-160, 1e150, 1e-150):
        both_ways(-0.9j * number(48).entries, scale * fock.coherent_state(1.1, 48).amp)
        gen = 2.5 * (rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24)))
        cases.append((gen, scale * (rng.normal(size=24) + 1j * rng.normal(size=24)), 1e-12, None))
    for tol in (1e-6, 1e-14, 1e-300):
        cases.append((-2.0j * number(32).entries, fock.coherent_state(1.0, 32).amp, tol, None))
    # c*I keeps every term parallel to acc, so its norm adds to |acc| with no
    # room to spare: states whose |acc| left the range before the prescale,
    # and a tol found by search where |term| and seg_tol*|acc| all but tie
    cases.append((0.5 * np.eye(2), np.full(2, 6e153), 1e-12, None))
    cases.append((0.8 * np.eye(1), np.full(1, 7e-162), 0.3, None))
    for rate in (400.0, -400.0):  # real growth and decay out of range
        cases.append((rate * np.eye(3), np.ones(3), 1e-12, None))
    cases.append(
        (0.9903934502657463 * np.eye(2), np.array([0.09540006105869184, 0.04011050803557953]),
         0.005902156367231102, None)
    )
    # no convergence: too few terms, a NaN state; a sum that overflows once
    # it is scaled back
    cases.append((30.0 * np.eye(8), fock.fock_state(0, 8).amp, 1e-14, 3))
    cases.append((50.0 * np.eye(4), np.ones(4), 1e-14, 5))
    cases.append((16.0 * np.eye(4), 1e308 * fock.fock_state(0, 4).amp, 1e-12, None))
    cases.append((-1j * number(4).entries, np.array([0.5, np.nan, 0, 0]), 1e-12, None))
    # imaginary parts of -0.0, whose signs the elementwise product keeps
    conj = fock.coherent_state(0.7, 16).amp.conj()
    cases.append((-0.5j * number(16).entries, conj, 1e-12, None))
    # a diagonal with complex entries, whose products round twice
    both_ways((0.05 - 0.9j) * number(40).entries, fock.coherent_state(0.9, 40).amp)
    # a -0.0 part beside a subnormal one, which the series' prescale by 1/2
    # rounds to -0.0
    tiny = np.zeros(34, dtype=complex)
    tiny[0], tiny[1] = 1.0, complex(-0.0, -5e-324)
    cases.append((-0.6j * number(34).entries, tiny, 1e-12, None))
    # the diagonal cases that end in an error in the series, which a corner
    # entry of 1e-300 keeps them in: applied exactly, most return a state
    for gen, st, tol, max_terms in [case for case in cases if _is_diagonal(case[0])]:
        if isinstance(_expm_outcome(ref, gen, st, tol, max_terms), str):
            gen = np.array(gen, dtype=complex)
            gen[0, -1] = 1e-300
            cases.append((gen, st, tol, max_terms))
    return cases


def _expm_outcome(fn, gen, st, tol, max_terms):
    """The amplitudes ``fn`` returns, or its error text.  A call that returns
    a state must not warn: numpy's warnings are the sign of a NaN record."""
    kwargs = {} if max_terms is None else {"max_terms": max_terms}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            amp = fn(fock.OperatorMatrix(gen), fock.FockVector(st), tol, **kwargs).amp
        except NumericalFailureError as exc:
            return str(exc)
    assert not caught, [str(w.message) for w in caught]
    return amp


def _outcome_bytes(outcome):
    return outcome if isinstance(outcome, str) else outcome.tobytes()


def _is_diagonal(gen):
    gen = np.asarray(gen)
    return np.count_nonzero(gen) == np.count_nonzero(np.diagonal(gen))


def test_expm_apply_equals_reference_loop():
    # a generator with an entry off its diagonal takes the reference's Taylor
    # loop, so gives its bytes or its error text.  A diagonal one is applied
    # exactly: the bytes of e^{M_nn} psi_n, or the error for a product that
    # is not finite
    outcomes = []
    for case in _expm_cases():
        got = _expm_outcome(fock.expm_apply, *case)
        outcomes.append(got)
        if _is_diagonal(case[0]):
            gen, st = fock.OperatorMatrix(case[0]), fock.FockVector(case[1])
            with np.errstate(over="ignore"):
                want = np.exp(np.diagonal(gen.entries)) * st.amp
            if not np.isfinite(want).all():
                want = "expm_apply produced non-finite amplitudes"
        else:
            want = _expm_outcome(_expm_apply_reference, *case)
        assert _outcome_bytes(got) == _outcome_bytes(want), case[2:]
    errors = [o for o in outcomes if isinstance(o, str)]
    out_of_range = "outside [2^-511, 2^512), where its square sum is not a normal double"
    assert errors == [
        "expm_apply produced non-finite amplitudes",  # 16 I on 1e308 |0>
        "expm_apply produced non-finite amplitudes",  # -i N on a NaN state
        # the same edges through the series, by the corner entry
        "expm_apply: no convergence in 160 terms per segment (segments=4, 1-norm=6.200e+01)",
        f"expm_apply: partial sum norm inf {out_of_range}",
        f"expm_apply: partial sum norm 8.636e-155 {out_of_range}",
        "expm_apply: no convergence in 3 terms per segment (segments=2, 1-norm=3.000e+01)",
        "expm_apply: no convergence in 5 terms per segment (segments=4, 1-norm=5.000e+01)",
        "expm_apply produced non-finite amplitudes",
        "expm_apply: no convergence in 160 terms per segment (segments=1, 1-norm=3.000e+00)",
    ]


def test_expm_apply_takes_the_dense_product_only_off_the_diagonal(monkeypatch):
    calls = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        calls.append(args)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    dim = 12
    number = fock.number_matrix(dim).entries
    rng = np.random.default_rng(4)
    mixed = np.diag(np.where(np.arange(dim) % 2, 0.3, -0.4j))
    one_complex = -0.7j * number
    one_complex[3, 3] += 0.1
    elementwise = [
        -0.7j * number,
        0.6 * np.eye(dim),
        -2.5j * np.eye(dim),
        mixed,
        (0.2 + 0.1j) * number,
        one_complex,
    ]
    one_off_diagonal = -0.7j * number
    one_off_diagonal[0, 5] = 1e-300
    below = -0.7j * number
    below[dim - 1, 0] = 1e-300j
    dense = [
        one_off_diagonal,
        below,
        np.eye(dim, k=1),
        0.3 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))),
    ]
    st = fock.coherent_state(0.8, dim, tail_tol=1e-6)
    for gens, takes_matmul in ((elementwise, False), (dense, True)):
        for gen in gens:
            calls.clear()
            fock.expm_apply(fock.OperatorMatrix(gen), st)
            assert bool(calls) is takes_matmul, gen


@pytest.mark.parametrize(
    "gen", [16.0 * np.eye(4), 15.0 * np.eye(4) + np.eye(4, k=1)], ids=["diagonal", "band"]
)
def test_expm_apply_rejects_a_result_that_overflows(gen):
    # the series runs on psi scaled to a largest part in [0.5, 1), so no
    # term overflows; 16 I grows 1e308 |0> by e^16 only when it is scaled
    # back.  The band above 15 I (1-norm 16, one segment too) takes np.matmul
    st = fock.FockVector(1e308 * fock.fock_state(0, 4).amp)
    with pytest.raises(NumericalFailureError, match="produced non-finite amplitudes"):
        fock.expm_apply(fock.OperatorMatrix(gen), st, 1e-12)


def test_tensor_and_project_roundtrip():
    a = fock.coherent_state(0.8, 12, tail_tol=1e-6)
    b = fock.fock_state(0, 6)
    joint = fock.tensor_product(a, b)
    vec, prob = fock.project_b(joint, 0)
    assert prob == pytest.approx(a.norm_sq(), rel=1e-14)
    assert np.max(np.abs(vec.amp - a.amp / math.sqrt(a.norm_sq()))) < 1e-14

    with pytest.raises(EmptyBranchError):
        fock.project_b(joint, 3)
    with pytest.raises(ValueError):
        fock.project_b(joint, 6)


def test_normalize_rejects_empty_and_subnormal_branches():
    tiny = math.sqrt(sys.float_info.min)
    barely = np.array([tiny * 1.25, 0.0, 0.0], dtype=np.complex128)
    vec, prob = fock.normalize(barely)
    assert prob >= sys.float_info.min and vec.norm_sq() == pytest.approx(1.0, rel=1e-15)
    # zero, and |amp|^2 of 1e-320 (subnormal): the branch is empty
    zero, subnormal = np.zeros(3, dtype=np.complex128), np.array([1e-160, 0.0, 0.0], complex)
    for amp in (zero, subnormal):
        with pytest.raises(EmptyBranchError):
            fock.normalize(amp)
    # row-wise, in a block mixing them with normal rows: the same rule, and
    # each row as the one-row normalize and the plain formula give it
    rng = np.random.default_rng(8)
    normal = rng.normal(size=3) + 1j * rng.normal(size=3)
    rows = [barely, zero, normal, subnormal, 1e150j * barely]
    units, probs, empty = fock.normalize_rows(np.array(rows))
    assert empty.tolist() == [False, True, False, True, False]
    for row, unit, prob, blank in zip(rows, units, probs, empty):
        if blank:
            with pytest.raises(EmptyBranchError):
                fock.normalize(row)
            continue
        vec, one_prob = fock.normalize(row)
        plain_prob = np.vdot(row, row).real
        assert prob == one_prob == plain_prob and type(one_prob) is float
        assert unit.tobytes() == vec.amp.tobytes() == (row / math.sqrt(plain_prob)).tobytes()


def test_fidelity_of_two_mode_states():
    rng = np.random.default_rng(3)
    x = fock.TwoModeState(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    assert fock.fidelity(x, fock.TwoModeState(2j * x.amp)) == pytest.approx(1.0, rel=1e-14)
    y = fock.TwoModeState(np.outer(np.eye(5)[0], np.eye(3)[1]))
    expected = abs(x.amp[0, 1]) ** 2 / x.norm_sq()
    assert fock.fidelity(x, y) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DimensionMismatchError):
        fock.fidelity(x, fock.TwoModeState(x.amp.T))


def test_project_probabilities_complete_and_reembed():
    rng = np.random.default_rng(5)
    amp = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
    state = fock.TwoModeState(amp)
    total = 0.0
    rebuilt = np.zeros_like(state.amp)
    for m in range(5):
        vec, prob = fock.project_b(state, m)
        total += prob
        rebuilt[:, m] = vec.amp * math.sqrt(prob)
    assert total == pytest.approx(state.norm_sq(), rel=1e-12)
    assert np.max(np.abs(rebuilt - state.amp)) < 1e-12


def test_default_dim_floor_and_growth():
    assert fock.default_dim(0.0) == 32
    assert fock.default_dim(0.8) == 32
    assert fock.default_dim(1.5) >= 31
    dim = fock.default_dim(1.5)
    assert fock.coherent_tail_mass(fock.coherent_state(1.5, dim).amp, 1.5, dim) < 1e-14


def test_truncation_convergence_of_reported_scalar():
    # doubling the truncation must not move a converged physical scalar
    from pacslab.jaynes import JcParams, jc_evolve_exact

    p32 = jc_evolve_exact(JcParams(0.8, 1.0, dim=32)).field_g.norm_sq()
    p64 = jc_evolve_exact(JcParams(0.8, 1.0, dim=64)).field_g.norm_sq()
    assert abs(p32 - p64) < 1e-12
