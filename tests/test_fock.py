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
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        fock.number_matrix(0)


def test_containers_reject_wrong_shapes():
    cases = [
        (fock.FockVector, np.zeros((2, 2)), "FockVector needs a 1-d amplitude array, dim >= 1"),
        (fock.FockVector, np.zeros(0), "FockVector needs a 1-d amplitude array, dim >= 1"),
        (fock.OperatorMatrix, np.zeros((2, 3)), "OperatorMatrix needs a square array, dim >= 1"),
        (fock.OperatorMatrix, np.zeros(4), "OperatorMatrix needs a square array, dim >= 1"),
        (fock.TwoModeState, np.zeros(4), "TwoModeState needs a 2-d amplitude grid"),
        (fock.TwoModeState, np.zeros((3, 0)), "TwoModeState needs a 2-d amplitude grid"),
    ]
    for container, amp, text in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            container(amp)
    for n in (3, -1):
        with pytest.raises(ValueError, match=f"^fock index {n} outside dim 3$"):
            fock.fock_state(n, 3)


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


def _coherent_reference(alpha, dim):
    """coherent_state's amplitude loop as it ran on every call before its
    cache: numpy-scalar products, one per level."""
    amp = np.zeros(dim, dtype=np.complex128)
    amp[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        amp[n] = amp[n - 1] * alpha / math.sqrt(n)
    return amp


def test_cached_coherent_amplitudes_equal_the_loop_bitwise():
    # real, complex and numpy-scalar alphas, signed zeros among them (equal
    # as keys, different in the bytes of their amplitudes), each built and
    # then read back from the cache, which the list overflows
    fock._coherent_amplitudes.cache_clear()
    rng = np.random.default_rng(20)
    alphas = [
        0.0, -0.0, 0.8, -0.8, 2, 3j, -3j, complex(-0.0, 0.0), complex(0.0, -0.0),
        0.8 + 0j, np.float64(0.8), np.float64(-0.0), np.complex128(0.7 + 0.4j),
        np.float32(0.5), np.int64(1), True,
        *(complex(*rng.uniform(-3.0, 3.0, 2)) for _ in range(12)),
        *(float(a) for a in rng.uniform(-3.0, 3.0, 6)),
    ]
    for alpha in alphas:
        for dim in (1, 2, 33, 64):
            for _ in range(2):
                amp = fock.coherent_amplitudes(alpha, dim)
                assert amp.tobytes() == _coherent_reference(alpha, dim).tobytes(), (alpha, dim)
                assert not amp.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    amp[0] = 1.0
    info = fock._coherent_amplitudes.cache_info()
    assert info.hits == info.misses == len(alphas) * 4
    # an alpha that cannot be hashed raises the cache's TypeError
    with pytest.raises(TypeError, match="unhashable"):
        fock.coherent_state(np.array(0.7 - 0.2j), 40)


def test_cached_coherent_amplitudes_keep_every_check():
    # an entry cached by the unchecked coherent_amplitudes still fails
    # coherent_state's tail check, with the tail of the reference amplitudes;
    # both keep the order underflow, dim, then (coherent_state only) tail
    fock._coherent_amplitudes.cache_clear()
    unchecked = fock.coherent_amplitudes(2.0, 6)
    assert unchecked.tobytes() == _coherent_reference(2.0, 6).tobytes()
    text = r"^dim=6 too small for coherent amplitude 2.0 \(tail mass 2.149e-01\)$"
    with pytest.raises(TruncationError, match=text) as exc:
        fock.coherent_state(2.0, 6)
    assert exc.value.tail_mass == fock.coherent_tail_mass(_coherent_reference(2.0, 6), 2.0, 6)
    assert fock.coherent_state(2.0, 40).amp is fock.coherent_amplitudes(2.0, 40)
    for build in (fock.coherent_amplitudes, fock.coherent_state):
        with pytest.raises(NumericalFailureError, match="underflows"):
            build(40.0, 0)
        with pytest.raises(ValueError, match="^dim must be >= 1$"):
            build(0.8, 0)
    start = time.perf_counter()
    assert np.isnan(fock.coherent_state(math.nan, 32).amp).all()
    assert np.isnan(fock.coherent_state(math.nan, 32).amp).all()
    assert time.perf_counter() - start < 1.0


def test_inner_product_examples():
    st = fock.coherent_state(0.8, 32)
    assert fock.inner_product(st, st).real == pytest.approx(st.norm_sq(), rel=1e-14)
    vac = fock.fock_state(0, 32)
    assert abs(fock.inner_product(vac, st)) == pytest.approx(0.7261490, abs=1e-7)
    one = fock.fock_state(1, 32)
    lifted = fock.FockVector(fock.creation_matrix(32).entries @ vac.amp)
    assert fock.inner_product(one, lifted) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(DimensionMismatchError):
        fock.inner_product(vac, fock.fock_state(0, 16))


def test_operator_matrix_examples():
    dim = 32
    st = fock.coherent_state(0.8, dim)
    ident = fock.OperatorMatrix(np.eye(dim, dtype=complex))
    assert np.array_equal(ident.entries @ st.amp, st.amp)
    lifted = fock.creation_matrix(dim).entries @ fock.fock_state(0, dim).amp
    assert np.array_equal(lifted, fock.fock_state(1, dim).amp)
    counted = fock.FockVector(fock.number_matrix(dim).entries @ st.amp)
    mean = fock.inner_product(st, counted).real
    assert mean == pytest.approx(0.64, abs=1e-10)


def test_ladder_algebra_interior():
    dim = 24
    a, c = fock.annihilation_matrix(dim).entries, fock.creation_matrix(dim).entries
    st = fock.FockVector(fock.coherent_amplitudes(0.9, dim))
    left = a @ (c @ st.amp)
    right = c @ (a @ st.amp)
    diff = left - right - st.amp
    assert np.max(np.abs(diff[: dim - 1])) < 1e-12


@pytest.mark.parametrize("dim", [1, 2, 32])
def test_band_shifts_equal_dense_ladder_matrices(dim):
    rng = np.random.default_rng(dim)
    for _ in range(3):
        st = fock.FockVector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        lifted = fock.creation_matrix(dim).entries @ st.amp
        assert np.array_equal(fock.create(st.amp), lifted)


def test_ladder_band_is_read_only():
    for dim in (6, 1, 40, 3):
        band = fock.ladder(dim)
        assert band.tobytes() == np.sqrt(np.arange(1.0, dim)).tobytes()
        with pytest.raises(ValueError):
            band[:] = 2.0
    with pytest.raises(ValueError):
        fock.ladder(0)


def test_complex_ladder_is_the_read_only_twin_of_ladder():
    for dim in (6, 1, 70, 3, 71):
        twin = fock.complex_ladder(dim)
        assert twin.dtype == np.complex128
        assert twin.tobytes() == fock.ladder(dim).astype(np.complex128).tobytes()
        with pytest.raises(ValueError):
            twin[:] = 2.0
    with pytest.raises(ValueError):
        fock.complex_ladder(0)


def test_accumulate_of_real_factors_equals_the_step_by_step_products():
    # jc_evolve_series runs its ladder chain as one np.multiply.accumulate:
    # with factors whose imaginary part is zero, each accumulated row must
    # equal the contiguous product of the row before and the factor, bit for
    # bit, in either operand order and with the real band cast at each step
    rng = np.random.default_rng(23)
    for dim in (1, 2, 7, 31, 32, 33, 200):
        start = rng.normal(size=dim) * 10.0 ** rng.uniform(-300, 300, dim)
        start = start + 1j * rng.normal(size=dim) * 10.0 ** rng.uniform(-300, 300, dim)
        edge = [complex(0.0, -0.0), complex(-0.0, 0.0), 5e-324j, -1e300][:dim]
        start[: len(edge)] = edge
        band = np.sqrt(np.arange(1.0, dim + 1.0))
        factors = np.empty((40, dim), dtype=np.complex128)
        factors[0] = start
        factors[1:] = band
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            chain = np.multiply.accumulate(factors, axis=0)
            left = right = cast = start
            for row, factor in zip(chain[1:], factors[1:]):
                left, right, cast = factor * left, right * factor, band * cast
                for step in (left, right, cast):
                    assert step.tobytes() == row.tobytes(), dim


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


def test_vdot_adds_its_rows_exactly():
    # one body for every shape: a grid, past OpenBLAS's 10,000-entry
    # threading cut too, is the fsum of its rows' np.vdot, real and
    # imaginary parts apart; a 1-d array, a strided column too, is np.vdot
    rng = np.random.default_rng(12)
    for shape in ((5, 3), (160, 90)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rows = [np.vdot(x, y) for x, y in zip(a, b)]
        got = fock.vdot(a, b)
        assert got.real.hex() == math.fsum(z.real for z in rows).hex(), shape
        assert got.imag.hex() == math.fsum(z.imag for z in rows).hex(), shape
        x, y = fock.TwoModeState(a), fock.TwoModeState(b)
        norm_a = math.fsum(np.vdot(row, row).real for row in a)
        norm_b = math.fsum(np.vdot(row, row).real for row in b)
        assert x.norm_sq().hex() == norm_a.hex(), shape
        assert fock.fidelity(x, y).hex() == (abs(got) ** 2 / (norm_a * norm_b)).hex(), shape
        for one_a, one_b in ((a[0], b[0]), (a[:, 1], b[:, 2]), (a.ravel(), b.ravel())):
            one = np.complex128(fock.vdot(one_a, one_b))
            assert one.tobytes() == np.vdot(one_a, one_b).tobytes(), shape


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
    # inside fock.py every sum is the one np.vecdot in vdot_rows, so its body
    # is the only one to switch
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


def test_fock_holds_no_dense_matrix_product():
    # fock applies operators as band shifts and elementwise products, so the
    # operator identities in checks are the library's only BLAS matrix
    # products: no matmul call, no @ and no .dot( in fock.py
    tree = ast.parse(Path(fock.__file__).read_text())
    products = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot")
    ]
    assert products == []


def test_every_cache_with_arguments_is_bounded():
    # a functools cache keyed on arguments keeps every distinct input it has
    # seen unless its maxsize is finite: over a long sweep that is a leak.
    # Only an argument-free table (stirling_table) may use the unbounded cache
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    bounded, stray = {}, []
    for path in sorted(Path(fock.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        consts = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        seen = set()
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = func.args
            takes_args = bool(a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg)
            for dec in func.decorator_list:
                seen.update({id(dec), id(getattr(dec, "func", dec))})
                if name(dec) == "cache":
                    bounded[func.name] = not takes_args
                elif name(dec) == "lru_cache":
                    size = 128  # a bare @lru_cache
                    if isinstance(dec, ast.Call):
                        given = dec.args[:1] + [k.value for k in dec.keywords if k.arg == "maxsize"]
                        if given:
                            size = getattr(given[0], "value", consts.get(getattr(given[0], "id", None)))
                    bounded[func.name] = type(size) is int and size > 0
        # a cache made by a call rather than a decorator is not vetted above
        stray += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and name(node) in ("cache", "lru_cache")
            and id(node) not in seen
        ]
    assert not stray, stray
    assert [f for f, ok in bounded.items() if not ok] == []
    assert {"stirling_table", "_laguerre_table", "_coherent_amplitudes"} <= set(bounded)


def test_expm_apply_zero_and_inverse():
    dim = 16
    st = fock.coherent_state(0.5, dim)
    zero = fock.OperatorMatrix(np.zeros((dim, dim), dtype=complex))
    assert np.array_equal(fock.expm_apply(zero, st).amp, st.amp)

    rng = np.random.default_rng(11)
    m = fock.OperatorMatrix(np.diag(0.4 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))))
    there = fock.expm_apply(m, st)
    back = fock.expm_apply(fock.OperatorMatrix(-m.entries), there)
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
    # the exact product has no stop test, so a state whose norm squared is no
    # normal double rotates as a unit state does, and real growth or decay by
    # e^{+-400} is exact.  What it refuses is a factor |e^{M_nn}| that is not
    # a finite normal double: -800 I on 1e300 |0> would give 0 for 3.7e-48
    dim = 32
    st = fock.coherent_state(0.8, dim).amp
    for theta in (0.7, 3.0):
        exact = np.exp(-1j * theta * np.arange(dim)) * st
        m = fock.OperatorMatrix(-1j * theta * fock.number_matrix(dim).entries)
        for scale in (1e160, 1e-165, 2.0**-509, 1e150, 1e-150):
            got = fock.expm_apply(m, fock.FockVector(scale * st), tol=1e-12).amp / scale
            assert np.max(np.abs(got - exact)) <= 1e-13, (theta, scale)
    for rate in (400.0, -400.0):
        gen = rate * np.eye(dim, dtype=complex)
        got = fock.expm_apply(fock.OperatorMatrix(gen), fock.FockVector(st), tol=1e-12)
        assert got.amp.tobytes() == (np.exp(np.diagonal(gen)) * st).tobytes(), rate
    for rate in (800.0, -800.0):
        text = (
            "expm_apply: some |e^M_nn| is not a finite normal double "
            f"(Re M_nn from {rate:.3e} to {rate:.3e})"
        )
        with pytest.raises(NumericalFailureError, match=f"^{re.escape(text)}$"):
            fock.expm_apply(fock.OperatorMatrix(rate * np.eye(dim)), fock.FockVector(st))


_ORACLE_GENERATORS = {  # the diagonal of a generator, from (rng, dim)
    "rotation": lambda rng, dim: -1j * rng.uniform(-6.3, 6.3) * np.arange(dim),
    "real": lambda rng, dim: rng.uniform(-3, 3, dim),
    "imaginary": lambda rng, dim: 1j * rng.uniform(-20, 20, dim),
    "complex": lambda rng, dim: rng.uniform(-3, 3, dim) + 1j * rng.uniform(-20, 20, dim),
}


@pytest.mark.parametrize("kind", list(_ORACLE_GENERATORS))
def test_expm_apply_meets_independent_oracles(kind):
    # the contract against oracles that share no code with expm_apply:
    # scipy's expm_multiply and e^{M_nn} psi_n, on seeded states scaled by 1,
    # 1e+-160 and 1e+-300 and scaled back.  The calls must not warn.  The
    # bound is the oracles' own error, as the product is exact
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(8, 41))
        diag = _ORACLE_GENERATORS[kind](rng, dim)
        m = fock.OperatorMatrix(np.diag(diag))
        alpha = rng.uniform(0.3, 1.5) * np.exp(1j * rng.uniform(0, 6.3))
        coherent = fock.coherent_amplitudes(alpha, dim)
        random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for st in (coherent, random):
            oracles = [expm_multiply(m.entries, st), np.exp(diag) * st]
            for scale in (1.0, 1e160, 1e-160, 1e300, 1e-300):
                got = fock.expm_apply(m, fock.FockVector(scale * st), tol=1e-14).amp / scale
                for oracle in oracles:
                    dev = np.max(np.abs(got - oracle)) / np.max(np.abs(oracle))
                    assert dev <= 1e-11, (seed, st is random, scale, dev)


def test_expm_apply_rejects_generators_it_cannot_finish():
    # a non-finite entry, on the diagonal or off it, is the caller's error
    # and is reported first; any other nonzero entry off the diagonal, large
    # or tiny, is refused before any product, and psi is left as it was
    dim = 8
    st = fock.FockVector(fock.coherent_amplitudes(0.8, dim))
    before = st.amp.tobytes()
    number = fock.number_matrix(dim).entries
    calls = []
    for bad in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
        for at in ((2, 2), (0, 1)):  # on the diagonal and off it
            gen = -0.7j * number
            gen[at] = bad
            calls.append(("expm_apply: generator entries must be finite", gen))
    rng = np.random.default_rng(9)
    band = np.zeros((dim, dim))
    band[0, 1] = 1e12
    hermitian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hermitian = (hermitian + hermitian.conj().T) / 2
    above, below = -0.7j * number, -0.7j * number
    above[0, dim - 1] = below[dim - 1, 0] = 1e-300
    off_diagonal = [
        np.eye(dim, k=1),
        band,
        np.full((dim, dim), 1e308),
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
        -1.7j * hermitian,
        above,
        below,
        15.0 * np.eye(dim) + np.eye(dim, k=1),
    ]
    refused = "expm_apply: generator has a nonzero entry off its diagonal"
    calls += [(refused, gen) for gen in off_diagonal]
    for text, gen in calls:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            fock.expm_apply(fock.OperatorMatrix(gen), st)
        assert time.perf_counter() - start < 1.0, gen
        assert st.amp.tobytes() == before, gen
    # mismatched dims come first, then the tolerance
    with pytest.raises(DimensionMismatchError, match=f"^dims differ: {dim + 1} vs {dim}$"):
        fock.expm_apply(fock.number_matrix(dim + 1), st, tol=0.0)
    for tol in (0.0, -1e-12):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            fock.expm_apply(fock.OperatorMatrix(-0.7j * number), st, tol=tol)


def _expm_cases():
    """(generator, state, tol) covering the library's calls and the edges of
    the elementwise product: states far from 1, signed zeros, a subnormal
    part, a NaN state and a product that overflows."""
    rng = np.random.default_rng(12)
    cases = []

    def both_ways(gen, st, tol=1e-12):
        cases.append((gen, st, tol))
        cases.append((-gen, np.exp(np.diagonal(gen)) * st, tol))

    number = fock.number_matrix
    for dim in (32, 48, 64, 96):  # seeded phase rotations and their inverses
        theta, alpha = rng.uniform(0.1, 6.3), rng.uniform(0.5, 1.5)
        both_ways(-1j * theta * number(dim).entries, fock.coherent_state(alpha, dim).amp)
    both_ways(-0.7j * number(32).entries, fock.coherent_state(0.8, 32).amp)  # verify's
    for alpha in (0.0, 0.6 - 0.9j):
        both_ways(-1.3j * number(40).entries, fock.coherent_state(alpha, 40).amp)
    # states whose norm squared is no normal double
    for scale in (1e-160, 1e150, 1e-150):
        both_ways(-0.9j * number(48).entries, scale * fock.coherent_state(1.1, 48).amp)
    for tol in (1e-6, 1e-14, 1e-300):  # tol is not read
        cases.append((-2.0j * number(32).entries, fock.coherent_state(1.0, 32).amp, tol))
    cases.append((0.5 * np.eye(2), np.full(2, 6e153), 1e-12))
    cases.append((0.8 * np.eye(1), np.full(1, 7e-162), 0.3))
    for rate in (400.0, -400.0):  # real growth and decay
        cases.append((rate * np.eye(3), np.ones(3), 1e-12))
    # a product that overflows, and a NaN state
    cases.append((16.0 * np.eye(4), 1e308 * fock.fock_state(0, 4).amp, 1e-12))
    cases.append((-1j * number(4).entries, np.array([0.5, np.nan, 0, 0]), 1e-12))
    # imaginary parts of -0.0, whose signs the elementwise product keeps
    conj = fock.coherent_state(0.7, 16).amp.conj()
    cases.append((-0.5j * number(16).entries, conj, 1e-12))
    # a diagonal with complex entries, whose products round twice
    both_ways((0.05 - 0.9j) * number(40).entries, fock.coherent_state(0.9, 40).amp)
    # a -0.0 part beside a subnormal one
    tiny = np.zeros(34, dtype=complex)
    tiny[0], tiny[1] = 1.0, complex(-0.0, -5e-324)
    cases.append((-0.6j * number(34).entries, tiny, 1e-12))
    return cases


def _expm_outcome(gen, st, tol):
    """The amplitudes expm_apply returns, or its error text.  A call that
    returns a state must not warn: numpy's warnings are the sign of a NaN
    record."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            amp = fock.expm_apply(fock.OperatorMatrix(gen), fock.FockVector(st), tol).amp
        except NumericalFailureError as exc:
            return str(exc)
    assert not caught, [str(w.message) for w in caught]
    return amp


def _outcome_bytes(outcome):
    return outcome if isinstance(outcome, str) else outcome.tobytes()


def test_expm_apply_equals_reference_loop():
    # the reference is e^{M_nn} psi_n written on its own: every case gives
    # its bytes, or the error for a product that is not finite
    outcomes = []
    for gen, st, tol in _expm_cases():
        got = _expm_outcome(gen, st, tol)
        outcomes.append(got)
        gen, st = fock.OperatorMatrix(gen), fock.FockVector(st)
        with np.errstate(over="ignore"):
            want = np.exp(np.diagonal(gen.entries)) * st.amp
        if not np.isfinite(want).all():
            want = "expm_apply produced non-finite amplitudes"
        assert _outcome_bytes(got) == _outcome_bytes(want), tol
    errors = [o for o in outcomes if isinstance(o, str)]
    assert errors == [
        "expm_apply produced non-finite amplitudes",  # 16 I on 1e308 |0>
        "expm_apply produced non-finite amplitudes",  # -i N on a NaN state
    ]


def test_expm_apply_takes_the_dense_product_only_off_the_diagonal():
    # no generator takes a dense product: elementwise ones, complex entries
    # included, return np.exp(diag) * psi bit for bit; the rest raise
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
    st = fock.FockVector(fock.coherent_amplitudes(0.8, dim))
    for gen in elementwise:
        m = fock.OperatorMatrix(gen)
        got = fock.expm_apply(m, st).amp
        assert got.tobytes() == (np.exp(np.diagonal(m.entries)) * st.amp).tobytes(), gen
    for gen in dense:
        with pytest.raises(ValueError, match="off its diagonal"):
            fock.expm_apply(fock.OperatorMatrix(gen), st)


@pytest.mark.parametrize("gen", [16.0 * np.eye(4)], ids=["diagonal"])
def test_expm_apply_rejects_a_result_that_overflows(gen):
    # 16 I grows 1e308 |0> by e^16, past the double range: the product is
    # raised without a warning
    st = fock.FockVector(1e308 * fock.fock_state(0, 4).amp)
    with pytest.raises(NumericalFailureError, match="produced non-finite amplitudes"):
        fock.expm_apply(fock.OperatorMatrix(gen), st, 1e-12)


def test_tensor_and_project_roundtrip():
    a = fock.FockVector(fock.coherent_amplitudes(0.8, 12))
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


def test_two_mode_norm_sq_rounds_alike_under_any_blas_thread_count():
    # a grid past OpenBLAS's 10,000-entry threading cut: its norm is the
    # correctly rounded sum of its row norms under one BLAS thread or two
    rng = np.random.default_rng(11)
    amp = rng.normal(size=(160, 90)) + 1j * rng.normal(size=(160, 90))
    expected = math.fsum(np.vdot(row, row).real for row in amp)
    code = (
        "import numpy as np; from pacslab import fock; "
        "rng = np.random.default_rng(11); "
        "amp = rng.normal(size=(160, 90)) + 1j * rng.normal(size=(160, 90)); "
        "print(fock.TwoModeState(amp).norm_sq().hex())"
    )
    src = str(Path(fock.__file__).resolve().parents[1])
    found = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        found.add(out.stdout.strip())
    assert found == {expected.hex()}


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
