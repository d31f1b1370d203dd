import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm
from test_downconversion import DENSE_EXPM_CASES

from pacslab import chains
from pacslab import downconversion as dc


def _chebyshev_reference(hop, start, coeff):
    """chains._chebyshev_chains as it was before the aligned parity buffers:
    the neighbour products written at a one-cell offset into fresh arrays."""
    t_even = start.astype(np.float64)
    t_odd = hop[0::2] * t_even  # a chain start has no hop to its left
    y_even = coeff[0] * t_even
    y_odd = coeff[1] * t_odd
    # odd cell j links even cells j (hop_even[j]) and j + 1 (hop_odd[j]);
    # even cell j links odd cells j (hop_even[j]) and j - 1 (hop_odd[j - 1])
    hop_even, hop_odd = 2.0 * hop[0::2], 2.0 * hop[1::2][:-1]
    head, tail = np.s_[:-1], np.s_[1:]
    scratch = np.empty_like(t_even)
    for k in range(2, len(coeff)):
        if k % 2:
            new, src, acc, lo, hi = t_odd, t_even, y_odd, head, tail
        else:
            new, src, acc, lo, hi = t_even, t_odd, y_even, tail, head
        # new <- 2 H src - new, i.e. T_k from T_{k-1} and T_{k-2}
        np.multiply(hop_even, src, out=scratch)
        np.subtract(scratch, new, out=new)
        np.multiply(hop_odd, src[hi], out=scratch[lo])
        new[lo] += scratch[lo]
        np.multiply(coeff[k], new, out=scratch)
        acc += scratch
    return y_even, y_odd


def _kernel_points():
    """The dense-expm cases, criterion 02's (0.8, 2.0) grid, a one-step
    expansion, dim_a = 1, odd chains, dim_b above dim_a, and seeded
    automatic dims with complex alpha and phi != 0."""
    points = [p for p, _ in DENSE_EXPM_CASES]
    points += [dc.DcParams(0.8, 2.0, phi, *dc.auto_dims(0.8, 2.0)) for phi in (0.0, math.pi / 3)]
    points += [
        dc.DcParams(0.6 - 0.2j, 1e-7, 0.5, 30, 12),
        dc.DcParams(0.0, 1.3, -0.7, 1, 1),
        dc.DcParams(0.0, 0.4, 2.5, 1, 40),
        dc.DcParams(0.7j, 1.1, -3.0, 23, 23),
        dc.DcParams(0.9 - 0.4j, 1.5, 6.0, 37, 61),
    ]
    rng = np.random.default_rng(30)
    for _ in range(8):
        alpha = complex(*rng.uniform(-1.5, 1.5, 2))
        r, phi = rng.uniform(0.05, 2.0), rng.uniform(0.1, math.pi)
        points.append(dc.DcParams(alpha, r, phi, *dc.auto_dims(alpha, r)))
    return points


def test_chebyshev_chains_equal_the_offset_loop_bitwise(monkeypatch):
    points = _kernel_points()
    # r = 1e-7 at (30, 12) keeps k_last = 2, so the loop runs once
    assert len(chains._coefficients(2e-7 * math.sqrt(30 * 12), dc.DEFAULT_EVOLVE_TOL)) == 3
    assert {p.dim_a for p in points} >= {1} and any(p.dim_b > p.dim_a for p in points)
    got = [dc.dc_evolve_numeric(p).amp.tobytes() for p in points]
    monkeypatch.setattr(chains, "_chebyshev_chains", _chebyshev_reference)
    want = [dc.dc_evolve_numeric(p).amp.tobytes() for p in points]
    for p, g, w in zip(points, got, want):
        assert g == w, p


class _OutRecorder:
    """numpy as the kernel sees it, keeping the out array of every binary
    ufunc call (the loop's arithmetic; the coefficient setup's np.abs is
    unary)."""

    def __init__(self):
        self.outs = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not isinstance(attr, np.ufunc) or attr.nin != 2:
            return attr

        def call(*args, **kwargs):
            out = kwargs.get("out", args[attr.nin] if len(args) > attr.nin else None)
            self.outs.append(out)
            return attr(*args, **kwargs)

        return call


def test_propagate_writes_only_64_byte_aligned_arrays(monkeypatch):
    calls = []
    propagate = chains.propagate
    monkeypatch.setattr(chains, "propagate", lambda *args: calls.append(args) or propagate(*args))
    for p in _kernel_points()[::3]:
        dc.dc_evolve_numeric(p)
    monkeypatch.undo()
    for lengths, hops, bound, tol in calls:
        recorder = _OutRecorder()
        monkeypatch.setattr(chains, "np", recorder)
        chains.propagate(lengths, hops, bound, tol)
        monkeypatch.undo()
        half = int(np.sum(lengths + (lengths & 1))) // 2
        loop = recorder.outs[-6 * (len(chains._coefficients(bound, tol)) - 2) :]
        assert all(out is not None for out in recorder.outs), bound
        assert [out.size for out in loop] == [half] * len(loop), bound
        for out in recorder.outs:
            assert out.ctypes.data % 64 == 0, bound


def _assert_matches_dense_expm(lengths, hops, bound):
    """propagate against scipy's expm of the dense chains, the hop of each
    chain's last cell left out."""
    ends = np.cumsum(lengths) - 1
    links = hops.copy()
    links[ends] = 0.0
    h = np.diag(links[:-1], 1) + np.diag(links[:-1], -1)
    e0 = np.zeros(hops.size)
    e0[ends - lengths + 1] = 1.0
    want = expm(-1j * bound * h) @ e0
    got = chains.propagate(lengths, hops, bound, 1e-13)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-13, (lengths, bound)


BOUNDS = [1e-3, 0.37, 4.2, 21.0, 60.0]


def test_propagate_matches_dense_expm_on_random_chains():
    # real chains of lengths 1-40 with hops in [0, 1/2], so |H| <= 1; the
    # last cell of every chain carries a hop that must not be read
    rng = np.random.default_rng(31)
    lengths_seen = set()
    for trial in range(12):
        lengths = rng.integers(1, 41, rng.integers(1, 6))
        if trial == 0:
            lengths = np.array([1, 40, 7, 2])
        lengths_seen.update(lengths.tolist())
        hops = rng.uniform(0.0, 0.5, lengths.sum())
        _assert_matches_dense_expm(lengths, hops, math.exp(rng.uniform(math.log(1e-3), math.log(60.0))))
    assert {1, 40} <= lengths_seen and {n % 2 for n in lengths_seen} == {0, 1}


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("dim", [1, 7, 32])
def test_propagate_matches_dense_expm_on_two_cell_chains(dim, bound):
    # the cavity's |e,n> <-> |g,n+1> chains: hop sqrt(n+1) / sqrt(dim) / 2
    # from each e-cell, none from the g-cell
    hops = np.zeros(2 * dim)
    hops[0::2] = np.sqrt(np.arange(1.0, dim + 1)) / math.sqrt(dim) / 2
    _assert_matches_dense_expm(np.full(dim, 2), hops, bound)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("dim", [1, 2, 45, 80])
def test_propagate_matches_dense_expm_on_one_long_chain(dim, bound):
    # the displacement's one chain: hop sqrt(k+1) / sqrt(dim) / 2
    hops = np.sqrt(np.arange(1.0, dim + 1)) / math.sqrt(dim) / 2
    _assert_matches_dense_expm(np.array([dim]), hops, bound)


def test_only_chains_holds_the_chebyshev_kernel():
    # the Chebyshev expansion has one home, chains.py: its coefficients are
    # Bessel values, so a second copy of the recurrence would call
    # bessel_j_values (specialfn defines it); no other module names a
    # chebyshev helper or defines _aligned_zeros; and chains.py knows no
    # generator, so it imports no caller
    src = Path(chains.__file__).parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        if path.name == "chains.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.alias):
                name = node.name
            if path.name != "specialfn.py" and name == "bessel_j_values":
                offenders.append(f"{path.name}:{node.lineno}: {name}")
            if name == "_aligned_zeros" or "chebyshev" in name.lower():
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}: {name}")
    assert not offenders, offenders
    tree = ast.parse(Path(chains.__file__).read_text())
    imported = {
        name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    }
    assert not any("downconversion" in name for name in imported), imported
