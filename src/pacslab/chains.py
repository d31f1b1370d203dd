"""Chebyshev propagation of real tridiagonal chains.

propagate applies e^{-i bound H} to the first cell of every chain, for real
symmetric tridiagonal chains H with a zero diagonal and spectrum in
[-1, 1].  The exponential is expanded in Chebyshev polynomials with
Bessel-function coefficients (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967
(1984)): e^{-i bound x} = sum_k (2 - [k = 0]) (-i)^k J_k(bound) T_k(x).
Because H links only neighbouring cells, T_k(H) e_0 lives on the cells of
the parity of k, so the even terms of the sum are real, the odd ones
imaginary, and the whole expansion runs in real arithmetic on two half
buffers.  This module knows nothing of the generator behind the chains: its
caller scales the hops by its spectral bound and reads the result back.
"""

import numpy as np

from .specialfn import bessel_j_values


def cutoff(tol: float) -> float:
    """thresh = max(5e-17, tol 1e-2): the last Chebyshev term kept is the
    last with |J_k(bound)| > thresh, and a caller that leaves chains out may
    move the state by at most thresh in 2-norm."""
    return max(5e-17, tol * 1e-2)


def _coefficients(bound: float, tol: float) -> np.ndarray:
    """The real Chebyshev coefficients of exp(-i bound x) on [-1, 1]:
    (2 - [k = 0]) J_k(bound) times the real or imaginary factor of (-i)^k,
    up to the last k with |J_k(bound)| > cutoff(tol) (at least 2)."""
    k_hi = int(bound + 40 + 15 * bound ** (1.0 / 3.0))
    bes = np.array(bessel_j_values(k_hi, bound))
    keep = np.nonzero(np.abs(bes) > cutoff(tol))[0]
    k_last = max(2, int(keep[-1])) if keep.size else 2
    # (-i)^k is 1, -i, -1, i: the real factor for even k, the imaginary one
    # for odd k
    sign = np.array([1.0, -1.0, -1.0, 1.0])[np.arange(k_last + 1) % 4]
    coeff = sign * bes[: k_last + 1]
    coeff[1:] *= 2.0
    return coeff


def _aligned_zeros(n: int, lead: int = 0) -> np.ndarray:
    """n zeroed doubles whose element ``lead`` starts on a 64-byte boundary
    (numpy's allocator only promises 16 bytes)."""
    buf = np.zeros(n + 16)
    start = (-(buf.ctypes.data // 8) - lead) % 8
    return buf[start : start + n]


def _chebyshev_chains(hop: np.ndarray, start: np.ndarray, coeff: np.ndarray):
    """sum_k coeff[k] T_k(H) e_0 for the real tridiagonal chains H.

    H has a zero diagonal and links flat cell i to i + 1 by hop[i], so it
    only links even cells to odd ones: T_k(H) e_0 lives on the even cells
    for even k and on the odd cells for odd k, and each half is stored
    apart.  e_0 is the unit vector at every chain start (``start``, one flag
    per even cell).  Returns the even-k sum on the even cells and the odd-k
    sum on the odd cells.

    Every array the loop writes is full length and starts on a 64-byte
    boundary, so no store straddles a cache line; a neighbour one cell off
    is read through a view into a buffer with a zero at the far end.
    """
    n = start.size
    # the even cells end in a 0 (odd cell j reads even cell j + 1), the odd
    # cells start after one (even cell j reads odd cell j - 1)
    e_buf, o_buf = _aligned_zeros(n + 1), _aligned_zeros(n + 1, lead=1)
    t_even, t_odd = e_buf[:n], o_buf[1:]
    hop_even, hop_next, hop_prev, y_even, y_odd, scratch = (_aligned_zeros(n) for _ in range(6))
    t_even[:] = start
    np.multiply(hop[0::2], t_even, t_odd)  # a chain start has no hop to its left
    np.multiply(coeff[0], t_even, y_even)
    np.multiply(coeff[1], t_odd, y_odd)
    # odd cell j links even cells j (hop_even[j]) and j + 1 (hop_next[j]);
    # even cell j links odd cells j (hop_even[j]) and j - 1 (hop_prev[j])
    np.multiply(2.0, hop[0::2], hop_even)
    np.multiply(2.0, hop[1:-1:2], hop_next[:-1])
    hop_prev[1:] = hop_next[:-1]
    steps = (
        (t_even, t_odd, o_buf[:-1], hop_prev, y_even),
        (t_odd, t_even, e_buf[1:], hop_next, y_odd),
    )
    for k in range(2, len(coeff)):
        new, src, shifted, hop_shifted, acc = steps[k % 2]
        # new <- 2 H src - new, i.e. T_k from T_{k-1} and T_{k-2}
        np.multiply(hop_even, src, scratch)
        np.subtract(scratch, new, new)
        np.multiply(hop_shifted, shifted, scratch)
        np.add(new, scratch, new)
        np.multiply(coeff[k], new, scratch)
        np.add(acc, scratch, acc)
    return y_even, y_odd


def propagate(lengths: np.ndarray, hops: np.ndarray, bound: float, tol: float) -> np.ndarray:
    """e^{-i bound H} applied to the first cell of every chain, one complex
    value per cell, chain after chain.

    Chain j holds lengths[j] >= 1 cells.  hops[i] is the hop of H from cell
    i to the next cell of its chain; the last cell of a chain takes none, so
    its entry is not read.  The hops are already divided by bound, which
    must bound the spectrum of the unscaled chains, so the spectrum of H
    lies in [-1, 1].  The terms run up to the last k with
    |J_k(bound)| > cutoff(tol).

    Inside, each chain is padded to even length, so that cell k of every
    chain sits at a flat index of the parity of k, and the padding is
    dropped again from the result.
    """
    padded = lengths + (lengths & 1)
    first = np.cumsum(padded) - padded
    # flat padded index of every cell
    at = np.arange(hops.size) + np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    hop = np.zeros(padded.sum())
    hop[at] = hops
    hop[first + lengths - 1] = 0.0
    start = np.zeros(hop.size // 2, dtype=bool)
    start[first // 2] = True
    y_even, y_odd = _chebyshev_chains(hop, start, _coefficients(bound, tol))
    y = np.empty(hop.size, dtype=np.complex128)
    y[0::2] = y_even
    y[1::2] = 1j * y_odd
    return y[at]
