"""Numeric kernels in numpy: subset-lattice sums, popcounts, power iteration.

Two inner loops dominate the package's numeric runtime: the subset-lattice
sum (zeta transform) behind the brute-force Carleson scan, and the power
iteration behind operator norms.  Both are vectorized numpy.

Everything exact stays exact: the zeta transform runs on integer pairs
``(a, b)`` encoding ``a + b*sqrt(2)`` over a common power-of-two
denominator.  :func:`zeta_sos` sums int64 arrays; when the caller's bound
check says a sum could leave the int64 range, it passes numpy ``object``
arrays of Python integers to :func:`_zeta_sos_loop` instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BACKEND", "zeta_sos", "power_iteration", "popcounts"]

# The only backend; run records report it.
BACKEND = "numpy"


def _zeta_sos_loop(a, b, nbits):
    """In-place subset sums: after the call, ``a[u] = sum(a0[s] for s subset of u)``.

    The arbitrary-precision kernel: works on any indexable sequence of
    integers, such as numpy ``object`` arrays or plain Python lists.
    """
    n = len(a)
    for i in range(nbits):
        bit = 1 << i
        for u in range(n):
            if u & bit:
                a[u] += a[u ^ bit]
                b[u] += b[u ^ bit]


def zeta_sos(a, b, nbits):
    """In-place subset sums of two int64 arrays of length ``2**nbits``."""
    for i in range(nbits):
        w = 1 << i
        a2 = a.reshape(-1, 2 * w)
        a2[:, w:] += a2[:, :w]
        b2 = b.reshape(-1, 2 * w)
        b2[:, w:] += b2[:, :w]


def power_iteration(mat, v0, tol, max_iter):
    """Largest singular value of ``mat`` via power iteration on the
    normal matrix.  Returns ``(sigma, iterations, converged)``."""
    nv = np.sqrt(np.sum(v0 * v0))
    if nv == 0.0:
        return 0.0, 0, True
    v = v0 / nv
    sigma = 0.0
    for it in range(max_iter):
        w = mat @ v
        s = np.sqrt(np.sum(w * w))
        if s == 0.0:
            return 0.0, it + 1, True
        delta = s - sigma
        if delta < 0.0:
            delta = -delta
        if it > 0 and delta <= tol * (s if s > 1e-300 else 1e-300):
            return s, it + 1, True
        sigma = s
        u = mat.T @ w
        nu = np.sqrt(np.sum(u * u))
        if nu == 0.0:
            return s, it + 1, True
        v = u / nu
    return sigma, max_iter, False


def popcounts(n_subsets: int) -> np.ndarray:
    """Popcount of every index below ``n_subsets`` (a power of two).

    Built by doubling: on ``[2**k, 2**(k+1))`` the popcount is the one on
    ``[0, 2**k)`` plus one.  Linear in ``n_subsets``, with no lookup table
    kept between calls.
    """
    pc = np.zeros(1, dtype=np.int64)
    while len(pc) < n_subsets:
        pc = np.concatenate((pc, pc + 1))
    return pc[:n_subsets]
