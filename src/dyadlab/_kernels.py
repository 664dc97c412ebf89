"""Hot numeric kernels: numba-jitted with a pure-numpy fallback.

Two inner loops dominate the package's numeric runtime: the subset-lattice
sum (zeta transform) behind the brute-force Carleson scan, and the power
iteration behind operator norms.  Both ship as ``@njit`` kernels; setting
``DYADLAB_DISABLE_NUMBA=1`` (or any truthy value) selects the pure-numpy
implementations instead.  ``benchmarks/bench_kernels.py`` compares the two
paths.

Everything exact stays exact: the zeta transform runs on int64 pairs
``(a, b)`` encoding ``a + b*sqrt(2)`` over a common power-of-two
denominator; callers fall back to Python big integers when the int64
bound check fails.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["BACKEND", "zeta_sos", "power_iteration", "popcounts"]


def _zeta_sos_loop(a, b, nbits):
    """In-place subset sums: after the call, ``a[u] = sum(a0[s] for s subset of u)``.

    Works on numpy int64 arrays and (uncompiled) on plain Python lists,
    which is the arbitrary-precision fallback.
    """
    n = len(a)
    for i in range(nbits):
        bit = 1 << i
        for u in range(n):
            if u & bit:
                a[u] += a[u ^ bit]
                b[u] += b[u ^ bit]


def _zeta_sos_np(a, b, nbits):
    for i in range(nbits):
        w = 1 << i
        a2 = a.reshape(-1, 2 * w)
        a2[:, w:] += a2[:, :w]
        b2 = b.reshape(-1, 2 * w)
        b2[:, w:] += b2[:, :w]


def _power_iter_impl(mat, v0, tol, max_iter):
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


def _power_iter_np(mat, v0, tol, max_iter):
    return _power_iter_impl(mat, v0, tol, max_iter)


_flag = os.environ.get("DYADLAB_DISABLE_NUMBA", "").strip().lower()
_use_numba = _flag in ("", "0", "false", "no")

if _use_numba:
    try:
        from numba import njit

        _zeta_sos_nb = njit(cache=True)(_zeta_sos_loop)
        _power_iter_nb = njit(cache=True)(_power_iter_impl)
        BACKEND = "numba"
    except ImportError:  # pragma: no cover - numba is a declared dependency
        BACKEND = "numpy"
else:
    BACKEND = "numpy"

if BACKEND == "numba":
    zeta_sos = _zeta_sos_nb
    power_iteration = _power_iter_nb
else:
    zeta_sos = _zeta_sos_np
    power_iteration = _power_iter_np


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
