"""Discrete Riesz transforms and randomized shift sampling on periodic lattices.

Everything here is floating point: the Fourier multipliers are irrational,
so no exactness is claimed.  Functions on the n**d lattice of the periodic
unit domain are plain complex arrays of shape ``(n,) * d``, with inner
product ``(1/n**d) * sum(u * conj(v))``; matrices act on their flattened
values.

The sampling half draws translated/dilated dyadic grids (dyadic scale
factor t in [1, 2], dyadic offset y, both lattice-aligned), builds the
induced shift operator as a dense matrix, and measures how well the span
of many sampled shift matrices approximates a Riesz multiplier in
Frobenius distance.  Scale factors other than 1 tile only part of the
circle (full intervals only); the gap is a recorded limitation of the
lattice model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "discrete_riesz",
    "riesz_matrix",
    "RandomGridSample",
    "draw_grid_samples",
    "sample_shift_matrix",
    "span_residual",
]


def _riesz_multiplier(d: int, n: int, j: int) -> np.ndarray:
    """``-i xi_j / |xi|`` on the integer frequency grid, zero at xi = 0."""
    if not 1 <= j <= d:
        raise ValueError("component out of range")
    freq = np.fft.fftfreq(n, d=1.0 / n)
    grids = np.meshgrid(*([freq] * d), indexing="ij")
    norm = np.sqrt(sum(g * g for g in grids))
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = -1j * grids[j - 1] / norm
    mult[tuple([0] * d)] = 0.0
    return mult


def discrete_riesz(j: int, values) -> np.ndarray:
    """Fourier multiplier ``-i xi_j / |xi|`` (zero at the zero frequency) on
    an array of shape ``(n,) * d``; ``j = 0`` is the identity by convention."""
    values = np.asarray(values, dtype=np.complex128)
    d, n = values.ndim, (values.shape or (0,))[0]
    if values.shape != (n,) * d:
        raise ValueError(f"values must have shape {(n,) * d}")
    if j == 0:
        return values.copy()
    return np.fft.ifftn(np.fft.fftn(values) * _riesz_multiplier(d, n, j))


def riesz_matrix(d: int, n: int, j: int) -> np.ndarray:
    """Dense matrix of the j-th Riesz transform on the flattened lattice;
    column k is ``discrete_riesz(j, e_k)``, all columns in one batched FFT."""
    size = n**d
    if j == 0:
        return np.eye(size, dtype=np.complex128)
    mult = _riesz_multiplier(d, n, j)
    cols = np.fft.ifftn(
        np.fft.fftn(np.eye(size).reshape((n,) * d + (size,)), axes=tuple(range(d)))
        * mult[..., None],
        axes=tuple(range(d)),
    )
    return cols.reshape(size, size)


# -- sampled dyadic shift operators -----------------------------------------------


@dataclass(frozen=True)
class RandomGridSample:
    """A translated/dilated dyadic grid plus a shift-map choice.

    The scale factor is ``t = t_num / 2**t_log2den`` in [1, 2]; the offset
    per axis is ``y_s = y_num[s] / 2**(N - t_log2den)`` so that every
    scaled interval endpoint lands on the lattice.  ``child_index`` fixes
    the cube rule (constant child); ``sig_rotation`` rotates signature
    bits (a no-op for d = 1).
    """

    d: int
    n: int
    t_num: int
    t_log2den: int
    y_num: tuple
    child_index: int
    sig_rotation: int
    seed: int


def draw_grid_samples(d: int, n: int, count: int, seed: int) -> list[RandomGridSample]:
    """Reproducible sample list; one rng stream per master seed."""
    logn = n.bit_length() - 1
    if 1 << logn != n:
        raise ValueError("n must be a power of two")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(0, min(3, max(1, logn - 1)) + 1))
        t_num = int(rng.integers(1 << m, (1 << (m + 1)) + 1))
        y = tuple(int(rng.integers(0, 1 << (logn - m))) for _ in range(d))
        child = int(rng.integers(0, 1 << d))
        rot = int(rng.integers(0, d))
        out.append(RandomGridSample(d, n, t_num, m, y, child, rot, seed))
    return out


def _level_starts(sample: RandomGridSample):
    """Per level of the sampled grid: the cube side and, per axis, the
    lattice starts of its full intervals.

    Cube sides are ``t * 2**-k * n`` lattice units; a level participates in
    the shift when its side is divisible by 4 (the child's Haar profile
    must still halve).  The level's cubes are the product of the per-axis
    starts, axis 0 slowest.
    """
    n = sample.n
    logn = n.bit_length() - 1
    p, m = sample.t_num, sample.t_log2den
    for k in range(logn - m + 1):
        side = p << (logn - m - k)
        if side == 0 or side % 4 != 0 or side > n:
            continue
        steps = np.arange(n // side) * side
        yield side, [(p * y + steps) % n for y in sample.y_num]


def _haar_rows(n: int, starts, side: int) -> np.ndarray:
    """Every lattice Haar function on the cubes ``product(*starts)`` of one
    side, one row each, in (cube, signature) order.

    Per axis, signature bit 1 is the indicator of ``[start, start + side)``
    (mod n) and bit 0 is -1 on its first half and +1 on its second; a row is
    the tensor of its axes' profiles, L2-normalized against the
    ``(1/n**d)`` counting measure.  All ``2**d`` signatures are kept.
    """
    rows = np.ones((1, 1, 1))
    for start in starts:
        off = (np.arange(n) - start[:, None]) % n
        prof = np.empty((len(start), 2, n))
        prof[:, 1] = off < side
        prof[:, 0] = prof[:, 1]
        prof[:, 0][off < side // 2] = -1.0
        a, b, c = rows.shape
        rows = (rows[:, None, :, None, :, None] * prof[None, :, None, :, None, :]).reshape(
            a * len(start), b * 2, c * n
        )
    return rows / np.sqrt((side / n) ** len(starts))


def sample_shift_matrix(sample: RandomGridSample) -> np.ndarray:
    """Dense matrix of the sampled shift on the flattened lattice.

    Maps each strict Haar function of the sampled grid to the same
    signature (rotated) on the chosen child; rows/columns use the
    ``(1/n**d)`` inner product.  The strict input rows ``H_in`` and their
    images ``H_out`` are built for all cubes at once, and the matrix is the
    one product ``H_out.T @ H_in / n**d``.
    """
    d, n = sample.d, sample.n
    size = n**d
    sigs = list(itertools.product((0, 1), repeat=d))
    rot = sample.sig_rotation % d  # sig[-0:] + sig[:-0] is sig itself
    strict = sigs[:-1]  # all-ones is last
    rotated = [sigs.index(sig[-rot:] + sig[:-rot]) for sig in strict]
    h_in, h_out = [np.zeros((0, size))], [np.zeros((0, size))]
    for side, starts in _level_starts(sample):
        half = side // 2
        cstarts = [(s + ((sample.child_index >> a) & 1) * half) % n for a, s in enumerate(starts)]
        h_in.append(_haar_rows(n, starts, side)[:, :-1].reshape(-1, size))
        h_out.append(_haar_rows(n, cstarts, half)[:, rotated].reshape(-1, size))
    return np.concatenate(h_out).T @ np.concatenate(h_in) / size


def span_residual(matrices, target: np.ndarray) -> np.ndarray:
    """Normalized Frobenius distance from ``target`` to the span of the
    first M sampled matrices, for M = 0 .. len(matrices).

    Computed by incremental orthonormalization, so the sequence is
    non-increasing by construction; entry 0 is 1.0.  The matrices must be
    real: the complex span of real vectors has a real orthonormal basis
    ``Q``, so the basis is kept real (classical Gram-Schmidt, two passes),
    and the complex target enters only through ``(q.Re t)**2 + (q.Im t)**2``.
    """
    t = np.asarray(target, dtype=np.complex128).ravel()
    t_norm = np.linalg.norm(t)
    if t_norm == 0:
        raise ValueError("target must be nonzero")
    mats = [np.asarray(m) for m in matrices]
    for m in mats:
        if np.iscomplexobj(m):
            raise ValueError("sampled matrices must be real")
        if m.size != t.size:
            raise ValueError(f"matrix of size {m.size} against a target of size {t.size}")
    t_re, t_im = t.real / t_norm, t.imag / t_norm
    basis = np.empty((len(mats), t.size))
    k = 0
    res_sq = 1.0
    out = [1.0]
    cutoff = 1e-10
    for m in mats:
        v = m.astype(np.float64).ravel()
        for _ in range(2):  # the second pass restores orthogonality
            v -= basis[:k].T @ (basis[:k] @ v)
        nv = np.linalg.norm(v)
        if nv > cutoff * max(1.0, np.linalg.norm(m)):
            q = basis[k] = v / nv
            k += 1
            p_sq = (q @ t_re) ** 2 + (q @ t_im) ** 2
            res_sq = max(res_sq - p_sq, 0.0)
        out.append(np.sqrt(res_sq))
    return np.array(out)
