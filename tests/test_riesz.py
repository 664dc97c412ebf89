"""The Riesz lab: Fourier multipliers, sampled dyadic shifts, span residuals.

The sampled shift matrices and their span residuals are checked against
references that state each definition one step at a time: a sum of one
``np.outer`` per (cube, signature) of the sampled grid, and complex
two-pass Gram-Schmidt on one flattened matrix after another.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.grid import GridSpec
from dyadlab.riesz import (
    RandomGridSample,
    discrete_riesz,
    draw_grid_samples,
    riesz_matrix,
    sample_shift_matrix,
    span_residual,
)
from dyadlab.scalar import Scalar
from dyadlab.shift import ShiftMap, TensorShift, tensor_apply_counting
from dyadlab.stepfn import StepFunction


# -- references ---------------------------------------------------------------------


def reference_cubes(sample):
    """Lattice cubes (start vector, side) of the sampled grid, by level."""
    d, n = sample.d, sample.n
    logn = n.bit_length() - 1
    p, m = sample.t_num, sample.t_log2den
    base = tuple((p * y) % n for y in sample.y_num)
    cubes = []
    for k in range(logn - m + 1):
        side = p << (logn - m - k)
        if side == 0 or side % 4 != 0 or side > n:
            continue
        for idx in itertools.product(range(n // side), repeat=d):
            start = tuple((base[a] + idx[a] * side) % n for a in range(d))
            cubes.append((start, side))
    return cubes


def reference_haar_vector(d, n, start, side, sig):
    prof = []
    for a in range(d):
        axis = np.zeros(n)
        half = side // 2
        idx = (np.arange(side) + start[a]) % n
        if sig[a] == 1:
            axis[idx] = 1.0
        else:
            axis[idx[:half]] = -1.0
            axis[idx[half:]] = 1.0
        prof.append(axis)
    out = prof[0]
    for axis in prof[1:]:
        out = np.multiply.outer(out, axis)
    return out / np.sqrt((side / n) ** d)


def reference_shift_matrix(sample):
    """One outer product per strict Haar function of the sampled grid."""
    d, n = sample.d, sample.n
    size = n**d
    strict = [s for s in itertools.product((0, 1), repeat=d) if s != (1,) * d]
    rot = sample.sig_rotation % d
    mat = np.zeros((size, size))
    for start, side in reference_cubes(sample):
        half = side // 2
        cstart = tuple((start[a] + ((sample.child_index >> a) & 1) * half) % n for a in range(d))
        for sig in strict:
            h_in = reference_haar_vector(d, n, start, side, sig).reshape(size)
            h_out = reference_haar_vector(d, n, cstart, half, sig[-rot:] + sig[:-rot]).reshape(size)
            mat += np.outer(h_out, h_in)
    return mat / size


def reference_span_residual(matrices, target):
    """Complex two-pass Gram-Schmidt, one basis vector at a time."""
    t = np.asarray(target, dtype=np.complex128).ravel()
    t_norm = np.linalg.norm(t)
    basis = []
    res_sq = 1.0
    out = [1.0]
    for m in matrices:
        v = np.asarray(m, dtype=np.complex128).ravel()
        for q in basis:
            v = v - np.vdot(q, v) * q
        for q in basis:
            v = v - np.vdot(q, v) * q
        nv = np.linalg.norm(v)
        if nv > 1e-10 * max(1.0, np.linalg.norm(np.asarray(m).ravel())):
            q = v / nv
            basis.append(q)
            res_sq = max(res_sq - abs(np.vdot(q, t / t_norm)) ** 2, 0.0)
        out.append(np.sqrt(res_sq))
    return np.array(out)


# -- tests ----------------------------------------------------------------------------


def rand_fn(d, n, seed=0):
    return np.random.default_rng(seed).standard_normal((n,) * d)


def test_zeroth_transform_is_identity():
    f = rand_fn(1, 16)
    out = discrete_riesz(0, f)
    assert out.dtype == np.complex128
    assert np.array_equal(out, f)


def test_component_range():
    f = rand_fn(1, 8)
    with pytest.raises(ValueError, match="component out of range"):
        discrete_riesz(2, f)
    for j in (-1, 2):
        with pytest.raises(ValueError, match="component out of range"):
            riesz_matrix(1, 8, j)


def test_non_square_lattice_rejected():
    with pytest.raises(ValueError, match=r"values must have shape \(8, 8\)"):
        discrete_riesz(1, np.ones((8, 4)))


def test_hilbert_squares_to_minus_identity_mod_mean():
    f = rand_fn(1, 16, seed=5)
    twice = discrete_riesz(1, discrete_riesz(1, f))
    target = -(f - f.mean())
    assert np.abs(twice - target).max() < 1e-12


def test_riesz_components_sum_to_minus_identity_mod_mean():
    f = rand_fn(2, 8, seed=6)
    acc = np.zeros(f.shape, dtype=np.complex128)
    for j in (1, 2):
        acc = acc + discrete_riesz(j, discrete_riesz(j, f))
    target = -(f - f.mean())
    assert np.abs(acc - target).max() < 1e-12


def inner(u, v):
    """``(1/n**d) * sum(u * conj(v))``, the lattice inner product."""
    return complex(np.vdot(v, u) / u.size)


def test_skew_pairing_real_part_vanishes():
    # the real pairing <R_j f, f> vanishes for real f; the full complex
    # pairing keeps an imaginary remnant from the unpaired frequency
    for seed in range(5):
        f = rand_fn(1, 16, seed)
        assert abs(inner(discrete_riesz(1, f), f).real) < 1e-12
        f2 = rand_fn(2, 8, seed)
        assert abs(inner(discrete_riesz(2, f2), f2).real) < 1e-12


def test_riesz_matrix_matches_transform():
    # the batched transform of the identity equals one transform per column
    for d, n, j in [(1, 8, 1), (1, 16, 1), (2, 8, 1), (2, 8, 2)]:
        mat = riesz_matrix(d, n, j)
        for k, e_k in enumerate(np.eye(n**d)):
            col = discrete_riesz(j, e_k.reshape((n,) * d)).ravel()
            assert np.array_equal(mat[:, k], col), (d, n, j, k)


def canonical_sample(n, child=0):
    return RandomGridSample(
        d=1, n=n, t_num=1, t_log2den=0, y_num=(0,), child_index=child,
        sig_rotation=0, seed=0,
    )


def test_sample_matches_exact_shift_module():
    # t=1, y=0 reproduces the canonical-grid shift in the cell basis
    n = 16
    g = GridSpec((1,), (4,))
    smap = ShiftMap.preset(1, ("child", 0), "identity")
    ts = TensorShift.single(smap)
    cells = list(g.cells())
    exact = np.zeros((n, n))
    for j, cj in enumerate(cells):
        img, _ = tensor_apply_counting(ts, StepFunction(g, {cj: Scalar(1)}))
        for i, ci in enumerate(cells):
            exact[i, j] = float(img.value_at(ci))
    lattice = sample_shift_matrix(canonical_sample(n))
    assert np.abs(exact - lattice).max() < 1e-12


def test_translation_covariance():
    n = 16
    base = sample_shift_matrix(canonical_sample(n))
    moved = sample_shift_matrix(
        RandomGridSample(1, n, 1, 0, (3,), 0, 0, 0)
    )
    perm = np.zeros((n, n))
    for i in range(n):
        perm[(i + 3) % n, i] = 1.0
    assert np.abs(moved - perm @ base @ perm.T).max() == 0.0


def test_entry_pattern_eight_points():
    # hand expansion on 8 lattice points: the matrix is the sum of two
    # levels of outer products, and every entry is an integer multiple of
    # sqrt(2)/8
    n = 8
    got = sample_shift_matrix(canonical_sample(n))
    by_hand = np.zeros((n, n))
    for start, side in [((0,), 8), ((0,), 4), ((4,), 4)]:
        half = side // 2
        h_in = np.zeros(n)
        h_in[start[0]:start[0] + half] = -np.sqrt(n / side)
        h_in[start[0] + half:start[0] + side] = np.sqrt(n / side)
        h_out = np.zeros(n)
        q = side // 4
        h_out[start[0]:start[0] + q] = -np.sqrt(n / half)
        h_out[start[0] + q:start[0] + half] = np.sqrt(n / half)
        by_hand += np.outer(h_out, h_in) / n
    assert np.abs(got - by_hand).max() < 1e-12
    scaled = got * n / np.sqrt(2.0)
    assert np.abs(scaled - np.round(scaled)).max() < 1e-12


def test_draw_samples_reproducible():
    a = draw_grid_samples(1, 16, 10, seed=4)
    b = draw_grid_samples(1, 16, 10, seed=4)
    assert a == b
    assert all(1.0 <= s.t_num / 2**s.t_log2den <= 2.0 for s in a)


def test_scaled_grids_align_with_lattice():
    # dyadic t keeps interval sides integral and even
    for s in draw_grid_samples(1, 16, 30, seed=11):
        mat = sample_shift_matrix(s)
        assert np.isfinite(mat).all()


def test_span_residual_monotone_and_normalized():
    target = riesz_matrix(1, 16, 1)
    for seed in range(3):
        mats = [sample_shift_matrix(s) for s in draw_grid_samples(1, 16, 32, seed)]
        res = span_residual(mats, target)
        assert res[0] == 1.0
        assert all(res[i + 1] <= res[i] for i in range(len(res) - 1))


def test_span_residual_hits_zero_on_spanning_set():
    # the target inside the span drives the residual to zero
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((4, 4)) for _ in range(16)]
    target = 0.25 * mats[0] - 2.0 * mats[5]
    res = span_residual(mats, target)
    # the squared-residual recurrence floors at sqrt(machine eps)
    assert res[-1] < 1e-7


def test_d2_sample_runs():
    s = RandomGridSample(2, 8, 1, 0, (0, 0), 0, 0, 0)
    mat = sample_shift_matrix(s)
    assert mat.shape == (64, 64)
    assert np.abs(mat).max() > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2]),
    st.sampled_from([4, 8, 16]),
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.data(),
)
def test_shift_matrices_and_residuals_match_references(d, n, seed, count, data):
    j = data.draw(st.integers(1, d), label="component")
    samples = draw_grid_samples(d, n, count, seed)
    mats = [sample_shift_matrix(s) for s in samples]
    for s, got in zip(samples, mats):
        assert got.shape == (n**d, n**d)
        assert np.abs(got - reference_shift_matrix(s)).max() <= 1e-15, s
    target = riesz_matrix(d, n, j)
    got = span_residual(mats, target)
    want = reference_span_residual(mats, target)
    assert got[0] == 1.0 and np.all(np.diff(got) <= 0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


def test_complex_target_in_the_span_of_real_matrices():
    # a complex target whose real and imaginary parts both lie in the real
    # span is reached: the real basis carries both parts
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((4, 4)) for _ in range(20)]
    target = 0.5 * mats[0] + 1j * (mats[3] - 2.0 * mats[7])
    got = span_residual(mats, target)
    want = reference_span_residual(mats, target)
    assert np.abs(got - want).max() <= 1e-12
    assert got[0] == 1.0 and np.all(np.diff(got) <= 0)
    assert got[-1] < 1e-7
    # past the 16th matrix the span is full and nothing is added
    assert np.all(got[16:] == got[16])


def test_span_residual_rejects_complex_matrices():
    mats = [np.eye(4), np.eye(4) * 1j]
    with pytest.raises(ValueError, match="must be real"):
        span_residual(mats, np.ones((4, 4)))


def test_span_residual_rejects_size_mismatch():
    with pytest.raises(ValueError, match="size 9 against a target of size 16"):
        span_residual([np.eye(4), np.eye(3)], np.ones((4, 4)))
