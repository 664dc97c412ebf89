import numpy as np
import pytest

from dyadlab._kernels import _zeta_sos_loop, popcounts, power_iteration, zeta_sos


def brute_subset_sums(seed_a, seed_b, nbits):
    n = 1 << nbits
    a = [0] * n
    b = [0] * n
    for u in range(n):
        for s in range(n):
            if s & u == s:
                a[u] += seed_a[s]
                b[u] += seed_b[s]
    return a, b


@pytest.mark.parametrize("nbits", [1, 3, 6])
def test_zeta_variants_agree_with_bruteforce(nbits):
    rng = np.random.default_rng(nbits)
    n = 1 << nbits
    seed_a = rng.integers(-50, 50, size=n).astype(np.int64)
    seed_b = rng.integers(-50, 50, size=n).astype(np.int64)
    want_a, want_b = brute_subset_sums(list(seed_a), list(seed_b), nbits)

    a2, b2 = list(seed_a), list(seed_b)
    _zeta_sos_loop(a2, b2, nbits)
    assert a2 == want_a and b2 == want_b

    a3, b3 = seed_a.copy(), seed_b.copy()
    zeta_sos(a3, b3, nbits)
    assert list(a3) == want_a and list(b3) == want_b


def test_popcounts():
    pc = popcounts(1 << 10)
    assert pc[0] == 0 and pc[(1 << 10) - 1] == 10
    assert all(int(pc[u]) == bin(u).count("1") for u in range(0, 1 << 10, 37))


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(0)
    for n in (4, 16, 32):
        mat = rng.standard_normal((n, n))
        want = np.linalg.svd(mat, compute_uv=False)[0]
        v0 = rng.standard_normal(n)
        got, iters, conv = power_iteration(mat, v0, 1e-12, 10000)
        assert conv
        assert got == pytest.approx(want, rel=1e-8)


def test_power_iteration_zero_matrix():
    got, iters, conv = power_iteration(np.zeros((5, 5)), np.ones(5), 1e-10, 100)
    assert got == 0.0 and conv


def test_power_iteration_nonconvergence_reported():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((12, 12))
    got, iters, conv = power_iteration(mat, rng.standard_normal(12), 1e-15, 2)
    assert iters == 2 and not conv
    assert got > 0.0  # last iterate is still reported
