"""The two dtypes of the commutator's Haar matrix build, and its order of work.

``commutator_matrix`` builds M_b from integer sign-pattern products and
applies each shift as an index map.  While the 2**53 bound holds the
integers are int64 and the products run on float64 BLAS; otherwise the
same steps run on numpy object arrays of Python integers.  Both must give
the same bytes.  The cap check must come before any table is built.
"""

import numpy as np
import pytest

from dyadlab import commutator
from dyadlab.commutator import commutator_matrix, operator_norm
from dyadlab.errors import CapExceededError
from dyadlab.grid import GridSpec, strict_signatures
from dyadlab.haar import haar_basis_keys, random_haar_function
from dyadlab.scalar import Scalar
from dyadlab.shift import ShiftMap, TensorShift


def symbol(grid: GridSpec, seed: int):
    # times 3 - 2*sqrt(2): entries whose two parts have opposite signs
    b = random_haar_function(grid, np.random.default_rng(seed), include_mean=True)
    return b * Scalar(3, -2)


def shift(grid: GridSpec, sig: str) -> TensorShift:
    def rule(d):
        return "cyclic" if sig == "cyclic" else ("kill", strict_signatures(d)[-1])

    return TensorShift(tuple(ShiftMap(d, "rotating", rule(d)) for d in grid.dims))


@pytest.mark.parametrize("sig", ["cyclic", "kill"])
@pytest.mark.parametrize("shape", [((1,), (5,)), ((1, 1), (3, 3)), ((2,), (2,))], ids=str)
def test_object_path_matches_int64_path(shape, sig):
    grid = GridSpec(*shape)
    b, ts = symbol(grid, 11), shift(grid, sig)
    assert commutator._multiplier(b, grid)[0].dtype == np.int64
    want = commutator_matrix(b, ts, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commutator, "_FLOAT_EXACT_BOUND", 0)  # every build takes the object path
        assert commutator._multiplier(b, grid)[0].dtype == object
        got = commutator_matrix(b, ts, grid)
    assert got.dtype == np.float64 and np.array_equal(got, want)


def test_big_symbol_takes_the_object_path_exactly():
    # scaling by 2**60 leaves the int64 bound, and scaling by a power of two
    # commutes with rounding, so every entry must scale exactly
    grid = GridSpec((2,), (2,))
    b, ts = symbol(grid, 12), shift(grid, "cyclic")
    big = b * Scalar(1 << 60)
    assert commutator._multiplier(big, grid)[0].dtype == object
    want = commutator_matrix(b, ts, grid)
    assert want.any()
    assert np.array_equal(commutator_matrix(big, ts, grid), want * 2.0**60)


def test_non_injective_index_map_fails_the_assertion(monkeypatch):
    grid = GridSpec((1,), (3,))
    key = haar_basis_keys(grid)[1]
    monkeypatch.setattr(commutator, "shift_key", lambda q, k, depth: (key, False))
    commutator._shift_index_map.cache_clear()
    with pytest.raises(AssertionError, match="not injective"):
        commutator_matrix(symbol(grid, 13), TensorShift.single(ShiftMap.preset(1)), grid)


def test_cap_checked_before_any_table(monkeypatch):
    grid = GridSpec((1,), (3,))
    b = symbol(grid, 14)
    ts = TensorShift.single(ShiftMap.preset(1))

    def no_work(*args):
        raise AssertionError("a table was built before the cap check")

    for name in ("_sign_table", "haar_basis_keys", "_shift_index_map"):
        monkeypatch.setattr(commutator, name, no_work)
    with pytest.raises(CapExceededError, match="basis size 8 exceeds cap 7"):
        commutator_matrix(b, ts, grid, cap=7)
    with pytest.raises(CapExceededError):
        operator_norm(b, ts, grid, cap=7)
