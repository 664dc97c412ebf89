"""The commutator's Haar matrix against its column-by-column definition.

The reference below builds the matrix the way ``operator_norm`` once did:
every basis function goes through ``commutator_apply`` (analyze, relabel,
synthesize per shift) and its image is analyzed, then every exact entry
is rounded.  ``commutator_matrix`` builds the same exact entries in
coefficient space, from a sparse M_b and shift index maps, so the float
matrices must be equal entry for entry and ``operator_norm`` must return
the same ``OperatorNormResult`` for ``power`` and ``svd``.  Grids have up
to three parameters, dimensions up to 2 and at most 64 cells, so the
Kronecker order of the sign patterns and the mean-first row are checked at
every arity; the shifts cover every cube rule, every signature rule and
``None`` slots.  Bad input must fail the way the reference fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab._kernels import power_iteration
from dyadlab.commutator import (
    OperatorNormResult,
    commutator_apply,
    commutator_matrix,
    operator_norm,
)
from dyadlab.errors import CapExceededError
from dyadlab.grid import GridSpec, strict_signatures
from dyadlab.haar import random_haar_function
from dyadlab.shift import ShiftMap, TensorShift, matrix_in_haar_basis

MAX_CELL_BITS = 6


# -- reference ------------------------------------------------------------------


def matrix_to_float(mat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in mat], dtype=np.float64)


def reference_matrix(b, ts, grid, cap=4096) -> np.ndarray:
    mat = matrix_in_haar_basis(lambda f: commutator_apply(b, ts, f), grid, cap)
    return matrix_to_float(mat)


def reference_operator_norm(b, ts, grid, method, tol=1e-10, max_iter=10000, seed=0):
    a = reference_matrix(b, ts, grid)
    if method == "svd":
        value = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
        return OperatorNormResult(value, 0, True, "svd")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(a.shape[0])
    sigma, iters, converged = power_iteration(a, v0, tol, max_iter)
    return OperatorNormResult(float(sigma), int(iters), bool(converged), "power")


# -- inputs ---------------------------------------------------------------------


def cube_rules(d: int) -> list:
    return ["first-child", "rotating"] + [("child", c) for c in range(1 << d)]


def sig_rules(d: int) -> list:
    return ["identity", "cyclic"] + [("kill", sig) for sig in strict_signatures(d)]


@st.composite
def grids(draw):
    t = draw(st.integers(1, 3))
    if t == 3 and draw(st.booleans()):
        # a shift drops every key of a parameter of depth <= 1, so within
        # the budget this is the one t = 3 grid with a nonzero commutator
        return GridSpec((1, 1, 1), (2, 2, 2))
    dims, depth, budget = [], [], MAX_CELL_BITS
    for _ in range(t):
        d = draw(st.integers(1, 2))
        n = draw(st.integers(0, min(3, budget // d)))
        budget -= d * n
        dims.append(d)
        depth.append(n)
    return GridSpec(tuple(dims), tuple(depth))


@st.composite
def shifts(draw, grid: GridSpec):
    parts = []
    for d in grid.dims:
        if draw(st.integers(0, 7)) == 0:
            parts.append(None)
        else:
            cube = draw(st.sampled_from(cube_rules(d)))
            sig = draw(st.sampled_from(sig_rules(d)))
            parts.append(ShiftMap(d, cube, sig))
    return TensorShift(tuple(parts))


def symbol(grid: GridSpec, seed: int):
    rng = np.random.default_rng(seed)
    return random_haar_function(grid, rng, include_mean=bool(seed & 1))


def check_same(b, ts, grid) -> None:
    want = reference_matrix(b, ts, grid)
    got = commutator_matrix(b, ts, grid)
    assert got.dtype == want.dtype and np.array_equal(got, want), (grid, ts)
    for method in ("power", "svd"):
        want_norm = reference_operator_norm(b, ts, grid, method)
        assert operator_norm(b, ts, grid, method=method) == want_norm, (grid, ts, method)


# -- equality with the reference ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.data(), grids(), st.integers(0, 2**16))
def test_commutator_matrix_matches_reference(data, grid, seed):
    ts = data.draw(shifts(grid))
    check_same(symbol(grid, seed), ts, grid)


@pytest.mark.parametrize("cube", cube_rules(2), ids=str)
def test_every_cube_rule_matches_reference(cube):
    grid = GridSpec((2,), (2,))
    check_same(symbol(grid, 3), TensorShift.single(ShiftMap(2, cube, "cyclic")), grid)


@pytest.mark.parametrize("sig", sig_rules(2), ids=str)
def test_every_signature_rule_matches_reference(sig):
    grid = GridSpec((2,), (2,))
    check_same(symbol(grid, 4), TensorShift.single(ShiftMap(2, "rotating", sig)), grid)


@pytest.mark.parametrize(
    "parts",
    [
        (("first-child", "identity"), ("rotating", "identity")),
        (("rotating", ("kill", (0,))), (("child", 1), "identity")),
        (None, ("first-child", "identity")),
    ],
    ids=["two-shifts", "kill-first", "none-slot"],
)
def test_two_parameter_shifts_match_reference(parts):
    grid = GridSpec((1, 1), (2, 3))
    ts = TensorShift(tuple(None if p is None else ShiftMap(1, *p) for p in parts))
    check_same(symbol(grid, 5), ts, grid)


def test_three_parameter_shifts_match_reference():
    # depth 2 everywhere, so every shift keeps some keys and M_b matters
    grid = GridSpec((1, 1, 1), (2, 2, 2))
    rules = [("rotating", "identity"), ("first-child", "cyclic"), (("child", 1), "identity")]
    ts = TensorShift(tuple(ShiftMap(1, *rule) for rule in rules))
    b = symbol(grid, 7)
    assert commutator_matrix(b, ts, grid).any()
    check_same(b, ts, grid)


# -- failing closed ------------------------------------------------------------------


def outcome(fn, *args):
    try:
        fn(*args)
    except (CapExceededError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cap", [4096, 3], ids=["under-cap", "over-cap"])
@pytest.mark.parametrize("bad", ["symbol-grid", "shift-arity", "both"])
def test_bad_input_fails_like_reference(bad, cap):
    grid = GridSpec((1,), (2,))
    other = GridSpec((1,), (3,))
    b = symbol(other if bad != "shift-arity" else grid, 2)
    smap = ShiftMap.preset(1)
    ts = TensorShift((smap, smap)) if bad != "symbol-grid" else TensorShift.single(smap)
    want = outcome(reference_matrix, b, ts, grid, cap)
    assert want is not None
    assert want[0] is (ValueError if cap == 4096 else CapExceededError)
    assert outcome(commutator_matrix, b, ts, grid, cap) == want


def test_none_slot_gives_zero():
    grid = GridSpec((1, 1), (2, 2))
    b = symbol(grid, 6)
    ts = TensorShift((ShiftMap.preset(1, "rotating"), None))
    assert not commutator_matrix(b, ts, grid).any()
    for method in ("power", "svd"):
        assert operator_norm(b, ts, grid, method=method).value == 0.0
    with pytest.raises(ValueError, match="grid/shift arity mismatch"):
        commutator_matrix(symbol(GridSpec((1, 1), (2, 1)), 6), ts, grid)

