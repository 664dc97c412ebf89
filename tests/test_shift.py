import numpy as np
import pytest

from dyadlab.errors import CapExceededError
from dyadlab.grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    strict_signatures,
    unit_cube,
)
from dyadlab.haar import (
    analyze,
    basis_function,
    haar_basis_keys,
    haar_function,
    random_haar_function,
    square_function_sq,
)
from dyadlab.scalar import ZERO, Scalar
from dyadlab.shift import (
    ShiftMap,
    TensorShift,
    matrix_in_haar_basis,
    tensor_apply_counting,
)
from dyadlab.stepfn import StepFunction


def interval(level, p):
    return DyadicRectangle((DyadicCube(1, level, (p,)),))


def test_measure_halving_and_child_property():
    for d in (1, 2):
        for rule in ("first-child", "rotating"):
            smap = ShiftMap.preset(d, rule)
            for cube in GridSpec((d,), (2,)).cubes(0, 2):
                img = smap.sigma_cube(cube)
                assert cube.contains(img)
                assert img.volume * (1 << d) == cube.volume


def test_cube_rule_injective_depth3():
    smap = ShiftMap.preset(1, "rotating")
    grid = GridSpec((1,), (3,))
    images = [smap.sigma_cube(c) for c in grid.cubes(0, 2)]
    assert len(images) == len(set(images))


def test_sig_rules():
    smap = ShiftMap.preset(2, "first-child", "cyclic")
    assert smap.sigma_sig((0, 1)) == (1, 0)
    kill = ShiftMap.preset(2, "first-child", ("kill", (0, 1)))
    assert kill.sigma_sig((0, 1)) is None
    assert kill.sigma_sig((1, 0)) == (1, 0)
    ident = ShiftMap.preset(2, "first-child")
    for sig in strict_signatures(2):
        assert ident.sigma_sig(sig) == sig


def test_shift_moves_basis_to_basis():
    grid = GridSpec((1,), (3,))
    smap = ShiftMap.preset(1, "first-child")
    h = haar_function(grid, interval(0, 0), ((0,),))
    out, _ = tensor_apply_counting(TensorShift.single(smap), h)
    assert out == haar_function(grid, interval(1, 0), ((0,),))


def test_shift_annihilates_constants():
    grid = GridSpec((1,), (2,))
    smap = ShiftMap.preset(1, "first-child")
    const = StepFunction.constant(grid, Scalar(7))
    assert tensor_apply_counting(TensorShift.single(smap), const)[0].is_zero


def test_basis_to_basis_exhaustive():
    grid = GridSpec((2,), (2,))
    smap = ShiftMap.preset(2, "rotating", "cyclic")
    keys = haar_basis_keys(grid)
    for key in keys[1:]:
        out, _ = tensor_apply_counting(
            TensorShift.single(smap), basis_function(grid, key)
        )
        if out.is_zero:
            continue
        e = analyze(out)
        assert len(e.coeffs) == 1 and e.mean == ZERO
        ((okey, c),) = e.coeffs.items()
        assert c == Scalar(1)
        assert okey in keys  # image is again a basis element


def test_truncation_counted():
    grid = GridSpec((1,), (1,))
    smap = ShiftMap.preset(1, "first-child")
    h = haar_function(grid, interval(0, 0), ((0,),))
    out, truncated = tensor_apply_counting(TensorShift.single(smap), h)
    assert truncated == 1 and out.is_zero


def test_contraction_exact_exhaustive_depth3():
    grid = GridSpec((1,), (3,))
    smap = ShiftMap.preset(1, "rotating")
    for key in haar_basis_keys(grid):
        f = basis_function(grid, key)
        qf, _ = tensor_apply_counting(TensorShift.single(smap), f)
        assert qf.l2_norm_sq() <= f.l2_norm_sq()


def test_contraction_random_and_equality_condition():
    rng = np.random.default_rng(2)
    grid = GridSpec((1,), (4,))
    smap = ShiftMap.preset(1, "first-child")
    for _ in range(25):
        f = random_haar_function(grid, rng, max_levels=(2,))
        qf, truncated = tensor_apply_counting(TensorShift.single(smap), f)
        assert truncated == 0
        # no kills, no truncation: exact isometry on the strict part
        assert qf.l2_norm_sq() == analyze(f).strict_sq_sum()
        assert qf.l2_norm_sq() <= f.l2_norm_sq()


def test_contraction_with_kill():
    rng = np.random.default_rng(3)
    grid = GridSpec((2,), (2,))
    smap = ShiftMap.preset(2, "first-child", ("kill", (1, 0)))
    for _ in range(10):
        f = random_haar_function(grid, rng)
        qf, _ = tensor_apply_counting(TensorShift.single(smap), f)
        assert qf.l2_norm_sq() <= f.l2_norm_sq()


def test_tensor_identity_slots():
    grid = GridSpec((1, 1), (2, 2))
    ts = TensorShift((None,) * 2)
    rng = np.random.default_rng(4)
    f = random_haar_function(grid, rng, include_mean=True)
    assert tensor_apply_counting(ts, f)[0] == f


def test_tensor_single_slot_action():
    grid = GridSpec((1, 1), (2, 2))
    smap = ShiftMap.preset(1, "first-child")
    ts = TensorShift((smap, None))
    rect = DyadicRectangle((DyadicCube(1, 0, (0,)), DyadicCube(1, 1, (1,))))
    h = haar_function(grid, rect, ((0,), (0,)))
    out, _ = tensor_apply_counting(ts, h)
    expected_rect = DyadicRectangle((DyadicCube(1, 1, (0,)), DyadicCube(1, 1, (1,))))
    assert out == haar_function(grid, expected_rect, ((0,), (0,)))


def test_tensor_contraction_exhaustive_depth22():
    grid = GridSpec((1, 1), (2, 2))
    ts = TensorShift(
        [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "rotating")]
    )
    for key in haar_basis_keys(grid):
        f = basis_function(grid, key)
        qf, _ = tensor_apply_counting(ts, f)
        assert qf.l2_norm_sq() <= f.l2_norm_sq()


def test_matrix_identity_and_sparsity():
    grid = GridSpec((1,), (2,))
    size = grid.cell_count
    ident = matrix_in_haar_basis(
        lambda f: tensor_apply_counting(TensorShift((None,)), f)[0], grid
    )
    assert all(
        ident[i][j] == (Scalar(1) if i == j else ZERO)
        for i in range(size)
        for j in range(size)
    )
    smap = ShiftMap.preset(1, "first-child")
    mat = matrix_in_haar_basis(
        lambda f: tensor_apply_counting(TensorShift.single(smap), f)[0], grid
    )
    for j in range(size):
        col = [mat[i][j] for i in range(size)]
        nonzero = [c for c in col if not c.is_zero]
        assert len(nonzero) <= 1
        assert all(c in (Scalar(1), Scalar(-1)) for c in nonzero)


def test_matrix_cap():
    grid = GridSpec((1,), (3,))
    with pytest.raises(CapExceededError):
        matrix_in_haar_basis(
            lambda f: tensor_apply_counting(TensorShift((None,)), f)[0], grid, cap=4
        )


def test_duality_bound_random_pairs():
    # |<Qf, g>| against the square-function pairing, float check
    grid = GridSpec((1, 1), (2, 2))
    ts = TensorShift(
        [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "first-child")]
    )
    rng = np.random.default_rng(50)
    vol = float(grid.cell_volume)
    for _ in range(50):
        f = random_haar_function(grid, rng)
        g = random_haar_function(grid, rng)
        qf, _ = tensor_apply_counting(ts, f)
        lhs = float((qf * g).integral())
        sf = np.sqrt(square_function_sq(f).to_array().astype(float))
        sg = np.sqrt(square_function_sq(g).to_array().astype(float))
        rhs = float(np.sum(sf * sg) * vol)
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize(
    "d, cube, sig",
    [
        (2, "first-child", ("kill", (1, 1))),  # kill target not strict
        (2, "first-child", ("kill", (0,))),  # kill target of the wrong length
        (1, "first-child", ("kill", [0])),  # kill target not a tuple: never matches
        (1, ("child", 5), "identity"),  # child index past 2**d
        (1, ("bogus",), "identity"),
        (1, "first-child", ("bogus",)),
        (1, {"child": 1}, "identity"),  # dict forms are gone
        (1, "first-child", {"kill": [0]}),
        (1, ("table", ((0, 1),), 0), "identity"),  # level tables are gone
    ],
)
def test_shift_map_rejects_bad_rules(d, cube, sig):
    with pytest.raises(ValueError):
        ShiftMap.preset(d, cube, sig)
    with pytest.raises(ValueError):
        ShiftMap(d, cube, sig)


def test_shift_map_stores_names_as_tuples():
    smap = ShiftMap(2, "rotating", "cyclic")
    assert (smap.cube_rule, smap.sig_rule) == (("rotating",), ("cyclic",))
    assert smap == ShiftMap.preset(2, ("rotating",), ("cyclic",))
    child = ShiftMap.preset(1, ("child", 1), ("kill", (0,)))
    assert child.sigma_cube(unit_cube(1)) == DyadicCube(1, 1, (1,))
    assert child.sigma_sig((0,)) is None
