import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadlab.grid import DyadicCube, DyadicRectangle, GridSpec, all_ones, strict_signatures
from dyadlab.haar import (
    HaarExpansion,
    analyze,
    haar_basis_keys,
    haar_cell_value,
    haar_coefficient,
    haar_function,
    basis_function,
    mean_key,
    random_haar_function,
    square_function_sq,
    synthesize,
)
from dyadlab.scalar import ONE, SQRT2, ZERO, Scalar
from dyadlab.stepfn import StepFunction


G1 = GridSpec((1,), (2,))
G11 = GridSpec((1, 1), (2, 2))


def interval(level, p):
    return DyadicRectangle((DyadicCube(1, level, (p,)),))


def test_base_haar_values():
    h = haar_function(G1, interval(0, 0), ((0,),))
    assert [h.value_at(((i,),)) for i in range(4)] == [
        Scalar(-1),
        Scalar(-1),
        Scalar(1),
        Scalar(1),
    ]


def test_all_ones_is_normalized_indicator():
    h = haar_function(G1, interval(0, 0), ((1,),))
    assert h == StepFunction.constant(G1, 1)


def test_half_interval_haar_values():
    h = haar_function(G1, interval(1, 0), ((0,),))
    assert [h.value_at(((i,),)) for i in range(4)] == [-SQRT2, SQRT2, ZERO, ZERO]


def test_haar_norm_one():
    for rect, sig in [
        (interval(0, 0), ((0,),)),
        (interval(1, 1), ((0,),)),
        (interval(2, 3), ((1,),)),
    ]:
        assert haar_function(G1, rect, sig).l2_norm_sq() == Scalar(1)


def test_haar_depth_validation():
    with pytest.raises(ValueError):
        haar_function(G1, interval(2, 0), ((0,),))  # strict at the finest level
    haar_function(G1, interval(2, 0), ((1,),))  # indicator is fine


def test_orthonormality_small_grids():
    for grid in (G1, G11, GridSpec((2,), (1,))):
        keys = haar_basis_keys(grid)
        fns = [basis_function(grid, k) for k in keys]
        for i, j in itertools.combinations_with_replacement(range(len(fns)), 2):
            ip = (fns[i] * fns[j]).integral()
            assert ip == (Scalar(1) if i == j else ZERO), (keys[i], keys[j])


def test_analyze_single_haar():
    h = haar_function(G1, interval(0, 0), ((0,),))
    e = analyze(h)
    assert e.mean == ZERO
    assert e.coeffs == {(interval(0, 0), ((0,),)): Scalar(1)}


def test_analyze_constant():
    e = analyze(StepFunction.constant(G1, Scalar(3)))
    assert e.mean == Scalar(3)
    assert e.coeffs == {mean_key(G1): Scalar(3)}


def test_analyze_quarter_indicator():
    # direct inner products of 1_[0,1/4) at depth 2, checked by brute force
    f = StepFunction(G1, {((0,),): Scalar(1)})
    e = analyze(f)
    assert e.mean == Scalar(1, 0, 2)  # 1/4
    expected = {
        mean_key(G1): Scalar(1, 0, 2),
        (interval(0, 0), ((0,),)): Scalar(-1, 0, 2),  # -1/4
        (interval(1, 0), ((0,),)): Scalar(0, -1, 2),  # -sqrt2/4
    }
    assert e.coeffs == expected
    # brute-force oracle: integrate against each basis function directly
    for key in haar_basis_keys(G1)[1:]:
        rect, sig = key
        brute = (f * basis_function(G1, key)).integral()
        assert e.get(key) == brute


def test_roundtrip_and_parseval_random():
    rng = np.random.default_rng(5)
    for grid in (G1, G11, GridSpec((2,), (2,))):
        for _ in range(20):
            f = StepFunction(
                grid,
                {
                    c: Scalar(int(rng.integers(-8, 9)), int(rng.integers(-4, 5)), 3)
                    for c in grid.cells()
                },
            )
            e = analyze(f)
            assert synthesize(e) == f
            assert e.parseval_sq() == f.l2_norm_sq()


def every_key(grid):
    """Every resolvable key: per parameter, every cube at every level with
    the all-ones signature, and the strict signatures below the finest level."""
    per_param = []
    for s, (d, n) in enumerate(zip(grid.dims, grid.depth)):
        per_param.append([
            (cube, sig)
            for cube in grid.cubes(s, n)
            for sig in [all_ones(d)] + (strict_signatures(d) if cube.level < n else [])
        ])
    for combo in itertools.product(*per_param):
        yield DyadicRectangle(tuple(c for c, _ in combo)), tuple(sig for _, sig in combo)


def test_synthesize_single_coefficient():
    key = (interval(1, 1), ((0,),))
    e = HaarExpansion(G1, {key: Scalar(1)})
    assert synthesize(e) == haar_function(G1, *key)
    # haar_function synthesizes too: hold it to the per-cell definition
    for grid in (G1, G11, GridSpec((2,), (2,)), GridSpec((1, 2), (2, 1))):
        for rect, vecsig in every_key(grid):
            want = {
                cell: haar_cell_value(grid, rect, vecsig, cell)
                for cell in rect.cell_keys(grid.depth)
            }
            assert haar_function(grid, rect, vecsig) == StepFunction(grid, want)


def test_synthesize_zero():
    assert synthesize(HaarExpansion(G1)).is_zero


def test_haar_coefficient_mixed_signature():
    # renormalized average against the half interval: <f, h^1_[0,1/2)>
    f = StepFunction(G1, {((0,),): Scalar(4)})
    c = haar_coefficient(f, interval(1, 0), ((1,),))
    assert c == SQRT2  # 4 * sqrt2 * (1/4)


def test_square_function_single_haar():
    h = haar_function(G1, interval(1, 0), ((0,),))
    sq = square_function_sq(h)
    assert sq.value_at(((0,),)) == Scalar(2)
    assert sq.value_at(((2,),)) == ZERO
    s = np.sqrt(square_function_sq(h).to_array())
    assert np.allclose(s, [np.sqrt(2), np.sqrt(2), 0, 0])


def test_square_function_quarter_indicator():
    # cellwise sums of coeff^2/|R| for 1_[0,1/4): (5/16, 5/16, 1/16, 1/16)
    f = StepFunction(G1, {((0,),): Scalar(1)})
    sq = square_function_sq(f)
    vals = [sq.value_at(((i,),)) for i in range(4)]
    assert vals == [Scalar(5, 0, 4), Scalar(5, 0, 4), Scalar(1, 0, 4), Scalar(1, 0, 4)]


def test_square_function_norm_identity():
    rng = np.random.default_rng(11)
    for grid in (G1, G11):
        for _ in range(10):
            f = random_haar_function(grid, rng, include_mean=True)
            e = analyze(f)
            assert square_function_sq(f).integral() == e.strict_sq_sum()


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_hypothesis_seeds(seed):
    rng = np.random.default_rng(seed)
    f = random_haar_function(G11, rng, include_mean=True)
    e = analyze(f)
    assert synthesize(e) == f
    assert e.parseval_sq() == f.l2_norm_sq()


def test_basis_size_matches_cell_count():
    for grid in (G1, G11, GridSpec((2,), (2,))):
        assert len(haar_basis_keys(grid)) == grid.cell_count


def test_haar_function_l2_normalized():
    h = haar_function(G1, interval(0, 0), ((0,),))
    assert float(h.l2_norm_sq()) == pytest.approx(1.0)
    cross = haar_function(G11, G11.unit_rectangle(), ((0,), (0,)))
    assert cross.l2_norm_sq() == Scalar(1)


def test_haar_is_rescaled_mother_on_every_interval():
    # model convention: h_{k,p}(x) = 2**(k/2) h(2**k x - p), with the mother
    # function h = -1 on [0, 1/2) and +1 on [1/2, 1)
    g = GridSpec((1,), (3,))
    for k in range(3):
        for p in range(1 << k):
            rect = interval(k, p)
            for cell in rect.cell_keys(g.depth):
                rescaled = (cell[0][0] - p * (1 << (3 - k))) * (1 << k)
                mother = -ONE if rescaled < 4 else ONE
                expected = SQRT2 ** k * mother
                assert haar_cell_value(g, rect, ((0,),), cell) == expected, (k, p, cell)


@pytest.mark.parametrize("depth", [(2, 2), (2, 0)], ids=["depth-2", "depth-0"])
def test_random_function_needs_a_level_bound_per_parameter(depth):
    # a short bound tuple fails, also where the unbounded parameter has no
    # strict slot to draw
    with pytest.raises(IndexError):
        random_haar_function(GridSpec((1, 1), depth), np.random.default_rng(0), max_levels=(1,))
