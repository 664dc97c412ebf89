import numpy as np

from dyadlab.grid import GridSpec
from dyadlab.scalar import Scalar
from dyadlab.stepfn import StepFunction


def grid1(depth=2):
    return GridSpec((1,), (depth,))


def test_arithmetic_exact():
    g = grid1()
    f = StepFunction(g, {((0,),): Scalar(1), ((1,),): Scalar(0, 1)})
    h = StepFunction(g, {((1,),): Scalar(0, -1), ((2,),): Scalar(2)})
    s = f + h
    assert s.value_at(((0,),)) == Scalar(1)
    assert s.value_at(((1,),)).is_zero
    assert (f - f).is_zero
    assert (f * h).value_at(((1,),)) == Scalar(-2)  # sqrt2 * -sqrt2
    assert (f * Scalar(2)).value_at(((0,),)) == Scalar(2)
    assert (2 * f).value_at(((0,),)) == Scalar(2)


def test_norms_and_integral():
    g = grid1(1)
    f = StepFunction(g, {((0,),): Scalar(3), ((1,),): Scalar(-1)})
    assert f.integral() == Scalar(1)  # (3 - 1)/2
    assert f.l2_norm_sq() == Scalar(5)  # (9 + 1)/2


def test_to_array_order():
    g = grid1(1)
    f = StepFunction(g, {((0,),): Scalar(2), ((1,),): Scalar(0, 1)})
    assert np.allclose(f.to_array(), [2.0, np.sqrt(2.0)])
