"""Coefficient-space paraproducts against the cell-space rectangle sum.

``cell_space_paraproduct`` is the definition: for every rectangle, two
per-cell Haar coefficients, their product over ``sqrt(|R|)``, and the
output Haar function written back cell by cell.  ``apply_paraproduct``
must give the same step function exactly.  On the same grids,
``Decomposition.apply``, which groups terms by their shifts, must equal
the sum of the per-term definition ``DecompositionTerm.apply``.
"""

import itertools

import numpy as np
import pytest

from dyadlab import commutator as comm
from dyadlab.grid import (
    GridSpec,
    all_ones,
    enumerate_rectangles,
    is_strict,
    strict_signatures,
)
from dyadlab.haar import haar_cell_value, haar_coefficient, random_haar_function
from dyadlab.paraproduct import ParaproductSpec, apply_paraproduct, random_signs
from dyadlab.scalar import sqrt2_pow
from dyadlab.shift import ShiftMap
from dyadlab.stepfn import StepFunction


def _resolvable(grid, rect, vecsig) -> bool:
    return all(
        not (is_strict(sig) and cube.level >= n)
        for cube, sig, n in zip(rect.factors, vecsig, grid.depth)
    )


def cell_space_paraproduct(spec, f1, f2) -> StepFunction:
    grid = f1.grid
    out: dict = {}
    for rect in enumerate_rectangles(grid):
        slots = (spec.eps1, spec.eps2, spec.eps3)
        if not all(_resolvable(grid, rect, eps) for eps in slots):
            continue
        c1 = haar_coefficient(f1, rect, spec.eps1)
        if c1.is_zero:
            continue
        c2 = haar_coefficient(f2, rect, spec.eps2)
        if c2.is_zero:
            continue
        w = c1 * c2 * sqrt2_pow(sum(c.level * c.d for c in rect.factors))
        if spec.signs is not None and spec.signs(rect) < 0:
            w = -w
        for cell in rect.cell_keys(grid.depth):
            add = w * haar_cell_value(grid, rect, spec.eps3, cell)
            cur = out.get(cell)
            out[cell] = add if cur is None else cur + add
    return StepFunction(grid, out)


def _inputs(grid, seed):
    rng = np.random.default_rng(seed)
    b = random_haar_function(grid, rng)
    f = random_haar_function(grid, rng, include_mean=True)
    return b, f


DECOMPOSITION_GRIDS = [
    ((1,), (4,), "first-child"),
    ((2,), (2,), "rotating"),
    ((1, 1), (3, 3), "rotating"),
    ((2, 1), (2, 2), "first-child"),
]


@pytest.mark.parametrize("dims,depth,cube_rule", DECOMPOSITION_GRIDS)
def test_every_decomposition_term_matches_cell_space(dims, depth, cube_rule):
    grid = GridSpec(dims, depth)
    D = comm.decompose([ShiftMap.preset(d, cube_rule) for d in dims], grid)
    b, f = _inputs(grid, sum(depth))
    for term in D.terms:
        assert apply_paraproduct(term.para, b, f) == cell_space_paraproduct(
            term.para, b, f
        ), term.descriptor()


@pytest.mark.parametrize("dims,depth,cube_rule", DECOMPOSITION_GRIDS)
def test_grouped_decomposition_equals_sum_of_terms(dims, depth, cube_rule):
    grid = GridSpec(dims, depth)
    D = comm.decompose([ShiftMap.preset(d, cube_rule) for d in dims], grid)
    b, f = _inputs(grid, sum(depth))
    want = StepFunction.zero(grid)
    for term in D.terms:
        want = want + term.apply(b, f)
    assert not want.is_zero
    assert D.apply(b, f) == want


@pytest.mark.parametrize("dims,depth", [((1, 1), (2, 2)), ((2,), (2,))])
def test_every_signature_triple_with_seeded_signs(dims, depth):
    """All signature triples, admissible or not: all-ones slots reach the
    finest level, where only all-ones parts resolve; every other triple
    carries seeded random signs."""
    grid = GridSpec(dims, depth)
    b, f = _inputs(grid, 7)
    per_param = [[all_ones(d)] + strict_signatures(d) for d in dims]
    vecsigs = list(itertools.product(*per_param))
    for i, (e1, e2, e3) in enumerate(itertools.product(vecsigs, repeat=3)):
        signs = random_signs(grid, i) if i % 2 else None
        spec = ParaproductSpec(e1, e2, e3, signs)
        assert apply_paraproduct(spec, b, f) == cell_space_paraproduct(spec, b, f), spec


def test_finest_level_averages_give_the_pointwise_product():
    # all-ones in every slot: on a finest cell the term is b * f there, so
    # flipping every coarser rectangle and adding leaves twice b * f
    grid = GridSpec((1,), (3,))
    ones = ((1,),)
    b, f = _inputs(grid, 3)
    plus = apply_paraproduct(ParaproductSpec(ones, ones, ones), b, f)
    def coarse(r):
        return -1 if r.factors[0].level < 3 else 1

    flipped = apply_paraproduct(ParaproductSpec(ones, ones, ones, coarse), b, f)
    assert plus + flipped == b * f * 2
    assert plus == cell_space_paraproduct(ParaproductSpec(ones, ones, ones), b, f)
