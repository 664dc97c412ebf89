"""The integer-pyramid Haar transform against the per-cell definitions.

``haar_coefficient`` and ``haar_cell_value`` define the Haar system cell
by cell; ``analyze``, ``synthesize`` and ``haar_pattern_sums`` must agree
with them exactly on every grid with at most two parameters, dimensions
up to 3, depths 0-3 and at most 64 cells.  ``DyadicCube.haar_sign`` must
give the sign of both on every cell of a subcube.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    all_ones,
    is_strict,
    strict_signatures,
    unit_cube,
)
from dyadlab.haar import (
    HaarExpansion,
    analyze,
    haar_basis_keys,
    haar_cell_value,
    haar_coefficient,
    haar_pattern_sums,
    mean_key,
    synthesize,
)
from dyadlab.scalar import ONE, ZERO, Scalar, sqrt2_pow
from dyadlab.stepfn import StepFunction

MAX_CELL_BITS = 6

# (m + n*sqrt(2)) / 2**e with mixed denominators and sqrt(2) parts
scalars = st.builds(
    Scalar, st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 6)
)


@st.composite
def grids(draw):
    t = draw(st.integers(1, 2))
    dims, depth, budget = [], [], MAX_CELL_BITS
    for _ in range(t):
        d = draw(st.integers(1, 3))
        n = draw(st.integers(0, min(3, budget // d)))
        budget -= d * n
        dims.append(d)
        depth.append(n)
    return GridSpec(tuple(dims), tuple(depth))


@st.composite
def step_functions(draw):
    grid = draw(grids())
    cells = list(grid.cells())
    kind = draw(st.sampled_from(["empty", "constant", "sparse", "dense"]))
    if kind == "empty":
        values = {}
    elif kind == "constant":
        c = draw(scalars)
        values = {cell: c for cell in cells}
    elif kind == "sparse":
        chosen = draw(st.lists(st.sampled_from(cells), max_size=4))
        values = {cell: draw(scalars) for cell in chosen}
    else:
        values = {cell: draw(scalars) for cell in cells}
    return StepFunction(grid, values)


@st.composite
def slot(draw, d, n):
    """A (cube, signature) pair of one parameter; all-ones at any level."""
    level = draw(st.integers(0, n))
    pos = tuple(draw(st.integers(0, (1 << level) - 1)) for _ in range(d))
    sigs = [all_ones(d)]
    if level < n:
        sigs += strict_signatures(d)
    return DyadicCube(d, level, pos), draw(st.sampled_from(sigs))


@st.composite
def expansions(draw):
    """Coefficients on arbitrary resolvable keys, including all-ones parts
    at every level (the keys paraproduct outputs use)."""
    grid = draw(grids())
    coeffs = {mean_key(grid): draw(scalars)}
    for _ in range(draw(st.integers(0, 6))):
        parts = [draw(slot(d, n)) for d, n in zip(grid.dims, grid.depth)]
        key = (DyadicRectangle(tuple(c for c, _ in parts)), tuple(s for _, s in parts))
        coeffs[key] = draw(scalars)
    return HaarExpansion(grid, coeffs)


def synthesize_by_cells(e: HaarExpansion) -> StepFunction:
    grid = e.grid
    values = {cell: ZERO for cell in grid.cells()}
    for (rect, vecsig), c in e.coeffs.items():
        for cell in rect.cell_keys(grid.depth):
            values[cell] = values[cell] + c * haar_cell_value(grid, rect, vecsig, cell)
    return StepFunction(grid, values)


@settings(max_examples=80, deadline=None)
@given(step_functions())
def test_analyze_matches_haar_coefficient(f):
    keys = haar_basis_keys(f.grid)
    e = analyze(f)
    assert e.mean == haar_coefficient(f, *keys[0])
    want = {}
    for key in keys:
        c = haar_coefficient(f, *key)
        if not c.is_zero:
            want[key] = c
    assert e.coeffs == want
    assert synthesize(e) == f


@settings(max_examples=80, deadline=None)
@given(expansions())
def test_synthesize_matches_haar_cell_value(e):
    assert synthesize(e) == synthesize_by_cells(e)


@settings(max_examples=60, deadline=None)
@given(step_functions(), st.data())
def test_pattern_sums_are_scaled_coefficients(f, data):
    """The restricted forward pass covers every rectangle where its vector
    signature resolves, all-ones parts down to the cells."""
    grid = f.grid
    vecsig = tuple(
        data.draw(st.sampled_from([all_ones(d)] + strict_signatures(d)))
        for d in grid.dims
    )
    sums, e = haar_pattern_sums(f, vecsig)
    per_param = []
    for s, (d, n, sig) in enumerate(zip(grid.dims, grid.depth, vecsig)):
        top = n - 1 if is_strict(sig) else n
        per_param.append(list(grid.cubes(s, top)))
    cell_e = sum(d * n for d, n in zip(grid.dims, grid.depth))
    seen = 0
    for cubes in itertools.product(*per_param):
        rect = DyadicRectangle(cubes)
        want = haar_coefficient(f, rect, vecsig)
        slots = tuple((c.level, c.pos, sig) for c, sig in zip(cubes, vecsig))
        m, n = sums.get(slots, (0, 0))
        seen += slots in sums
        got = Scalar(m, n, e + cell_e) * sqrt2_pow(sum(c.level * c.d for c in rect.factors))
        assert got == want, rect
    assert seen == len(sums)


def test_synthesize_rejects_strict_key_at_finest_level():
    grid = GridSpec((1,), (2,))
    rect = DyadicRectangle((DyadicCube(1, 2, (1,)),))
    with pytest.raises(ValueError):
        synthesize(HaarExpansion(grid, {(rect, ((0,),)): ONE}))


# -- DyadicCube.haar_sign against the Haar function's values --------------------


@st.composite
def cube_and_subcube(draw):
    """A one-parameter grid, a cube above its finest level, any signature,
    and a subcube strictly inside the cube."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, MAX_CELL_BITS // d))
    k = draw(st.integers(0, n - 1))
    cube = DyadicCube(d, k, tuple(draw(st.integers(0, (1 << k) - 1)) for _ in range(d)))
    level = draw(st.integers(k + 1, n))
    below = (1 << (level - k)) - 1
    pos = tuple((p << (level - k)) + draw(st.integers(0, below)) for p in cube.pos)
    sig = draw(st.sampled_from(list(itertools.product((0, 1), repeat=d))))
    return GridSpec((d,), (n,)), cube, sig, level, pos


def _sign(x: Scalar) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=100, deadline=None)
@given(cube_and_subcube())
def test_haar_sign_is_the_sign_on_every_cell_of_the_subcube(case):
    grid, cube, sig, level, pos = case
    rect = DyadicRectangle((cube,))
    pyramid = synthesize(HaarExpansion(grid, {(rect, (sig,)): ONE}))
    sign = cube.haar_sign(sig, level, pos)
    for cell in DyadicCube(cube.d, level, pos).cell_positions(grid.depth[0]):
        assert _sign(haar_cell_value(grid, rect, (sig,), (cell,))) == sign
        assert _sign(pyramid.value_at((cell,))) == sign


# -- haar_basis_keys against the per-cell combo-table enumeration ---------------


def _key_sort(key):
    """The reference basis order: per parameter ``(level, pos, sig)``,
    compared parameter by parameter."""
    rect, vecsig = key
    return tuple(
        (cube.level, cube.pos, sig) for cube, sig in zip(rect.factors, vecsig)
    )


def combo_table_keys(grid: GridSpec) -> tuple:
    """Every non-constant key meeting some cell, gathered cell by cell as
    the per-cell combo table did, then sorted; the mean key first."""
    per_param_slots = []
    for s in range(grid.t):
        d, n = grid.dims[s], grid.depth[s]
        table = {}
        for part in itertools.product(range(1 << n), repeat=d):
            slots = [(unit_cube(d), all_ones(d))]
            for k in range(n):
                cube = DyadicCube(d, k, tuple(p >> (n - k) for p in part))
                slots.extend((cube, sig) for sig in strict_signatures(d))
            table[part] = slots
        per_param_slots.append(table)
    seen = set()
    for cell in grid.cells():
        opts = [per_param_slots[s][cell[s]] for s in range(grid.t)]
        for combo in itertools.product(*opts):
            if all(not is_strict(sig) for _, sig in combo):
                continue
            rect = DyadicRectangle(tuple(c for c, _ in combo))
            seen.add((rect, tuple(sig for _, sig in combo)))
    return (mean_key(grid),) + tuple(sorted(seen, key=_key_sort))


@pytest.mark.parametrize(
    "dims,depth",
    [
        ((1,), (0,)),
        ((1,), (4,)),
        ((2,), (3,)),
        ((3,), (2,)),
        ((1, 1), (0, 2)),
        ((1, 1), (3, 3)),
        ((2, 1), (2, 2)),
        ((1, 1, 1), (1, 2, 1)),
        ((1, 2, 1), (2, 1, 0)),
    ],
)
def test_basis_keys_match_combo_table(dims, depth):
    grid = GridSpec(dims, depth)
    assert haar_basis_keys(grid) == combo_table_keys(grid)
