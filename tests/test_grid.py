import itertools
from fractions import Fraction

import pytest

from dyadlab import haar
from dyadlab.grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    enumerate_rectangles,
    strict_signatures,
    all_ones,
    is_strict,
    sig_xnor,
    unit_cube,
)


def _children(cube):
    return [cube.child(i) for i in range(1 << cube.d)]


def test_children_of_unit_interval():
    kids = _children(unit_cube(1))
    assert [(c.level, c.pos) for c in kids] == [(1, (0,)), (1, (1,))]


def test_children_of_unit_square():
    kids = _children(unit_cube(2))
    assert [c.pos for c in kids] == [(0, 0), (1, 0), (0, 1), (1, 1)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_children_count_and_partition(d):
    cube = DyadicCube(d, 1, (1,) * d)
    kids = _children(cube)
    assert len(set(kids)) == 1 << d
    cells = set()
    for k in kids:
        assert cube.contains(k)
        assert k.volume * (1 << d) == cube.volume
        cells.update(k.cell_positions(3))
    assert cells == set(cube.cell_positions(3))


def test_parent_child_roundtrip():
    # the Haar pyramid reads a cube's parent and child index off its position
    for cube in (DyadicCube(1, 2, (3,)), DyadicCube(2, 2, (1, 3)), DyadicCube(3, 1, (0, 1, 1))):
        for idx in range(1 << cube.d):
            assert haar._parent(cube.child(idx).pos) == (cube.pos, idx)


def test_cube_validation():
    with pytest.raises(ValueError):
        DyadicCube(1, 1, (2,))
    with pytest.raises(ValueError):
        DyadicCube(1, -1, (0,))
    with pytest.raises(ValueError):
        unit_cube(1).child(2)


def test_signatures():
    assert strict_signatures(1) == [(0,)]
    assert len(strict_signatures(2)) == 3
    assert all_ones(2) == (1, 1)
    assert not is_strict((1, 1))
    assert is_strict((0, 1))
    assert sig_xnor((0,), (0,)) == (1,)
    assert sig_xnor((0, 1), (1, 1)) == (0, 1)


@pytest.mark.parametrize(
    "dims,depth,count",
    [((1,), (2,), 7), ((1, 1), (2, 2), 49), ((2,), (1,), 5)],
)
def test_enumerate_rectangles_count(dims, depth, count):
    assert len(enumerate_rectangles(GridSpec(dims, depth))) == count


def test_rectangle_volume_and_containment():
    r = DyadicRectangle((DyadicCube(1, 1, (0,)), DyadicCube(2, 1, (1, 0))))
    assert r.volume == Fraction(1, 8)
    smaller = DyadicRectangle((DyadicCube(1, 2, (1,)), DyadicCube(2, 1, (1, 0))))
    assert r.contains(smaller)
    assert not smaller.contains(r)
    assert smaller.volume < r.volume


def test_containment_is_partial_order():
    grid = GridSpec((1,), (2,))
    rects = enumerate_rectangles(grid)
    for a, b in itertools.product(rects, repeat=2):
        if a.contains(b) and b.contains(a):
            assert a == b
        if a.contains(b):
            assert a.volume >= b.volume


def test_grid_cells():
    g = GridSpec((1, 1), (1, 2))
    cells = list(g.cells())
    assert len(cells) == g.cell_count == 8
    assert cells[0] == ((0,), (0,))
    assert g.cell_volume == Fraction(1, 8)
    assert float(g.cell_volume_scalar()) == 1 / 8


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((1,), (1, 2))
    with pytest.raises(ValueError):
        GridSpec((0,), (1,))
