"""The three product-BMO estimators against their per-rectangle definitions.

The reference below is the estimator code that read the rectangle masses
through ``DyadicRectangle.contains`` and compared exact-mode candidates as
integer tuples.  ``bmo_norm``, which sums the masses inside every
rectangle in one sweep of the rectangle lattice, must return the same
``BmoEstimate`` in every field, witness and exact mass included: on drawn
grids with at most two parameters, dimensions up to 2 and at most 64
cells, and on seeded grids up to the benchmark's 128 cells and three
parameters.  Exact mode runs up to 16 cells; on larger grids both sides
must raise the same cap error.  Symbols cover the int64 and the
big-integer paths, ``sqrt(2)`` masses, a single Haar function, a
constant, and values ``u * (3 - 2*sqrt(2))**k`` whose masses cancel in
floats.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import paraproduct
from dyadlab._kernels import _zeta_sos_loop, popcounts, zeta_sos
from dyadlab.errors import CapExceededError
from dyadlab.grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    enumerate_rectangles,
    is_strict,
    strict_signatures,
)
from dyadlab.haar import analyze, haar_function, random_haar_function
from dyadlab.paraproduct import BMO_MODES, BmoEstimate, bmo_norm
from dyadlab.scalar import ZERO, Scalar
from dyadlab.stepfn import StepFunction

MAX_CELL_BITS = 6
SYMBOLS = ("random", "big", "root2", "haar", "constant")
UNIT = Scalar(3, -2)  # 3 - 2*sqrt2: its powers make a + b*sqrt2 cancel


# -- reference ------------------------------------------------------------------


def _rect_masses(b: StepFunction):
    """Strict coefficient mass per rectangle: sum over strict signatures."""
    e = analyze(b)
    masses: dict = {}
    for (rect, vecsig), c in e.coeffs.items():
        if not all(is_strict(sig) for sig in vecsig):
            continue
        cur = masses.get(rect)
        add = c * c
        masses[rect] = add if cur is None else cur + add
    return masses


def _mass_inside(masses, region: DyadicRectangle) -> Scalar:
    total = ZERO
    for rect, m in masses.items():
        if region.contains(rect):
            total = total + m
    return total


def _ratio_gt(mass_a, count_a, mass_b, count_b) -> bool:
    return mass_a * count_b > mass_b * count_a


def _rectangle_sup(b: StepFunction, masses):
    grid = b.grid
    best = None
    for region in enumerate_rectangles(grid):
        mass = _mass_inside(masses, region)
        count = 1
        for cube, n, d in zip(region.factors, grid.depth, grid.dims):
            count <<= (n - cube.level) * d
        if best is None or _ratio_gt(mass, count, best[0], best[1]):
            best = (mass, count, region)
    mass, count, region = best
    witness = frozenset(region.cell_keys(grid.depth))
    return mass, count, witness


def _greedy_union(b: StepFunction, masses):
    grid = b.grid
    mass, count, witness = _rectangle_sup(b, masses)
    cells = list(grid.cells())
    cell_index = {c: i for i, c in enumerate(cells)}
    rect_masks = []
    for rect, m in masses.items():
        mask = 0
        for cell in rect.cell_keys(grid.depth):
            mask |= 1 << cell_index[cell]
        rect_masks.append((mask, m))
    cur_mask = 0
    for cell in witness:
        cur_mask |= 1 << cell_index[cell]

    def mass_of(mask):
        total = ZERO
        for rmask, m in rect_masks:
            if rmask & mask == rmask:
                total = total + m
        return total

    while True:
        best_step = None
        for i in range(len(cells)):
            bit = 1 << i
            if cur_mask & bit:
                continue
            m = mass_of(cur_mask | bit)
            if best_step is None or m > best_step[0]:
                best_step = (m, i)
        if best_step is None:
            break
        m, i = best_step
        if _ratio_gt(m, count + 1, mass, count):
            cur_mask |= 1 << i
            mass = m
            count += 1
        else:
            break
    witness = frozenset(c for i, c in enumerate(cells) if cur_mask & (1 << i))
    return mass, count, witness


def _pair_ratio_gt(x, y) -> bool:
    """(a1 + b1*sqrt2)/c1 > (a2 + b2*sqrt2)/c2 for positive integer counts."""
    a1, b1, c1, _ = x
    a2, b2, c2, _ = y
    return Scalar(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, 0) > 0


def _exact_bruteforce(b: StepFunction, masses, cap_bits: int):
    grid = b.grid
    cells = list(grid.cells())
    ncells = len(cells)
    if ncells > cap_bits:
        raise CapExceededError(f"{ncells} cells exceed the exact-mode cap of {cap_bits}")
    cell_index = {c: i for i, c in enumerate(cells)}
    entries = []
    max_e = 0
    for rect, m in masses.items():
        mask = 0
        for cell in rect.cell_keys(grid.depth):
            mask |= 1 << cell_index[cell]
        entries.append((mask, m))
        max_e = max(max_e, m.e)
    n_subsets = 1 << ncells
    scaled = [(mask, m.m << (max_e - m.e), m.n << (max_e - m.e)) for mask, m in entries]
    bound_a = sum(abs(a) for _, a, _ in scaled)
    bound_b = sum(abs(bb) for _, _, bb in scaled)

    def better(cand, best):
        return best is None or _pair_ratio_gt(cand, best) or (
            not _pair_ratio_gt(best, cand) and (cand[2], cand[3]) < (best[2], best[3])
        )

    subsets = range(1, n_subsets)
    if bound_a < 1 << 62 and bound_b < 1 << 62:
        a = np.zeros(n_subsets, dtype=np.int64)
        bvec = np.zeros(n_subsets, dtype=np.int64)
        for mask, am, bm in scaled:
            a[mask] += am
            bvec[mask] += bm
        zeta_sos(a, bvec, ncells)
        pc = popcounts(n_subsets)
        if all(bm >= 0 for _, _, bm in scaled):
            # no sqrt2 part is negative, so the float sums cannot cancel:
            # only subsets near the float maximum can win
            with np.errstate(invalid="ignore"):
                vals = (a.astype(np.float64) + bvec.astype(np.float64) * np.sqrt(2.0)) / (
                    np.maximum(pc, 1)
                )
            vals[0] = -np.inf
            vmax = float(vals.max())
            tol = abs(vmax) * 1e-9 + 1e-300
            subsets = np.nonzero(vals >= vmax - tol)[0].tolist()
        a, bvec, pc = a.tolist(), bvec.tolist(), pc.tolist()
    else:
        a = [0] * n_subsets
        bvec = [0] * n_subsets
        for mask, am, bm in scaled:
            a[mask] += am
            bvec[mask] += bm
        _zeta_sos_loop(a, bvec, ncells)
        pc = [bin(u).count("1") for u in range(n_subsets)]
    best = None
    for u in subsets:
        cand = (a[u], bvec[u], pc[u], u)
        if better(cand, best):
            best = cand
    am, bm, count, umask = best
    witness = frozenset(c for i, c in enumerate(cells) if umask & (1 << i))
    return Scalar(am, bm, max_e), count, witness


def reference_bmo_norm(b: StepFunction, mode: str, cap_bits: int = 20) -> BmoEstimate:
    grid = b.grid
    masses = _rect_masses(b)
    if not masses:
        return BmoEstimate(mode, 0.0, frozenset(), ZERO, 0)
    if mode == "rectangle-sup":
        mass, count, witness = _rectangle_sup(b, masses)
    elif mode == "greedy-union":
        mass, count, witness = _greedy_union(b, masses)
    else:
        mass, count, witness = _exact_bruteforce(b, masses, cap_bits)
    value = float(np.sqrt(float(mass) / (count * float(grid.cell_volume))))
    return BmoEstimate(mode, value, witness, mass, count)


# -- inputs ---------------------------------------------------------------------------


def symbol(grid: GridSpec, kind: str, seed: int) -> StepFunction:
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return StepFunction.constant(grid, Scalar(3))
    if kind == "haar":
        if 0 in grid.depth:
            return StepFunction.zero(grid)
        factors, sig = [], []
        for d, n in zip(grid.dims, grid.depth):
            level = int(rng.integers(0, n))
            factors.append(DyadicCube(d, level, tuple(int(p) for p in rng.integers(0, 1 << level, d))))
            sig.append(strict_signatures(d)[int(rng.integers(0, (1 << d) - 1))])
        return haar_function(grid, DyadicRectangle(tuple(factors)), tuple(sig))
    if kind == "unit":
        k = int(rng.integers(0, 7))
        return StepFunction(grid, {
            cell: Scalar(*map(int, rng.integers((-3, -3, 0), (4, 4, 3)))) * UNIT ** k
            for cell in grid.cells()
        })
    f = random_haar_function(grid, rng)
    scale = {"random": Scalar(1), "big": Scalar(1 << 40), "root2": Scalar(0, 1, 7)}[kind]
    return f * scale


def outcome(fn, b, mode):
    try:
        est = fn(b, mode)
    except CapExceededError as exc:
        return ("cap", str(exc))
    return (est.mode, est.value, est.witness, est.mass, est.cell_count)


def check_all_modes(grid: GridSpec, kind: str, seed: int) -> None:
    b = symbol(grid, kind, seed)
    cell_bits = sum(d * n for d, n in zip(grid.dims, grid.depth))
    for mode in BMO_MODES:
        if mode == "exact-bruteforce" and kind == "big" and cell_bits == 4:
            # 2**16 subsets summed and scanned in Python integers: ~1 s a side
            continue
        want = outcome(reference_bmo_norm, b, mode)
        assert outcome(bmo_norm, b, mode) == want, (grid, kind, seed, mode)


@st.composite
def grids(draw, budget=MAX_CELL_BITS):
    t = draw(st.integers(1, 2))
    dims, depth = [], []
    for _ in range(t):
        d = draw(st.integers(1, 2))
        n = draw(st.integers(0, min(3 if t == 2 else 6, budget // d)))
        budget -= d * n
        dims.append(d)
        depth.append(n)
    return GridSpec(tuple(dims), tuple(depth))


@settings(max_examples=40, deadline=None)
@given(grids(), st.sampled_from(SYMBOLS), st.integers(0, 2**16))
def test_bmo_norm_matches_reference(grid, kind, seed):
    check_all_modes(grid, kind, seed)


# Seeded grids on which equal rectangle ratios occur, so a scan that let a
# later rectangle of equal ratio win would change the witness.
@pytest.mark.parametrize(
    "dims, depth", [((1,), (2,)), ((1,), (3,)), ((1,), (4,)), ((1, 1), (1, 1)), ((1, 1), (2, 1))]
)
def test_bmo_norm_matches_reference_seeded(dims, depth):
    grid = GridSpec(dims, depth)
    for seed in range(12):
        for kind in ("random", "root2"):
            check_all_modes(grid, kind, seed)
    for kind in ("big", "haar", "constant"):
        check_all_modes(grid, kind, 0)


# The norms benchmark's d = 1 grids up to 128 cells, and 16-cell grids with
# t = 2 and t = 3, where the reference greedy loop scans every cell.
@pytest.mark.parametrize(
    "dims, depth",
    [((1,), (5,)), ((1,), (6,)), ((1,), (7,)), ((2, 1), (1, 2)), ((1, 1, 1), (1, 1, 2))],
)
@pytest.mark.parametrize("kind", ["random", "root2", "big"])
def test_bmo_norm_matches_reference_on_larger_grids(dims, depth, kind):
    check_all_modes(GridSpec(dims, depth), kind, 0)


def test_bmo_norm_matches_reference_on_a_cancelling_symbol():
    # x on one cell and -x on the other, x = (99 - 70*sqrt2)**3: the float
    # masses cancel, and a float window would drop the 2-cell maximum
    x = Scalar(99, -70) ** 3
    grid = GridSpec((1,), (1,))
    left, right = grid.cells()
    b = StepFunction(grid, {left: x, right: -x})
    for mode in BMO_MODES:
        assert outcome(bmo_norm, b, mode) == outcome(reference_bmo_norm, b, mode), mode
    assert reference_bmo_norm(b, "exact-bruteforce").cell_count == 2


# u * (3 - 2*sqrt2)**k per cell, on at most 8 cells: masses with negative
# sqrt2 parts make the reference select over every subset
@settings(max_examples=40, deadline=None)
@given(grids(budget=3), st.integers(0, 2**16))
def test_bmo_norm_matches_reference_on_unit_powers(grid, seed):
    check_all_modes(grid, "unit", seed)


# Python integers everywhere: with the int64 bound at 0 the lattice sweep
# and the exact selection run on object arrays, where no float filter
# drops a candidate.
@pytest.mark.parametrize(
    "dims, depth", [((1,), (3,)), ((1,), (5,)), ((2,), (2,)), ((1, 1), (2, 2)), ((2, 1), (1, 1))]
)
@pytest.mark.parametrize("kind", ["random", "unit", "big"])
def test_bmo_big_integer_path_matches_int64(dims, depth, kind):
    grid = GridSpec(dims, depth)
    for seed in range(3):
        b = symbol(grid, kind, seed)
        want = [bmo_norm(b, mode) for mode in ("rectangle-sup", "greedy-union")]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paraproduct, "_INT64_BOUND", 0)
            got = [bmo_norm(b, mode) for mode in ("rectangle-sup", "greedy-union")]
        assert got == want, (grid, kind, seed)


# With one parameter no union of cells beats its best dyadic cube, and on
# any grid no single cell added to the best rectangle completes another
# rectangle with strict mass: greedy-union returns rectangle-sup's answer.
@pytest.mark.parametrize(
    "dims, depth",
    [((1,), (0,)), ((1,), (1,)), ((1,), (2,)), ((1,), (3,)), ((1,), (4,)),
     ((2,), (1,)), ((2,), (2,)), ((3,), (1,))],
)
@pytest.mark.parametrize("kind", ["random", "unit"])
def test_one_parameter_unions_never_beat_the_best_rectangle(dims, depth, kind):
    grid = GridSpec(dims, depth)
    # unit masses cancel, so exact mode compares all 2**16 subsets of a
    # 16-cell grid exactly: ~1.5 s a symbol
    for seed in range(1 if kind == "unit" and grid.cell_count > 8 else 6):
        b = symbol(grid, kind, seed)
        rect, greedy, exact = (bmo_norm(b, mode) for mode in BMO_MODES)
        assert exact.sq_leq(rect) and rect.sq_leq(exact), (grid, kind, seed)
        assert dataclasses.replace(greedy, mode=rect.mode) == rect, (grid, kind, seed)


@pytest.mark.parametrize(
    "dims, depth", [((1, 1), (2, 2)), ((1, 1), (3, 2)), ((2, 1), (1, 2)), ((1, 1, 1), (1, 1, 2))]
)
@pytest.mark.parametrize("kind", ["random", "unit", "haar"])
def test_greedy_union_never_grows_the_best_rectangle(dims, depth, kind):
    grid = GridSpec(dims, depth)
    for seed in range(4):
        b = symbol(grid, kind, seed)
        rect, greedy = (bmo_norm(b, mode) for mode in ("rectangle-sup", "greedy-union"))
        assert dataclasses.replace(greedy, mode=rect.mode) == rect, (grid, kind, seed)
        assert dataclasses.replace(reference_bmo_norm(b, "greedy-union"), mode=rect.mode) == rect
