from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import paraproduct
from dyadlab.errors import CapExceededError
from dyadlab.grid import DyadicCube, DyadicRectangle, GridSpec, enumerate_rectangles
from dyadlab.haar import haar_coefficient, haar_function, random_haar_function
from dyadlab.paraproduct import (
    BMO_MODES,
    ParaproductSpec,
    apply_paraproduct,
    bmo_norm,
    random_signs,
)
from dyadlab.scalar import Scalar, ZERO, sqrt2_pow
from dyadlab.stepfn import StepFunction


G1 = GridSpec((1,), (2,))
G11 = GridSpec((1, 1), (2, 2))

SPEC1 = ParaproductSpec(((0,),), ((0,),), ((1,),))


def interval(level, p):
    return DyadicRectangle((DyadicCube(1, level, (p,)),))


def h0(grid=G1):
    return haar_function(grid, grid.unit_rectangle(), tuple((0,) * d for d in grid.dims))


def test_admissibility():
    assert SPEC1.is_admissible() and SPEC1.is_bmo_admissible()
    two_ones = ParaproductSpec(((1,),), ((1,),), ((0,),))
    assert not two_ones.is_admissible()
    bmo_slot = ParaproductSpec(((1,),), ((0,),), ((0,),))
    assert bmo_slot.is_admissible() and not bmo_slot.is_bmo_admissible()
    mixed = ParaproductSpec(((0,), (1,)), ((0,), (0,)), ((1,), (0,)))
    assert mixed.is_admissible() and not mixed.is_bmo_admissible()


def test_bilinearity_in_zero():
    f = h0()
    assert apply_paraproduct(SPEC1, StepFunction.zero(G1), f).is_zero
    assert apply_paraproduct(SPEC1, f, StepFunction.zero(G1)).is_zero


def test_bilinearity_exact():
    rng = np.random.default_rng(8)
    b1 = random_haar_function(G1, rng)
    b2 = random_haar_function(G1, rng)
    f = random_haar_function(G1, rng)
    lhs = apply_paraproduct(SPEC1, b1 + b2, f)
    rhs = apply_paraproduct(SPEC1, b1, f) + apply_paraproduct(SPEC1, b2, f)
    assert lhs == rhs
    assert apply_paraproduct(SPEC1, b1 * Scalar(3), f) == apply_paraproduct(
        SPEC1, b1, f
    ) * Scalar(3)


def test_single_term_survives():
    # B(h0, h0) with output on the all-ones slot: only the unit rectangle
    # contributes; checked against a brute-force sum over all 7 rectangles
    out = apply_paraproduct(SPEC1, h0(), h0())
    assert out == StepFunction.constant(G1, 1)
    brute = StepFunction.zero(G1)
    for rect in enumerate_rectangles(G1):
        if rect.factors[0].level >= 2:
            continue
        c1 = haar_coefficient(h0(), rect, ((0,),))
        c2 = haar_coefficient(h0(), rect, ((0,),))
        term = c1 * c2 * sqrt2_pow(sum(c.level * c.d for c in rect.factors))
        brute = brute + term * haar_function(G1, rect, ((1,),))
    assert brute == out


def test_sign_flip_changes_by_twice_the_term():
    rng = np.random.default_rng(9)
    b = random_haar_function(G1, rng)
    f = random_haar_function(G1, rng)
    base = apply_paraproduct(SPEC1, b, f)
    target = interval(1, 0)
    flipped_spec = ParaproductSpec(
        SPEC1.eps1, SPEC1.eps2, SPEC1.eps3, lambda r: -1 if r == target else 1
    )
    flipped = apply_paraproduct(flipped_spec, b, f)
    c1 = haar_coefficient(b, target, ((0,),))
    c2 = haar_coefficient(f, target, ((0,),))
    rsqrt = sqrt2_pow(sum(c.level * c.d for c in target.factors))
    term = c1 * c2 * rsqrt * haar_function(G1, target, ((1,),))
    assert base - flipped == term * Scalar(2)


# -- BMO ------------------------------------------------------------------------


def test_bmo_single_haar_exact():
    for rect, grid in [
        (interval(1, 0), G1),
        (
            DyadicRectangle((DyadicCube(1, 1, (1,)), DyadicCube(1, 0, (0,)))),
            G11,
        ),
    ]:
        sig = tuple((0,) * d for d in grid.dims)
        h = haar_function(grid, rect, sig)
        for mode in ("rectangle-sup", "greedy-union", "exact-bruteforce"):
            est = bmo_norm(h, mode)
            a, b = est.sq_value(grid)
            assert (a, b) == (1 / rect.volume, Fraction(0)), (mode, rect)
            assert est.witness == frozenset(rect.cell_keys(grid.depth))


def test_bmo_constant_zero():
    for mode in ("rectangle-sup", "greedy-union", "exact-bruteforce"):
        est = bmo_norm(StepFunction.constant(G1, Scalar(5)), mode)
        assert est.value == 0.0 and est.mass == ZERO


def test_bmo_mode_monotonicity_seeded():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        b = random_haar_function(G11, rng)
        rect = bmo_norm(b, "rectangle-sup")
        greedy = bmo_norm(b, "greedy-union")
        exact = bmo_norm(b, "exact-bruteforce")
        assert rect.sq_leq(greedy)
        assert greedy.sq_leq(exact)


def test_bmo_rectangle_sup_dominates_single_coefficient():
    rng = np.random.default_rng(123)
    b = random_haar_function(G11, rng)
    from dyadlab.haar import analyze
    from dyadlab.grid import is_strict

    est = bmo_norm(b, "rectangle-sup")
    a, bb = est.sq_value(G11)
    best = max(
        (
            float(c) ** 2 / float(rect.volume)
            for (rect, sig), c in analyze(b).coeffs.items()
            if all(is_strict(s) for s in sig)
        ),
        default=0.0,
    )
    assert float(a) + float(bb) * np.sqrt(2) >= best - 1e-12


def test_bmo_exact_cap():
    grid = GridSpec((1,), (5,))  # 32 cells > 20-bit cap
    rng = np.random.default_rng(0)
    b = random_haar_function(grid, rng)
    with pytest.raises(CapExceededError):
        bmo_norm(b, "exact-bruteforce")


def test_bmo_exact_bigint_path_matches_kernel():
    # huge coefficients push past the int64 bound and into the Python path
    rng = np.random.default_rng(1)
    b = random_haar_function(G1, rng)
    big = b * Scalar(1 << 40)
    small = bmo_norm(b, "exact-bruteforce")
    scaled = bmo_norm(big, "exact-bruteforce")
    assert scaled.witness == small.witness
    assert scaled.mass == small.mass * Scalar(1 << 80)


UNIT = Scalar(3, -2)  # 3 - 2*sqrt2: its powers make a + b*sqrt2 cancel


def assert_ordered_and_finite(b):
    rect, greedy, exact = (bmo_norm(b, mode) for mode in BMO_MODES)
    assert rect.sq_leq(greedy) and greedy.sq_leq(exact)
    assert all(math.isfinite(est.value) for est in (rect, greedy, exact))
    return exact


def test_bmo_modes_on_a_cancelling_symbol():
    # x on one cell and -x on the other, x = (99 - 70*sqrt2)**3 ~ 1.3e-7
    x = Scalar(99, -70) ** 3
    grid = GridSpec((1,), (1,))
    left, right = grid.cells()
    exact = assert_ordered_and_finite(StepFunction(grid, {left: x, right: -x}))
    assert exact.cell_count == 2 and float(exact.mass) > 0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([((1,), (1,)), ((1,), (2,)), ((1,), (3,)), ((2,), (1,)),
                     ((1, 1), (1, 1)), ((1, 1), (2, 1)), ((3,), (1,))]),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
def test_bmo_exact_prefilter_matches_every_subset(shape, k, seed):
    # u * (3 - 2*sqrt2)**k per cell, u = (m + n*sqrt2) / 2**e drawn uniformly
    grid = GridSpec(*shape)
    rng = np.random.default_rng(seed)
    b = StepFunction(grid, {
        cell: Scalar(*map(int, rng.integers((-3, -3, 0), (4, 4, 3)))) * UNIT ** k
        for cell in grid.cells()
    })
    exact = assert_ordered_and_finite(b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paraproduct, "_INT64_BOUND", 0)  # the big-integer path keeps every subset
        assert bmo_norm(b, "exact-bruteforce") == exact


def test_empirical_bound_single_haar_ratio_one():
    h = haar_function(G1, interval(1, 0), ((0,),))
    est = bmo_norm(h, "greedy-union")
    out = apply_paraproduct(SPEC1, h, h)
    ratio = float(np.sqrt(float(out.l2_norm_sq()))) / (
        est.value * float(np.sqrt(float(h.l2_norm_sq())))
    )
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_empirical_bound_skips_zero_symbol(record_fixtures):
    bound = record_fixtures.empirical_paraproduct_bound
    rows, max_ratio = bound(SPEC1, G1, seeds=[0, 1])
    assert len(rows) == 2
    rows2, _ = bound(SPEC1, GridSpec((1,), (1,)), seeds=[0])
    # depth-1 grids can produce zero symbols; skipped rows carry ratio None
    assert all("ratio" in r for r in rows2)


def test_empirical_bound_requires_bmo_admissible(record_fixtures):
    with pytest.raises(ValueError):
        record_fixtures.empirical_paraproduct_bound(
            ParaproductSpec(((1,),), ((0,),), ((0,),)), G1, seeds=[0]
        )


def _load_fixture():
    import json
    from pathlib import Path

    with open(Path(__file__).parent / "fixtures" / "paraproduct_ratio.json") as fh:
        return json.load(fh)


def test_empirical_bound_matches_recorded_depths(record_fixtures):
    # seeded runs reproduce the recorded maxima and stay finite and stable
    fix = _load_fixture()["max_ratio_by_depth"]
    maxima = {}
    for depth in (3, 4, 5):
        grid = GridSpec((1,), (depth,))
        _, max_ratio = record_fixtures.empirical_paraproduct_bound(SPEC1, grid, range(10))
        assert np.isfinite(max_ratio)
        assert max_ratio == pytest.approx(fix[str(depth)], abs=1e-8)
        maxima[depth] = max_ratio
    spread = max(maxima.values()) / min(maxima.values())
    assert spread < 1.5  # stable across depths


def test_sign_flip_ratio_within_recorded_envelope():
    fix = _load_fixture()["signflip"]
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b = random_haar_function(GridSpec((1,), (4,)), rng)
        f = random_haar_function(GridSpec((1,), (4,)), rng)
        base = apply_paraproduct(SPEC1, b, f)
        base_norm = float(np.sqrt(float(base.l2_norm_sq())))
        if base_norm == 0.0:
            continue
        flipped_spec = ParaproductSpec(
            SPEC1.eps1, SPEC1.eps2, SPEC1.eps3, random_signs(GridSpec((1,), (4,)), seed + 1000)
        )
        flipped = apply_paraproduct(flipped_spec, b, f)
        ratios.append(float(np.sqrt(float(flipped.l2_norm_sq()))) / base_norm)
    assert min(ratios) == pytest.approx(fix["min"], abs=1e-8)
    assert max(ratios) == pytest.approx(fix["max"], abs=1e-8)
