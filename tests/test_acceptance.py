"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact criteria compare in the scalar ring (zero tolerance); float criteria
carry their stated tolerances inline.  Regression values live in
tests/fixtures/ and were recorded with the independent oracle paths
(dense SVD, direct runs) by scripts/record_fixtures.py.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from dyadlab.grid import DyadicCube, GridSpec, strict_signatures
from dyadlab.haar import (
    analyze,
    basis_function,
    haar_basis_keys,
    haar_function,
    random_haar_function,
    square_function_sq,
    synthesize,
)
from dyadlab.commutator import (
    case_evaluate,
    combine_descriptors,
    decompose,
    norm_ratio_experiment,
    one_parameter_bracket,
    operator_norm,
    single_haar_symbol,
    term_descriptors,
    verify_decomposition,
)
from dyadlab.paraproduct import bmo_norm
from dyadlab.riesz import (
    discrete_riesz,
    draw_grid_samples,
    riesz_matrix,
    sample_shift_matrix,
    span_residual,
)
from dyadlab.shift import ShiftMap, TensorShift, tensor_apply_counting

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def report(num, text, t0):
    print(f"\n[PASS] criterion {num}: {text} ({time.time() - t0:.1f}s)")


def test_criterion_1_case_table_exactness():
    t0 = time.time()
    pairs = 0
    # d=1: all interval pairs at levels <= 4, both cube presets
    g1 = GridSpec((1,), (7,))
    cubes1 = [DyadicCube(1, k, (p,)) for k in range(5) for p in range(1 << k)]
    for rule in ("first-child", "rotating"):
        smap = ShiftMap.preset(1, rule)
        for I, Ip in itertools.product(cubes1, repeat=2):
            pairs += 1
            assert case_evaluate(g1, I, (0,), Ip, (0,), smap) == one_parameter_bracket(
                g1, I, (0,), Ip, (0,), smap
            ), (rule, I, Ip)
    # d=2: all cube pairs at levels <= 2, all signature pairs, both presets
    g2 = GridSpec((2,), (5,))
    cubes2 = [
        DyadicCube(2, k, p)
        for k in range(3)
        for p in itertools.product(range(1 << k), repeat=2)
    ]
    sigs2 = strict_signatures(2)
    for rule in ("first-child", "rotating"):
        smap = ShiftMap.preset(2, rule)
        for I, Ip in itertools.product(cubes2, repeat=2):
            for e, ep in itertools.product(sigs2, repeat=2):
                pairs += 1
                assert case_evaluate(g2, I, e, Ip, ep, smap) == one_parameter_bracket(
                    g2, I, e, Ip, ep, smap
                ), (rule, I, Ip, e, ep)
    report(1, f"case table exact on {pairs} pairs, zero residual", t0)


def test_criterion_2_decomposition_identity():
    t0 = time.time()
    g1 = GridSpec((1,), (5,))
    D1 = decompose([ShiftMap.preset(1, "first-child")], g1)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        b = random_haar_function(g1, rng, max_levels=(3,))
        f = random_haar_function(g1, rng, max_levels=(3,))
        assert verify_decomposition(D1, b, f).is_zero, seed
    g2 = GridSpec((1, 1), (3, 3))
    D2 = decompose(
        [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "rotating")], g2
    )
    for seed in range(25):
        rng = np.random.default_rng(seed)
        b = random_haar_function(g2, rng, max_levels=(1, 1))
        f = random_haar_function(g2, rng, max_levels=(1, 1))
        assert verify_decomposition(D2, b, f).is_zero, seed
    report(2, "zero residual: 100 seeds at depth 5 and 25 seeds at (3,3)", t0)


def test_criterion_3_tensor_splitting():
    t0 = time.time()
    g2 = GridSpec((1, 1), (3, 3))
    g1 = GridSpec((1,), (3,))
    pairs = [
        (ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "rotating")),
        (
            ShiftMap.preset(1, "rotating"),
            ShiftMap.preset(1, ("child", 1), "identity"),
        ),
    ]
    for m1, m2 in pairs:
        d2 = term_descriptors(decompose([m1, m2], g2))
        d1a = term_descriptors(decompose([m1], g1))
        d1b = term_descriptors(decompose([m2], g1))
        assert d2 == combine_descriptors(d1a, d1b)
    report(3, "t=2 term list equals the tensor product of t=1 lists (2 map pairs)", t0)


def test_criterion_4_parseval_and_square_function():
    t0 = time.time()
    configs = [
        GridSpec((1,), (4,)),
        GridSpec((1, 1), (2, 2)),
        GridSpec((2,), (2,)),
    ]
    for grid in configs:
        for seed in range(200):
            rng = np.random.default_rng(seed)
            f = random_haar_function(grid, rng, include_mean=True)
            e = analyze(f)
            assert e.parseval_sq() == f.l2_norm_sq()
            assert square_function_sq(f).integral() == e.strict_sq_sum()
            assert synthesize(e) == f
    report(4, "exact Parseval and square-function identities, 200 seeds x 3 grids", t0)


def test_criterion_5_shift_contraction_and_duality():
    t0 = time.time()
    # exhaustive basis inputs at depth <= 3
    for grid, maps in [
        (GridSpec((1,), (3,)), [ShiftMap.preset(1, "first-child")]),
        (GridSpec((1,), (3,)), [ShiftMap.preset(1, "rotating")]),
        (
            GridSpec((1, 1), (2, 2)),
            [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "rotating")],
        ),
    ]:
        ts = TensorShift(maps)
        for key in haar_basis_keys(grid):
            f = basis_function(grid, key)
            assert tensor_apply_counting(ts, f)[0].l2_norm_sq() <= f.l2_norm_sq()
    # 100 random inputs, exact squared-norm comparison
    g = GridSpec((1,), (4,))
    smap = ShiftMap.preset(1, "first-child")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = random_haar_function(g, rng, include_mean=True)
        qf, _ = tensor_apply_counting(TensorShift.single(smap), f)
        assert qf.l2_norm_sq() <= f.l2_norm_sq()
    # duality pairing against square functions, 50 random pairs, 1e-9
    g2 = GridSpec((1, 1), (2, 2))
    ts2 = TensorShift(
        [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "first-child")]
    )
    vol = float(g2.cell_volume)
    rng = np.random.default_rng(505)
    for _ in range(50):
        f = random_haar_function(g2, rng)
        h = random_haar_function(g2, rng)
        lhs = float((tensor_apply_counting(ts2, f)[0] * h).integral())
        sf = np.sqrt(square_function_sq(f).to_array().astype(float))
        sh = np.sqrt(square_function_sq(h).to_array().astype(float))
        assert lhs <= float(np.sum(sf * sh) * vol) + 1e-9
    report(5, "exact L2 contraction (exhaustive + 100 random) and duality at 1e-9", t0)


def test_criterion_6_bmo_oracle():
    t0 = time.time()
    grid = GridSpec((1, 1), (2, 2))
    for seed in range(50):
        rng = np.random.default_rng(seed)
        b = random_haar_function(grid, rng)
        rect = bmo_norm(b, "rectangle-sup")
        greedy = bmo_norm(b, "greedy-union")
        exact = bmo_norm(b, "exact-bruteforce")
        assert rect.sq_leq(exact) and greedy.sq_leq(exact), seed
        assert rect.sq_leq(greedy), seed
    # single tensor Haar: BMO norm exactly |R|^{-1/2} in every mode
    from dyadlab.grid import DyadicRectangle

    rect = DyadicRectangle((DyadicCube(1, 1, (0,)), DyadicCube(1, 1, (1,))))
    h = haar_function(grid, rect, ((0,), (0,)))
    for mode in ("rectangle-sup", "greedy-union", "exact-bruteforce"):
        est = bmo_norm(h, mode)
        a, b2 = est.sq_value(grid)
        assert (a, b2) == (1 / rect.volume, 0), mode
    report(6, "exact brute force over 2^16-1 subsets dominates both estimators, 50 seeds", t0)


def test_criterion_7_norm_ratio_regression():
    t0 = time.time()
    fix = load_fixture("opnorm_oracle.json")
    smap = ShiftMap.preset(1, "first-child")
    ts = TensorShift.single(smap)
    for depth in (3, 4, 5, 6):
        grid = GridSpec((1,), (depth,))
        b = single_haar_symbol(grid)
        res = operator_norm(b, ts, grid, method="power")
        est = bmo_norm(b, "greedy-union")
        want = fix["single_haar"][str(depth)]
        assert res.converged
        assert abs(res.value - want["opnorm"]) <= 1e-8
        assert abs(res.value / est.value - want["ratio"]) <= 1e-8
    rows5 = norm_ratio_experiment([5], range(50), method="power")
    rows6 = norm_ratio_experiment([6], range(50), method="power")
    max5 = max(r["ratio"] for r in rows5 if r["ratio"] is not None)
    max6 = max(r["ratio"] for r in rows6 if r["ratio"] is not None)
    env = fix["envelope"]
    assert abs(max6 - env["depth6_max"]) <= 1e-8
    assert abs(max5 - env["depth5_max"]) <= 1e-8
    assert abs(max6 - max5) <= 0.1 * max5
    report(7, "ratios match SVD fixtures at 1e-8; depth-6 max inside the envelope", t0)


def test_criterion_8_riesz_lab():
    t0 = time.time()
    # Hilbert multiplier squares to -(Id - mean) at 1e-12
    for seed in range(5):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(16)
        twice = discrete_riesz(1, discrete_riesz(1, f))
        target = -(f - f.mean())
        assert np.abs(twice - target).max() < 1e-12
    # span residual non-increasing in M for M <= 64, n=16, 5 seeds
    fix = load_fixture("riesz_residual.json")
    target = riesz_matrix(1, 16, 1)
    finals = []
    for seed in range(5):
        mats = [
            sample_shift_matrix(s) for s in draw_grid_samples(1, 16, 64, seed)
        ]
        res = span_residual(mats, target)
        assert len(res) == 65
        assert all(res[i + 1] <= res[i] for i in range(64)), seed
        finals.append(float(res[-1]))
    assert np.mean(finals) <= fix["mean_final_residual"] + 1e-9
    report(8, "Hilbert multiplier identity at 1e-12; residuals non-increasing to M=64", t0)
