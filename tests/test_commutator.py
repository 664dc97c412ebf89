import itertools

import numpy as np
import pytest

from dyadlab.grid import DyadicCube, GridSpec, strict_signatures
from dyadlab.haar import haar_function, random_haar_function
from dyadlab.commutator import (
    CaseLabel,
    case_classify,
    case_evaluate,
    combine_descriptors,
    commutator_apply,
    decompose,
    norm_ratio_experiment,
    one_parameter_bracket,
    operator_norm,
    single_haar_symbol,
    term_descriptors,
    verify_decomposition,
)
from dyadlab.paraproduct import bmo_norm
from dyadlab.scalar import Scalar
from dyadlab.shift import ShiftMap, TensorShift
from dyadlab.stepfn import StepFunction


FIRST = ShiftMap.preset(1, "first-child")
ROT = ShiftMap.preset(1, "rotating")


def cube(level, p, d=1):
    pos = (p,) if d == 1 else p
    return DyadicCube(d, level, pos)


def rect1(c):
    from dyadlab.grid import DyadicRectangle

    return DyadicRectangle((c,))


# -- case classification -----------------------------------------------------------


def test_classify_basic():
    I = cube(1, 0)
    assert case_classify(I, I, FIRST) is CaseLabel.DIAGONAL
    assert case_classify(I, cube(2, 0), FIRST) is CaseLabel.SHIFT_DIAGONAL
    assert case_classify(I, cube(2, 1), FIRST) is CaseLabel.BELOW_OFF_SHIFT
    assert case_classify(I, cube(3, 1), FIRST) is CaseLabel.BELOW_ON_SHIFT
    assert case_classify(I, cube(0, 0), FIRST) is CaseLabel.STRICTLY_INSIDE
    assert case_classify(I, cube(1, 1), FIRST) is CaseLabel.DISJOINT


def test_classify_totality_and_exclusivity():
    cubes = [cube(k, p) for k in range(5) for p in range(1 << k)]
    for smap in (FIRST, ROT):
        for I, Ip in itertools.product(cubes, repeat=2):
            label = case_classify(I, Ip, smap)
            assert isinstance(label, CaseLabel)
            # exclusivity checks against the raw set relations
            if label is CaseLabel.DIAGONAL:
                assert I == Ip
            if label is CaseLabel.DISJOINT:
                assert not I.contains(Ip) and not Ip.contains(I)
            if label in (
                CaseLabel.SHIFT_DIAGONAL,
                CaseLabel.BELOW_ON_SHIFT,
                CaseLabel.BELOW_OFF_SHIFT,
            ):
                assert I.contains(Ip) and I != Ip


# -- case table vs direct expansion -------------------------------------------------


def test_disjoint_and_inside_vanish():
    g = GridSpec((1,), (4,))
    z = case_evaluate(g, cube(1, 0), (0,), cube(1, 1), (0,), FIRST)
    assert z.is_zero
    z = case_evaluate(g, cube(2, 0), (0,), cube(0, 0), (0,), FIRST)
    assert z.is_zero


def test_diagonal_example_unit_interval():
    # [M_{h0}, Q] h0 on the unit interval: signed shifted Haar minus the
    # shift of the indicator
    g = GridSpec((1,), (3,))
    got = case_evaluate(g, cube(0, 0), (0,), cube(0, 0), (0,), FIRST)
    want = one_parameter_bracket(g, cube(0, 0), (0,), cube(0, 0), (0,), FIRST)
    assert got == want
    assert not got.is_zero


def test_below_off_shift_sign_is_minus_value():
    # the surviving term is -(value of the coarse Haar on the symbol cube)
    # times the shifted symbol Haar
    g = GridSpec((1,), (4,))
    I, Ip = cube(0, 0), cube(2, 1)  # sigma(I)=[0,1/2) well away from Ip? no:
    # [0,1) first child is [0,1/2), Ip=[1/4,1/2) sits inside it; use Ip=[1/2,3/4)
    Ip = cube(2, 2)
    assert case_classify(I, Ip, FIRST) is CaseLabel.BELOW_OFF_SHIFT
    got = case_evaluate(g, I, (0,), Ip, (0,), FIRST)
    first_cell = ((Ip.pos[0] << (4 - Ip.level),),)
    v = haar_function(g, rect1(I), ((0,),)).value_at(first_cell)  # value on Ip
    expected = -v * haar_function(g, rect1(FIRST.sigma_cube(Ip)), ((0,),))
    assert got == expected


@pytest.mark.parametrize("rule", ["first-child", "rotating"])
def test_case_table_exhaustive_d1(rule):
    g = GridSpec((1,), (6,))
    smap = ShiftMap.preset(1, rule)
    cubes = [cube(k, p) for k in range(4) for p in range(1 << k)]
    for I, Ip in itertools.product(cubes, repeat=2):
        got = case_evaluate(g, I, (0,), Ip, (0,), smap)
        want = one_parameter_bracket(g, I, (0,), Ip, (0,), smap)
        assert got == want, (rule, I, Ip)


def test_case_table_sample_d2():
    g = GridSpec((2,), (4,))
    smap = ShiftMap.preset(2, "rotating", "cyclic")
    cubes = [cube(0, (0, 0), 2)] + [cube(1, p, 2) for p in [(0, 0), (1, 1)]]
    sigs = strict_signatures(2)
    for I, Ip in itertools.product(cubes, repeat=2):
        for e, ep in itertools.product(sigs, repeat=2):
            got = case_evaluate(g, I, e, Ip, ep, smap)
            want = one_parameter_bracket(g, I, e, Ip, ep, smap)
            assert got == want


def test_case_with_killed_signature():
    g = GridSpec((2,), (3,))
    smap = ShiftMap.preset(2, "first-child", ("kill", (0, 1)))
    for pair in [((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 0), (0, 1))]:
        e, ep = pair
        got = case_evaluate(g, cube(0, (0, 0), 2), e, cube(0, (0, 0), 2), ep, smap)
        want = one_parameter_bracket(
            g, cube(0, (0, 0), 2), e, cube(0, (0, 0), 2), ep, smap
        )
        assert got == want


def test_case_depth_error():
    g = GridSpec((1,), (2,))
    with pytest.raises(ValueError):
        case_evaluate(g, cube(1, 0), (0,), cube(2, 0), (0,), FIRST)  # needs sigma^2


# -- commutator operator -------------------------------------------------------------


def test_commutator_constant_symbol_vanishes():
    g = GridSpec((1,), (3,))
    ts = TensorShift.single(FIRST)
    rng = np.random.default_rng(0)
    f = random_haar_function(g, rng)
    assert commutator_apply(StepFunction.constant(g, Scalar(4)), ts, f).is_zero


def test_commutator_bilinearity():
    g = GridSpec((1,), (3,))
    ts = TensorShift.single(ROT)
    rng = np.random.default_rng(1)
    b1, b2 = (random_haar_function(g, rng) for _ in range(2))
    f1, f2 = (random_haar_function(g, rng) for _ in range(2))
    assert commutator_apply(b1 + b2, ts, f1) == commutator_apply(
        b1, ts, f1
    ) + commutator_apply(b2, ts, f1)
    assert commutator_apply(b1, ts, f1 + f2) == commutator_apply(
        b1, ts, f1
    ) + commutator_apply(b1, ts, f2)


def test_commutator_antisymmetry_building_block():
    # [M_b, Q] = -[Q, M_b]: check on a spanning set of basis functions
    from dyadlab.haar import basis_function, haar_basis_keys
    from dyadlab.shift import tensor_apply_counting

    g = GridSpec((1,), (3,))
    ts = TensorShift.single(FIRST)
    rng = np.random.default_rng(2)
    b = random_haar_function(g, rng, max_levels=(1,))
    for key in haar_basis_keys(g):
        f = basis_function(g, key)
        lhs = commutator_apply(b, ts, f)
        rhs = -(tensor_apply_counting(ts, b * f)[0] - b * tensor_apply_counting(ts, f)[0])
        assert lhs == rhs


def test_commutator_identity_slot_vanishes():
    g = GridSpec((1, 1), (2, 2))
    ts = TensorShift((FIRST, None))
    rng = np.random.default_rng(3)
    b = random_haar_function(g, rng)
    f = random_haar_function(g, rng)
    assert commutator_apply(b, ts, f).is_zero


# -- decomposition -------------------------------------------------------------------


def test_decomposition_term_count_d1():
    g = GridSpec((1,), (4,))
    D = decompose([FIRST], g)
    assert len(D.terms) == 5
    kinds = sorted(t.kinds[0] for t in D.terms)
    assert kinds == [
        "diag-product",
        "diag-shift",
        "shiftdiag-product",
        "triangle-average",
        "triangle-shift",
    ]
    for t in D.terms:
        assert t.para.is_bmo_admissible()
        assert t.pattern in ("pre", "post")


def test_decomposition_zero_inputs():
    g = GridSpec((1,), (4,))
    D = decompose([FIRST], g)
    z = StepFunction.zero(g)
    rng = np.random.default_rng(4)
    f = random_haar_function(g, rng, max_levels=(2,))
    assert verify_decomposition(D, z, f).is_zero
    assert verify_decomposition(D, f, z).is_zero


@pytest.mark.parametrize("rule,sig", [("first-child", "identity"), ("rotating", "identity")])
def test_decomposition_exact_d1(rule, sig):
    g = GridSpec((1,), (5,))
    D = decompose([ShiftMap.preset(1, rule, sig)], g)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        b = random_haar_function(g, rng, max_levels=(3,))
        f = random_haar_function(g, rng, max_levels=(3,))
        assert verify_decomposition(D, b, f).is_zero


def test_decomposition_exact_with_mean_and_mixed():
    g = GridSpec((1, 1), (3, 3))
    D = decompose([FIRST, ROT], g)
    rng = np.random.default_rng(42)
    b = random_haar_function(g, rng, max_levels=(1, 1), include_mean=True)
    f = random_haar_function(g, rng, max_levels=(1, 1), include_mean=True)
    f = f + StepFunction.constant(g, Scalar(3, 0, 1))
    assert verify_decomposition(D, b, f).is_zero


def test_decomposition_exact_on_all_basis_pairs():
    # exhaustive over the full orthonormal basis, constants included
    from dyadlab.haar import basis_function, haar_basis_keys

    g = GridSpec((1,), (4,))
    D = decompose([ROT], g)
    keys = haar_basis_keys(g)
    safe = [
        k
        for k in keys
        if all(c.level <= 2 for c in k[0].factors)  # two levels of headroom
    ]
    for kb in safe:
        b = basis_function(g, kb)
        for kf in safe:
            f = basis_function(g, kf)
            assert verify_decomposition(D, b, f).is_zero, (kb, kf)


def test_decomposition_exact_d2():
    g = GridSpec((2,), (3,))
    D = decompose([ShiftMap.preset(2, "rotating", "cyclic")], g)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b = random_haar_function(g, rng, max_levels=(1,))
        f = random_haar_function(g, rng, max_levels=(1,))
        assert verify_decomposition(D, b, f).is_zero


def test_decomposition_exact_with_kill():
    g = GridSpec((2,), (3,))
    D = decompose([ShiftMap.preset(2, "first-child", ("kill", (0, 1)))], g)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b = random_haar_function(g, rng, max_levels=(1,))
        f = random_haar_function(g, rng, max_levels=(1,))
        assert verify_decomposition(D, b, f).is_zero


def test_tensor_term_list_is_product_of_factors():
    g2 = GridSpec((1, 1), (3, 3))
    g1 = GridSpec((1,), (3,))
    for maps in [(FIRST, ROT), (ROT, ROT)]:
        D2 = decompose(list(maps), g2)
        d1a = term_descriptors(decompose([maps[0]], g1))
        d1b = term_descriptors(decompose([maps[1]], g1))
        assert term_descriptors(D2) == combine_descriptors(d1a, d1b)
        assert all(t.para.is_bmo_admissible() for t in D2.terms)


def test_mixed_patterns_present_at_t2():
    g2 = GridSpec((1, 1), (2, 2))
    D2 = decompose([FIRST, FIRST], g2)
    patterns = {t.pattern for t in D2.terms}
    assert "mixed" in patterns and "pre" in patterns and "post" in patterns


# -- operator norms -------------------------------------------------------------------


def test_opnorm_constant_symbol_zero():
    g = GridSpec((1,), (3,))
    res = operator_norm(StepFunction.constant(g, Scalar(2)), TensorShift.single(FIRST), g)
    assert res.value == 0.0


def test_opnorm_power_matches_svd():
    g = GridSpec((1,), (4,))
    rng = np.random.default_rng(7)
    b = random_haar_function(g, rng)
    ts = TensorShift.single(ROT)
    p = operator_norm(b, ts, g, method="power")
    s = operator_norm(b, ts, g, method="svd")
    assert p.converged
    assert p.value == pytest.approx(s.value, abs=1e-9)


def test_opnorm_rejects_unknown_method():
    g = GridSpec((1,), (3,))
    with pytest.raises(ValueError, match="unknown method"):
        operator_norm(single_haar_symbol(g), TensorShift.single(FIRST), g, method="banana")


def test_opnorm_homogeneous_in_symbol():
    g = GridSpec((1,), (3,))
    rng = np.random.default_rng(8)
    b = random_haar_function(g, rng)
    ts = TensorShift.single(FIRST)
    v1 = operator_norm(b, ts, g, method="svd").value
    v2 = operator_norm(b * Scalar(5), ts, g, method="svd").value
    assert v2 == pytest.approx(5 * v1, rel=1e-12)


def tensor_symbol(b1: StepFunction, b2: StepFunction) -> StepFunction:
    """``b1(x) * b2(y)`` on the two-parameter grid of the two factors."""
    grid = GridSpec(b1.grid.dims + b2.grid.dims, b1.grid.depth + b2.grid.depth)
    return StepFunction(
        grid,
        {c1 + c2: v1 * v2 for c1, v1 in b1.values.items() for c2, v2 in b2.values.items()},
    )


def test_opnorm_t2_product_symbol_is_product_of_norms():
    # [[M_b, Q1 x I], I x Q2] = [M_b1, Q1] x [M_b2, Q2] for b = b1 x b2
    g1 = GridSpec((1,), (3,))
    for seed in range(3):
        rng = np.random.default_rng(seed)
        b1 = random_haar_function(g1, rng)
        b2 = random_haar_function(g1, rng, include_mean=True)
        b = tensor_symbol(b1, b2)
        n1 = operator_norm(b1, TensorShift.single(FIRST), g1, method="svd").value
        n2 = operator_norm(b2, TensorShift.single(ROT), g1, method="svd").value
        n = operator_norm(b, TensorShift((FIRST, ROT)), b.grid, method="svd").value
        assert n1 > 0 and n2 > 0
        assert n == pytest.approx(n1 * n2, rel=1e-12, abs=0)


def test_opnorm_t2_symbol_constant_in_one_parameter_is_zero():
    g1 = GridSpec((1,), (3,))
    b1 = random_haar_function(g1, np.random.default_rng(4))
    one = StepFunction.constant(g1, Scalar(1))
    for b in (tensor_symbol(b1, one), tensor_symbol(one, b1)):
        for method in ("power", "svd"):
            res = operator_norm(b, TensorShift((FIRST, ROT)), b.grid, method=method)
            assert res.value == 0.0


T3_MAPS = (FIRST, ROT, ShiftMap(1, ("child", 1), "identity"))


def t3_factors():
    g1 = GridSpec((1,), (2,))
    rng = np.random.default_rng(21)
    return g1, [random_haar_function(g1, rng, include_mean=s == 1) for s in range(3)]


def test_opnorm_t3_product_symbol_is_product_of_norms():
    # the t = 2 identity once more: the bracket of b1 x b2 x b3 is the
    # tensor product of the three one-parameter brackets
    g1, factors = t3_factors()
    b = tensor_symbol(tensor_symbol(*factors[:2]), factors[2])
    norms = [
        operator_norm(f, TensorShift.single(m), g1, method="svd").value
        for f, m in zip(factors, T3_MAPS)
    ]
    n = operator_norm(b, TensorShift(T3_MAPS), b.grid, method="svd").value
    assert b.grid == GridSpec((1, 1, 1), (2, 2, 2))
    assert min(norms) > 0
    assert n == pytest.approx(norms[0] * norms[1] * norms[2], rel=1e-12, abs=0)


@pytest.mark.parametrize("s", range(3))
def test_opnorm_t3_symbol_constant_in_one_parameter_is_zero(s):
    g1, factors = t3_factors()
    factors[s] = StepFunction.constant(g1, Scalar(1))
    b = tensor_symbol(tensor_symbol(*factors[:2]), factors[2])
    for method in ("power", "svd"):
        assert operator_norm(b, TensorShift(T3_MAPS), b.grid, method=method).value == 0.0


def test_single_haar_symbol_fixture_value():
    # dense-SVD oracle for the fixed family: the norm is sqrt(2) exactly
    g = GridSpec((1,), (4,))
    b = single_haar_symbol(g)
    res = operator_norm(b, TensorShift.single(FIRST), g, method="svd")
    assert res.value == pytest.approx(np.sqrt(2.0), abs=1e-12)
    est = bmo_norm(b, "greedy-union")
    assert est.value == pytest.approx(1.0, abs=0)


def test_ratio_rows_scale_invariant():
    rows = norm_ratio_experiment([3], [1, 2], method="svd")
    for row in rows:
        if row["ratio"] is None:
            continue
        g = GridSpec((1,), (3,))
        rng = np.random.default_rng(row["seed"])
        b = random_haar_function(g, rng) * Scalar(3)
        est = bmo_norm(b, "greedy-union")
        res = operator_norm(b, TensorShift.single(FIRST), g, method="svd")
        assert res.value / est.value == pytest.approx(row["ratio"], rel=1e-9)
