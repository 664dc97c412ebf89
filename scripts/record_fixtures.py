#!/usr/bin/env python3
"""Regenerate the regression fixtures under tests/fixtures/.

Oracle values are computed with the independent paths (dense SVD for
operator norms, direct runs for residuals and ratios) and frozen to JSON.
The test suite then holds the production paths (power iteration, greedy
BMO) to these numbers.  Rerun only when the recorded behavior is meant to
change; commit the diff.

A rerun reproduces the committed files to 1e-12 relative, not byte for
byte: the Riesz residuals are float sums whose last digit depends on the
BLAS build (0.679608857124994 against a committed 0.6796088571249939 has
been seen).  ``tests/test_record_fixtures.py`` runs each fixture function
into a temporary directory and holds it to that tolerance.
"""

import json
from pathlib import Path

import numpy as np

from dyadlab import GridSpec
from dyadlab.commutator import (
    norm_ratio_experiment,
    operator_norm,
    single_haar_symbol,
)
from dyadlab.haar import random_haar_function
from dyadlab.paraproduct import (
    ParaproductSpec,
    apply_paraproduct,
    bmo_norm,
    random_signs,
)
from dyadlab.riesz import draw_grid_samples, riesz_matrix, sample_shift_matrix, span_residual
from dyadlab.shift import ShiftMap, TensorShift

OUT = Path(__file__).resolve().parent.parent / "tests" / "fixtures"


def opnorm_fixture():
    smap = ShiftMap.preset(1, "first-child", "identity")
    ts = TensorShift.single(smap)
    family = {}
    for depth in (3, 4, 5, 6):
        grid = GridSpec((1,), (depth,))
        b = single_haar_symbol(grid)
        res = operator_norm(b, ts, grid, method="svd")
        est = bmo_norm(b, "greedy-union")
        family[str(depth)] = {
            "opnorm": res.value,
            "bmo": est.value,
            "ratio": res.value / est.value,
        }
    rows5 = norm_ratio_experiment([5], range(50), method="svd")
    rows6 = norm_ratio_experiment([6], range(50), method="svd")
    env = {
        "depth5_max": max(r["ratio"] for r in rows5 if r["ratio"] is not None),
        "depth6_max": max(r["ratio"] for r in rows6 if r["ratio"] is not None),
        "seeds": 50,
    }
    with open(OUT / "opnorm_oracle.json", "w") as fh:
        json.dump({"single_haar": family, "envelope": env}, fh, indent=1)
    print("opnorm fixture:", family, env)


def empirical_paraproduct_bound(
    spec: ParaproductSpec,
    grid: GridSpec,
    seeds,
    bmo_mode: str = "greedy-union",
):
    """Worst observed ``|B(b,f)|_2 / (|b|_BMO |f|_2)`` over seeded trials.

    Trials with no strict content in ``b`` are skipped (the ratio is
    undefined).  Returns ``(rows, max_ratio)`` where each row records the
    seed, depth, ratio and the BMO mode used.
    """
    if not spec.is_bmo_admissible():
        raise ValueError("spec is not BMO-admissible")
    rows = []
    max_ratio = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = random_haar_function(grid, rng)
        f = random_haar_function(grid, rng)
        est = bmo_norm(b, bmo_mode)
        f_norm = float(np.sqrt(float(f.l2_norm_sq())))
        if est.value == 0.0 or f_norm == 0.0:
            rows.append(
                {"seed": seed, "depth": grid.depth, "ratio": None, "bmo_mode": bmo_mode}
            )
            continue
        out = apply_paraproduct(spec, b, f)
        ratio = float(np.sqrt(float(out.l2_norm_sq()))) / (est.value * f_norm)
        max_ratio = max(max_ratio, ratio)
        rows.append(
            {"seed": seed, "depth": grid.depth, "ratio": ratio, "bmo_mode": bmo_mode}
        )
    return rows, max_ratio


def paraproduct_fixture():
    spec = ParaproductSpec(((0,),), ((0,),), ((1,),))
    depths = {}
    for depth in (3, 4, 5):
        grid = GridSpec((1,), (depth,))
        _, max_ratio = empirical_paraproduct_bound(spec, grid, range(10))
        depths[str(depth)] = max_ratio
    # sign-flip envelope: flipped norm over unflipped norm, depth 4
    grid = GridSpec((1,), (4,))
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        b = random_haar_function(grid, rng)
        f = random_haar_function(grid, rng)
        base = apply_paraproduct(spec, b, f)
        base_norm = float(np.sqrt(float(base.l2_norm_sq())))
        if base_norm == 0.0:
            continue
        flipped_spec = ParaproductSpec(
            spec.eps1, spec.eps2, spec.eps3, random_signs(grid, seed + 1000)
        )
        flipped = apply_paraproduct(flipped_spec, b, f)
        ratios.append(float(np.sqrt(float(flipped.l2_norm_sq()))) / base_norm)
    data = {
        "max_ratio_by_depth": depths,
        "signflip": {"min": min(ratios), "max": max(ratios), "seeds": 10},
    }
    with open(OUT / "paraproduct_ratio.json", "w") as fh:
        json.dump(data, fh, indent=1)
    print("paraproduct fixture:", data)


def riesz_fixture():
    target = riesz_matrix(1, 16, 1)
    finals = []
    for seed in range(5):
        mats = [
            sample_shift_matrix(s) for s in draw_grid_samples(1, 16, 64, seed)
        ]
        finals.append(float(span_residual(mats, target)[-1]))
    data = {
        "d": 1,
        "n": 16,
        "M": 64,
        "seeds": 5,
        "final_residuals": finals,
        "mean_final_residual": float(np.mean(finals)),
    }
    with open(OUT / "riesz_residual.json", "w") as fh:
        json.dump(data, fh, indent=1)
    print("riesz fixture:", data)


if __name__ == "__main__":
    OUT.mkdir(parents=True, exist_ok=True)
    opnorm_fixture()
    paraproduct_fixture()
    riesz_fixture()
