"""Multi-parameter paraproducts and the product-BMO norm.

A paraproduct spec fixes three vector signatures and a per-rectangle sign;
the bilinear operator sums, over all rectangles of the grid, the product
of the two input coefficients against the third Haar function divided by
``sqrt(|R|)``.  Signature parts may be the all-ones label, in which case
the coefficient is a renormalized average.  The spec is *admissible* when
each parameter carries at most one all-ones part among the three slots,
and BMO-admissible when additionally the first slot is strict everywhere.

The product BMO norm is a Carleson supremum over unions of finest cells.
Three estimators are provided: an exact brute force over every nonempty
cell subset (capped at 20 cells), a supremum over single rectangles, and
a greedy union grower seeded at the best rectangle.  The brute force and
the mode-monotonicity comparisons are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._kernels import popcounts, zeta_sos
from .errors import CapExceededError
from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    enumerate_rectangles,
    is_strict,
)
from .haar import (  # noqa: F401  haar_coefficient: bench/tracer.py looks it up here
    analyze,
    haar_coefficient,
    haar_pattern_sums,
    random_haar_function,
    synthesize_patterns,
)
from .scalar import Scalar, ZERO
from .stepfn import StepFunction

__all__ = [
    "ParaproductSpec",
    "apply_paraproduct",
    "BmoEstimate",
    "bmo_norm",
    "random_signs",
    "empirical_paraproduct_bound",
    "BMO_MODES",
]

BMO_MODES = ("rectangle-sup", "greedy-union", "exact-bruteforce")

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class ParaproductSpec:
    """Signature triple plus a sign rule for the rectangle sum."""

    eps1: tuple
    eps2: tuple
    eps3: tuple
    signs: object = field(default=None, compare=False)

    def __post_init__(self):
        for eps in (self.eps1, self.eps2, self.eps3):
            if len(eps) != self.t:
                raise ValueError("signature arities differ")

    @property
    def t(self) -> int:
        return len(self.eps1)

    def sign(self, rect: DyadicRectangle) -> int:
        if self.signs is None:
            return 1
        if callable(self.signs):
            return 1 if self.signs(rect) >= 0 else -1
        return 1 if self.signs.get(rect, 1) >= 0 else -1

    def is_admissible(self) -> bool:
        """At most one all-ones part per parameter across the three slots."""
        for s in range(self.t):
            ones = sum(
                0 if is_strict(eps[s]) else 1
                for eps in (self.eps1, self.eps2, self.eps3)
            )
            if ones > 1:
                return False
        return True

    def is_bmo_admissible(self) -> bool:
        return self.is_admissible() and all(is_strict(sig) for sig in self.eps1)


def random_signs(grid: GridSpec, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rects = enumerate_rectangles(grid)
    flips = rng.integers(0, 2, size=len(rects))
    return {r: (1 if f == 0 else -1) for r, f in zip(rects, flips)}


def apply_paraproduct(
    spec: ParaproductSpec, f1: StepFunction, f2: StepFunction
) -> StepFunction:
    """Exact rectangle sum of the bilinear paraproduct, in coefficient space.

    One restricted forward pass per input gives the Haar sign-pattern sums
    ``S1, S2`` at every rectangle (:func:`~dyadlab.haar.haar_pattern_sums`).
    With ``c = S * |R|**(-1/2) * v`` (``v`` the cell volume), the term
    ``sign * c1 * c2 * |R|**(-1/2) * h3`` is ``sign * S1 * S2 * |R|**(-2) *
    v**2`` times the output sign pattern, so one inverse pass over these
    products synthesizes the sum.  Rectangles where a strict slot sits at
    the finest level carry no Haar function and are skipped.
    """
    grid = f1.grid
    if f2.grid != grid:
        raise ValueError("grid mismatch")
    if spec.t != grid.t:
        raise ValueError("spec arity does not match the grid")
    dims = grid.dims
    sums1, e1 = haar_pattern_sums(f1, spec.eps1)
    sums2, e2 = haar_pattern_sums(f2, spec.eps2)
    terms = []
    for slots, (m1, n1) in sums1.items():
        cubes = [(level, pos) for level, pos, _ in slots]
        pair = sums2.get(tuple(c + (sig,) for c, sig in zip(cubes, spec.eps2)))
        if pair is None:
            continue
        if any(
            level == depth and is_strict(sig)
            for (level, _), depth, sig in zip(cubes, grid.depth, spec.eps3)
        ):
            continue
        m2, n2 = pair
        m, n = m1 * m2 + 2 * n1 * n2, m1 * n2 + n1 * m2
        if spec.signs is not None:
            rect = DyadicRectangle(
                tuple(DyadicCube(d, level, pos) for (level, pos), d in zip(cubes, dims))
            )
            if spec.sign(rect) < 0:
                m, n = -m, -n
        shift = 2 * sum(level * d for (level, _), d in zip(cubes, dims))
        out = tuple(c + (sig,) for c, sig in zip(cubes, spec.eps3))
        terms.append((out, m << shift, n << shift))
    vol_e = 2 * sum(d * depth for d, depth in zip(dims, grid.depth))
    return synthesize_patterns(grid, terms, e1 + e2 + vol_e)


# -- product BMO ----------------------------------------------------------------


@dataclass(frozen=True)
class BmoEstimate:
    """One estimator's answer: mode, float value, and exact ingredients.

    ``mass`` is the exact sum of squared strict coefficients over
    rectangles inside the witness ``U``; ``cell_count`` is ``|U|`` in
    finest cells.  The squared norm is ``mass / (cell_count * cellvol)``,
    so two estimates on one grid compare exactly by cross-multiplication.
    """

    mode: str
    value: float
    witness: frozenset
    mass: Scalar
    cell_count: int

    def sq_leq(self, other: "BmoEstimate") -> bool:
        if self.cell_count == 0:
            return True
        if other.cell_count == 0:
            return self.mass.is_zero
        return self.mass * other.cell_count <= other.mass * self.cell_count

    def sq_value(self, grid: GridSpec) -> tuple[Fraction, Fraction]:
        if self.cell_count == 0:
            return Fraction(0), Fraction(0)
        a, b = self.mass.to_fractions()
        den = self.cell_count * grid.cell_volume
        return a / den, b / den


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


def _ratio_gt(mass_a: Scalar, count_a: int, mass_b: Scalar, count_b: int) -> bool:
    """Exact comparison mass_a/count_a > mass_b/count_b (counts positive)."""
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


_INT64_BOUND = 1 << 62


def _exact_bruteforce(b: StepFunction, masses, cap_bits: int):
    grid = b.grid
    cells = list(grid.cells())
    ncells = len(cells)
    if ncells > cap_bits:
        raise CapExceededError(
            f"{ncells} cells exceed the exact-mode cap of {cap_bits}"
        )
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
    scaled = [
        (mask, m.m << (max_e - m.e), m.n << (max_e - m.e)) for mask, m in entries
    ]
    bound_a = sum(abs(a) for _, a, _ in scaled)
    bound_b = sum(abs(bb) for _, _, bb in scaled)

    if bound_a < _INT64_BOUND and bound_b < _INT64_BOUND:
        a = np.zeros(n_subsets, dtype=np.int64)
        bvec = np.zeros(n_subsets, dtype=np.int64)
        for mask, am, bm in scaled:
            a[mask] += am
            bvec[mask] += bm
        zeta_sos(a, bvec, ncells)
        pc = popcounts(n_subsets)
        with np.errstate(invalid="ignore"):
            vals = (a.astype(np.float64) + bvec.astype(np.float64) * _SQRT2) / np.maximum(pc, 1)
        vals[0] = -np.inf
        vmax = float(vals.max())
        tol = abs(vmax) * 1e-9 + 1e-300
        candidates = np.nonzero(vals >= vmax - tol)[0]
        best = None
        for u in candidates:
            u = int(u)
            cand = (int(a[u]), int(bvec[u]), int(pc[u]), u)
            if best is None or _pair_ratio_gt(cand, best) or (
                not _pair_ratio_gt(best, cand)
                and (cand[2], cand[3]) < (best[2], best[3])
            ):
                best = cand
        am, bm, count, umask = best
    else:
        # big-integer fallback: same zeta transform on Python lists
        a = [0] * n_subsets
        bvec = [0] * n_subsets
        for mask, am, bm in scaled:
            a[mask] += am
            bvec[mask] += bm
        from ._kernels import _zeta_sos_loop

        _zeta_sos_loop(a, bvec, ncells)
        best = None
        for u in range(1, n_subsets):
            cand = (a[u], bvec[u], bin(u).count("1"), u)
            if best is None or _pair_ratio_gt(cand, best) or (
                not _pair_ratio_gt(best, cand)
                and (cand[2], cand[3]) < (best[2], best[3])
            ):
                best = cand
        am, bm, count, umask = best

    mass = Scalar(am, bm, max_e)
    witness = frozenset(c for i, c in enumerate(cells) if umask & (1 << i))
    return mass, count, witness


def _pair_ratio_gt(x, y) -> bool:
    """(a1 + b1*sqrt2)/c1 > (a2 + b2*sqrt2)/c2 for positive integer counts."""
    a1, b1, c1, _ = x
    a2, b2, c2, _ = y
    m = a1 * c2 - a2 * c1
    n = b1 * c2 - b2 * c1
    return Scalar(m, n, 0) > 0


def bmo_norm(b: StepFunction, mode: str = "greedy-union", cap_bits: int = 20) -> BmoEstimate:
    """Estimate of the product BMO norm of ``b``.

    The supremum ranges over unions of finest cells (the open sets of the
    discrete model).  ``rectangle-sup`` restricts to single rectangles;
    ``greedy-union`` grows the best rectangle one cell at a time while the
    Carleson ratio improves, so it always dominates ``rectangle-sup``;
    ``exact-bruteforce`` enumerates all nonempty subsets and dominates
    both (grids with more than ``cap_bits`` cells are rejected).
    """
    if mode not in BMO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
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
    measure = count * float(grid.cell_volume)
    value = float(np.sqrt(float(mass) / measure)) if count else 0.0
    return BmoEstimate(mode, value, witness, mass, count)


# -- empirical boundedness probe ---------------------------------------------------


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
