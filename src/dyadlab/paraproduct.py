"""Multi-parameter paraproducts and the product-BMO norm.

A paraproduct spec fixes three vector signatures and a per-rectangle sign;
the bilinear operator sums, over all rectangles of the grid, the product
of the two input coefficients against the third Haar function divided by
``sqrt(|R|)``.  Signature parts may be the all-ones label, in which case
the coefficient is a renormalized average.  The spec is *admissible* when
each parameter carries at most one all-ones part among the three slots,
and BMO-admissible when additionally the first slot is strict everywhere.

The product BMO norm is a Carleson supremum over unions of finest cells.
Three estimators are provided: a supremum over single rectangles, a
greedy union grower seeded at the best rectangle, and an exact brute
force over every nonempty cell subset (capped at 20 cells).  All three
read one Carleson table per call, the finest cells as bit positions and
one ``(cell mask, strict mass)`` entry per rectangle, and compare ratios
with one exact test; the brute force and the mode-monotonicity
comparisons are exact.  The seeded boundedness probe built on these,
which records ``tests/fixtures/paraproduct_ratio.json``, lives in
``scripts/record_fixtures.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._kernels import _zeta_sos_loop, popcounts, zeta_sos
from .errors import CapExceededError
from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    enumerate_rectangles,
    is_strict,
)
from .haar import (
    analyze,
    haar_coefficient,  # noqa: F401  rebound in bench/test_bench.py::test_tracer_rebinds_imported_copies
    haar_pattern_sums,
    synthesize_patterns,
)
from .scalar import _SQRT2_FLOAT, Scalar, ZERO
from .stepfn import StepFunction

__all__ = [
    "ParaproductSpec",
    "apply_paraproduct",
    "BmoEstimate",
    "bmo_norm",
    "random_signs",
    "BMO_MODES",
]

BMO_MODES = ("rectangle-sup", "greedy-union", "exact-bruteforce")


@dataclass(frozen=True)
class ParaproductSpec:
    """Signature triple plus a sign rule for the rectangle sum: ``signs``
    is ``None`` (every sign +1) or a function of the rectangle, where a
    negative value flips that rectangle's sign."""

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


def random_signs(grid: GridSpec, seed: int):
    """Seeded sign rule: one +-1 draw per rectangle of ``grid``."""
    rng = np.random.default_rng(seed)
    rects = enumerate_rectangles(grid)
    flips = rng.integers(0, 2, size=len(rects))
    return {r: (1 if f == 0 else -1) for r, f in zip(rects, flips)}.__getitem__


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
            if spec.signs(rect) < 0:
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
        return not _ratio_gt(self.mass, self.cell_count, other.mass, other.cell_count)

    def sq_value(self, grid: GridSpec) -> tuple[Fraction, Fraction]:
        if self.cell_count == 0:
            return Fraction(0), Fraction(0)
        a, b = self.mass.to_fractions()
        den = self.cell_count * grid.cell_volume
        return a / den, b / den


def _ratio_gt(mass_a: Scalar, count_a: int, mass_b: Scalar, count_b: int) -> bool:
    """Exact comparison mass_a/count_a > mass_b/count_b (counts positive)."""
    return mass_a * count_b > mass_b * count_a


def _mass_of(entries, mask: int) -> Scalar:
    """Exact mass of the table rectangles whose cells all lie in ``mask``."""
    total = ZERO
    for rmask, m in entries:
        if rmask & mask == rmask:
            total = total + m
    return total


def _rectangle_sup(grid: GridSpec, mask_of, entries):
    """Best single rectangle; the first of equal ratios in enumeration order."""
    best = None
    for region in enumerate_rectangles(grid):
        mask = mask_of(region)
        mass = _mass_of(entries, mask)
        count = mask.bit_count()
        if best is None or _ratio_gt(mass, count, best[0], best[1]):
            best = (mass, count, mask)
    return best


def _greedy_union(grid: GridSpec, mask_of, entries):
    """Grow the best rectangle by the heaviest cell while the ratio improves."""
    mass, count, mask = _rectangle_sup(grid, mask_of, entries)
    while True:
        best_step = None
        for i in range(grid.cell_count):
            bit = 1 << i
            if mask & bit:
                continue
            m = _mass_of(entries, mask | bit)
            if best_step is None or m > best_step[0]:
                best_step = (m, bit)
        if best_step is None or not _ratio_gt(best_step[0], count + 1, mass, count):
            return mass, count, mask
        mass, bit = best_step
        mask |= bit
        count += 1


_INT64_BOUND = 1 << 62


def _exact_bruteforce(ncells: int, entries):
    """Best ratio over every nonempty cell subset, by one zeta transform.

    Masses are put over their common denominator ``2**e`` as integer pairs
    ``(a, b)``.  The arrays are int64 when the absolute sums stay below
    2**62, else numpy object arrays of Python integers summed by
    :func:`_zeta_sos_loop`.  On int64 a float pass keeps every subset whose
    float ratio lies within a proven rounding bound of the float maximum, so
    no subset that can be the exact best is dropped; on big integers every
    subset stays.  One exact selection then picks the best ratio, then fewer
    cells, then the lower mask.
    """
    e = max(m.e for _, m in entries)
    scaled = [(mask, m.m << (e - m.e), m.n << (e - m.e)) for mask, m in entries]
    abs_a, abs_b = (sum(abs(x[k]) for x in scaled) for k in (1, 2))
    fits = abs_a < _INT64_BOUND and abs_b < _INT64_BOUND
    n_subsets = 1 << ncells
    a = np.zeros(n_subsets, dtype=np.int64 if fits else object)
    bvec = np.zeros_like(a)
    for mask, am, bm in scaled:
        a[mask] += am
        bvec[mask] += bm
    pc = popcounts(n_subsets)
    if fits:
        zeta_sos(a, bvec, ncells)
        vals = (a.astype(np.float64) + bvec.astype(np.float64) * _SQRT2_FLOAT) / np.maximum(pc, 1)
        vals[0] = -np.inf
        # With u = 2**-53 and |d_i| <= u, the float ratio of subset S is
        # (a(1+d1) + b*sqrt2(1+d2)(1+d3)(1+d4))(1+d5)/p * (1+d6): a, b,
        # sqrt2, the product, the sum and the quotient each round once.  So
        # it is within (3|a| + 5|b|sqrt2) u/p + O(u**2) <= 5.1 (|a| +
        # |b|sqrt2) u/p of the exact ratio, and |a| <= abs_a, |b| <= abs_b,
        # p >= 1 bound that by E = 5.1 (abs_a + abs_b*sqrt2) u for every S.
        # The exact best is then within 2E of the float maximum.  The window
        # takes 16 for 2 * 5.1; the rest covers its own roundings.  (A bound
        # per subset costs seven times this filter's time on 2**16 subsets.)
        window = 16 * 2.0**-53 * (abs_a + abs_b * _SQRT2_FLOAT)
        candidates = np.nonzero(vals >= vals.max() - window)[0]
    else:
        _zeta_sos_loop(a, bvec, ncells)
        candidates = range(1, n_subsets)
    best = None
    for u in candidates:
        u = int(u)
        cand = (Scalar(int(a[u]), int(bvec[u]), e), int(pc[u]), u)
        if best is None or (
            not _ratio_gt(*best[:2], *cand[:2])
            and (_ratio_gt(*cand[:2], *best[:2]) or cand[1:] < best[1:])
        ):
            best = cand
    return best


# largest grid, in finest cells, that ``exact-bruteforce`` accepts
EXACT_CAP_BITS = 20


def bmo_norm(b: StepFunction, mode: str = "greedy-union") -> BmoEstimate:
    """Estimate of the product BMO norm of ``b``.

    The supremum ranges over unions of finest cells (the open sets of the
    discrete model).  ``rectangle-sup`` restricts to single rectangles;
    ``greedy-union`` grows the best rectangle one cell at a time while the
    Carleson ratio improves, so it always dominates ``rectangle-sup``;
    ``exact-bruteforce`` enumerates all nonempty subsets and dominates
    both (grids with more than ``EXACT_CAP_BITS`` cells are rejected).
    """
    if mode not in BMO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    grid = b.grid
    masses = analyze(b).strict_masses()
    if not masses:
        return BmoEstimate(mode, 0.0, frozenset(), ZERO, 0)
    cells = list(grid.cells())
    if mode == "exact-bruteforce" and len(cells) > EXACT_CAP_BITS:
        raise CapExceededError(
            f"{len(cells)} cells exceed the exact-mode cap of {EXACT_CAP_BITS}"
        )
    index = {c: i for i, c in enumerate(cells)}

    def mask_of(rect: DyadicRectangle) -> int:
        mask = 0
        for cell in rect.cell_keys(grid.depth):
            mask |= 1 << index[cell]
        return mask

    entries = [(mask_of(rect), m) for rect, m in masses.items()]
    if mode == "rectangle-sup":
        mass, count, mask = _rectangle_sup(grid, mask_of, entries)
    elif mode == "greedy-union":
        mass, count, mask = _greedy_union(grid, mask_of, entries)
    else:
        mass, count, mask = _exact_bruteforce(len(cells), entries)
    witness = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
    value = float(np.sqrt(float(mass) / (count * float(grid.cell_volume))))
    return BmoEstimate(mode, value, witness, mass, count)
