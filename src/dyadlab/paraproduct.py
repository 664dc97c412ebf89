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
greedy union grower seeded at the best rectangle (which provably never
grows it, so it returns the same answer), and an exact brute force over
every nonempty cell subset (capped at 20 cells).  All of them put the
strict rectangle masses over one power-of-two denominator as integer
pairs.  The rectangle supremum sums the masses inside every rectangle in
one sweep of the rectangle lattice; the brute force sums over the subset
lattice.  Both pick the best ratio exactly, after a float filter with a
proven window where the integers fit int64.  The seeded boundedness
probe built on these, which records
``tests/fixtures/paraproduct_ratio.json``, lives in
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


_INT64_BOUND = 1 << 62


def _integer_masses(masses: dict):
    """The table's masses over their common denominator ``2**e``.

    Returns ``e``, the triples ``(rect, a, b)`` with mass ``(a + b*sqrt2) /
    2**e``, the sums ``A, B`` of ``|a|`` and ``|b|``, and the array dtype:
    int64 when ``A`` and ``B`` stay below 2**62, so that no sum of table
    masses can leave int64, and otherwise ``object`` for Python integers.
    """
    e = max(m.e for m in masses.values())
    triples = [(rect, m.m << (e - m.e), m.n << (e - m.e)) for rect, m in masses.items()]
    abs_a = sum(abs(a) for _, a, _ in triples)
    abs_b = sum(abs(b) for _, _, b in triples)
    fits = abs_a < _INT64_BOUND and abs_b < _INT64_BOUND
    return e, triples, abs_a, abs_b, np.int64 if fits else object


def _exact_max(a, b, count, e, abs_a, abs_b) -> list:
    """Every index ``u`` of the exact maximum of ``(a[u] + b[u]*sqrt2) /
    (count[u] * 2**e)``, ascending; callers break ties.

    Each ``a[u]``, ``b[u]`` must be a sum of distinct table masses, so
    ``|a[u]| <= abs_a`` and ``|b[u]| <= abs_b``; counts are positive.  On
    int64 a float pass keeps every index whose float ratio lies within a
    proven rounding bound of the float maximum, so no index that can be
    the exact best is dropped; on object arrays every index stays.  The
    exact comparison then runs on the kept indices only.
    """
    if a.dtype == object:
        candidates = range(len(a))
    else:
        vals = (a.astype(np.float64) + b.astype(np.float64) * _SQRT2_FLOAT) / count
        # With u = 2**-53 and |d_i| <= u, the float ratio at index S is
        # (a(1+d1) + b*sqrt2(1+d2)(1+d3)(1+d4))(1+d5)/p * (1+d6): a, b,
        # sqrt2, the product, the sum and the quotient each round once.  So
        # it is within (3|a| + 5|b|sqrt2) u/p + O(u**2) <= 5.1 (|a| +
        # |b|sqrt2) u/p of the exact ratio, and |a| <= abs_a, |b| <= abs_b,
        # p >= 1 bound that by E = 5.1 (abs_a + abs_b*sqrt2) u for every S.
        # The exact best is then within 2E of the float maximum.  The window
        # takes 16 for 2 * 5.1; the rest covers its own roundings.  (A bound
        # per index costs seven times this filter's time on 2**16 subsets.)
        window = 16 * 2.0**-53 * (abs_a + abs_b * _SQRT2_FLOAT)
        candidates = np.nonzero(vals >= vals.max() - window)[0]
    best, ties = None, []
    for u in candidates:
        u = int(u)
        cand = (Scalar(int(a[u]), int(b[u]), e), int(count[u]))
        if best is not None and _ratio_gt(*best, *cand):
            continue
        if best is None or _ratio_gt(*cand, *best):
            best, ties = cand, [u]
        else:
            ties.append(u)
    return ties


# -- the rectangle lattice ------------------------------------------------------
#
# The rectangles of a grid are an array of shape (n_1, ..., n_t): axis s
# lists the cubes of parameter s in ``grid.cubes(s)`` order (by level, then
# by position in lexicographic order), so the flat order is
# ``enumerate_rectangles`` order.


def _level_start(d: int, k: int) -> int:
    """Index of the first level-``k`` cube of dimension ``d`` in cube order."""
    return ((1 << (k * d)) - 1) // ((1 << d) - 1)


def _cube_index(cube: DyadicCube) -> int:
    """Index of ``cube`` in cube order."""
    i = 0
    for p in cube.pos:
        i = (i << cube.level) | p
    return _level_start(cube.d, cube.level) + i


def _fold(arr: np.ndarray, grid: GridSpec) -> None:
    """In place: every rectangle's entry becomes the sum of the entries of
    the rectangles inside it, the tree version of :func:`zeta_sos`.

    Containment separates over parameters, so one pass per parameter folds
    children into parents from the finest level up.  A level's cubes are
    in lexicographic position order, so splitting each axis into (parent
    position, child bit) lines the children up under their parents.
    """
    for s, (d, depth) in enumerate(zip(grid.dims, grid.depth)):
        view = np.moveaxis(arr, s, 0)
        rest = view.shape[1:]
        for k in range(depth, 0, -1):
            lo = _level_start(d, k)
            parents = view[_level_start(d, k - 1):lo]
            children = view[lo:_level_start(d, k + 1)].reshape((1 << (k - 1), 2) * d + rest)
            parents += children.sum(axis=tuple(range(1, 2 * d, 2))).reshape(parents.shape)


def _rectangle_sup(grid: GridSpec, e, triples, abs_a, abs_b, dtype):
    """Best single rectangle; the first of equal ratios in enumeration order.

    Each rectangle's own mass goes to its lattice entry, one fold sums the
    masses inside every rectangle, and :func:`_exact_max` picks the best
    ratio.  A rectangle's cell count is a power of two, so dividing by it
    in floats is exact.
    """
    shape, logs = [], 0
    for d, depth in zip(grid.dims, grid.depth):
        shape.append(_level_start(d, depth + 1))
        per_cube = [(depth - k) * d for k in range(depth + 1)]
        logs = np.add.outer(logs, np.repeat(per_cube, [1 << (k * d) for k in range(depth + 1)]))
    counts = np.left_shift(1, logs, dtype=np.int64).ravel()
    a = np.zeros(shape, dtype=dtype)
    b = np.zeros_like(a)
    where = tuple(zip(*(tuple(_cube_index(c) for c in rect.factors) for rect, _, _ in triples)))
    a[where] = [am for _, am, _ in triples]
    b[where] = [bm for _, _, bm in triples]
    _fold(a, grid)
    _fold(b, grid)
    u = _exact_max(a.ravel(), b.ravel(), counts, e, abs_a, abs_b)[0]
    witness = frozenset(enumerate_rectangles(grid)[u].cell_keys(grid.depth))
    return Scalar(int(a.flat[u]), int(b.flat[u]), e), int(counts[u]), witness


def _exact_bruteforce(grid: GridSpec, e, triples, abs_a, abs_b, dtype):
    """Best ratio over every nonempty cell subset, by one zeta transform.

    Subset masses are summed over the subset lattice as integer pairs, on
    int64 by :func:`zeta_sos` and on Python integers by
    :func:`_zeta_sos_loop`.  :func:`_exact_max` then picks the best ratio,
    and ties go to fewer cells, then the lower mask.
    """
    cells = list(grid.cells())
    index = {c: i for i, c in enumerate(cells)}
    n_subsets = 1 << len(cells)
    a = np.zeros(n_subsets, dtype=dtype)
    bvec = np.zeros_like(a)
    for rect, am, bm in triples:
        mask = 0
        for cell in rect.cell_keys(grid.depth):
            mask |= 1 << index[cell]
        a[mask] += am
        bvec[mask] += bm
    pc = popcounts(n_subsets)
    if dtype is object:
        _zeta_sos_loop(a, bvec, len(cells))
    else:
        zeta_sos(a, bvec, len(cells))
    ties = _exact_max(a[1:], bvec[1:], pc[1:], e, abs_a, abs_b)
    u = 1 + min(ties, key=lambda i: pc[i + 1])
    witness = frozenset(c for i, c in enumerate(cells) if u >> i & 1)
    return Scalar(int(a[u]), int(bvec[u]), e), int(pc[u]), witness


# largest grid, in finest cells, that ``exact-bruteforce`` accepts
EXACT_CAP_BITS = 20


def bmo_norm(b: StepFunction, mode: str = "greedy-union") -> BmoEstimate:
    """Estimate of the product BMO norm of ``b``.

    The supremum ranges over unions of finest cells (the open sets of the
    discrete model).  ``rectangle-sup`` restricts to single rectangles;
    ``exact-bruteforce`` enumerates all nonempty subsets and dominates it
    (grids with more than ``EXACT_CAP_BITS`` cells are rejected).
    ``greedy-union`` would grow the best rectangle ``W`` one cell at a time
    while the Carleson ratio strictly improves, but no such step exists,
    so it returns ``rectangle-sup``'s answer.  Every rectangle with strict
    mass has at least two cells along each parameter, since a strict Haar
    function needs a cube it can split, and so does ``W``, which holds one
    of them.  A rectangle ``R`` with strict mass that is not inside ``W``
    either misses ``W`` or, in some parameter, has a factor that strictly
    contains ``W``'s and so has at least four cells; then at most half of
    ``R`` lies in ``W``.  Either way at least two cells of ``R`` lie
    outside ``W``, so one more cell completes no rectangle with strict
    mass: the union's mass stays ``W``'s while its cell count grows.

    With one parameter ``rectangle-sup`` is moreover the exact supremum.
    The maximal dyadic cubes inside a union of cells are disjoint, and
    every dyadic cube inside the union lies in one of them, so the union's
    ratio is an average of theirs, weighted by cell count.
    """
    if mode not in BMO_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    grid = b.grid
    masses = analyze(b).strict_masses()
    if not masses:
        return BmoEstimate(mode, 0.0, frozenset(), ZERO, 0)
    if mode == "exact-bruteforce" and grid.cell_count > EXACT_CAP_BITS:
        raise CapExceededError(
            f"{grid.cell_count} cells exceed the exact-mode cap of {EXACT_CAP_BITS}"
        )
    table = _integer_masses(masses)
    if mode == "exact-bruteforce":
        mass, count, witness = _exact_bruteforce(grid, *table)
    else:
        mass, count, witness = _rectangle_sup(grid, *table)
    value = float(np.sqrt(float(mass) / (count * float(grid.cell_volume))))
    return BmoEstimate(mode, value, witness, mass, count)
