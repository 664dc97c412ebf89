"""Haar analysis and synthesis on finite dyadic product grids.

Basis convention.  Per parameter ``s`` the orthonormal basis of step
functions on ``[0,1)**ds`` at depth ``N`` consists of the strict-signature
Haar functions ``h(cube, sig)`` for cubes of level ``< N`` together with
the constant function (the normalized indicator of the unit cube, labeled
by the all-ones signature).  The tensor basis over all parameters is the
product of these; a coefficient key is ``(DyadicRectangle, vector
signature)`` where a parameter sitting in its constant slot contributes
the unit cube with the all-ones signature.  The one key that is constant
in *every* parameter is :func:`mean_key`; its coefficient is the mean.
Each parameter's slots are listed once, in ``(level, pos, sig)`` order,
by ``_basis_slots``: the basis order, the slots of random functions and
the commutator's sign patterns all read that table.

Shift operators and the square function only look at the all-strict keys;
paraproducts additionally consume renormalized averages, which are inner
products against all-ones signatures at arbitrary levels.

Transform.  :func:`analyze` and :func:`synthesize` run a sparse, separable
integer pyramid (Mallat's fast wavelet transform, in the unnormalized
sum/difference form of Sweldens' lifting scheme).  The forward pass takes
one parameter at a time from the finest level to the coarsest; at each
level, per-axis sum/difference butterflies combine the ``2**d`` children
of every cube that carries data into the parent's ``2**d`` signatures, and
the all-ones sum feeds the next level.  Values are Python ints over one
shared power-of-two denominator, and each coefficient's ``|R|**(-1/2)`` is
applied once at the end, as a power of sqrt(2) whose parity is that of
``sum(level * d)``.  :func:`synthesize` is the transpose, coarse to fine,
and accepts all-ones keys at any level; :func:`haar_function` and
:func:`square_function_sq` are built with it.  Cost follows the support of
the input, not the size of the grid.  A restricted forward pass keeps one
signature per parameter and, for all-ones parts, the sums at every level
including the cells (:func:`haar_pattern_sums`); paraproducts are computed
from two such passes and one inverse pass (:func:`synthesize_patterns`).

:func:`haar_coefficient` and :func:`haar_cell_value` are the per-cell
reference definitions; the tests check the pyramid against them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    all_ones,
    is_strict,
    strict_signatures,
    unit_cube,
)
from .scalar import Scalar, ZERO, ONE, sqrt2_pow
from .stepfn import StepFunction

__all__ = [
    "haar_function",
    "haar_coefficient",
    "HaarExpansion",
    "analyze",
    "synthesize",
    "haar_pattern_sums",
    "synthesize_patterns",
    "square_function_sq",
    "haar_basis_keys",
    "mean_key",
    "random_haar_function",
]

# the largest ordered basis (haar_basis_keys) an operator matrix is built in
BASIS_CAP = 4096


# -- pointwise values ---------------------------------------------------------


def _cube_haar_value(cube: DyadicCube, sig, cell_part, depth: int) -> Scalar:
    """Value of the one-parameter Haar function at a finest cell.

    The cell must lie inside the cube; the magnitude is |Q|**(-1/2).
    """
    mag = sqrt2_pow(cube.level * cube.d)
    return mag if cube.haar_sign(sig, depth, cell_part) > 0 else -mag


def _validate_key(grid: GridSpec, rect: DyadicRectangle, vecsig) -> None:
    if rect.t != grid.t or len(vecsig) != grid.t:
        raise ValueError("rectangle/signature arity does not match the grid")
    for cube, sig, d, n in zip(rect.factors, vecsig, grid.dims, grid.depth):
        if cube.d != d or len(sig) != d:
            raise ValueError("factor dimension mismatch")
        if cube.level > n:
            raise ValueError("rectangle finer than the grid depth")
        if is_strict(sig) and cube.level >= n:
            raise ValueError(
                "strict Haar function not resolvable at the finest level"
            )


def haar_cell_value(grid: GridSpec, rect: DyadicRectangle, vecsig, cell) -> Scalar:
    v = ONE
    for cube, sig, part, n in zip(rect.factors, vecsig, cell, grid.depth):
        v = v * _cube_haar_value(cube, sig, part, n)
    return v


@lru_cache(maxsize=8192)
def _haar_function_cached(grid: GridSpec, rect: DyadicRectangle, vecsig) -> StepFunction:
    _validate_key(grid, rect, vecsig)
    return synthesize(_expansion_unchecked(grid, {(rect, vecsig): ONE}))


def haar_function(grid: GridSpec, rect: DyadicRectangle, vecsig) -> StepFunction:
    """The L2-normalized tensor Haar function for ``(rect, vecsig)``.

    Instances are cached per key and shared; step functions are never
    mutated in place, so sharing is safe.
    """
    return _haar_function_cached(grid, rect, tuple(vecsig))


def haar_coefficient(f: StepFunction, rect: DyadicRectangle, vecsig) -> Scalar:
    """Exact inner product of ``f`` with the tensor Haar function.

    Signatures may mix strict parts with all-ones parts at any level, so
    this also computes the renormalized averages used by paraproducts.
    """
    grid = f.grid
    _validate_key(grid, rect, vecsig)
    total = ZERO
    for cell in rect.cell_keys(grid.depth):
        v = f.values.get(cell)
        if v is not None:
            total = total + v * haar_cell_value(grid, rect, vecsig, cell)
    return total * grid.cell_volume_scalar()


# -- expansions ---------------------------------------------------------------


def mean_key(grid: GridSpec):
    """The all-constant basis key: its coefficient is the mean."""
    rect = grid.unit_rectangle()
    return rect, tuple(all_ones(d) for d in grid.dims)


class HaarExpansion:
    """Exact Haar coefficients of a step function, one per basis key."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: GridSpec, coeffs: dict | None = None):
        self.grid = grid
        cleaned = {}
        if coeffs:
            for key, c in coeffs.items():
                c = Scalar.coerce(c)
                if not c.is_zero:
                    cleaned[key] = c
        self.coeffs = cleaned

    def get(self, key) -> Scalar:
        return self.coeffs.get(key, ZERO)

    @property
    def mean(self) -> Scalar:
        return self.get(mean_key(self.grid))

    def parseval_sq(self) -> Scalar:
        return sum((c * c for c in self.coeffs.values()), ZERO)

    def strict_masses(self) -> dict:
        """Per rectangle, the sum of squared coefficients over all-strict keys."""
        masses: dict = {}
        for (rect, vecsig), c in self.coeffs.items():
            if all(is_strict(sig) for sig in vecsig):
                add = c * c
                cur = masses.get(rect)
                masses[rect] = add if cur is None else cur + add
        return masses

    def strict_sq_sum(self) -> Scalar:
        """Sum of squared coefficients over all-strict keys only."""
        return sum(self.strict_masses().values(), ZERO)

    def __eq__(self, other):
        if not isinstance(other, HaarExpansion):
            return NotImplemented
        return self.grid == other.grid and self.coeffs == other.coeffs

    def __repr__(self):
        return f"HaarExpansion(grid={self.grid!r}, nnz={len(self.coeffs)})"


# -- the integer pyramid -------------------------------------------------------
#
# A pass works on dicts keyed by *slot tuples*, one slot per parameter: a
# finest-level position before that parameter is transformed, and
# ``(level, pos, sig)`` after it.  Values are "pattern sums": inner products
# with the Haar sign pattern ``H = h * |Q|**(1/2)`` (+-1 on the cube, or its
# indicator for the all-ones signature), so every butterfly is a plain
# sum or difference.  Inside a pass, ``m + n*sqrt(2)`` over the pass's
# shared denominator ``2**e`` is packed into the one int ``m * 2**bits + n``;
# every value a pass produces is a +-1 combination of its inputs, so once
# ``bits`` exceeds the bit length of the sum of all ``|n|`` the two parts
# never mix.


@lru_cache(maxsize=None)
def _sig_table(d: int):
    """Signatures by butterfly index (bit ``j`` of the index is ``sig[j]``),
    and the index pairs ``(low, high)`` that each axis's butterfly combines.

    A child cube's index is read the same way (bit ``j`` is its upper half
    on axis ``j``), matching :meth:`DyadicCube.child`.
    """
    sigs = tuple(tuple((i >> j) & 1 for j in range(d)) for i in range(1 << d))
    pairs = tuple(
        (i, i | (1 << j)) for j in range(d) for i in range(1 << d) if not (i >> j) & 1
    )
    return sigs, pairs


def _sig_index(sig) -> int:
    return sum(b << j for j, b in enumerate(sig))


# analyze's keys reuse their cubes: a new DyadicCube validates every field
_cube = lru_cache(maxsize=1 << 14)(DyadicCube)


@lru_cache(maxsize=1 << 14)
def _parent(pos):
    """Parent position and child index of a cube position."""
    child = 0
    for j, p in enumerate(pos):
        child |= (p & 1) << j
    return tuple(p >> 1 for p in pos), child


@lru_cache(maxsize=1 << 14)
def _children(pos):
    """Child positions of a cube position, by child index."""
    sigs, _ = _sig_table(len(pos))
    return tuple(tuple(2 * p + b for p, b in zip(pos, bits)) for bits in sigs)


def _pack(items):
    """``(slots, m, n, e)`` items, values ``(m + n*sqrt(2)) / 2**e``, ->
    ``({slots: packed}, e, bits)`` over the largest ``e``; equal slots add."""
    items = list(items)
    e = max((it[3] for it in items), default=0)
    bound = sum(abs(n) << (e - ne) for _, _, n, ne in items)
    bits = bound.bit_length() + 1
    packed: dict = {}
    for slots, m, n, ne in items:
        packed[slots] = packed.get(slots, 0) + (((m << bits) + n) << (e - ne))
    return packed, e, bits


def _unpack(x: int, bits: int):
    half = 1 << (bits - 1)
    n = ((x + half) & ((half << 1) - 1)) - half
    return (x - n) >> bits, n


def _forward_param(vals: dict, s: int, d: int, depth: int, keep) -> dict:
    """Forward pass on parameter ``s``: slot ``s`` goes from a finest
    position to ``(level, pos, sig)``, finest level first.

    ``keep=None`` emits every strict signature below ``depth`` and the
    all-ones sum of the unit cube; ``keep=sig`` emits only ``sig``, and an
    all-ones ``sig`` emits the sums at every level, the cells included.
    """
    sigs, pairs = _sig_table(d)
    ones = len(sigs) - 1
    if keep is None:
        strict, sums = range(ones), False
    else:
        k = _sig_index(keep)
        strict, sums = ((), True) if k == ones else ((k,), False)
    out: dict = {}
    cur = vals
    for level in range(depth, 0, -1):
        if sums:
            for key, v in cur.items():
                out[key[:s] + ((level, key[s], sigs[ones]),) + key[s + 1 :]] = v
        groups: dict = {}
        for key, v in cur.items():
            ppos, child = _parent(key[s])
            parent = key[:s] + (ppos,) + key[s + 1 :]
            g = groups.get(parent)
            if g is None:
                g = groups[parent] = [0] * (ones + 1)
            g[child] = v
        cur = {}
        for parent, g in groups.items():
            for i, k in pairs:
                lo, hi = g[i], g[k]
                g[i] = hi - lo
                g[k] = hi + lo
            if g[ones]:
                cur[parent] = g[ones]
            for i in strict:
                if g[i]:
                    slot = (level - 1, parent[s], sigs[i])
                    out[parent[:s] + (slot,) + parent[s + 1 :]] = g[i]
    if keep is None or sums:
        for key, v in cur.items():
            out[key[:s] + ((0, key[s], sigs[ones]),) + key[s + 1 :]] = v
    return out


def _inverse_param(vals: dict, s: int, d: int, depth: int) -> dict:
    """Transpose of :func:`_forward_param`, coarsest level first: slot
    ``s`` goes from ``(level, pos, sig)`` to a finest position.  All-ones
    signatures are accepted at every level up to ``depth``."""
    sigs, pairs = _sig_table(d)
    ones = len(sigs) - 1
    by_level: list = [{} for _ in range(depth + 1)]
    for key, v in vals.items():
        level, pos, sig = key[s]
        i = _sig_index(sig)
        if len(sig) != d or level > depth or (level == depth and i != ones):
            raise ValueError(f"Haar key slot {key[s]} not resolvable on this grid")
        rest = key[:s] + (pos,) + key[s + 1 :]
        g = by_level[level].get(rest)
        if g is None:
            g = by_level[level][rest] = [0] * (ones + 1)
        g[i] += v
    for level in range(depth):
        finer = by_level[level + 1]
        for key, g in by_level[level].items():
            for i, k in pairs:
                dif, tot = g[i], g[k]
                g[i] = tot - dif
                g[k] = tot + dif
            for cpos, v in zip(_children(key[s]), g):
                if v:
                    ckey = key[:s] + (cpos,) + key[s + 1 :]
                    h = finer.get(ckey)
                    if h is None:
                        h = finer[ckey] = [0] * (ones + 1)
                    h[ones] += v
    return {key: g[ones] for key, g in by_level[depth].items() if g[ones]}


def _forward(f: StepFunction, vecsig=None):
    """Packed pattern sums of ``f``: ``(sums, e, bits)``, see :func:`_forward_param`."""
    grid = f.grid
    vals, e, bits = _pack((cell, v.m, v.n, v.e) for cell, v in f.values.items())
    for s, (d, n) in enumerate(zip(grid.dims, grid.depth)):
        vals = _forward_param(vals, s, d, n, None if vecsig is None else vecsig[s])
    return vals, e, bits


def _inverse(grid: GridSpec, items) -> StepFunction:
    vals, e, bits = _pack(items)
    for s, (d, n) in enumerate(zip(grid.dims, grid.depth)):
        vals = _inverse_param(vals, s, d, n)
    values = {}
    for cell, x in vals.items():
        m, n = _unpack(x, bits)
        values[cell] = Scalar(m, n, e)
    return StepFunction._of(grid, values)


def haar_pattern_sums(f: StepFunction, vecsig) -> tuple:
    """Sums of ``f`` against the Haar sign patterns of one vector signature.

    Returns ``({slots: (m, n)}, e)``: for the rectangle with per-parameter
    slots ``(level, pos, sig)``, ``sum over cells of f * H`` equals
    ``(m + n*sqrt(2)) / 2**e``, where ``H`` is the Haar function's sign
    pattern, so ``haar_coefficient = sum * |R|**(-1/2) * cell volume``.
    Every rectangle where ``vecsig`` resolves is covered; all-ones parts
    give the plain sums (renormalized averages up to scale) at every
    level, the cells included.  Zero sums are omitted.
    """
    dims = f.grid.dims
    if len(vecsig) != len(dims) or any(len(sig) != d for sig, d in zip(vecsig, dims)):
        raise ValueError("signature arity does not match the grid")
    sums, e, bits = _forward(f, vecsig)
    return {slots: _unpack(x, bits) for slots, x in sums.items()}, e


def synthesize_patterns(grid: GridSpec, terms, e: int) -> StepFunction:
    """Step function ``sum of (m + n*sqrt(2)) / 2**e * H`` over
    ``(slots, m, n)`` terms, ``H`` the sign pattern named by ``slots``
    (see :func:`haar_pattern_sums`); the transpose of the forward pass."""
    return _inverse(grid, ((slots, m, n, e) for slots, m, n in terms))


def _times_rsqrt_volume(slots, dims, m: int, n: int, e: int):
    """``(m + n*sqrt(2)) / 2**e`` times ``|R|**(-1/2) = sqrt(2)**L`` for the
    rectangle of ``slots``, ``L = sum(level * d)``: a swap of the two parts
    when ``L`` is odd, a shift of the denominator by ``L // 2``."""
    half = sum(slot[0] * d for slot, d in zip(slots, dims))
    if half & 1:
        m, n = 2 * n, m
    return m, n, e - (half >> 1)


def analyze(f: StepFunction) -> HaarExpansion:
    """Exact Haar coefficients; inverse of :func:`synthesize`."""
    grid = f.grid
    dims = grid.dims
    sums, e, bits = _forward(f)
    e += sum(d * n for d, n in zip(dims, grid.depth))  # the cell volume
    coeffs: dict = {}
    for slots, x in sums.items():
        rect = DyadicRectangle(
            tuple(_cube(d, level, pos) for (level, pos, _), d in zip(slots, dims))
        )
        coeffs[(rect, tuple(slot[2] for slot in slots))] = Scalar(
            *_times_rsqrt_volume(slots, dims, *_unpack(x, bits), e)
        )
    return _expansion_unchecked(grid, coeffs)


def _expansion_unchecked(grid, coeffs) -> HaarExpansion:
    e = HaarExpansion.__new__(HaarExpansion)
    e.grid = grid
    e.coeffs = coeffs
    return e


def synthesize(e: HaarExpansion) -> StepFunction:
    """Exact reconstruction from Haar coefficients.

    Keys may carry all-ones parts at any level (normalized indicators).
    """
    grid = e.grid
    items = []
    for (rect, vecsig), c in e.coeffs.items():
        slots = tuple(
            (cube.level, cube.pos, sig) for cube, sig in zip(rect.factors, vecsig)
        )
        # h = H * |R|**(-1/2): the pattern sum of each coefficient
        items.append((slots, *_times_rsqrt_volume(slots, grid.dims, c.m, c.n, c.e)))
    return _inverse(grid, items)


# -- square function and norms ---------------------------------------------------


def square_function_sq(f: StepFunction) -> StepFunction:
    """Pointwise square of the multi-parameter square function, exact.

    Sums ``mass_R * 1_R / |R|`` over the rectangles, with ``mass_R`` the
    strict mass of :meth:`HaarExpansion.strict_masses`; the square root (a
    float) is left to the caller.  Since ``1_R / |R|`` is
    ``|R|**(-1/2)`` times the all-ones Haar function of ``R``, this is one
    synthesis of those keys.
    """
    grid = f.grid
    ones = tuple(all_ones(d) for d in grid.dims)
    coeffs = {
        (rect, ones): mass * sqrt2_pow(sum(q.level * q.d for q in rect.factors))
        for rect, mass in analyze(f).strict_masses().items()
    }
    return synthesize(_expansion_unchecked(grid, coeffs))


# -- bases and random functions ----------------------------------------------------


@lru_cache(maxsize=None)
def _basis_slots(d: int, depth: int) -> tuple:
    """One parameter's basis slots ``(cube, sig)`` in ``(level, pos, sig)``
    order: each strict signature on every cube below ``depth``, and the
    constant slot ``(unit cube, all-ones)``, which sorts last among level 0.
    A depth-0 parameter has the constant slot only."""
    slots = [
        (cube, sig)
        for cube in GridSpec((d,), (depth,)).cubes(0, depth - 1)
        for sig in strict_signatures(d)
    ]
    slots.insert(len(strict_signatures(d)) if depth else 0, (unit_cube(d), all_ones(d)))
    return tuple(slots)


@lru_cache(maxsize=16)
def haar_basis_keys(grid: GridSpec) -> tuple:
    """Ordered orthonormal basis keys: the mean key first, then all others
    in the product order of the parameters' :func:`_basis_slots`, which is
    the order of the per-parameter ``(level, pos, sig)`` tuples."""
    mean = mean_key(grid)
    keys = [mean]
    for combo in itertools.product(*map(_basis_slots, grid.dims, grid.depth)):
        key = (DyadicRectangle(tuple(c for c, _ in combo)), tuple(sig for _, sig in combo))
        if key != mean:
            keys.append(key)
    return tuple(keys)


def basis_function(grid: GridSpec, key) -> StepFunction:
    rect, vecsig = key
    return haar_function(grid, rect, vecsig)


def random_haar_function(
    grid: GridSpec,
    rng,
    max_levels=None,
    include_mean: bool = False,
) -> StepFunction:
    """Seeded random function with coefficients in {-8..8}/8 on the
    all-strict Haar slots with factor levels bounded by ``max_levels``,
    one bound per parameter; keys are drawn in :func:`haar_basis_keys` order."""
    if max_levels is None:
        max_levels = tuple(n - 1 for n in grid.depth)
    per_param = []
    for s, (d, n) in enumerate(zip(grid.dims, grid.depth)):
        top = max_levels[s]  # a bound for every parameter, depth 0 included
        slots = _basis_slots(d, n)
        per_param.append([(c, sig) for c, sig in slots if is_strict(sig) and c.level <= top])
    coeffs = {}
    for combo in itertools.product(*per_param):
        k = int(rng.integers(-8, 9))
        if k:
            rect = DyadicRectangle(tuple(c for c, _ in combo))
            vecsig = tuple(sig for _, sig in combo)
            coeffs[(rect, vecsig)] = Scalar(k, 0, 3)
    if include_mean:
        coeffs[mean_key(grid)] = Scalar(int(rng.integers(-8, 9)), 0, 3)
    return synthesize(HaarExpansion(grid, coeffs))
