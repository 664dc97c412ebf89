"""Iterated commutators of multiplication operators with dyadic shifts.

For one parameter, the bracket of multiplication by a Haar function with a
shift, applied to another Haar function, falls into six cases determined
by how the two cubes and the shifted child sit relative to each other:
disjoint and "symbol cube strictly inside" give zero; the diagonal, the
shifted diagonal and the two below-diagonal configurations give short
closed forms whose signs come from expanding the pointwise product of the
two Haar functions.

Resumming the cases turns the whole commutator into a finite linear
combination of shift/paraproduct composites: per parameter, five term
families (two diagonal, one shifted-diagonal, two triangular built on
renormalized averages), and the multi-parameter operator is the tensor
product of the one-parameter term lists.  :func:`verify_decomposition`
checks the identity exactly, in the scalar ring, for concrete inputs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError
from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridSpec,
    all_ones,
    sig_xnor,
    strict_signatures,
    unit_cube,
)
from .haar import (
    BASIS_CAP,
    _basis_slots,
    haar_basis_keys,
    haar_function,
    random_haar_function,
    synthesize_patterns,
)
from .paraproduct import ParaproductSpec, apply_paraproduct, bmo_norm
from .scalar import _SQRT2_FLOAT, ZERO, Scalar, sqrt2_pow
from .shift import ShiftMap, TensorShift, shift_key, tensor_apply_counting
from .stepfn import StepFunction
from ._kernels import power_iteration

__all__ = [
    "CaseLabel",
    "case_classify",
    "case_evaluate",
    "one_parameter_bracket",
    "commutator_apply",
    "OneParamTerm",
    "one_parameter_terms",
    "DecompositionTerm",
    "Decomposition",
    "decompose",
    "verify_decomposition",
    "term_descriptors",
    "combine_descriptors",
    "OperatorNormResult",
    "NORM_METHODS",
    "commutator_matrix",
    "operator_norm",
    "norm_ratio_experiment",
    "single_haar_symbol",
]


class CaseLabel(enum.Enum):
    DISJOINT = "disjoint"
    STRICTLY_INSIDE = "strictly-inside"  # function cube strictly inside symbol cube
    DIAGONAL = "diagonal"
    SHIFT_DIAGONAL = "shift-diagonal"
    BELOW_OFF_SHIFT = "below-off-shift"
    BELOW_ON_SHIFT = "below-on-shift"


def case_classify(I: DyadicCube, Iprime: DyadicCube, smap: ShiftMap) -> CaseLabel:
    """Mutually exclusive, exhaustive label for a (function, symbol) cube pair."""
    if I.d != Iprime.d:
        raise ValueError("cube dimensions differ")
    if I == Iprime:
        return CaseLabel.DIAGONAL
    if Iprime.contains(I):
        return CaseLabel.STRICTLY_INSIDE
    if I.contains(Iprime):
        shifted = smap.sigma_cube(I)
        if Iprime == shifted:
            return CaseLabel.SHIFT_DIAGONAL
        if shifted.contains(Iprime):
            return CaseLabel.BELOW_ON_SHIFT
        return CaseLabel.BELOW_OFF_SHIFT
    return CaseLabel.DISJOINT


def _single_rect(cube: DyadicCube) -> DyadicRectangle:
    return DyadicRectangle((cube,))


def one_parameter_bracket(
    grid: GridSpec, I: DyadicCube, eps, Iprime: DyadicCube, epsprime, smap: ShiftMap
) -> StepFunction:
    """Direct expansion of the bracket on a Haar pair, the test oracle.

    Computes symbol * (shifted function) minus the shift of the pointwise
    product, with the shift acting through the full Haar expansion.
    Raises when grid depth truncates a coefficient.
    """
    h = haar_function(grid, _single_rect(I), (tuple(eps),))
    hp = haar_function(grid, _single_rect(Iprime), (tuple(epsprime),))
    q = TensorShift.single(smap)
    qh, t1 = tensor_apply_counting(q, h)
    q_prod, t2 = tensor_apply_counting(q, hp * h)
    if t1 or t2:
        raise ValueError("grid too shallow to resolve the bracket")
    return hp * qh - q_prod


def case_evaluate(
    grid: GridSpec, I: DyadicCube, eps, Iprime: DyadicCube, epsprime, smap: ShiftMap
) -> StepFunction:
    """Closed-form bracket value for the matching case row.

    All signs are resolved by expanding the Haar products: the value of
    the coarser Haar function on the finer cube supplies each sign, times
    the coarser cube's ``|Q|**(-1/2)``.
    """
    eps = tuple(eps)
    epsprime = tuple(epsprime)
    label = case_classify(I, Iprime, smap)
    zero = StepFunction.zero(grid)
    sig_out = smap.sigma_sig(eps)

    if label in (CaseLabel.DISJOINT, CaseLabel.STRICTLY_INSIDE):
        return zero
    mag = sqrt2_pow(I.level * I.d)  # |I|**(-1/2)

    if label == CaseLabel.DIAGONAL:
        shifted = smap.sigma_cube(I)
        out = zero
        if sig_out is not None:
            v = I.haar_sign(epsprime, shifted.level, shifted.pos) * mag
            out = out + v * haar_function(grid, _single_rect(shifted), (sig_out,))
        prod_sig = sig_xnor(eps, epsprime)
        prod = haar_function(grid, _single_rect(I), (prod_sig,))
        q_prod, truncated = tensor_apply_counting(TensorShift.single(smap), prod)
        if truncated:
            raise ValueError("grid too shallow to resolve the diagonal case")
        return out - mag * q_prod

    if label == CaseLabel.SHIFT_DIAGONAL:
        shifted = Iprime  # = sigma(I)
        out = zero
        if sig_out is not None:
            prod_sig = sig_xnor(epsprime, sig_out)
            out = out + sqrt2_pow(shifted.level * shifted.d) * haar_function(
                grid, _single_rect(shifted), (prod_sig,)
            )
        sig_out_prime = smap.sigma_sig(epsprime)
        if sig_out_prime is not None:
            v = I.haar_sign(eps, shifted.level, shifted.pos) * mag
            second = smap.sigma_cube(shifted)
            out = out - v * haar_function(grid, _single_rect(second), (sig_out_prime,))
        return out

    # below-diagonal rows: the symbol cube sits strictly inside the function cube
    v = I.haar_sign(eps, Iprime.level, Iprime.pos) * mag
    out = zero
    if label == CaseLabel.BELOW_ON_SHIFT and sig_out is not None:
        shifted = smap.sigma_cube(I)
        w = shifted.haar_sign(sig_out, Iprime.level, Iprime.pos) * sqrt2_pow(
            shifted.level * shifted.d
        )
        out = out + w * haar_function(grid, _single_rect(Iprime), (epsprime,))
    sig_out_prime = smap.sigma_sig(epsprime)
    if sig_out_prime is not None:
        out = out - v * haar_function(
            grid, _single_rect(smap.sigma_cube(Iprime)), (sig_out_prime,)
        )
    return out


def _slot(ts: TensorShift, s: int) -> TensorShift:
    """The shift of parameter ``s`` alone, the identity elsewhere."""
    parts = [None] * ts.t
    parts[s] = ts.parts[s]
    return TensorShift(tuple(parts))


def commutator_apply(b: StepFunction, ts: TensorShift, f: StepFunction) -> StepFunction:
    """Iterated bracket of multiplication by ``b`` with one shift per parameter."""
    grid = f.grid
    if b.grid != grid or ts.t != grid.t:
        raise ValueError("grid/shift arity mismatch")
    if any(p is None for p in ts.parts):
        return StepFunction.zero(grid)  # bracket with the identity vanishes

    def rec(s: int, g: StepFunction) -> StepFunction:
        if s == 0:
            return b * g
        q = _slot(ts, s - 1)
        return (
            rec(s - 1, tensor_apply_counting(q, g)[0])
            - tensor_apply_counting(q, rec(s - 1, g))[0]
        )

    return rec(grid.t, f)


# -- decomposition into shift/paraproduct composites ------------------------------


@dataclass(frozen=True)
class OneParamTerm:
    """One family of the one-parameter resummation.

    ``position`` says where the shift acts: ``post`` composes the shift
    after the paraproduct, ``pre`` feeds the shifted function into the
    second paraproduct slot.  ``sign_eps`` (diagonal family only) marks
    that the rectangle sign is the symbol Haar function's value-sign on
    the shifted child.
    """

    kind: str
    coeff: int
    position: str
    eps1: tuple
    eps2: tuple
    eps3: tuple
    sign_eps: tuple | None = None


def one_parameter_terms(smap: ShiftMap, d: int) -> list[OneParamTerm]:
    """The five exact term families for one parameter.

    Two diagonal families (shift of the signed paraproduct, minus the
    shift of the Haar-product paraproduct, whose output signature may be
    the all-ones label), one shifted-diagonal family per signature in the
    image of the signature rule, and the two triangular families built on
    renormalized averages.  Families that the signature rule annihilates
    identically are omitted.
    """
    sigs = strict_signatures(d)
    ones = all_ones(d)
    image = sorted({s for s in (smap.sigma_sig(e) for e in sigs) if s is not None})
    terms: list[OneParamTerm] = []
    for ep in sigs:
        for e in sigs:
            if smap.sigma_sig(e) is not None:
                terms.append(
                    OneParamTerm("diag-shift", +1, "post", ep, e, e, sign_eps=ep)
                )
            et = sig_xnor(e, ep)
            if et == ones or smap.sigma_sig(et) is not None:
                terms.append(OneParamTerm("diag-product", -1, "post", ep, e, et))
        for dl in image:
            terms.append(
                OneParamTerm("shiftdiag-product", +1, "pre", ep, dl, sig_xnor(ep, dl))
            )
        terms.append(OneParamTerm("triangle-average", +1, "pre", ep, ones, ep))
        if smap.sigma_sig(ep) is not None:
            terms.append(OneParamTerm("triangle-shift", -1, "post", ep, ones, ep))
    return terms


def _child_signs(entries):
    """Per-rectangle sign: product of symbol-Haar signs on shifted children."""
    entries = tuple(entries)  # (param index, eps, shift map)

    def signs(rect: DyadicRectangle) -> int:
        sign = 1
        for s, eps, smap in entries:
            cube = rect.factors[s]
            child = smap.sigma_cube(cube)
            sign *= cube.haar_sign(eps, child.level, child.pos)
        return sign

    return signs


@dataclass(frozen=True)
class DecompositionTerm:
    """``coeff * post(B(b, pre(f)))``: each parameter's shift sits in
    exactly one of ``pre`` and ``post``, the other holds ``None`` there."""

    coeff: int
    para: ParaproductSpec
    pre: TensorShift
    post: TensorShift
    kinds: tuple

    def apply(self, b: StepFunction, f: StepFunction) -> StepFunction:
        g = tensor_apply_counting(self.pre, f)[0]
        h = tensor_apply_counting(self.post, apply_paraproduct(self.para, b, g))[0]
        return h if self.coeff == 1 else h * Scalar(self.coeff)

    def descriptor(self) -> tuple:
        """``(coeff, per-parameter (kind, eps1, eps2, eps3))``."""
        p = self.para
        return (self.coeff, tuple(zip(self.kinds, p.eps1, p.eps2, p.eps3)))


@dataclass(frozen=True)
class Decomposition:
    """Finite exact term list for the iterated commutator on a grid."""

    grid: GridSpec
    maps: tuple
    terms: tuple

    def apply(self, b: StepFunction, f: StepFunction) -> StepFunction:
        """The sum of ``term.apply(b, f)`` over all terms, with each distinct
        pre-shift of ``f`` computed once and each distinct post-shift applied
        once, to the sum of its terms' paraproducts (shifts are linear)."""
        pre_images: dict = {}
        post_sums: dict = {}
        for term in self.terms:
            g = pre_images.get(term.pre)
            if g is None:
                g = pre_images[term.pre] = tensor_apply_counting(term.pre, f)[0]
            h = apply_paraproduct(term.para, b, g)
            if term.coeff != 1:
                h = h * Scalar(term.coeff)
            acc = post_sums.get(term.post)
            post_sums[term.post] = h if acc is None else acc + h
        out = StepFunction.zero(self.grid)
        for post, h in post_sums.items():
            out = out + tensor_apply_counting(post, h)[0]
        return out


def decompose(maps, grid: GridSpec) -> Decomposition:
    """Build the exact term list for the commutator of the given shifts.

    Every emitted paraproduct is admissible with a strict first slot; the
    multi-parameter list is the product of the one-parameter lists.
    """
    maps = tuple(maps)
    if len(maps) != grid.t:
        raise ValueError("one shift map per parameter is required")
    for m, d in zip(maps, grid.dims):
        if m.d != d:
            raise ValueError("shift map dimension mismatch")
    per_param = [one_parameter_terms(m, d) for m, d in zip(maps, grid.dims)]
    terms = []
    for combo in itertools.product(*per_param):
        coeff = 1
        for t in combo:
            coeff *= t.coeff
        eps1 = tuple(t.eps1 for t in combo)
        eps2 = tuple(t.eps2 for t in combo)
        eps3 = tuple(t.eps3 for t in combo)
        sign_entries = [
            (s, t.sign_eps, maps[s])
            for s, t in enumerate(combo)
            if t.sign_eps is not None
        ]
        signs = _child_signs(sign_entries) if sign_entries else None
        pre = TensorShift(tuple(m if t.position == "pre" else None for m, t in zip(maps, combo)))
        post = TensorShift(tuple(m if t.position == "post" else None for m, t in zip(maps, combo)))
        terms.append(
            DecompositionTerm(
                coeff,
                ParaproductSpec(eps1, eps2, eps3, signs),
                pre,
                post,
                tuple(t.kind for t in combo),
            )
        )
    return Decomposition(grid, maps, tuple(terms))


def verify_decomposition(
    D: Decomposition, b: StepFunction, f: StepFunction
) -> StepFunction:
    """Exact residual ``commutator - sum of terms``; zero when the inputs
    keep clear of the truncation horizon (two levels of headroom at the
    finest end of each parameter)."""
    direct = commutator_apply(b, TensorShift(D.maps), f)
    return direct - D.apply(b, f)


def term_descriptors(D: Decomposition) -> tuple:
    """Multiset of structural term descriptors, canonically sorted."""
    return tuple(sorted(t.descriptor() for t in D.terms))


def combine_descriptors(d1: tuple, d2: tuple) -> tuple:
    """Tensor product of two descriptor multisets (parameter concatenation)."""
    out = []
    for (c1, p1), (c2, p2) in itertools.product(d1, d2):
        out.append((c1 * c2, p1 + p2))
    return tuple(sorted(out))


# -- operator norms -----------------------------------------------------------------


@dataclass(frozen=True)
class OperatorNormResult:
    value: float
    iterations: int
    converged: bool
    method: str


def single_haar_symbol(grid: GridSpec) -> StepFunction:
    """The mean-zero Haar function on the whole domain, the fixed test symbol."""
    rect = grid.unit_rectangle()
    vecsig = tuple((0,) * d for d in grid.dims)
    return haar_function(grid, rect, vecsig)


NORM_METHODS = ("power", "svd")
# power iteration: relative tolerance, step limit and start-vector seed
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000
POWER_SEED = 0


# float64 BLAS sums integers exactly while every partial sum is below 2**53
_FLOAT_EXACT_BOUND = 1 << 53


@lru_cache(maxsize=16)
def _shift_index_map(q: TensorShift, grid: GridSpec) -> np.ndarray:
    """The shift ``q`` as a partial map of basis indices: entry ``j`` is
    the index of the shifted ``j``-th key, or -1 where :func:`shift_key`
    drops it.  A shift is injective on the keys it keeps."""
    keys = haar_basis_keys(grid)
    index = {key: i for i, key in enumerate(keys)}
    shifted = (shift_key(q, key, grid.depth)[0] for key in keys)
    out = [-1 if k is None else index[k] for k in shifted]
    assert len(set(out) - {-1}) == len(out) - out.count(-1), "shift index map is not injective"
    out = np.array(out, dtype=np.intp)
    out.flags.writeable = False
    return out


def _pattern_rows(d: int, depth: int) -> np.ndarray:
    """Row ``k`` of the int8 matrix is the +-1/0 sign pattern of the
    ``k``-th slot of ``_basis_slots(d, depth)`` over the cells of the
    one-parameter grid, synthesized by the Haar pyramid."""
    grid = GridSpec((d,), (depth,))
    index = {cell: i for i, cell in enumerate(grid.cells())}
    slots = _basis_slots(d, depth)
    rows = np.zeros((len(slots), grid.cell_count), dtype=np.int8)
    for row, (cube, sig) in zip(rows, slots):
        pattern = synthesize_patterns(grid, [(((cube.level, cube.pos, sig),), 1, 0)], 0)
        row[[index[cell] for cell in pattern.values]] = [v.m for v in pattern.values.values()]
    return rows


@lru_cache(maxsize=4)
def _sign_table(grid: GridSpec) -> tuple:
    """``(S, L)``: row ``i`` of the int8 matrix ``S`` is the +-1/0 sign
    pattern ``H_i`` of the ``i``-th key of :func:`haar_basis_keys` over the
    cells in :meth:`GridSpec.cells` order, and ``h_i = sqrt(2)**L_i * H_i``
    with ``L_i = sum(level * d)``.  ``S`` is the Kronecker product of the
    parameters' :func:`_pattern_rows` with the mean's row moved first."""
    signs, levels = np.ones((1, 1), dtype=np.int8), np.zeros(1, dtype=np.int64)
    mean = 0  # the mean key's row in the Kronecker product
    for d, n in zip(grid.dims, grid.depth):
        slots = _basis_slots(d, n)
        signs = np.kron(signs, _pattern_rows(d, n))
        levels = np.add.outer(levels, [cube.level * d for cube, _ in slots]).ravel()
        mean = mean * len(slots) + slots.index((unit_cube(d), all_ones(d)))
    order = np.r_[mean, :mean, mean + 1 : len(levels)]
    signs, levels = signs[order], levels[order]
    signs.flags.writeable = levels.flags.writeable = False  # shared by the cache
    return signs, levels


def _multiplier(b: StepFunction, grid: GridSpec) -> tuple:
    """Exact M_b as ``(PQ, E)``, entry ``(i, j)`` = ``(PQ[0] + PQ[1]*sqrt(2))
    / 2**E``.

    With ``b = (m + n*sqrt(2)) / 2**e`` over one denominator, M_b is
    ``sqrt(2)**(L_i+L_j) * (A + B*sqrt(2))`` over ``2**e`` times the cell
    count, for ``A = S*diag(m)*S^T`` and ``B = S*diag(n)*S^T`` of
    :func:`_sign_table`: an odd ``L_i + L_j`` swaps the parts (``P = 2B``,
    ``Q = A``) and the rest is a left shift.  The arrays are int64, with
    ``A`` and ``B`` from float64 BLAS, while the bound below keeps every
    partial sum and every entry of the commutator below 2**53; otherwise
    the same steps run on numpy object arrays of Python integers.
    """
    signs, levels = _sign_table(grid)
    vals = [b.values.get(cell, ZERO) for cell in grid.cells()]
    e = max(v.e for v in vals)
    mn = [[v.m << (e - v.e) for v in vals], [v.n << (e - v.e) for v in vals]]
    # |P|, |Q| <= max(sum|m|, 2 sum|n|) * 2**max(L); each bracket at most doubles them
    bound = max(sum(map(abs, mn[0])), 2 * sum(map(abs, mn[1]))) << (int(levels.max()) + grid.t)
    real, exact = (np.float64, np.int64) if bound < _FLOAT_EXACT_BOUND else (object, object)
    s = signs.astype(real)
    ab = ((s * np.array(mn, dtype=real)[:, None]) @ s.T).astype(exact)
    k = levels[:, None] + levels
    odd = (k & 1).astype(bool)
    ab[:, odd] = 2 * ab[1, odd], ab[0, odd]
    ab <<= (k >> 1).astype(exact)
    return ab, e + sum(d * n for d, n in zip(grid.dims, grid.depth))


def commutator_matrix(
    b: StepFunction, ts: TensorShift, grid: GridSpec, cap: int = BASIS_CAP
) -> np.ndarray:
    """Float matrix of ``f -> commutator_apply(b, ts, f)`` in the ordered
    Haar basis (:func:`haar_basis_keys`; column ``j`` is the image of the
    ``j``-th key).

    The matrix is built exactly in coefficient space.  M_b comes from
    integer sign-pattern products (:func:`_multiplier`): on float64 BLAS
    while every sum stays below 2**53, else on numpy object arrays of
    Python integers.  Each shifted parameter ``s`` is a 0/1 index map Q_s
    from :func:`shift_key`, and ``C <- C*Q_s - Q_s*C`` for ``s = 1..t`` is
    the nesting of :func:`commutator_apply`.  Each exact entry is then
    rounded once.  The ``cap`` check comes before any work; then bad input
    fails like ``commutator_apply``.
    """
    size = grid.cell_count
    if size > cap:
        raise CapExceededError(f"basis size {size} exceeds cap {cap}")
    if b.grid != grid or ts.t != grid.t:
        raise ValueError("grid/shift arity mismatch")
    if any(p is None for p in ts.parts):
        return np.zeros((size, size))  # bracket with the identity vanishes
    pq, e = _multiplier(b, grid)
    for s in range(grid.t):
        # column j of C*Q is column qmap[j] of C (a gather); row k of C
        # lands on row qmap[k] of Q*C (a scatter)
        qmap = _shift_index_map(_slot(ts, s), grid)
        kept = np.flatnonzero(qmap >= 0)
        out = np.zeros_like(pq)
        out[:, :, kept] = pq[:, :, qmap[kept]]
        out[:, qmap[kept]] -= pq[:, kept]
        pq = out
    # round as Scalar.__float__ does: P/2**e + (Q/2**e)*sqrt(2) where the
    # parts share a sign, Scalar.__float__ itself where they do not
    p, q = pq
    out = np.ldexp(p.astype(np.float64), -e)
    out += np.ldexp(q.astype(np.float64), -e) * _SQRT2_FLOAT
    for i, j in zip(*np.nonzero((p < 0) & (q > 0) | (p > 0) & (q < 0))):
        out[i, j] = float(Scalar(int(p[i, j]), int(q[i, j]), e))
    return out


def operator_norm(
    b: StepFunction,
    ts: TensorShift,
    grid: GridSpec,
    method: str = "power",
    cap: int = BASIS_CAP,
) -> OperatorNormResult:
    """Largest singular value of ``f -> commutator(b, f)`` in the Haar basis.

    The matrix comes from :func:`commutator_matrix`: M_b from integer
    sign-pattern products (float64 BLAS below 2**53, numpy object arrays
    of Python integers above) and shift index maps, each exact entry
    rounded once, so the bound changes the cost, never a bit of the
    result.  ``svd`` takes the largest singular value of the dense matrix;
    ``power`` runs power iteration from a start vector seeded by
    ``POWER_SEED``, to relative tolerance ``POWER_TOL`` in at most
    ``POWER_MAX_ITER`` steps.
    """
    if method not in NORM_METHODS:
        raise ValueError(f"unknown method {method!r}")
    a = commutator_matrix(b, ts, grid, cap)
    if method == "svd":
        value = float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
        return OperatorNormResult(value, 0, True, "svd")
    rng = np.random.default_rng(POWER_SEED)
    v0 = rng.standard_normal(a.shape[0])
    sigma, iters, converged = power_iteration(a, v0, POWER_TOL, POWER_MAX_ITER)
    return OperatorNormResult(float(sigma), int(iters), bool(converged), "power")


def norm_ratio_experiment(
    depths,
    seeds,
    maps=(ShiftMap(1, "first-child", "identity"),),
    bmo_mode: str = "greedy-union",
    method: str = "power",
):
    """Commutator norm over BMO norm for seeded random symbols.

    ``maps`` holds one shift per parameter; depth ``n`` means ``n`` levels
    in every parameter (:meth:`GridSpec.uniform`).  Returns one row per
    (depth, seed); rows with no strict content in the symbol are skipped
    (ratio ``None``, no iteration run, ``converged`` ``None``).  Every
    other row carries the operator-norm iteration count and whether it
    converged.  Ratios are invariant under scaling of the symbol.
    """
    dims = tuple(smap.d for smap in maps)
    ts = TensorShift(maps)
    rows = []
    for depth in depths:
        grid = GridSpec.uniform(dims, depth)
        for seed in seeds:
            b = random_haar_function(grid, np.random.default_rng(seed))
            est = bmo_norm(b, bmo_mode)
            if est.value == 0.0:
                ratio, res = None, OperatorNormResult(0.0, 0, None, method)
            else:
                res = operator_norm(b, ts, grid, method=method)
                ratio = res.value / est.value
            rows.append(
                {
                    "seed": seed,
                    "depth": depth,
                    "ratio": ratio,
                    "bmo_mode": bmo_mode,
                    "opnorm": res.value,
                    "bmo": est.value,
                    "iterations": res.iterations,
                    "converged": res.converged,
                }
            )
    return rows
