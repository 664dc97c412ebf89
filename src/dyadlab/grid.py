"""Dyadic cubes, rectangles, signatures and product grids on the unit domain.

All analysis happens on ``[0,1)**d1 x ... x [0,1)**dt``: each parameter
``s`` carries the canonical dyadic grid of ``[0,1)**ds`` truncated at a
finite level ``depth[s]``.  Cubes are stored by (dimension, level,
integer position), so hashing and ordering are exact and cheap.

Signatures are plain bit tuples.  A *strict* signature is any element of
``{0,1}**d`` other than the all-ones tuple; the all-ones tuple labels the
L2-normalized indicator and is only admitted where an operation says so.
A vector signature is a tuple with one (possibly strict) signature per
parameter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalar import Scalar

__all__ = [
    "DyadicCube",
    "DyadicRectangle",
    "GridSpec",
    "enumerate_rectangles",
    "strict_signatures",
    "all_ones",
    "is_strict",
    "sig_xnor",
    "unit_cube",
]


def strict_signatures(d: int) -> list[tuple[int, ...]]:
    """All signatures in {0,1}**d except the all-ones tuple."""
    ones = all_ones(d)
    return [s for s in itertools.product((0, 1), repeat=d) if s != ones]


def all_ones(d: int) -> tuple[int, ...]:
    return (1,) * d


def is_strict(sig: tuple[int, ...]) -> bool:
    return any(b == 0 for b in sig)


def sig_xnor(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Signature of the pointwise product of two same-cube Haar functions."""
    return tuple(1 - (x ^ y) for x, y in zip(a, b))


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Dyadic cube ``2**-level * (pos + [0,1)**d)`` inside the unit cube."""

    d: int
    level: int
    pos: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if len(self.pos) != self.d:
            raise ValueError("position length does not match dimension")
        top = 1 << self.level
        if any(p < 0 or p >= top for p in self.pos):
            raise ValueError("cube escapes the unit domain")

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 1 << (self.level * self.d))

    def child(self, index: int) -> "DyadicCube":
        """The subcube one level down whose upper half on axis ``j`` is
        bit ``j`` of ``index``."""
        if not 0 <= index < (1 << self.d):
            raise ValueError("child index out of range")
        pos = tuple(2 * p + ((index >> j) & 1) for j, p in enumerate(self.pos))
        return DyadicCube(self.d, self.level + 1, pos)

    def contains(self, other: "DyadicCube") -> bool:
        if other.d != self.d or other.level < self.level:
            return False
        shift = other.level - self.level
        return all((q >> shift) == p for p, q in zip(self.pos, other.pos))

    def haar_sign(self, sig, level: int, pos) -> int:
        """Sign (+1 or -1) of the Haar function on this cube with signature
        ``sig`` over the subcube at ``level``, ``pos``.

        The subcube must lie inside this cube, strictly unless ``sig`` is
        all-ones.  Each axis whose signature bit is 0 flips the sign when
        the subcube sits in the lower half along that axis.
        """
        shift = level - self.level - 1
        sign = 1
        for eps, p in zip(sig, pos):
            if eps == 0 and ((p >> shift) & 1) == 0:
                sign = -sign
        return sign

    def cell_positions(self, depth: int):
        """Iterate level-``depth`` cell positions covering this cube."""
        shift = depth - self.level
        if shift < 0:
            raise ValueError("cube finer than requested depth")
        ranges = [range(p << shift, (p + 1) << shift) for p in self.pos]
        return itertools.product(*ranges)


def unit_cube(d: int) -> DyadicCube:
    return DyadicCube(d, 0, (0,) * d)


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """Product of dyadic cubes, one per parameter."""

    factors: tuple[DyadicCube, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("rectangle needs at least one factor")

    @property
    def t(self) -> int:
        return len(self.factors)

    @property
    def volume(self) -> Fraction:
        v = Fraction(1)
        for c in self.factors:
            v *= c.volume
        return v

    def contains(self, other: "DyadicRectangle") -> bool:
        if other.t != self.t:
            return False
        return all(a.contains(b) for a, b in zip(self.factors, other.factors))

    def cell_keys(self, depth: tuple[int, ...]):
        """Iterate finest-cell keys covered by this rectangle."""
        per_param = [c.cell_positions(n) for c, n in zip(self.factors, depth)]
        return itertools.product(*per_param)


@dataclass(frozen=True)
class GridSpec:
    """Finite product grid: per-parameter dimensions and finest levels."""

    dims: tuple[int, ...]
    depth: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "depth", tuple(self.depth))
        if len(self.dims) != len(self.depth):
            raise ValueError("dims and depth must have the same length")
        if any(d < 1 for d in self.dims):
            raise ValueError("dimensions must be positive")
        if any(n < 0 for n in self.depth):
            raise ValueError("depths must be >= 0")

    @classmethod
    def uniform(cls, dims, depth: int) -> "GridSpec":
        """The grid with finest level ``depth`` in every parameter: one
        step of a depth sweep."""
        return cls(dims, (depth,) * len(dims))

    @property
    def t(self) -> int:
        return len(self.dims)

    @property
    def cell_count(self) -> int:
        n = 1
        for d, k in zip(self.dims, self.depth):
            n <<= d * k
        return n

    @property
    def cell_volume(self) -> Fraction:
        return Fraction(1, self.cell_count)

    def cell_volume_scalar(self) -> Scalar:
        return Scalar(1, 0, sum(d * k for d, k in zip(self.dims, self.depth)))

    def cells(self):
        """Finest-cell keys in lexicographic order.

        A key is a tuple with one position tuple per parameter; positions
        index level-``depth[s]`` cells along each axis of that parameter.
        """
        per_param = [
            itertools.product(range(1 << k), repeat=d)
            for d, k in zip(self.dims, self.depth)
        ]
        return itertools.product(*(list(p) for p in per_param))

    def cubes(self, s: int, max_level: int | None = None):
        """All cubes of parameter ``s`` with level in [0, max_level]."""
        top = self.depth[s] if max_level is None else max_level
        d = self.dims[s]
        for k in range(top + 1):
            for pos in itertools.product(range(1 << k), repeat=d):
                yield DyadicCube(d, k, pos)

    def unit_rectangle(self) -> DyadicRectangle:
        return DyadicRectangle(tuple(unit_cube(d) for d in self.dims))


@lru_cache(maxsize=None)
def enumerate_rectangles(grid: GridSpec) -> tuple[DyadicRectangle, ...]:
    """All rectangles with factor levels in [0, depth[s]] per parameter."""
    per_param = [tuple(grid.cubes(s)) for s in range(grid.t)]
    return tuple(DyadicRectangle(f) for f in itertools.product(*per_param))
