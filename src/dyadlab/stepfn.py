"""Step functions on finite dyadic product grids.

A :class:`StepFunction` assigns a :class:`~dyadlab.scalar.Scalar` to each
finest cell of a :class:`~dyadlab.grid.GridSpec`; unset cells read as
zero.  All arithmetic (sums, pointwise products, squared L2 norms) is
exact.  Floats appear only in ``to_array``.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec
from .scalar import Scalar, ZERO

__all__ = ["StepFunction"]


class StepFunction:
    """Scalar-valued function, constant on the finest cells of its grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values: dict | None = None):
        self.grid = grid
        vals = {}
        if values:
            for cell, v in values.items():
                v = Scalar.coerce(v)
                if not v.is_zero:
                    vals[cell] = v
        self.values = vals

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, grid: GridSpec) -> "StepFunction":
        return cls(grid)

    @classmethod
    def constant(cls, grid: GridSpec, c) -> "StepFunction":
        c = Scalar.coerce(c)
        if c.is_zero:
            return cls(grid)
        return cls(grid, {cell: c for cell in grid.cells()})

    @classmethod
    def _of(cls, grid: GridSpec, values: dict) -> "StepFunction":
        """Trusted constructor: stores ``values`` as given, which must map
        cells to nonzero Scalars."""
        f = cls.__new__(cls)
        f.grid = grid
        f.values = values
        return f

    # -- access ---------------------------------------------------------------

    def value_at(self, cell) -> Scalar:
        return self.values.get(cell, ZERO)

    @property
    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        return self.grid == other.grid and self.values == other.values

    def __hash__(self):
        raise TypeError("StepFunction is not hashable")

    # -- exact arithmetic -------------------------------------------------------

    def _check_grid(self, other: "StepFunction"):
        if self.grid != other.grid:
            raise ValueError("grid mismatch")

    def __add__(self, other: "StepFunction") -> "StepFunction":
        self._check_grid(other)
        out = dict(self.values)
        for cell, v in other.values.items():
            w = out.get(cell)
            s = v if w is None else w + v
            if s.is_zero:
                out.pop(cell, None)
            else:
                out[cell] = s
        return StepFunction._of(self.grid, out)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self + (-other)

    def __neg__(self) -> "StepFunction":
        return StepFunction._of(self.grid, {cell: -v for cell, v in self.values.items()})

    def __mul__(self, other):
        """Pointwise product with a StepFunction, or scaling by a Scalar/int."""
        if isinstance(other, StepFunction):
            self._check_grid(other)
            small, big = self.values, other.values
            if len(big) < len(small):
                small, big = big, small
            out = {}
            for cell, v in small.items():
                w = big.get(cell)
                if w is not None:
                    p = v * w
                    if not p.is_zero:
                        out[cell] = p
            return StepFunction._of(self.grid, out)
        c = Scalar.coerce(other)
        if c.is_zero:
            return StepFunction(self.grid)
        return StepFunction._of(self.grid, {cell: v * c for cell, v in self.values.items()})

    __rmul__ = __mul__

    # -- integrals and norms -----------------------------------------------------

    def integral(self) -> Scalar:
        vol = self.grid.cell_volume_scalar()
        total = ZERO
        for v in self.values.values():
            total = total + v
        return total * vol

    def l2_norm_sq(self) -> Scalar:
        vol = self.grid.cell_volume_scalar()
        total = ZERO
        for v in self.values.values():
            total = total + v * v
        return total * vol

    def to_array(self) -> np.ndarray:
        """Float values in the canonical cell order of the grid."""
        return np.array([float(self.value_at(c)) for c in self.grid.cells()])

    def __repr__(self):
        return f"StepFunction(grid={self.grid!r}, nnz={len(self.values)})"
