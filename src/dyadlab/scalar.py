"""Exact scalar arithmetic for dyadic Haar analysis.

Every number produced by Haar expansions on dyadic grids has the shape
``(m + n*sqrt(2)) / 2**e`` with integers ``m, n`` and ``e >= 0``: Haar
function values are signed integer powers of sqrt(2), cell volumes are
powers of 1/2, and sums and products of such numbers stay in the same
ring.  :class:`Scalar` stores the triple directly, so equality, ordering
and hashing are exact and fast (plain integer arithmetic, no gcd).

Floats and :class:`fractions.Fraction` views are available for reporting,
but no routine in this module ever rounds.  The float view does not
cancel: when ``m`` and ``n*sqrt(2)`` have opposite signs it divides by the
conjugate, so a small unit such as ``(3 - 2*sqrt(2))**6`` keeps every
digit.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Scalar", "ZERO", "ONE", "SQRT2", "sqrt2_pow"]

_SQRT2_FLOAT = math.sqrt(2.0)


class Scalar:
    """An element ``(m + n*sqrt(2)) / 2**e`` of the ring Z[sqrt(2), 1/2].

    Instances are immutable and kept in canonical form (``e`` minimal,
    ``e == 0`` when the value is zero), so ``==`` and ``hash`` agree with
    exact numeric equality.
    """

    __slots__ = ("m", "n", "e")

    def __init__(self, m: int = 0, n: int = 0, e: int = 0):
        if e < 0:
            m <<= -e
            n <<= -e
            e = 0
        # canonical: strip common factors of 2 shared with the denominator
        while e > 0 and (m | n) & 1 == 0:
            m >>= 1
            n >>= 1
            e -= 1
        if m == 0 and n == 0:
            e = 0
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def coerce(x) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar(x, 0, 0)
        raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")

    # -- views -------------------------------------------------------------

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self.m, 1 << self.e)

    @property
    def root2_part(self) -> Fraction:
        return Fraction(self.n, 1 << self.e)

    def to_fractions(self) -> tuple[Fraction, Fraction]:
        """Return ``(a, b)`` with value ``a + b*sqrt(2)``."""
        return self.rational_part, self.root2_part

    def __float__(self) -> float:
        m, n, e = self.m, self.n, self.e
        if m * n >= 0:
            den = 1 << e
            return m / den + (n / den) * _SQRT2_FLOAT
        # m + n*sqrt2 = (m*m - 2*n*n) / (m - n*sqrt2): the numerator is an
        # exact integer and the two terms of the denominator share a sign, so
        # nothing cancels.  The denominator is kept as an integer scaled by
        # 2**64 (floor of the root: relative error below 2**-64), and one
        # integer true division, correctly rounded and free of intermediate
        # overflow, gives the float.
        root = math.isqrt(2 * n * n << 128)
        den = (m << 64) + (root if m > 0 else -root)
        return ((m * m - 2 * n * n) << 64) / (den << e)

    @property
    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        try:
            o = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        e = self.e if self.e >= o.e else o.e
        return Scalar(
            (self.m << (e - self.e)) + (o.m << (e - o.e)),
            (self.n << (e - self.e)) + (o.n << (e - o.e)),
            e,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        try:
            o = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Scalar":
        try:
            o = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return o + (-self)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.m, -self.n, self.e)

    def __mul__(self, other) -> "Scalar":
        try:
            o = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return Scalar(
            self.m * o.m + 2 * self.n * o.n,
            self.m * o.n + self.n * o.m,
            self.e + o.e,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        """Division by a unit ``+/- 2**(k/2)`` of the ring.

        General quotients leave the dyadic ring; callers that need them
        should work with :meth:`to_fractions` instead.
        """
        o = Scalar.coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("Scalar division by zero")
        if o.n == 0:
            k = abs(o.m)
            if k & (k - 1):
                raise ValueError("divisor is not a unit of the dyadic ring")
            j = k.bit_length() - 1
            sign = 1 if o.m > 0 else -1
            return Scalar(sign * self.m, sign * self.n, self.e - o.e + j)
        if o.m == 0:
            # 1 / (n*sqrt2 / 2**e) = 2**(e-1) * sqrt2 / n
            k = abs(o.n)
            if k & (k - 1):
                raise ValueError("divisor is not a unit of the dyadic ring")
            j = k.bit_length() - 1
            sign = 1 if o.n > 0 else -1
            inv = Scalar(0, sign, j + 1 - o.e)
            return self * inv
        raise ValueError("divisor is not a unit of the dyadic ring")

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- exact order --------------------------------------------------------

    def _sign(self) -> int:
        m, n = self.m, self.n
        if n == 0:
            return (m > 0) - (m < 0)
        if m == 0:
            return (n > 0) - (n < 0)
        if m > 0 and n > 0:
            return 1
        if m < 0 and n < 0:
            return -1
        # mixed signs: compare m**2 with 2*n**2
        d = m * m - 2 * n * n
        s = (d > 0) - (d < 0)
        return s if m > 0 else -s

    def __eq__(self, other) -> bool:
        try:
            o = Scalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self.m == o.m and self.n == o.n and self.e == o.e

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.e))

    def __lt__(self, other) -> bool:
        return (self - Scalar.coerce(other))._sign() < 0

    def __le__(self, other) -> bool:
        return (self - Scalar.coerce(other))._sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - Scalar.coerce(other))._sign() > 0

    def __ge__(self, other) -> bool:
        return (self - Scalar.coerce(other))._sign() >= 0

    def __repr__(self) -> str:
        if self.n == 0:
            return f"Scalar({self.rational_part})"
        if self.m == 0:
            return f"Scalar({self.root2_part}*sqrt2)"
        return f"Scalar({self.rational_part} + {self.root2_part}*sqrt2)"


ZERO = Scalar()
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)


def sqrt2_pow(k: int) -> Scalar:
    """Exact ``2**(k/2)`` for any integer ``k`` (negative allowed)."""
    if k & 1:
        return Scalar(0, 1, (1 - k) // 2)
    return Scalar(1, 0, -k // 2)

