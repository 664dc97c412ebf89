"""Dyadic shift operators.

A shift map is a pair of rules: a cube rule sending every dyadic cube to
one of its children (so the image has measure ``2**-d`` of the source,
and the map is injective), and a signature rule sending every strict
signature to a strict signature or to ``None`` (the corresponding Haar
function is annihilated).  The induced operator moves each strict Haar
coefficient to the shifted slot and kills the constant component; it is
an exact L2 contraction.

A :class:`TensorShift` holds one shift map per parameter, or ``None`` for
the identity on that parameter.  :func:`shift_key` is the one per-key
rule: where a shift sends a Haar basis key, or why it drops it.
:func:`tensor_apply_counting` applies a shift to a step function with that
rule: analyze, move coefficients, synthesize, and report how many
coefficients the grid depth cut off.  The commutator's Haar matrix reads
the same rule as an index map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .grid import DyadicCube, DyadicRectangle, GridSpec, is_strict
from .haar import BASIS_CAP, HaarExpansion, analyze, basis_function, haar_basis_keys, synthesize
from .stepfn import StepFunction

__all__ = [
    "ShiftMap",
    "TensorShift",
    "tensor_apply_counting",
    "shift_key",
    "matrix_in_haar_basis",
]

CUBE_PRESETS = ("first-child", "rotating")
SIG_PRESETS = ("identity", "cyclic")


@dataclass(frozen=True)
class ShiftMap:
    """Cube rule plus signature rule, both total on their domains.

    A rule is a preset name or a tuple led by its kind; the constructor
    stores a name as its 1-tuple and rejects every other rule.  Cube
    rules: ``"first-child"`` picks child 0; ``"rotating"`` picks child
    ``sum(pos) mod 2**d``; ``("child", c)`` always picks child ``c``, for
    ``0 <= c < 2**d``.  Signature rules: ``"identity"``, ``"cyclic"``
    (rotate bits right by one) and ``("kill", sig)`` (send the strict
    length-``d`` signature ``sig`` to zero, keep the rest).
    """

    d: int
    cube_rule: tuple
    sig_rule: tuple

    def __post_init__(self):
        cube = (self.cube_rule,) if isinstance(self.cube_rule, str) else self.cube_rule
        sig = (self.sig_rule,) if isinstance(self.sig_rule, str) else self.sig_rule
        if not (_is_rule(cube, CUBE_PRESETS) or (
            _is_rule(cube, ("child",), 2) and type(cube[1]) is int
            and 0 <= cube[1] < 1 << self.d
        )):
            raise ValueError(
                f"cube rule {self.cube_rule!r} is not one of {CUBE_PRESETS}"
                f" or ('child', c) with 0 <= c < {1 << self.d}"
            )
        if not (_is_rule(sig, SIG_PRESETS) or (
            _is_rule(sig, ("kill",), 2) and isinstance(sig[1], tuple)
            and len(sig[1]) == self.d and set(sig[1]) <= {0, 1} and is_strict(sig[1])
        )):
            raise ValueError(
                f"signature rule {self.sig_rule!r} is not one of {SIG_PRESETS}"
                f" or ('kill', sig) with sig a strict signature of length {self.d}"
            )
        object.__setattr__(self, "cube_rule", cube)
        object.__setattr__(self, "sig_rule", sig)

    @classmethod
    def preset(cls, d: int, cube="first-child", sig="identity") -> "ShiftMap":
        return cls(d, cube, sig)

    def sigma_cube(self, cube: DyadicCube) -> DyadicCube:
        if cube.d != self.d:
            raise ValueError("cube dimension mismatch")
        kind = self.cube_rule[0]
        if kind == "first-child":
            idx = 0
        elif kind == "rotating":
            idx = sum(cube.pos) % (1 << self.d)
        else:  # ("child", c)
            idx = self.cube_rule[1]
        return cube.child(idx)

    def sigma_sig(self, sig: tuple[int, ...]):
        if len(sig) != self.d or not is_strict(sig):
            raise ValueError("signature must be strict and of matching dimension")
        kind = self.sig_rule[0]
        if kind == "identity":
            return sig
        if kind == "cyclic":
            return (sig[-1],) + sig[:-1]
        return None if sig == self.sig_rule[1] else sig  # ("kill", target)


def _is_rule(rule, kinds, size=1) -> bool:
    return isinstance(rule, tuple) and len(rule) == size and rule[0] in kinds


@dataclass(frozen=True)
class TensorShift:
    """One :class:`ShiftMap` per parameter; ``None`` slots act as the identity."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

    @classmethod
    def single(cls, smap: ShiftMap) -> "TensorShift":
        return cls((smap,))

    @property
    def t(self) -> int:
        return len(self.parts)

    def active_slots(self) -> list[int]:
        return [s for s, q in enumerate(self.parts) if q is not None]


def shift_key(ts: TensorShift, key, depth) -> tuple:
    """Where a tensor shift sends one Haar basis key, the per-key rule of
    every shift: ``(shifted key, False)``, or ``(None, truncated)`` when
    the key is dropped.

    Each active parameter ``s`` in turn moves its slot to ``(sigma_cube,
    sigma_sig)``.  The key is dropped at the first active parameter where
    it is constant, where the signature rule kills it, or where the
    shifted cube falls past ``depth[s] - 1``; ``truncated`` is True only
    for that last reason.
    """
    rect, vecsig = key
    cubes = list(rect.factors)
    sigs = list(vecsig)
    for s in ts.active_slots():
        sig = sigs[s]
        if not is_strict(sig):
            return None, False  # constant component of parameter s
        nsig = ts.parts[s].sigma_sig(sig)
        if nsig is None:
            return None, False
        ncube = ts.parts[s].sigma_cube(cubes[s])
        if ncube.level > depth[s] - 1:
            return None, True
        cubes[s] = ncube
        sigs[s] = nsig
    return (DyadicRectangle(tuple(cubes)), tuple(sigs)), False


def tensor_apply_counting(ts: TensorShift, f: StepFunction):
    """Apply a tensor shift: ``(shifted step function, truncated)``, where
    ``truncated`` counts the coefficients lost to grid depth.

    Analyzes ``f``, moves every coefficient by :func:`shift_key` (adding
    coefficients that land on one key) and synthesizes.  Signature kills
    are semantic zeros, not truncations, and are not counted.  The
    constant slot of every shifted parameter is annihilated.
    """
    grid = f.grid
    if ts.t != grid.t:
        raise ValueError("tensor shift arity does not match the grid")
    if not ts.active_slots():
        return f, 0
    e = analyze(f)
    out: dict = {}
    truncated = 0
    for key, c in e.coeffs.items():
        shifted, lost = shift_key(ts, key, grid.depth)
        if shifted is None:
            truncated += lost
            continue
        cur = out.get(shifted)
        out[shifted] = c if cur is None else cur + c
    return synthesize(HaarExpansion(grid, out)), truncated


def matrix_in_haar_basis(op, grid: GridSpec, cap: int = BASIS_CAP):
    """Dense exact matrix of an operator in the ordered Haar basis.

    ``op`` is a callable taking and returning step functions on ``grid``.
    Column ``j`` holds the coefficients of the image of the ``j``-th basis
    element; row/column 0 is the constant slot.
    """
    keys = haar_basis_keys(grid)
    size = len(keys)
    if size > cap:
        raise CapExceededError(f"basis size {size} exceeds cap {cap}")
    cols = []
    for key in keys:
        e = analyze(op(basis_function(grid, key)))
        cols.append([e.get(k) for k in keys])
    return [[cols[j][i] for j in range(size)] for i in range(size)]
