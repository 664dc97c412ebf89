"""The four benchmark workloads: inputs from a seed, items, oracle checks.

A workload is built from a seed, set up once (the per-grid tables, the
decomposition term list, the Riesz target), and then run as a closed
loop of *items*.  Each item calls the public dyadlab functions that the
matching CLI subcommand runs per seed and checks the answer against an
independent oracle; :meth:`Workload.item` returns ``None`` when the check
passes and a one-line reason when it does not.  Items reach dyadlab
through module attributes (``comm.case_evaluate``, not a name imported
at load time), so the tracer's rebinding also covers the benchmark's own
calls.

Which layers each workload must stress, and which it must leave flat,
is recorded in ``FLAT`` and in the ``why`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from dyadlab import commutator as comm
from dyadlab import haar
from dyadlab import paraproduct as para
from dyadlab import riesz as rz
from dyadlab.grid import DyadicCube, GridSpec, strict_signatures
from dyadlab.shift import ShiftMap, TensorShift

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# Relative tolerance of the power-iteration norm against dense SVD, and
# absolute tolerance against the recorded single-Haar fixtures.
SVD_RTOL = 1e-8
FIXTURE_TOL = 1e-8


class Workload:
    """One workload: ``setup`` once, then ``item(i)`` for i = 0, 1, 2, ..."""

    name = ""
    grids: tuple = ()
    # Items per second of ``--seconds`` in a traced run, so the traced item
    # count is fixed by the run length and its counts repeat exactly.
    trace_items_per_s = 1.0
    # Checks made by ``finish`` that are not re-checks of an item.
    finish_checks = 0

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        for grid in self.grids:
            haar.haar_basis_keys(grid)

    def item(self, i: int):
        raise NotImplementedError

    def finish(self) -> list:
        """Untimed oracle checks after the loop: one reason per failed check."""
        return []

    def describe(self) -> dict:
        return {}


class Cases(Workload):
    """The d=2 six-case table: closed forms against the direct bracket."""

    name = "cases"
    grids = (GridSpec((2,), (5,)),)
    trace_items_per_s = 6.5

    def setup(self):
        super().setup()
        (self.grid,) = self.grids
        cubes = [
            DyadicCube(2, k, pos)
            for k in range(3)
            for pos in itertools.product(range(1 << k), repeat=2)
        ]
        maps = [ShiftMap.preset(2, rule) for rule in ("first-child", "rotating")]
        # Item cost depends mostly on the rule and the two cube levels.  Each
        # such class is shuffled and spread evenly through the order, so any
        # stretch of the loop runs the table's mix and a run's throughput
        # does not hinge on where the seed's order is cut.
        classes = defaultdict(list)
        for m in maps:
            for I, Ip in itertools.product(cubes, repeat=2):
                classes[(m.cube_rule, I.level, Ip.level)].append((m, I, Ip))
        keyed = []
        for members in classes.values():
            offset = self.rng.random()
            for rank, j in enumerate(self.rng.permutation(len(members))):
                keyed.append(((rank + offset) / len(members), members[j]))
        keyed.sort(key=lambda pair: pair[0])
        self.table = [entry for _, entry in keyed]
        self.sig_pairs = list(itertools.product(strict_signatures(2), repeat=2))

    def item(self, i):
        smap, I, Ip = self.table[i % len(self.table)]
        for eps, epsp in self.sig_pairs:
            got = comm.case_evaluate(self.grid, I, eps, Ip, epsp, smap)
            want = comm.one_parameter_bracket(self.grid, I, eps, Ip, epsp, smap)
            if got != want:
                return f"case mismatch {smap.cube_rule} {I} {eps} {Ip} {epsp}"
        return None

    def describe(self):
        return {"population": len(self.table)}


class Decomposition(Workload):
    """Exact zero residual of the t=2 commutator decomposition."""

    name = "decomposition"
    grids = (GridSpec((1, 1), (3, 3)),)
    max_levels = (1, 1)
    trace_items_per_s = 0.2

    def setup(self):
        super().setup()
        (self.grid,) = self.grids
        maps = [ShiftMap.preset(1, "first-child"), ShiftMap.preset(1, "rotating")]
        self.D = comm.decompose(maps, self.grid)
        self.input_seeds = self.rng.integers(0, 2**31, size=4096)

    def item(self, i):
        rng = np.random.default_rng(int(self.input_seeds[i % len(self.input_seeds)]))
        b = haar.random_haar_function(self.grid, rng, max_levels=self.max_levels)
        f = haar.random_haar_function(self.grid, rng, max_levels=self.max_levels)
        residual = comm.verify_decomposition(self.D, b, f)
        if not residual.is_zero:
            return f"nonzero residual on {len(residual.values)} cells"
        return None

    def describe(self):
        return {"terms": len(self.D.terms)}


class Norms(Workload):
    """Commutator norm over greedy BMO norm, d=1, depths 5, 6, 7."""

    name = "norms"
    depths = (5, 6, 7)
    grids = tuple(GridSpec((1,), (n,)) for n in depths)
    fixture_depths = (3, 4, 5, 6)
    finish_checks = len(fixture_depths)
    trace_items_per_s = 1.05

    def setup(self):
        super().setup()
        self.ts = TensorShift.single(ShiftMap.preset(1, "first-child"))
        self.input_seeds = self.rng.integers(0, 2**31, size=4096)
        self.first = {}  # depth -> (symbol, power-iteration value, item index)

    def item(self, i):
        grid = self.grids[i % len(self.grids)]
        rng = np.random.default_rng(int(self.input_seeds[i % len(self.input_seeds)]))
        b = haar.random_haar_function(grid, rng)
        est = para.bmo_norm(b, "greedy-union")
        res = comm.operator_norm(b, self.ts, grid, method="power")
        if not res.converged:
            return f"power iteration did not converge after {res.iterations} steps"
        if not (est.value > 0.0 and np.isfinite(res.value / est.value)):
            return f"no finite ratio: opnorm {res.value!r}, bmo {est.value!r}"
        self.first.setdefault(grid, (b, res.value, i))
        return None

    def finish(self):
        failures = []
        for grid, (b, value, i) in self.first.items():
            svd = comm.operator_norm(b, self.ts, grid, method="svd").value
            if abs(value - svd) > SVD_RTOL * abs(svd):
                failures.append(
                    f"item {i} depth {grid.depth[0]}: power {value!r} != svd {svd!r}"
                )
        with open(FIXTURES / "opnorm_oracle.json") as fh:
            fixtures = json.load(fh)["single_haar"]
        for depth in self.fixture_depths:
            grid = GridSpec((1,), (depth,))
            b = comm.single_haar_symbol(grid)
            res = comm.operator_norm(b, self.ts, grid, method="power")
            bmo = para.bmo_norm(b, "greedy-union").value
            want = fixtures[str(depth)]
            got = {"opnorm": res.value, "bmo": bmo, "ratio": res.value / bmo}
            bad = [k for k in got if abs(got[k] - want[k]) > FIXTURE_TOL]
            if bad or not res.converged:
                failures.append(f"fixture depth {depth}: got {got}, want {want}")
        return failures

    def describe(self):
        return {"svd_checked_depths": sorted(g.depth[0] for g in self.first)}


class BmoRiesz(Workload):
    """All three product-BMO modes on 16-cell grids, then one Riesz probe."""

    name = "bmo_riesz"
    grids = (GridSpec((1, 1), (2, 2)), GridSpec((1,), (4,)), GridSpec((2,), (2,)))
    riesz_d, riesz_n, riesz_samples = 2, 8, 64
    trace_items_per_s = 0.75

    def setup(self):
        super().setup()
        self.target = rz.riesz_matrix(self.riesz_d, self.riesz_n, 1)
        self.input_seeds = self.rng.integers(0, 2**31, size=4096)

    def item(self, i):
        seed = int(self.input_seeds[i % len(self.input_seeds)])
        for grid in self.grids:
            b = haar.random_haar_function(grid, np.random.default_rng(seed))
            rect, greedy, exact = (para.bmo_norm(b, mode) for mode in para.BMO_MODES)
            if not (rect.sq_leq(greedy) and greedy.sq_leq(exact)):
                return f"BMO modes out of order on {grid}"
        samples = rz.draw_grid_samples(self.riesz_d, self.riesz_n, self.riesz_samples, seed)
        res = rz.span_residual([rz.sample_shift_matrix(s) for s in samples], self.target)
        if len(res) != self.riesz_samples + 1 or res[0] != 1.0:
            return f"residual sequence of length {len(res)} starting at {res[0]!r}"
        if np.any(np.diff(res) > 0):
            return "span residual increased"
        return None


WORKLOADS = {w.name: w for w in (Cases, Decomposition, Norms, BmoRiesz)}

# Layers each workload should leave flat: a change to one of these layers
# is predicted not to move that workload's end-to-end metrics.
_HAAR_TRANSFORM = ("haar.analyze.calls", "haar.synthesize.calls")
_HAAR_PER_CELL = (
    "haar.haar_coefficient.calls",
    "haar.haar_cell_value.calls",
    "paraproduct.apply_paraproduct.calls",
)
_SHIFT_MATRIX = (
    "shift.tensor_apply.calls",
    "commutator.commutator_apply.calls",
    "shift.matrix_in_haar_basis.self_s",
    "commutator.operator_norm.self_s",
)
_CASES = ("commutator.case_evaluate.self_s", "commutator.one_parameter_bracket.self_s")
_DECOMP = ("commutator.decomposition_apply.self_s",)
_BMO_CHEAP = (
    "grid.rect_contains.calls",
    "paraproduct.bmo_norm.rectangle-sup.self_s",
    "paraproduct.bmo_norm.greedy-union.self_s",
)
_BMO_EXACT = (
    "paraproduct.bmo_norm.exact-bruteforce.self_s",
    "kernels.zeta_sos.calls",
    "kernels.popcounts.calls",
)
_POWER = ("kernels.power_iteration.calls",)
_RIESZ = (
    "riesz.sample_shift_matrix.calls",
    "riesz.span_residual.self_s",
    "riesz.riesz_matrix.self_s",
)
FLAT = {
    "cases": _HAAR_PER_CELL + _DECOMP + _BMO_CHEAP + _BMO_EXACT + _POWER + _RIESZ,
    "decomposition": _CASES + _BMO_CHEAP + _BMO_EXACT + _POWER + _RIESZ,
    "norms": _HAAR_PER_CELL + _CASES + _DECOMP + _BMO_EXACT + _RIESZ,
    "bmo_riesz": _HAAR_TRANSFORM
    + _HAAR_PER_CELL
    + ("stepfn.arith.calls", "scalar.ops")
    + _SHIFT_MATRIX
    + _CASES
    + _DECOMP
    + _POWER,
}
