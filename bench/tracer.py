"""Per-layer tracing that wraps dyadlab's public functions from outside.

The program carries no instrumentation of its own, so the tracer replaces
functions and methods with wrappers.  A module that did ``from .haar
import analyze`` holds its own reference, so every attribute of every
loaded ``dyadlab`` module (and every class attribute of a wrapped method's
class) that *is* the original object gets rebound; without that, inner
calls such as ``shift.analyze`` or ``commutator.tensor_apply`` would go
untraced.

Two kinds of wrapper exist.  A *span* times its call and charges the
elapsed time, minus the time of spans nested inside it, to its name as
self time.  A *counter* only counts calls; it is used on the hottest
entry points (scalar arithmetic, per-cell Haar values), where a timer
would cost more than the work.  Spans are aggregated by name in memory,
not stored one by one: the traced runs make millions of calls.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# Per-layer metrics with their units, in the order they are reported.
METRICS = {
    "haar.analyze.calls": "count",
    "haar.analyze.self_s": "s",
    "haar.synthesize.calls": "count",
    "haar.synthesize.self_s": "s",
    "haar.haar_coefficient.calls": "count",
    "haar.haar_coefficient.self_s": "s",
    "haar.haar_coefficient.nonzero_frac": "fraction",
    "haar.haar_cell_value.calls": "count",
    "paraproduct.apply_paraproduct.calls": "count",
    "paraproduct.apply_paraproduct.self_s": "s",
    "haar.basis_keys.setup_s": "s",
    "stepfn.arith.calls": "count",
    "stepfn.arith.self_s": "s",
    "scalar.ops": "count",
    "scalar.allocs": "count",
    "shift.tensor_apply.calls": "count",
    "shift.tensor_apply.self_s": "s",
    "shift.tensor_apply.truncated": "count",
    "shift.matrix_in_haar_basis.self_s": "s",
    "commutator.commutator_apply.calls": "count",
    "commutator.commutator_apply.self_s": "s",
    "commutator.operator_norm.self_s": "s",
    "commutator.case_evaluate.self_s": "s",
    "commutator.one_parameter_bracket.self_s": "s",
    "commutator.decomposition_apply.self_s": "s",
    "grid.rect_contains.calls": "count",
    "paraproduct.bmo_norm.rectangle-sup.self_s": "s",
    "paraproduct.bmo_norm.greedy-union.self_s": "s",
    "paraproduct.bmo_norm.exact-bruteforce.self_s": "s",
    "paraproduct.bmo_norm.exact-bruteforce.bigint_fallbacks": "count",
    "kernels.zeta_sos.calls": "count",
    "kernels.zeta_sos.self_s": "s",
    "kernels.zeta_sos.bytes_computed": "B",
    "kernels.popcounts.calls": "count",
    "kernels.popcounts.self_s": "s",
    "kernels.power_iteration.calls": "count",
    "kernels.power_iteration.self_s": "s",
    "kernels.power_iteration.iterations": "count",
    "kernels.power_iteration.nonconverged": "count",
    "riesz.sample_shift_matrix.calls": "count",
    "riesz.sample_shift_matrix.self_s": "s",
    "riesz.span_residual.self_s": "s",
    "riesz.riesz_matrix.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Installs wrappers on ``enable`` and restores the originals on ``disable``."""

    def __init__(self):
        self.calls = defaultdict(int)  # span or counter name -> calls
        self.self_s = defaultdict(float)  # span name -> self time
        self.counts = defaultdict(int)  # derived counts (truncations, bytes, ...)
        self.first_keys_s = 0.0  # first haar_basis_keys call per grid
        self._grids_seen = set()
        self._stack = []  # per open span: time covered by its child spans
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- wrappers --------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Timed wrapper; ``name`` may be a function of the call's arguments."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[label] += 1
                self_s[label] += elapsed - child
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch_all(self, original, wrapper, owners) -> None:
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original, wrapper))
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not reachable from dyadlab")

    def enable(self) -> None:
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build(self) -> None:
        from dyadlab import _kernels, commutator, grid, haar, paraproduct, riesz, scalar
        from dyadlab import shift, stepfn

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "dyadlab"]
        counts = self.counts

        def function(module, attr, make):
            original = getattr(module, attr)
            self._patch_all(original, make(original), modules)

        def method(cls, attr, make):
            original = cls.__dict__[attr]
            self._patch_all(original, make(original), [cls])

        def spanned(name, after=None):
            return lambda fn: self.span(name, fn, after)

        def counted(name):
            return lambda fn: self.counter(name, fn)

        def coefficient_done(out, *args, **kwargs):
            if not out.is_zero:
                counts["haar.haar_coefficient.nonzero"] += 1

        def shift_done(out, *args, **kwargs):
            counts["shift.tensor_apply.truncated"] += out[1]

        def zeta_done(out, a, b, nbits):
            # each of nbits passes reads both halves of every block and writes
            # the upper half: 3/2 of each int64 array per pass
            counts["kernels.zeta_sos.bytes_computed"] += (
                nbits * 3 * (a.nbytes + b.nbytes) // 2
            )

        def power_done(out, *args, **kwargs):
            counts["kernels.power_iteration.iterations"] += int(out[1])
            counts["kernels.power_iteration.nonconverged"] += not out[2]

        def bmo_mode(b, mode="greedy-union", *args, **kwargs):
            return f"paraproduct.bmo_norm.{mode}"

        def first_keys(fn):
            timed = self.span("haar.basis_keys", fn)

            def wrapper(grid_spec):
                if grid_spec in self._grids_seen:
                    return timed(grid_spec)
                t0 = perf_counter()
                out = timed(grid_spec)
                self.first_keys_s += perf_counter() - t0
                self._grids_seen.add(grid_spec)
                return out

            return wrapper

        function(haar, "analyze", spanned("haar.analyze"))
        function(haar, "synthesize", spanned("haar.synthesize"))
        function(haar, "haar_coefficient", spanned("haar.haar_coefficient", coefficient_done))
        function(haar, "haar_cell_value", counted("haar.haar_cell_value"))
        function(haar, "haar_basis_keys", first_keys)
        function(paraproduct, "apply_paraproduct", spanned("paraproduct.apply_paraproduct"))
        function(paraproduct, "bmo_norm", spanned(bmo_mode))
        function(shift, "tensor_apply_counting", spanned("shift.tensor_apply", shift_done))
        function(shift, "matrix_in_haar_basis", spanned("shift.matrix_in_haar_basis"))
        for attr in ("commutator_apply", "operator_norm", "case_evaluate", "one_parameter_bracket"):
            function(commutator, attr, spanned(f"commutator.{attr}"))
        method(commutator.Decomposition, "apply", spanned("commutator.decomposition_apply"))
        method(commutator.DecompositionTerm, "apply", spanned("commutator.decomposition_apply"))
        function(_kernels, "zeta_sos", spanned("kernels.zeta_sos", zeta_done))
        function(_kernels, "popcounts", spanned("kernels.popcounts"))
        function(_kernels, "power_iteration", spanned("kernels.power_iteration", power_done))
        function(_kernels, "_zeta_sos_loop", counted("kernels.zeta_sos_bigint"))
        for attr in ("sample_shift_matrix", "span_residual", "riesz_matrix"):
            function(riesz, attr, spanned(f"riesz.{attr}"))
        for attr in ("__add__", "__sub__", "__neg__", "__mul__"):
            method(stepfn.StepFunction, attr, spanned("stepfn.arith"))
        for attr in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__", "__truediv__", "__pow__"):
            method(scalar.Scalar, attr, counted("scalar.ops"))
        method(scalar.Scalar, "__init__", counted("scalar.allocs"))
        method(grid.DyadicRectangle, "contains", counted("grid.rect_contains"))

    # -- report ------------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        calls, self_s, counts = self.calls, self.self_s, self.counts
        out = {}
        for name, unit in METRICS.items():
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = calls[base]
            elif field == "self_s":
                value = self_s[base]
            elif name == "haar.haar_coefficient.nonzero_frac":
                attempted = calls["haar.haar_coefficient"]
                value = counts["haar.haar_coefficient.nonzero"] / attempted if attempted else 0.0
            elif name == "haar.basis_keys.setup_s":
                value = self.first_keys_s
            elif name == "paraproduct.bmo_norm.exact-bruteforce.bigint_fallbacks":
                value = calls["kernels.zeta_sos_bigint"]
            elif name == "trace.overhead_s":
                value = overhead_s
            elif name in ("scalar.ops", "scalar.allocs"):
                value = calls[name]
            else:
                value = counts[name]
            out[name] = {"value": value, "unit": unit}
        return out
