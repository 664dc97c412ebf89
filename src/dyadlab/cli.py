"""Batch front-end: verification suites and experiments driven by JSON configs.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 resource
cap exceeded.  Configs carry ``schema_version: 1``.  Each command declares
its config keys once, as typed and bounded :class:`Field` entries in
``_SCHEMAS``; a config is resolved against that table fail-closed (unknown
keys are rejected) before anything is computed, and the result is the plan
that ``--dry-run`` prints and every report records: one entry per field, so
a plan given back as a config reproduces its run.  Exit 2 is for config
errors only: an exception raised while computing surfaces as a traceback.
Reports are written as CSV with a header row plus a JSON mirror; identical
configs and seeds reproduce identical files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import commutator as comm
from . import paraproduct as para
from . import riesz as rz
from .errors import CapExceededError
from .grid import DyadicCube, DyadicRectangle, GridSpec, strict_signatures
from .haar import BASIS_CAP, _validate_key, haar_function, random_haar_function
from .shift import CUBE_PRESETS, SIG_PRESETS, ShiftMap, TensorShift
from .stepfn import StepFunction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CAP = 3


class ConfigError(Exception):
    pass


# -- the schema ------------------------------------------------------------------------
#
# A field's type and its bound are both (predicate, rule) pairs.  The type
# predicate sees the raw JSON value; booleans never pass as integers, and a
# list is never empty, since a run over an empty list checks nothing.  The
# bound predicate sees the typed value and the fields resolved before it.


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_ints(v) -> bool:
    return isinstance(v, list) and bool(v) and all(map(_is_int, v))


def _is_symbol(v) -> bool:
    """A named symbol (null means random), or one tensor Haar function
    ``{"rect_levels": [k, ...], "rect_pos": [[p, ...], ...], "sigs": [[bit, ...], ...]}``
    with one entry per parameter."""
    if v is None or v in ("random", "constant", "single-haar"):
        return True
    if not isinstance(v, dict) or set(v) != {"rect_levels", "rect_pos", "sigs"}:
        return False
    levels, pos, sigs = v["rect_levels"], v["rect_pos"], v["sigs"]
    return (
        _is_ints(levels)
        and isinstance(pos, list)
        and isinstance(sigs, list)
        and len(levels) == len(pos) == len(sigs)
        and all(map(_is_ints, pos + sigs))
        and all(bit in (0, 1) for sig in sigs for bit in sig)
    )


_INT = (_is_int, "an integer")
_INTS = (_is_ints, "a list of integers (non-empty)")
_BOOL = (lambda v: isinstance(v, bool), "true or false")
_SYMBOL = (_is_symbol, "random, constant, single-haar or {rect_levels, rect_pos, sigs}")


def _one_of(choices):
    return (lambda v: isinstance(v, str) and v in choices, f"one of {list(choices)}")


def _list_of(choices):
    one = _one_of(choices)[0]
    return (
        lambda v: isinstance(v, list) and bool(v) and all(map(one, v)),
        f"a list of {list(choices)} (non-empty)",
    )


def _at_least(lo):
    return (lambda v, c: min(v if isinstance(v, list) else [v]) >= lo, f"be >= {lo}")


def _per_dim(lo=None):
    """One entry per entry of ``dims``, each at least ``lo`` if given."""
    return (
        lambda v, c: len(v) == len(c["dims"]) and (lo is None or min(v) >= lo),
        "have one entry per entry of dims" + ("" if lo is None else f", each >= {lo}"),
    )


# the truncation horizon: some decomposition terms shift twice
_HORIZON = (
    lambda v, c: len(v) == len(c["depths"])
    and all(0 <= m <= n - 2 for m, n in zip(v, c["depths"])),
    "have one entry per depth, each from 0 to that depth - 2 "
    "(random inputs stay two levels clear of the finest scale)",
)


def _symbol_key(symbol, grid: GridSpec):
    """The basis key ``(rect, vecsig)`` of a dict symbol on ``grid``, or of
    ``single-haar`` (:func:`~dyadlab.commutator.single_haar_symbol`); the
    cube constructor checks each factor."""
    if symbol == "single-haar":
        return grid.unit_rectangle(), tuple((0,) * d for d in grid.dims)
    factors = tuple(
        DyadicCube(d, level, tuple(pos))
        for d, level, pos in zip(grid.dims, symbol["rect_levels"], symbol["rect_pos"])
    )
    return DyadicRectangle(factors), tuple(tuple(sig) for sig in symbol["sigs"])


def _fits(grids):
    """The symbol resolves on every grid ``grids(c)`` of the run: its key
    passes the library's checks on each."""

    def fits(symbol, c) -> bool:
        if symbol != "single-haar" and not isinstance(symbol, dict):
            return True
        for grid in grids(c):
            try:
                _validate_key(grid, *_symbol_key(symbol, grid))
            except ValueError:
                return False
        return True

    return (fits, "be resolvable on every grid of the run")


def _max_pair_depth(c):
    return 4 if c["d"] == 1 else 2


class Field(NamedTuple):
    """One config key and plan entry: its type, default and bound.

    ``default`` is a value or a function of the fields resolved before it.
    """

    name: str
    kind: tuple
    default: Any
    bound: tuple | None = None


# the product grid and its per-parameter shift rules, declared once for
# every command that builds one shift per parameter
_GRID_DIMS = Field("dims", _INTS, [1], _at_least(1))
_CUBE_RULES = Field("cube_rules", _list_of(CUBE_PRESETS),
                    lambda c: ["first-child"] * len(c["dims"]), _per_dim())
_SIG_RULES = Field("sig_rules", _list_of(SIG_PRESETS),
                   lambda c: ["identity"] * len(c["dims"]), _per_dim())

_SCHEMAS = {
    "verify-cases": (
        Field("d", _INT, 1, (lambda d, c: d in (1, 2), "be 1 or 2")),
        Field("depth", _INT, _max_pair_depth, (
            lambda n, c: 0 <= n <= _max_pair_depth(c), "be from 0 to 4 (d=1) or 2 (d=2)")),
        Field("cube_rules", _list_of(CUBE_PRESETS), ["first-child", "rotating"]),
        Field("sig_rules", _list_of(SIG_PRESETS), ["identity"]),
    ),
    "verify-decomposition": (
        _GRID_DIMS,
        # a depth-1 grid draws no random coefficient: b = f = 0 checks nothing
        Field("depths", _INTS, [5], _per_dim(2)),
        Field("seeds", _INTS, list(range(100)), _at_least(0)),
        _CUBE_RULES,
        _SIG_RULES,
        Field("max_levels", _INTS, lambda c: [n - 2 for n in c["depths"]], _HORIZON),
    ),
    "bmo": (
        Field("dims", _INTS, [1, 1], _at_least(1)),
        Field("depths", _INTS, [2, 2], _per_dim(0)),
        Field("seeds", _INTS, list(range(10)), _at_least(0)),
        Field("modes", _list_of(para.BMO_MODES), ["rectangle-sup", "greedy-union"]),
        Field("symbol", _SYMBOL, "random", _fits(lambda c: [GridSpec(c["dims"], c["depths"])])),
    ),
    # opnorm and ratio sweep depths: depth n is GridSpec.uniform(dims, n)
    "opnorm": (
        _GRID_DIMS,
        Field("depths", _INTS, [4], _at_least(0)),
        Field("seeds", _INTS, [0], _at_least(0)),
        _CUBE_RULES,
        _SIG_RULES,
        Field("symbol", _SYMBOL, "random",
              _fits(lambda c: [GridSpec.uniform(c["dims"], n) for n in c["depths"]])),
        Field("method", _one_of(comm.NORM_METHODS), "power"),
        Field("cap", _INT, BASIS_CAP, _at_least(1)),
    ),
    "ratio": (
        _GRID_DIMS,
        Field("depths", _INTS, [3, 4], _at_least(0)),
        Field("seeds", _INTS, list(range(10)), _at_least(0)),
        _CUBE_RULES,
        _SIG_RULES,
        Field("bmo_mode", _one_of(para.BMO_MODES), "greedy-union"),
        Field("method", _one_of(comm.NORM_METHODS), "power"),
    ),
    "riesz": (
        Field("d", _INT, 1, _at_least(1)),
        Field("n", _INT, 16, (lambda n, c: n >= 2 and n & (n - 1) == 0, "be a power of two >= 2")),
        Field("samples", _INT, 64, _at_least(0)),
        Field("seeds", _INTS, list(range(5)), _at_least(0)),
        Field("component", _INT, 1, (lambda j, c: 0 <= j <= c["d"], "be from 0 to d")),
        Field("gnuplot", _BOOL, False),
    ),
}


def _read_json_object(path, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return data


def _read_fixtures(path) -> dict:
    """The ``single_haar`` family of a fixture file: depth -> {"ratio": r, ...}."""
    family = _read_json_object(path, "fixtures").get("single_haar", {})
    if not isinstance(family, dict) or not all(
        isinstance(entry, dict) and type(entry.get("ratio")) in (int, float)
        for entry in family.values()
    ):
        raise ConfigError(f"fixtures {path}: single_haar must map depths to {{ratio: number}}")
    return family


def _parse_seed_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --seed-list: {text!r}") from exc


def _load_config(args) -> tuple[dict, dict]:
    """Resolve ``args.config`` against the command's schema, fail-closed.

    Returns the plan and the command's other inputs: for ``ratio``, the
    ``--fixtures`` family, which holds ``dims [1]`` ratios only.
    ``--seed-list`` replaces the config's seeds and is checked the same way.
    """
    raw = _read_json_object(args.config, "config")
    version = raw.pop("schema_version", None)
    if not _is_int(version) or version != 1:
        raise ConfigError("config must declare schema_version 1")
    fields = _SCHEMAS[args.command]
    unknown = set(raw) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if getattr(args, "seed_list", None) is not None:
        raw["seeds"] = _parse_seed_list(args.seed_list)
    plan = {"command": args.command}
    for f in fields:
        value = raw.get(f.name, f.default)  # JSON values are never callable
        if callable(value):
            value = value(plan)
        if not f.kind[0](value):
            raise ConfigError(f"{f.name} must be {f.kind[1]}, got {value!r}")
        if f.bound is not None and not f.bound[0](value, plan):
            raise ConfigError(f"{f.name} must {f.bound[1]}, got {value!r}")
        plan[f.name] = sorted(value) if f.name == "seeds" else value
    inputs = {}
    if getattr(args, "fixtures", None) is not None:
        if plan["dims"] != [1]:
            raise ConfigError(f"fixtures hold dims [1] ratios only, got dims {plan['dims']}")
        inputs["fixtures"] = _read_fixtures(args.fixtures)
    return plan, inputs


def _write_reports(out_dir, name, fieldnames, rows, meta):
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
    with open(out / f"{name}.json", "w") as fh:
        json.dump({"meta": meta, "columns": fieldnames, "rows": rows}, fh, indent=1)


# -- commands --------------------------------------------------------------------------
#
# Each command gets a resolved plan, the report directory (or None) and,
# for ratio, the fixture family; it only computes and reports.


_CASE_COLUMNS = ["cube_rule", "sig_rule", "case", "I", "eps", "Iprime", "epsprime", "status",
                 "residual_cells", "residual"]


def cmd_verify_cases(plan: dict, out) -> int:
    d = plan["d"]
    # headroom for second shifts of the deepest pairs
    grid = GridSpec((d,), (plan["depth"] + 3,))
    sigs = strict_signatures(d)
    cubes = list(grid.cubes(0, plan["depth"]))
    rows = []
    pairs = 0
    for cube_rule, sig_rule in itertools.product(plan["cube_rules"], plan["sig_rules"]):
        smap = ShiftMap.preset(d, cube_rule, sig_rule)
        for I, Ip in itertools.product(cubes, repeat=2):
            for eps, epsp in itertools.product(sigs, repeat=2):
                pairs += 1
                got = comm.case_evaluate(grid, I, eps, Ip, epsp, smap)
                want = comm.one_parameter_bracket(grid, I, eps, Ip, epsp, smap)
                if got != want:
                    diff = got - want
                    rows.append({
                        "cube_rule": cube_rule, "sig_rule": sig_rule,
                        "case": comm.case_classify(I, Ip, smap).value,
                        "I": f"{I.level}:{I.pos}", "eps": str(eps),
                        "Iprime": f"{Ip.level}:{Ip.pos}", "epsprime": str(epsp),
                        "status": "mismatch", "residual_cells": len(diff.values),
                        "residual": "; ".join(
                            f"{cell}={v!r}" for cell, v in sorted(diff.values.items())
                        ),
                    })
    summary = {"pairs": pairs, "mismatches": len(rows)}
    _write_reports(out, "verify_cases", _CASE_COLUMNS, rows, {"plan": plan, "summary": summary})
    print(f"verify-cases: {pairs} pairs, {len(rows)} mismatches")
    return EXIT_OK if not rows else EXIT_VERIFY


def _shift_maps(plan: dict) -> list[ShiftMap]:
    """One shift per parameter, from the plan's ``cube_rules`` and ``sig_rules``."""
    return [
        ShiftMap.preset(dim, cube, sig)
        for dim, cube, sig in zip(plan["dims"], plan["cube_rules"], plan["sig_rules"])
    ]


def cmd_verify_decomposition(plan: dict, out) -> int:
    grid = GridSpec(plan["dims"], plan["depths"])
    D = comm.decompose(_shift_maps(plan), grid)
    max_levels = tuple(plan["max_levels"])
    rows = []
    for seed in plan["seeds"]:
        rng = np.random.default_rng(seed)
        b = random_haar_function(grid, rng, max_levels=max_levels)
        f = random_haar_function(grid, rng, max_levels=max_levels)
        if b.is_zero or f.is_zero:
            # both sides of the identity vanish: such a seed checks nothing
            rows.append({"seed": seed, "zero_residual": None, "residual_cells": None})
            continue
        residual = comm.verify_decomposition(D, b, f)
        rows.append(
            {"seed": seed, "zero_residual": residual.is_zero,
             "residual_cells": len(residual.values)}
        )
    failures = sum(1 for r in rows if r["zero_residual"] is False)
    not_checked = sum(1 for r in rows if r["zero_residual"] is None)
    _write_reports(
        out, "verify_decomposition", ["seed", "zero_residual", "residual_cells"], rows,
        {"plan": plan, "terms": len(D.terms), "failures": failures,
         "not_checked": not_checked},
    )
    print(
        f"verify-decomposition: {len(rows)} seeds, {len(D.terms)} terms, {failures} failures, "
        f"{not_checked} not checked"
    )
    return EXIT_OK if failures == 0 and not_checked == 0 else EXIT_VERIFY


def _symbol_from_config(symbol, grid: GridSpec, rng) -> StepFunction:
    if isinstance(symbol, dict):
        return haar_function(grid, *_symbol_key(symbol, grid))
    if symbol == "constant":
        return StepFunction.constant(grid, 1)
    if symbol == "single-haar":
        return comm.single_haar_symbol(grid)
    return random_haar_function(grid, rng)


def cmd_bmo(plan: dict, out) -> int:
    grid = GridSpec(plan["dims"], plan["depths"])
    rows = []
    for seed in plan["seeds"]:
        b = _symbol_from_config(plan["symbol"], grid, np.random.default_rng(seed))
        for mode in plan["modes"]:
            est = para.bmo_norm(b, mode)
            rows.append(
                {"seed": seed, "mode": mode, "value": repr(est.value),
                 "witness_cells": est.cell_count}
            )
    _write_reports(out, "bmo", ["seed", "mode", "value", "witness_cells"], rows, {"plan": plan})
    print(f"bmo: {len(rows)} rows")
    return EXIT_OK


def cmd_opnorm(plan: dict, out) -> int:
    ts = TensorShift(_shift_maps(plan))
    rows = []
    for depth in plan["depths"]:
        grid = GridSpec.uniform(plan["dims"], depth)
        for seed in plan["seeds"]:
            b = _symbol_from_config(plan["symbol"], grid, np.random.default_rng(seed))
            res = comm.operator_norm(b, ts, grid, method=plan["method"], cap=plan["cap"])
            rows.append(
                {"seed": seed, "depth": depth, "opnorm": repr(res.value),
                 "iterations": res.iterations, "converged": res.converged}
            )
    columns = ["seed", "depth", "opnorm", "iterations", "converged"]
    _write_reports(out, "opnorm", columns, rows, {"plan": plan})
    stalled = sum(1 for r in rows if r["converged"] is False)
    print(f"opnorm: {len(rows)} rows, {stalled} not converged")
    return EXIT_OK if stalled == 0 else EXIT_VERIFY


def cmd_ratio(plan: dict, out, fixtures=None) -> int:
    maps, bmo_mode, method = _shift_maps(plan), plan["bmo_mode"], plan["method"]
    rows = comm.norm_ratio_experiment(plan["depths"], plan["seeds"], maps, bmo_mode, method)
    out_rows = [
        {
            "seed": r["seed"],
            "depth": r["depth"],
            "ratio": "" if r["ratio"] is None else repr(r["ratio"]),
            "bmo_mode": r["bmo_mode"],
            "iterations": r["iterations"],  # JSON mirror only
            "converged": r["converged"],
        }
        for r in rows
    ]
    stalled = sum(1 for r in rows if r["converged"] is False)
    mismatch = 0
    ts = TensorShift(maps)
    family = fixtures or {}
    for depth in plan["depths"]:
        if str(depth) not in family:
            continue
        expected = family[str(depth)]["ratio"]
        grid = GridSpec.uniform(plan["dims"], depth)
        b = comm.single_haar_symbol(grid)
        res = comm.operator_norm(b, ts, grid, method=method)
        got = res.value / para.bmo_norm(b, bmo_mode).value
        if not res.converged or abs(got - expected) > 1e-8:
            mismatch += 1
            print(
                f"fixture mismatch at depth {depth}: got {got!r}, "
                f"expected {expected!r}, converged {res.converged}"
            )
    _write_reports(
        out, "ratio", ["seed", "depth", "ratio", "bmo_mode"], out_rows,
        {"plan": plan, "fixture_mismatches": mismatch, "not_converged": stalled},
    )
    print(
        f"ratio: {len(out_rows)} rows, {mismatch} fixture mismatches, "
        f"{stalled} not converged"
    )
    return EXIT_OK if mismatch == 0 and stalled == 0 else EXIT_VERIFY


def cmd_riesz(plan: dict, out) -> int:
    d, n = plan["d"], plan["n"]
    target = rz.riesz_matrix(d, n, plan["component"])
    rows = []
    for seed in plan["seeds"]:
        samples = rz.draw_grid_samples(d, n, plan["samples"], seed)
        residuals = rz.span_residual([rz.sample_shift_matrix(s) for s in samples], target)
        for m, r in enumerate(residuals):
            rows.append({"seed": seed, "M": m, "residual": repr(float(r))})
    _write_reports(out, "riesz", ["seed", "M", "residual"], rows, {"plan": plan})
    if out is not None and plan["gnuplot"]:
        with open(Path(out) / "riesz.dat", "w") as fh:
            fh.write("# seed M residual\n")
            for row in rows:
                fh.write(f"{row['seed']} {row['M']} {row['residual']}\n")
    print(f"riesz: {len(rows)} rows")
    return EXIT_OK


_COMMANDS = {
    "verify-cases": cmd_verify_cases,
    "verify-decomposition": cmd_verify_decomposition,
    "bmo": cmd_bmo,
    "opnorm": cmd_opnorm,
    "ratio": cmd_ratio,
    "riesz": cmd_riesz,
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per schema, each with only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Verification suites and experiments for dyadic commutator analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in _SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        if any(f.name == "seeds" for f in fields):
            p.add_argument("--seed-list", help="comma-separated seed override")
        if name == "ratio":
            p.add_argument("--fixtures", help="fixture JSON for comparisons")
        p.add_argument("--out", help="directory for CSV/JSON reports")
        p.add_argument("--dry-run", action="store_true", help="print the plan and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        plan, inputs = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dry_run:
        print(json.dumps({"dry_run": True, "plan": plan}, indent=1))
        return EXIT_OK
    try:
        return _COMMANDS[args.command](plan, args.out, **inputs)
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
