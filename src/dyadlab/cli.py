"""Batch front-end: verification suites and experiments driven by JSON configs.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 resource
cap exceeded.  Configs carry ``schema_version: 1`` and are validated
fail-closed (unknown keys are rejected).  Reports are written as CSV with
a header row plus a JSON mirror; identical configs and seeds reproduce
identical files.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import commutator as comm
from . import paraproduct as para
from . import riesz as rz
from .errors import CapExceededError
from .grid import DyadicCube, DyadicRectangle, GridSpec, strict_signatures
from .haar import haar_function, random_haar_function
from .shift import ShiftMap, TensorShift
from .stepfn import StepFunction

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

_KNOWN_KEYS = {
    "verify-cases": {"schema_version", "d", "depth", "cube_rules", "sig_rules"},
    "verify-decomposition": {
        "schema_version",
        "dims",
        "depths",
        "seeds",
        "cube_rules",
        "sig_rules",
        "max_levels",
    },
    "bmo": {"schema_version", "dims", "depths", "seeds", "modes", "symbol"},
    "opnorm": {
        "schema_version",
        "d",
        "depths",
        "seeds",
        "cube_rule",
        "sig_rule",
        "symbol",
        "method",
        "cap",
    },
    "ratio": {
        "schema_version",
        "d",
        "depths",
        "seeds",
        "cube_rule",
        "sig_rule",
        "bmo_mode",
        "method",
    },
    "riesz": {"schema_version", "d", "n", "samples", "seeds", "component", "gnuplot"},
}


class ConfigError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != 1:
        raise ConfigError("config must declare schema_version 1")
    unknown = set(cfg) - _KNOWN_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _parse_seed_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --seed-list: {text!r}") from exc


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


def _dry_run(plan: dict) -> int:
    print(json.dumps({"dry_run": True, "plan": plan}, indent=1, default=str))
    return EXIT_OK


# -- commands ------------------------------------------------------------------------


def cmd_verify_cases(cfg: dict, args) -> int:
    d = _int(cfg, "d", 1)
    depth = _int(cfg, "depth", 4 if d == 1 else 2)
    if d == 1 and depth > 4 or d == 2 and depth > 2 or d > 2:
        raise ConfigError("supported ranges: d=1 depth<=4, d=2 depth<=2")
    cube_rules = cfg.get("cube_rules", ["first-child", "rotating"])
    sig_rules = cfg.get("sig_rules", ["identity"])
    grid_depth = depth + 3  # headroom for second shifts of the deepest pairs
    plan = {
        "command": "verify-cases",
        "d": d,
        "pair_depth": depth,
        "grid_depth": grid_depth,
        "cube_rules": cube_rules,
        "sig_rules": sig_rules,
    }
    if args.dry_run:
        return _dry_run(plan)
    grid = GridSpec((d,), (grid_depth,))
    sigs = strict_signatures(d)
    cubes = []
    if depth >= 0:
        for k in range(depth + 1):
            cubes.extend(
                DyadicCube(d, k, pos)
                for pos in itertools.product(range(1 << k), repeat=d)
            )
    rows = []
    mismatches = 0
    pairs = 0
    for cube_rule, sig_rule in itertools.product(cube_rules, sig_rules):
        smap = ShiftMap.preset(d, cube_rule, sig_rule)
        for I, Ip in itertools.product(cubes, repeat=2):
            for eps, epsp in itertools.product(sigs, repeat=2):
                pairs += 1
                got = comm.case_evaluate(grid, I, eps, Ip, epsp, smap)
                want = comm.one_parameter_bracket(grid, I, eps, Ip, epsp, smap)
                if got != want:
                    mismatches += 1
                    diff = got - want
                    expansion = "; ".join(
                        f"{cell}={v!r}" for cell, v in sorted(diff.values.items())
                    )
                    rows.append(
                        {
                            "cube_rule": cube_rule,
                            "sig_rule": sig_rule,
                            "case": comm.case_classify(I, Ip, smap).value,
                            "I": f"{I.level}:{I.pos}",
                            "eps": str(eps),
                            "Iprime": f"{Ip.level}:{Ip.pos}",
                            "epsprime": str(epsp),
                            "status": "mismatch",
                            "residual_cells": len(diff.values),
                            "residual": expansion,
                        }
                    )
    if pairs == 0:
        print("warning: empty grid, zero pairs checked")
    summary = {"pairs": pairs, "mismatches": mismatches}
    _write_reports(
        args.out,
        "verify_cases",
        [
            "cube_rule",
            "sig_rule",
            "case",
            "I",
            "eps",
            "Iprime",
            "epsprime",
            "status",
            "residual_cells",
            "residual",
        ],
        rows,
        {"plan": plan, "summary": summary},
    )
    print(f"verify-cases: {pairs} pairs, {mismatches} mismatches")
    return EXIT_OK if mismatches == 0 else EXIT_VERIFY


def _int_list(cfg: dict, key: str, default) -> list:
    """A config list of plain integers (booleans and strings rejected)."""
    value = cfg.get(key, default)
    if not isinstance(value, list) or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ConfigError(f"{key} must be a list of integers, got {value!r}")
    return value


def _int(cfg: dict, key: str, default) -> int:
    """A config integer (booleans and strings rejected)."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _seeds(cfg: dict, args, default) -> list:
    """Sorted seeds: the ``--seed-list`` override, else the config's list."""
    if args.seed_list is not None:
        return sorted(args.seed_list)
    return sorted(_int_list(cfg, "seeds", default))


def cmd_verify_decomposition(cfg: dict, args) -> int:
    dims = tuple(_int_list(cfg, "dims", [1]))
    depths = tuple(_int_list(cfg, "depths", [5]))
    if len(dims) != len(depths):
        raise ConfigError("dims and depths must have equal length")
    seeds = _seeds(cfg, args, list(range(100)))
    cube_rules = cfg.get("cube_rules", ["first-child"] * len(dims))
    sig_rules = cfg.get("sig_rules", ["identity"] * len(dims))
    max_levels = _int_list(cfg, "max_levels", [n - 2 for n in depths])
    for lvl, n in zip(max_levels, depths):
        if lvl > n - 2:
            raise ConfigError(
                f"max level {lvl} violates the truncation horizon for depth {n}: "
                "inputs must stay two levels clear of the finest scale"
            )
    plan = {
        "command": "verify-decomposition",
        "dims": dims,
        "depths": depths,
        "seeds": seeds,
        "cube_rules": cube_rules,
        "sig_rules": sig_rules,
        "max_levels": max_levels,
    }
    if args.dry_run:
        return _dry_run(plan)
    grid = GridSpec(dims, depths)
    maps = [ShiftMap.preset(d, c, s) for d, c, s in zip(dims, cube_rules, sig_rules)]
    D = comm.decompose(maps, grid)
    rows = []
    failures = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = random_haar_function(grid, rng, max_levels=tuple(max_levels))
        f = random_haar_function(grid, rng, max_levels=tuple(max_levels))
        residual = comm.verify_decomposition(D, b, f)
        ok = residual.is_zero
        if not ok:
            failures += 1
        rows.append(
            {"seed": seed, "zero_residual": ok, "residual_cells": len(residual.values)}
        )
    _write_reports(
        args.out,
        "verify_decomposition",
        ["seed", "zero_residual", "residual_cells"],
        rows,
        {"plan": plan, "terms": len(D.terms), "failures": failures},
    )
    print(
        f"verify-decomposition: {len(seeds)} seeds, {len(D.terms)} terms, "
        f"{failures} failures"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _symbol_from_config(symbol, grid: GridSpec, rng) -> StepFunction:
    if symbol == "random" or symbol is None:
        return random_haar_function(grid, rng)
    if symbol == "constant":
        return StepFunction.constant(grid, 1)
    if symbol == "single-haar":
        return comm.single_haar_symbol(grid)
    if isinstance(symbol, dict) and "rect_levels" in symbol:
        factors = tuple(
            DyadicCube(d, int(lvl), tuple(int(p) for p in pos))
            for d, lvl, pos in zip(grid.dims, symbol["rect_levels"], symbol["rect_pos"])
        )
        vecsig = tuple(tuple(int(b) for b in s) for s in symbol["sigs"])
        return haar_function(grid, DyadicRectangle(factors), vecsig)
    raise ConfigError(f"cannot interpret symbol {symbol!r}")


def cmd_bmo(cfg: dict, args) -> int:
    dims = tuple(_int_list(cfg, "dims", [1, 1]))
    depths = tuple(_int_list(cfg, "depths", [2, 2]))
    seeds = _seeds(cfg, args, list(range(10)))
    modes = cfg.get("modes", ["rectangle-sup", "greedy-union"])
    symbol = cfg.get("symbol", "random")
    plan = {
        "command": "bmo",
        "dims": dims,
        "depths": depths,
        "seeds": seeds,
        "modes": modes,
        "symbol": symbol,
    }
    if args.dry_run:
        return _dry_run(plan)
    grid = GridSpec(dims, depths)
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        b = _symbol_from_config(symbol, grid, rng)
        for mode in modes:
            est = para.bmo_norm(b, mode)
            rows.append(
                {
                    "seed": seed,
                    "mode": mode,
                    "value": repr(est.value),
                    "witness_cells": est.cell_count,
                }
            )
    _write_reports(
        args.out,
        "bmo",
        ["seed", "mode", "value", "witness_cells"],
        rows,
        {"plan": plan},
    )
    print(f"bmo: {len(rows)} rows")
    return EXIT_OK


def cmd_opnorm(cfg: dict, args) -> int:
    d = _int(cfg, "d", 1)
    depths = _int_list(cfg, "depths", [4])
    seeds = _seeds(cfg, args, [0])
    cube_rule = cfg.get("cube_rule", "first-child")
    sig_rule = cfg.get("sig_rule", "identity")
    symbol = cfg.get("symbol", "random")
    method = cfg.get("method", "power")
    cap = _int(cfg, "cap", 4096)
    plan = {
        "command": "opnorm",
        "d": d,
        "depths": depths,
        "seeds": seeds,
        "cube_rule": cube_rule,
        "sig_rule": sig_rule,
        "symbol": symbol,
        "method": method,
        "cap": cap,
    }
    if args.dry_run:
        return _dry_run(plan)
    rows = []
    for depth in depths:
        grid = GridSpec((d,), (depth,))
        smap = ShiftMap.preset(d, cube_rule, sig_rule)
        ts = TensorShift.single(smap)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            b = _symbol_from_config(symbol, grid, rng)
            res = comm.operator_norm(b, ts, grid, method=method, cap=cap)
            rows.append(
                {
                    "seed": seed,
                    "depth": depth,
                    "opnorm": repr(res.value),
                    "iterations": res.iterations,
                    "converged": res.converged,
                }
            )
    _write_reports(
        args.out,
        "opnorm",
        ["seed", "depth", "opnorm", "iterations", "converged"],
        rows,
        {"plan": plan},
    )
    stalled = sum(1 for r in rows if r["converged"] is False)
    print(f"opnorm: {len(rows)} rows, {stalled} not converged")
    return EXIT_OK if stalled == 0 else EXIT_VERIFY


def cmd_ratio(cfg: dict, args) -> int:
    d = _int(cfg, "d", 1)
    depths = _int_list(cfg, "depths", [3, 4])
    seeds = _seeds(cfg, args, list(range(10)))
    cube_rule = cfg.get("cube_rule", "first-child")
    sig_rule = cfg.get("sig_rule", "identity")
    bmo_mode = cfg.get("bmo_mode", "greedy-union")
    method = cfg.get("method", "power")
    plan = {
        "command": "ratio",
        "d": d,
        "depths": depths,
        "seeds": seeds,
        "cube_rule": cube_rule,
        "sig_rule": sig_rule,
        "bmo_mode": bmo_mode,
        "method": method,
    }
    if args.dry_run:
        return _dry_run(plan)
    rows = comm.norm_ratio_experiment(
        depths, seeds, d=d, cube_rule=cube_rule, sig_rule=sig_rule,
        bmo_mode=bmo_mode, method=method,
    )
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
    if args.fixtures:
        with open(args.fixtures) as fh:
            fixtures = json.load(fh)
        family = fixtures.get("single_haar", {})
        for depth in depths:
            key = str(depth)
            if key not in family:
                continue
            grid = GridSpec((d,), (depth,))
            smap = ShiftMap.preset(d, cube_rule, sig_rule)
            b = comm.single_haar_symbol(grid)
            est = para.bmo_norm(b, bmo_mode)
            res = comm.operator_norm(b, TensorShift.single(smap), grid, method=method)
            got = res.value / est.value
            if not res.converged or abs(got - family[key]["ratio"]) > 1e-8:
                mismatch += 1
                print(
                    f"fixture mismatch at depth {depth}: "
                    f"got {got!r}, expected {family[key]['ratio']!r}, "
                    f"converged {res.converged}"
                )
    _write_reports(
        args.out,
        "ratio",
        ["seed", "depth", "ratio", "bmo_mode"],
        out_rows,
        {"plan": plan, "fixture_mismatches": mismatch, "not_converged": stalled},
    )
    print(
        f"ratio: {len(out_rows)} rows, {mismatch} fixture mismatches, "
        f"{stalled} not converged"
    )
    return EXIT_OK if mismatch == 0 and stalled == 0 else EXIT_VERIFY


def cmd_riesz(cfg: dict, args) -> int:
    d = _int(cfg, "d", 1)
    n = _int(cfg, "n", 16)
    samples = _int(cfg, "samples", 64)
    seeds = _seeds(cfg, args, list(range(5)))
    component = _int(cfg, "component", 1)
    plan = {
        "command": "riesz",
        "d": d,
        "n": n,
        "samples": samples,
        "seeds": seeds,
        "component": component,
    }
    if args.dry_run:
        return _dry_run(plan)
    target = rz.riesz_matrix(d, n, component)
    rows = []
    for seed in seeds:
        mats = [
            rz.sample_shift_matrix(s) for s in rz.draw_grid_samples(d, n, samples, seed)
        ]
        residuals = rz.span_residual(mats, target)
        for m, r in enumerate(residuals):
            rows.append({"seed": seed, "M": m, "residual": repr(float(r))})
    _write_reports(
        args.out, "riesz", ["seed", "M", "residual"], rows, {"plan": plan}
    )
    if args.out is not None and cfg.get("gnuplot"):
        out = Path(args.out)
        with open(out / "riesz.dat", "w") as fh:
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
    parser = argparse.ArgumentParser(
        prog="dyadlab",
        description="Verification suites and experiments for dyadic commutator analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed-list", default=None, help="comma-separated seed override")
        p.add_argument("--out", default=None, help="directory for CSV/JSON reports")
        p.add_argument("--fixtures", default=None, help="fixture JSON for comparisons")
        p.add_argument("--dry-run", action="store_true", help="print the plan and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command)
        if args.seed_list is not None:
            args.seed_list = _parse_seed_list(args.seed_list)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # unresolvable presets, bad dimensions and similar config-level issues
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapExceededError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
