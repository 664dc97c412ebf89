import json
from pathlib import Path

import pytest

from dyadlab import cli


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_unknown_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "bogus": 1})
    assert run(["verify-cases", "--config", cfg]) == cli.EXIT_CONFIG


def test_missing_schema_version(tmp_path):
    cfg = write_config(tmp_path, {"d": 1})
    assert run(["verify-cases", "--config", cfg]) == cli.EXIT_CONFIG


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert run(["verify-cases", "--config", str(path)]) == cli.EXIT_CONFIG


def test_dry_run_prints_plan(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "d": 1, "depth": 2})
    assert run(["verify-cases", "--config", cfg, "--dry-run"]) == cli.EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dry_run"] and out["plan"]["command"] == "verify-cases"


def test_verify_cases_small_grid_passes(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "d": 1, "depth": 2, "cube_rules": ["first-child"]},
    )
    out = tmp_path / "reports"
    assert run(["verify-cases", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads((out / "verify_cases.json").read_text())
    assert rows["meta"]["summary"]["mismatches"] == 0
    assert rows["meta"]["summary"]["pairs"] == 7 * 7


@pytest.mark.parametrize(
    "cfg, key", [({"depth": -1}, "depth"), ({"cube_rules": []}, "cube_rules")]
)
def test_verify_cases_empty_grid_is_config_error(tmp_path, capsys, cfg, key):
    # a run that would check zero pairs is refused before it starts
    path = write_config(tmp_path, {"schema_version": 1, "d": 1, **cfg})
    assert run(["verify-cases", "--config", path]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and key in err


def test_verify_cases_depth_cap(tmp_path):
    cfg = write_config(tmp_path, {"schema_version": 1, "d": 1, "depth": 5})
    assert run(["verify-cases", "--config", cfg]) == cli.EXIT_CONFIG


def test_verify_cases_fault_injection(tmp_path, monkeypatch):
    import dyadlab.commutator as comm

    real = comm.case_evaluate

    def broken(grid, I, eps, Ip, epsp, smap):
        return -real(grid, I, eps, Ip, epsp, smap)

    monkeypatch.setattr(comm, "case_evaluate", broken)
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "d": 1, "depth": 1, "cube_rules": ["first-child"]},
    )
    out = tmp_path / "r"
    assert run(["verify-cases", "--config", cfg, "--out", str(out)]) == cli.EXIT_VERIFY
    report = json.loads((out / "verify_cases.json").read_text())
    assert report["meta"]["summary"]["mismatches"] > 0
    assert report["rows"][0]["status"] == "mismatch"  # located mismatch


def test_verify_decomposition_ok(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [4],
            "seeds": [0, 1, 2],
        },
    )
    assert run(["verify-decomposition", "--config", cfg]) == cli.EXIT_OK


def test_verify_decomposition_zero_input_not_checked(tmp_path, capsys):
    # seed 1 draws b = f = 0 on this grid: the identity holds vacuously
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": [2], "seeds": [1]}
    )
    out = tmp_path / "out"
    assert run(["verify-decomposition", "--config", cfg, "--out", str(out)]) == cli.EXIT_VERIFY
    assert capsys.readouterr().out.strip().endswith("0 failures, 1 not checked")
    report = json.loads((out / "verify_decomposition.json").read_text())
    assert report["meta"]["failures"] == 0 and report["meta"]["not_checked"] == 1
    assert report["rows"] == [{"seed": 1, "zero_residual": None, "residual_cells": None}]


def test_unresolvable_preset_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [4],
            "seeds": [0],
            "cube_rules": ["no-such-preset"],
        },
    )
    assert run(["verify-decomposition", "--config", cfg]) == cli.EXIT_CONFIG


def test_verify_decomposition_horizon_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [4],
            "seeds": [0],
            "max_levels": [3],
        },
    )
    assert run(["verify-decomposition", "--config", cfg]) == cli.EXIT_CONFIG


def test_seed_list_override_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "dims": [1], "depths": [3], "seeds": [9, 9, 9]},
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["ratio", "--config", cfg, "--seed-list", "2,0,1"]
    assert run(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert run(args + ["--out", str(out2)]) == cli.EXIT_OK
    csv1 = (out1 / "ratio.csv").read_bytes()
    csv2 = (out2 / "ratio.csv").read_bytes()
    assert csv1 == csv2  # byte-identical reruns
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "seed,depth,ratio,bmo_mode"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_bmo_single_haar_row(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [2],
            "seeds": [0],
            "modes": ["rectangle-sup", "greedy-union", "exact-bruteforce"],
            "symbol": {"rect_levels": [1], "rect_pos": [[0]], "sigs": [[0]]},
        },
    )
    out = tmp_path / "r"
    assert run(["bmo", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "bmo.json").read_text())
    for row in report["rows"]:
        assert float(row["value"]) == pytest.approx(2 ** 0.5, abs=1e-12)


def test_bmo_exact_cap_exit(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [5],
            "seeds": [0],
            "modes": ["exact-bruteforce"],
        },
    )
    assert run(["bmo", "--config", cfg]) == cli.EXIT_CAP


def test_opnorm_constant_symbol(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "dims": [1],
            "depths": [3],
            "seeds": [0],
            "symbol": "constant",
        },
    )
    out = tmp_path / "r"
    assert run(["opnorm", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "opnorm.json").read_text())
    assert float(report["rows"][0]["opnorm"]) == 0.0


def test_opnorm_cap_exit(tmp_path):
    cfg = write_config(
        tmp_path,
        {"schema_version": 1, "dims": [1], "depths": [4], "seeds": [0], "cap": 4},
    )
    assert run(["opnorm", "--config", cfg]) == cli.EXIT_CAP


def test_ratio_fixture_comparison(tmp_path):
    fixture = tmp_path / "fix.json"
    fixture.write_text(
        json.dumps({"single_haar": {"3": {"ratio": 2 ** 0.5}}})
    )
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": [3], "seeds": [0]}
    )
    assert (
        run(["ratio", "--config", cfg, "--fixtures", str(fixture)]) == cli.EXIT_OK
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"single_haar": {"3": {"ratio": 3.0}}}))
    assert (
        run(["ratio", "--config", cfg, "--fixtures", str(bad)]) == cli.EXIT_VERIFY
    )


def test_riesz_reports_and_gnuplot(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "schema_version": 1,
            "d": 1,
            "n": 16,
            "samples": 4,
            "seeds": [0],
            "gnuplot": True,
        },
    )
    out = tmp_path / "r"
    assert run(["riesz", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    rows = json.loads((out / "riesz.json").read_text())["rows"]
    assert [r["M"] for r in rows] == [0, 1, 2, 3, 4]
    assert float(rows[0]["residual"]) == 1.0
    assert (out / "riesz.dat").read_text().startswith("# seed M residual")


@pytest.mark.parametrize(
    "bad",
    [
        {"depths": ["5"]},
        {"dims": [True]},
        {"dims": [1], "depths": [4], "max_levels": [1.5]},
        {"depths": 5},
    ],
)
def test_verify_decomposition_rejects_untyped_lists(tmp_path, capsys, bad):
    cfg = write_config(tmp_path, {"schema_version": 1, "seeds": [0], **bad})
    assert run(["verify-decomposition", "--config", cfg]) == cli.EXIT_CONFIG
    assert "must be a list of integers" in capsys.readouterr().err


def test_opnorm_rejects_string_depths(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": ["3"], "seeds": [0]}
    )
    assert run(["opnorm", "--config", cfg]) == cli.EXIT_CONFIG
    assert "must be a list of integers" in capsys.readouterr().err


def test_verify_cases_rejects_bool_dimension(tmp_path, capsys):
    cfg = write_config(tmp_path, {"schema_version": 1, "d": True, "depth": 2})
    assert run(["verify-cases", "--config", cfg]) == cli.EXIT_CONFIG
    assert "must be an integer" in capsys.readouterr().err


def _stalled_power_iteration(monkeypatch):
    import dyadlab.commutator as comm

    real = comm.power_iteration

    def stalled(mat, v0, tol, max_iter):
        sigma, _, _ = real(mat, v0, tol, max_iter)
        return sigma, max_iter, False

    monkeypatch.setattr(comm, "power_iteration", stalled)


def test_ratio_nonconvergence_fails_closed(tmp_path, monkeypatch):
    _stalled_power_iteration(monkeypatch)
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": [3], "seeds": [0, 1]}
    )
    out = tmp_path / "r"
    assert run(["ratio", "--config", cfg, "--out", str(out)]) == cli.EXIT_VERIFY
    report = json.loads((out / "ratio.json").read_text())
    assert report["meta"]["not_converged"] == 2
    assert [r["converged"] for r in report["rows"]] == [False, False]
    assert all(r["iterations"] == 10000 for r in report["rows"])
    header = (out / "ratio.csv").read_text().splitlines()[0]
    assert header == "seed,depth,ratio,bmo_mode"


def test_ratio_rows_carry_convergence(tmp_path):
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": [3], "seeds": [0]}
    )
    out = tmp_path / "r"
    assert run(["ratio", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    (row,) = json.loads((out / "ratio.json").read_text())["rows"]
    assert row["converged"] is True and row["iterations"] > 0


# two parameters: first-child in the first, rotating in the second
T2 = {"dims": [1, 1], "depths": [3, 4], "seeds": [0], "cube_rules": ["first-child", "rotating"]}


def opnorm_values(tmp_path, name, cfg):
    path = write_config(tmp_path, {"schema_version": 1, **cfg}, f"{name}.json")
    out = tmp_path / name
    assert run(["opnorm", "--config", path, "--out", str(out)]) == cli.EXIT_OK
    return [float(r["opnorm"]) for r in json.loads((out / "opnorm.json").read_text())["rows"]]


def test_opnorm_product_symbol_is_product_of_factors(tmp_path):
    # b = b1 x b2 gives [[M_b, Q1 x I], I x Q2] = [M_b1, Q1] x [M_b2, Q2]
    symbol = {"rect_levels": [1, 0], "rect_pos": [[1], [0]], "sigs": [[0], [0]]}
    product = opnorm_values(tmp_path, "t2", {**T2, "method": "svd", "symbol": symbol})
    one = {"dims": [1], "depths": [3, 4], "seeds": [0], "method": "svd"}
    first = opnorm_values(tmp_path, "first", {
        **one, "cube_rules": ["first-child"],
        "symbol": {"rect_levels": [1], "rect_pos": [[1]], "sigs": [[0]]},
    })
    second = opnorm_values(tmp_path, "second", {
        **one, "cube_rules": ["rotating"], "symbol": "single-haar",
    })
    assert len(product) == 2
    assert product == pytest.approx([a * b for a, b in zip(first, second)], rel=1e-12, abs=0)


@pytest.mark.parametrize("method", ["power", "svd"])
def test_opnorm_symbol_constant_in_one_parameter_is_zero(tmp_path, method):
    symbol = {"rect_levels": [0, 0], "rect_pos": [[0], [0]], "sigs": [[1], [0]]}
    values = opnorm_values(tmp_path, "t2", {**T2, "method": method, "symbol": symbol})
    assert values == [0.0, 0.0]


def test_opnorm_nonconvergence_fails_closed(tmp_path, monkeypatch):
    _stalled_power_iteration(monkeypatch)
    cfg = write_config(
        tmp_path, {"schema_version": 1, "dims": [1], "depths": [3], "seeds": [0]}
    )
    assert run(["opnorm", "--config", cfg]) == cli.EXIT_VERIFY


@pytest.mark.parametrize(
    "command, cfg, flags, key",
    [
        ("bmo", {"symbol": {"rect_levels": [1], "sigs": [[0]]}}, [], "symbol"),
        ("ratio", {"depths": [3]}, ["--fixtures", "missing.json"], "fixtures"),
        ("bmo", {"modes": "greedy-union"}, [], "modes"),
        ("riesz", {"samples": 2, "gnuplot": "no"}, [], "gnuplot"),
        ("opnorm", {"depths": [3], "method": "banana"}, [], "method"),
        ("riesz", {"samples": 2, "component": 7}, [], "component"),
        ("riesz", {"samples": 2, "n": 12}, [], "n must"),
        ("opnorm", {"depths": [3], "seeds": [-1]}, [], "seeds"),
        ("opnorm", {"depths": [0, 3], "symbol": "single-haar"}, [], "symbol"),
        ("opnorm", {"depths": [3], "cube_rules": [{"child": 5}]}, [], "cube_rule"),
        (
            "verify-decomposition",
            {"dims": [1, 1], "depths": [3, 3], "cube_rules": ["first-child"]},
            [],
            "cube_rules",
        ),
        (
            "bmo",
            {
                "dims": [1],
                "depths": [2],
                "symbol": {"rect_levels": [2], "rect_pos": [[0]], "sigs": [[0]]},
            },
            [],
            "symbol",
        ),
        ("verify-decomposition", {"dims": [1], "depths": [1], "seeds": [0]}, [], "depths"),
        ("verify-decomposition", {"dims": [1], "depths": [0], "seeds": [0]}, [], "depths"),
        ("verify-decomposition", {"depths": [3], "max_levels": [-1]}, [], "max_levels"),
        (
            "ratio",
            {"dims": [1, 1], "depths": [3]},
            ["--fixtures", str(Path(__file__).parent / "fixtures" / "opnorm_oracle.json")],
            "fixtures",
        ),
        ("verify-cases", {"depth": -1}, [], "depth"),
        ("verify-cases", {"cube_rules": []}, [], "cube_rules"),
        ("verify-decomposition", {"depths": [3], "seeds": []}, [], "seeds"),
        ("ratio", {"depths": [3]}, ["--seed-list", ""], "seeds"),
    ],
)
def test_bad_config_is_config_error(tmp_path, monkeypatch, capsys, command, cfg, flags, key):
    # each of these crashed, ran silently or failed mid-computation before
    # the config was resolved against its schema
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"schema_version": 1, **cfg})
    assert run([command, "--config", path, *flags, "--out", "r"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "r").exists()


def test_compute_error_is_not_a_config_error(tmp_path, monkeypatch):
    import dyadlab.commutator as comm

    def broken(*args):
        raise ValueError("bug found while computing")

    monkeypatch.setattr(comm, "case_evaluate", broken)
    cfg = write_config(tmp_path, {"schema_version": 1, "d": 1, "depth": 1})
    with pytest.raises(ValueError, match="bug found while computing"):
        run(["verify-cases", "--config", cfg])


@pytest.mark.parametrize(
    "command, flags",
    [
        ("verify-cases", ["--seed-list", "1,2"]),
        ("verify-cases", ["--fixtures", "x.json"]),
        ("opnorm", ["--fixtures", "x.json"]),
    ],
)
def test_unread_flag_rejected(tmp_path, command, flags):
    cfg = write_config(tmp_path, {"schema_version": 1})
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, "--dry-run", *flags])
    assert exc.value.code == cli.EXIT_CONFIG


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
FIXTURES = Path(__file__).parent / "fixtures"


def shipped_command(path):
    # each configs/<command>_*.json is named after the command it drives
    return next(c for c in cli._COMMANDS if path.stem.startswith(c.replace("-", "_")))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_resolves(path, capsys):
    command = shipped_command(path)
    assert run([command, "--config", str(path), "--dry-run"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["plan"]["command"] == command


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(path, tmp_path):
    command = shipped_command(path)
    argv = [command, "--config", str(path), "--out", str(tmp_path)]
    if command == "ratio" and json.loads(path.read_text())["dims"] == [1]:
        # the single-Haar fixtures hold dims [1] ratios only
        argv += ["--fixtures", str(FIXTURES / "opnorm_oracle.json")]
    assert run(argv) == cli.EXIT_OK
    name = command.replace("-", "_")
    assert (tmp_path / f"{name}.csv").is_file()
    meta = json.loads((tmp_path / f"{name}.json").read_text())["meta"]
    if command == "verify-cases":
        assert meta["summary"]["mismatches"] == 0
    elif command == "verify-decomposition":
        assert meta["failures"] == 0 and meta["not_checked"] == 0


@pytest.mark.parametrize(
    "command, path",
    [(shipped_command(p), p) for p in CONFIGS] + [(c, None) for c in cli._COMMANDS],
    ids=[p.stem for p in CONFIGS] + [f"{c}-defaults" for c in cli._COMMANDS],
)
def test_plan_is_a_config(tmp_path, capsys, command, path):
    # a report's plan, given back as a config, must resolve to itself
    def dry_run(config):
        assert run([command, "--config", str(config), "--dry-run"]) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)["plan"]

    if path is None:
        path = write_config(tmp_path, {"schema_version": 1}, "defaults.json")
    plan = dry_run(path)
    assert list(plan) == ["command"] + [f.name for f in cli._SCHEMAS[command]]
    fields = {k: v for k, v in plan.items() if k != "command"}
    assert dry_run(write_config(tmp_path, {"schema_version": 1, **fields}, "plan.json")) == plan
