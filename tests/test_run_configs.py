"""scripts/run_configs.py runs every config, writes every tree, and exits 1
when any config exits non-zero."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_failing_config_fails_the_run(tmp_path, run_configs):
    checkout = tmp_path / "checkout"
    (checkout / "configs").mkdir(parents=True)
    (checkout / "src").symlink_to(ROOT / "src")
    configs = {
        "verify_cases_bad": {"schema_version": 1, "depth": -1},
        "verify_cases_small": {"schema_version": 1, "depth": 0},
    }
    for stem, cfg in configs.items():
        (checkout / "configs" / f"{stem}.json").write_text(json.dumps(cfg))
    run_configs.ROOT = checkout
    out = tmp_path / "out"
    assert run_configs.main([str(out)]) == 1
    assert (out / "verify_cases_bad" / "exit_code").read_text() == "2\n"
    assert (out / "verify_cases_small" / "exit_code").read_text() == "0\n"
    assert (out / "verify_cases_small" / "out" / "verify_cases.json").exists()
    (checkout / "configs" / "verify_cases_bad.json").unlink()
    assert run_configs.main([str(out)]) == 0
