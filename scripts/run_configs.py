#!/usr/bin/env python3
"""Run every shipped config and keep everything each run leaves behind.

    python scripts/run_configs.py OUTDIR

Each ``configs/<stem>.json`` runs with the subcommand its stem names
(``verify_cases`` -> ``verify-cases``, ``ratio_family`` -> ``ratio``, ...),
in a fresh ``python -m dyadlab.cli`` process on this checkout's ``src/``.
A ``ratio`` config over ``dims [1]`` also gets ``--fixtures
tests/fixtures/opnorm_oracle.json``.  ``OUTDIR/<stem>/`` receives the
``--out`` reports under ``out/``, plus ``stdout``, ``stderr`` and
``exit_code``.  Every path handed to a run is relative to its working
directory, so two checkouts' trees compare with ``diff -r``.  Every config
runs and writes its tree; the script exits 1 if any of them exited
non-zero, since every shipped config is meant to pass.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dyadlab.cli import _COMMANDS  # noqa: E402


def command_for(stem: str) -> str:
    names = [c for c in _COMMANDS if stem.startswith(c.replace("-", "_"))]
    if len(names) != 1:
        raise SystemExit(f"configs/{stem}.json: no single subcommand matches its name")
    return names[0]


def run(config: Path, outdir: Path) -> int:
    command = command_for(config.stem)
    run_dir = outdir / config.stem
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    shutil.copy(config, run_dir / "config.json")
    argv = [sys.executable, "-m", "dyadlab.cli", command, "--config", "config.json", "--out", "out"]
    if command == "ratio" and json.loads(config.read_text()).get("dims") == [1]:
        shutil.copy(ROOT / "tests" / "fixtures" / "opnorm_oracle.json", run_dir / "fixtures.json")
        argv += ["--fixtures", "fixtures.json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(argv, cwd=run_dir, env=env, capture_output=True, text=True)
    (run_dir / "stdout").write_text(done.stdout)
    (run_dir / "stderr").write_text(done.stderr)
    (run_dir / "exit_code").write_text(f"{done.returncode}\n")
    return done.returncode


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python scripts/run_configs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(args[0]).resolve()
    failed = False
    for config in sorted((ROOT / "configs").glob("*.json")):
        code = run(config, outdir)
        print(f"{config.stem}: exit {code}")
        failed |= code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
