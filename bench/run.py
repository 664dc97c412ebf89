"""Benchmark of dyadlab's exact and float pipelines.

Run from the repository root:

    python3 bench/run.py --workload cases --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``cases``, ``decomposition``, ``norms``
and ``bmo_riesz``.  Each measurement runs in fresh worker processes
(``worker.py``) with BLAS pinned to one thread, as a single-threaded
closed loop of checked items.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median over several fresh processes of the time from before ``import
dyadlab`` until the first item can start), ``items_per_s`` (checked
items per second of the timed loop), ``item_ms_p50``, ``item_ms_tail``
(the eleventh-largest item latency, i.e. the highest percentile with at
least ten items beyond it) and ``peak_rss_mb``.  With ``--trace 1`` one
traced worker reports the per-layer metrics of ``tracer.py``.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``record`` with the environment, a pure-Python calibration time taken
before and after the workload (to tell a slow machine from a slow
program), the item count, the tail percentile, ``failed_frac`` and the
first failure reasons.  The exit code is non-zero, with no result, when
the run itself cannot be made (no ``src/dyadlab`` in the working
directory, a worker crash, or the time limit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Set-up is timed in this many fresh processes; the median is reported.
SETUP_RUNS = 5
# Every worker must have finished this long after the start.
TIME_LIMIT_S = 170.0
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def calibrate(reps: int = 5) -> float:
    """Median milliseconds of a fixed pure-Python loop."""
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        x, d = 0, {}
        for i in range(200_000):
            x = (x * 31 + i) & 0xFFFFF
            d[x & 1023] = i
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_PINS)
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker passed the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{mode} worker printed no result: {lines[-1][:200]!r}") from exc


def measure(args) -> tuple[dict, dict]:
    """Run the workers; return the result line and the record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "blas_threads": THREAD_PINS,
            "git_commit": git_commit(ROOT),
        },
        "calibration_ms": {"before": calibrate()},
    }
    if args.trace:
        out = run_worker(args, "trace", deadline)
        metrics = out["metrics"]
        record.update(
            {k: out[k] for k in ("n", "untraced_s", "traced_s", "flat", "describe")}
        )
    else:
        setups = [run_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        out = run_worker(args, "time", deadline)
        setups.append(out["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            **{k: out[k] for k in ("items_per_s", "item_ms_p50", "item_ms_tail", "peak_rss_mb")},
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        record.update(
            {k: out[k] for k in ("n", "tail_percentile", "describe")},
            setup_s_runs=setups,
        )
    record["calibration_ms"]["after"] = calibrate()
    record["env"].update(out["env"])
    record.update(
        failed_frac=out["failed"] / out["attempted"],
        reasons=out["reasons"],
    )
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dyadlab" / "__init__.py").is_file():
        print(f"no src/dyadlab under {ROOT}: run from the repository root", file=sys.stderr)
        return 2
    try:
        result, record = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
