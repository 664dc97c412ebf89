"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

from dyadlab import _kernels, commutator, haar, paraproduct, shift  # noqa: E402
from dyadlab.scalar import Scalar  # noqa: E402
from dyadlab.stepfn import StepFunction  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "1"

# Flat layers whose calls are not zero, because a function the workload
# does need calls them: synthesize and the cached Haar functions evaluate
# haar_cell_value, random_haar_function synthesizes, and bmo_norm analyzes
# its symbol.  Their time share is small; the rest of FLAT records no call.
SHARED_CALLS = {
    ("cases", "haar.haar_cell_value.calls"),
    ("norms", "haar.haar_cell_value.calls"),
    ("bmo_riesz", "haar.analyze.calls"),
    ("bmo_riesz", "haar.synthesize.calls"),
    ("bmo_riesz", "haar.haar_cell_value.calls"),
    ("bmo_riesz", "scalar.ops"),
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    return proc


def last_two(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.FLAT) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == METRICS
    for names in workloads.FLAT.values():
        assert set(names) <= set(METRICS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(name):
    record, result = last_two(
        bench("--workload", name, "--seed", "3", "--seconds", SMOKE_SECONDS, "--trace", "0")
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["reasons"]
    assert list(result["metrics"]) == list(run.UNITS)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert record["failed_frac"] == 0
    assert len(record["setup_s_runs"]) == run.SETUP_RUNS
    for key in ("python", "numpy", "dyadlab", "nproc", "backend", "blas_threads"):
        assert key in record["env"]
    assert set(record["calibration_ms"]) == {"before", "after"}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_flat_layers_stay_flat(name):
    args = ("--workload", name, "--seed", "5", "--seconds", SMOKE_SECONDS, "--trace", "1")
    (rec1, res1), (rec2, res2) = last_two(bench(*args)), last_two(bench(*args))
    assert res1["correct"] and res2["correct"]
    assert list(res1["metrics"]) == list(METRICS)
    counts = [
        {k: m["value"] for k, m in res["metrics"].items() if m["unit"] != "s"}
        for res in (res1, res2)
    ]
    assert counts[0] == counts[1]
    for metric, value in rec1["flat"].items():
        if (name, metric) not in SHARED_CALLS:
            assert value == 0, metric


def test_tracer_rebinds_imported_copies():
    copies = [
        (shift, "analyze", haar),
        (paraproduct, "analyze", haar),
        (paraproduct, "haar_coefficient", haar),
        (paraproduct, "zeta_sos", _kernels),
        (paraproduct, "popcounts", _kernels),
        (commutator, "apply_paraproduct", paraproduct),
        (commutator, "bmo_norm", paraproduct),
        (commutator, "power_iteration", _kernels),
        (shift, "haar_basis_keys", haar),
    ]
    before = [getattr(module, attr) for module, attr, _ in copies]
    tracer = Tracer()
    tracer.enable()
    try:
        for (module, attr, home), original in zip(copies, before):
            assert getattr(module, attr) is not original
            assert getattr(module, attr) is getattr(home, attr)
    finally:
        tracer.disable()
    assert [getattr(module, attr) for module, attr, _ in copies] == before


def test_checkout_without_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cases", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_residual_counts_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["decomposition"](1)
    wl.setup()
    verify = commutator.verify_decomposition
    bump = StepFunction.constant(wl.grid, Scalar(1, 0, 3))
    monkeypatch.setattr(commutator, "verify_decomposition", lambda D, b, f: verify(D, b, f) + bump)
    out = worker.time_items(wl, seconds=0.01)
    assert out["failed"] == out["attempted"] >= 1
    assert out["items_per_s"] == 0
    assert "nonzero residual" in out["reasons"][0]


def test_crashing_item_counts_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["cases"](1)
    wl.setup()

    def crash(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(commutator, "case_evaluate", crash)
    out = worker.time_items(wl, seconds=0.01)
    assert out["failed"] == out["attempted"] >= 1
    assert "injected" in out["reasons"][0]


def test_wrong_svd_check_counts_as_failure(monkeypatch):
    wl = workloads.WORKLOADS["norms"](1)
    wl.setup()
    norm = commutator.operator_norm

    def off(b, ts, grid, method="power", **kw):
        res = norm(b, ts, grid, method=method, **kw)
        return res if method == "power" else res.__class__(res.value * 1.01, 0, True, method)

    monkeypatch.setattr(commutator, "operator_norm", off)
    out = worker.time_items(wl, seconds=0.01)
    # one item ran and passed; its untimed SVD re-check fails
    assert out["failed"] == 1 and out["attempted"] == 1 + wl.finish_checks
    assert "svd" in out["reasons"][0]


def test_tail_is_eleventh_largest():
    summary = worker.latency_summary([i / 1e3 for i in range(1, 31)], failed=0, loop_s=1.0)
    assert summary["item_ms_tail"] == 20.0
    assert summary["tail_percentile"] == pytest.approx(100 * 20 / 30)
    assert summary["item_ms_p50"] == 15.5
