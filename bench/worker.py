"""One workload process: set up, then run items in a closed loop.

Started by ``run.py`` once per measurement, so the ``lru_cache`` tables
of one workload never leak into another, and so set-up is timed from a
fresh interpreter.  The set-up clock starts on the first line, before
numpy or dyadlab is imported.  Prints one JSON object as its last line.

Modes:
  setup  import and set up, report ``setup_s`` only;
  time   set up, then run items until ``--seconds`` have passed;
  trace  set up under the tracer, run a fixed item list three times
         (to fill caches, untraced, traced), report per-layer figures
         of the traced set-up and the traced pass.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import dyadlab  # noqa: E402
from dyadlab import _kernels  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# At most this many failure reasons are kept in a result.
MAX_REASONS = 5


def run_items(wl, indices, deadline=None):
    """Run items, checking each; never raises for a failed item.

    With ``deadline`` set, ``indices`` is consumed until the clock passes
    it.  Returns per-item latencies in seconds, the failure count, the
    first failure reasons, and the loop's wall time.
    """
    latencies, failed, reasons = [], 0, []
    start = perf_counter()
    for i in indices:
        t = perf_counter()
        try:
            reason = wl.item(i)
        except Exception:  # a crash is a failed item, not a failed run
            reason = traceback.format_exc(limit=3).strip().splitlines()[-1]
        end = perf_counter()
        latencies.append(end - t)
        if reason is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"item {i}: {reason}")
        if deadline is not None and end >= deadline:
            break
    return latencies, failed, reasons, perf_counter() - start


def finish(wl):
    """Untimed oracle checks; a crash counts as one failure."""
    try:
        return wl.finish()
    except Exception:
        return [traceback.format_exc(limit=3).strip().splitlines()[-1]]


def latency_summary(latencies, failed, loop_s) -> dict:
    """Median and tail latency, and checked items per second.

    The tail is the highest percentile with at least ten items beyond it:
    the eleventh-largest latency.
    """
    n = len(latencies)
    ms = sorted(x * 1e3 for x in latencies)
    beyond = 10 if n > 10 else n - 1
    return {
        "n": n,
        "items_per_s": (n - failed) / loop_s,
        "item_ms_p50": float(np.median(ms)),
        "item_ms_tail": ms[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
    }


def time_items(wl, seconds: float) -> dict:
    """Run items until ``seconds`` have passed, then the untimed checks."""
    latencies, failed, reasons, loop_s = run_items(
        wl, itertools.count(), deadline=perf_counter() + seconds
    )
    late = finish(wl)
    return {
        **latency_summary(latencies, failed, loop_s),
        "attempted": len(latencies) + wl.finish_checks,
        "failed": failed + len(late),
        "reasons": (reasons + late)[:MAX_REASONS],
    }


def trace_items(wl, tracer, seconds: float) -> dict:
    """Run a fixed item list to fill caches, then untraced, then traced.

    The list length is fixed by ``seconds``, so the counts repeat exactly;
    the two later passes do the same work and their difference is the
    tracing overhead.
    """
    n = max(1, round(wl.trace_items_per_s * seconds))
    passes = []
    for traced in (False, False, True):
        if traced:
            tracer.enable()
        passes.append(run_items(wl, range(n)))
    tracer.disable()
    plain_s, traced_s = passes[1][3], passes[2][3]
    metrics = tracer.metrics(traced_s - plain_s)
    return {
        "n": n,
        "attempted": sum(len(p[0]) for p in passes),
        "failed": sum(p[1] for p in passes),
        "reasons": [r for p in passes for r in p[2]][:MAX_REASONS],
        "metrics": metrics,
        "flat": {m: metrics[m]["value"] for m in workloads.FLAT[wl.name]},
        "untraced_s": plain_s,
        "traced_s": traced_s,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = p.parse_args(argv)

    if not Path(dyadlab.__file__).resolve().is_relative_to(SRC):
        print(f"dyadlab imported from {dyadlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    if args.mode == "trace":
        tracer.enable()  # set-up is traced too: it builds the basis tables
    wl.setup()
    setup_s = perf_counter() - T0
    tracer.disable()
    out = {
        "setup_s": setup_s,
        "env": {
            "numpy": np.__version__,
            "dyadlab": dyadlab.__version__,
            "backend": _kernels.BACKEND,
        },
    }
    if args.mode == "time":
        out.update(time_items(wl, args.seconds))
    elif args.mode == "trace":
        out.update(trace_items(wl, tracer, args.seconds))
    out["describe"] = wl.describe()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
