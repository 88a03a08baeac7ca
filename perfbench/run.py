"""The silt benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each iteration of a workload runs in its own fresh, single-threaded process
(``iteration.py``), one after another, never two at once.  An untraced run
first starts ``SETUP_PROBES`` processes that only import silt and build the
algebras, then repeats the workload for about ``--seconds`` seconds and
reports medians over its iterations.  Before the set-up and after every
iteration it times the fixed reference loop of ``reference.py`` in a fresh
process, and divides every end-to-end timing by the mean reference time in
seconds.  So the timings read as if the reference loop took exactly 1 s: a
host that slows down for minutes shows in the reference, not as a change of
silt.  A traced run (``--trace 1``) repeats pairs of iterations, one
untraced and one traced, and reports the per-layer metrics of
``tracing.py``; the difference between the median traced and the median
untraced wall time is the tracing overhead.

Every iteration checks its outputs (``Gate`` in ``iteration.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit and sample count.  The exit code is 0 when every
iteration ran, whatever the checks found; it is 1 when an iteration could not
run at all, for instance when there is no ``src/silt`` to import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from iteration import WORKLOADS  # noqa: E402
from tracing import metric_units  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "request_ms_mean": "ms",
    "request_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def run_script(script: str, *args: str) -> dict:
    """Run one script of this directory in a fresh process; return its JSON result."""
    cmd = [sys.executable, str(HERE / script), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env={**os.environ, **CHILD_ENV})
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{script} {' '.join(args)} exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{script} {' '.join(args)} exited {proc.returncode}: "
                          + " | ".join(tail))
    return json.loads(lines[-1])


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """Run one iteration process to completion and return its JSON result."""
    return run_script("iteration.py", "--workload", workload, "--seed", str(seed), *flags)


def reference_s() -> float:
    """Time the fixed reference loop once, in a fresh process."""
    return run_script("reference.py")["ref_s"]


def repeat(seconds: float, start_one) -> list[dict]:
    """Run iterations back to back while the next one is expected to fit."""
    results = []
    t0 = time.monotonic()
    while True:
        results.append(start_one(len(results)))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(results) > seconds:
            return results


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(iters: list[dict], setups: list[float],
               refs: list[float]) -> tuple[dict, dict]:
    """Medians over iterations; latency mean and percentile over all requests.

    Every timing is divided by the mean reference time ``ref``: it reads in
    seconds of a host on which the reference loop takes 1 s.
    """
    ref = statistics.mean(refs)
    lat = [x for r in iters for x in r["latencies_ms"]]
    pct = iters[0]["tail_pct"]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in iters) / ref,
        "pairs_per_s": statistics.median(r["pairs"] / r["wall_s"] for r in iters) * ref,
        "request_ms_mean": statistics.mean(lat) / ref,
        "request_ms_tail": percentile(lat, pct) / ref,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in iters),
        "setup_s": statistics.median(setups) / ref,
    }
    beyond = len(lat) - math.ceil(pct / 100 * len(lat))
    notes = {
        "wall_s": f"median of {len(iters)} iterations",
        "pairs_per_s": f"median of {len(iters)} iterations, "
                       f"{iters[0]['pairs']} pairs each",
        "request_ms_mean": f"mean of {len(lat)} requests",
        "request_ms_tail": f"p{pct} of {len(lat)} requests, {beyond} beyond it",
        "peak_rss_mb": f"median of {len(iters)} processes",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    scaled = f", scaled to a 1 s reference (measured {ref:.4f} s, mean of {len(refs)})"
    for key in values:
        if key != "peak_rss_mb":
            notes[key] += scaled
    return values, notes


def per_layer(base: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Medians of the traced iterations' layer metrics, plus the overhead.

    The overhead is the difference of two medians taken on a shared host, so
    it is approximate and can even come out negative.
    """
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in base)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    notes = {key: f"median of {len(traced)} traced iterations" for key in values}
    notes["trace.untraced_wall_s"] = (f"median of {len(base)} untraced iterations, "
                                      "each run just before a traced one")
    notes["trace.overhead_s"] = "approximate: difference of the two medians"
    return values, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        pairs = repeat(seconds, lambda k: (
            run_child(workload, seed),
            run_child(workload, seed, "--trace", "--run-id", str(k))))
        base, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        iters = base + traced
        values, notes = per_layer(base, traced)
        units = metric_units()
    else:
        refs = [reference_s()]
        setups = [run_child(workload, seed, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]

        def one(k):
            result = run_child(workload, seed)
            refs.append(reference_s())
            return result

        iters = repeat(seconds, one)
        values, notes = end_to_end(iters, setups + [r["setup_s"] for r in iters], refs)
        units = END_TO_END
    failures = [f for r in iters for f in r["failures"]]
    attempted = sum(r["attempted"] for r in iters)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "notes": notes,
        "failures": failures,
        "prime": iters[0]["prime"],
    }


def report(workload: str, result: dict):
    """Human-readable lines: one per metric, then the gate outcome."""
    print(f"== {workload} (prime {result['prime']})")
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<44} {shown} {m['unit']:<6} "
              f"[{result['notes'][name]}]")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<44} {ratio:>14.6g} {'ratio':<6} "
          f"[{result['failed']} of {result['attempted']} checks failed]")
    for f in result["failures"][:10]:
        print(f"  FAILED {f}")
    if "trace.self_sum_s" in result["metrics"]:
        v = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"  blocking steps: self times sum to {v['trace.self_sum_s']:.3f} s of "
              f"{v['trace.wall_s']:.3f} s traced wall "
              f"({v['trace.self_sum_s'] / v['trace.wall_s']:.2%}); untraced wall "
              f"{v['trace.untraced_wall_s']:.3f} s; tracing overhead "
              f"about {v['trace.overhead_s']:.3f} s "
              f"({v['trace.overhead_s'] / v['trace.untraced_wall_s']:.1%})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        metrics = {f"{w}/{k}": m for w, r in results.items()
                   for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
