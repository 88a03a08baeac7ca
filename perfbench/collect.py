"""Repeat benchmark runs over seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/collect.py [--runs 10] [--trace-runs 1] [--out PATH]

Runs ``run.py`` for every workload, once per seed ``1..runs``, one run at a
time, untraced and for ``run_seconds`` of ``BENCHMARK.json``; then
``--trace-runs`` traced runs per workload.  For every metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next
to the bound ``BENCHMARK.json`` fixes.  ``--out`` writes the summary as JSON;
``baseline.json`` in this directory was written this way.
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

import numpy

from iteration import ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    summary = {"seconds": seconds, "seeds": seeds, "cpus": os.cpu_count(),
               "python": platform.python_version(), "numpy": numpy.__version__,
               "workloads": {}}
    for workload in WORKLOADS:
        t0 = time.monotonic()
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        traced = [run_once(workload, s, seconds, 1) for s in seeds[:args.trace_runs]]
        entry = {
            "run_s": (time.monotonic() - t0) / (len(runs) + len(traced)),
            "failed": sum(r["failed"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "end_to_end": {k: summarise([r["metrics"][k]["value"] for r in runs])
                           for k in bounds},
        }
        if traced:
            entry["per_layer"] = {k: summarise([r["metrics"][k]["value"] for r in traced])
                                  for k in traced[0]["metrics"]}
        summary["workloads"][workload] = entry
        print(f"== {workload}: {entry['failed']} of {entry['attempted']} checks failed, "
              f"{entry['run_s']:.1f} s per run")
        for k, s in entry["end_to_end"].items():
            print(f"  {k:<16} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[k]}, a third {bounds[k] / 3:.4f})", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
