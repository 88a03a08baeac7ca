"""Self-test of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks, in order:

1. the workload and metric names in the code match ``BENCHMARK.json``;
2. the correctness gate fires on a wrong expected count and on a wrong
   digest, counting the mismatch without raising, and stays quiet on the
   right ones;
3. a short run of every workload, untraced and traced, prints a last line
   with exactly the keys and metric names ``BENCHMARK.json`` lists, and
   passes its gate;
4. in a directory that holds only ``BENCHMARK.json`` and ``perfbench/``,
   the benchmark exits non-zero without printing a result.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

from iteration import HERE, ROOT, TRACE_DIR, WORKLOADS, Gate, check_exploration, import_silt
from run import END_TO_END
from tracing import metric_units

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_names(doc: dict) -> list[str]:
    errors = []
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        errors.append("workload names differ from iteration.WORKLOADS")
    for key, units in (("end_to_end", END_TO_END), ("per_layer", metric_units())):
        listed = {m["name"]: m["unit"] for m in doc[key]}
        if listed != units:
            errors.append(f"{key} in BENCHMARK.json differs from the code: "
                          f"{sorted(set(listed.items()) ^ set(units.items()))[:6]}")
    return errors


def check_gate() -> list[str]:
    silt = import_silt()
    eq = silt.explorer.explore(silt.orders.hereditary_reduction(2))
    text = silt.explorer.to_json(eq)
    digest = hashlib.sha256(text.encode()).hexdigest()
    errors = []
    # a wrong node count also makes the edge count derived from it wrong
    cases = (
        ("right count and digest", digest, 6, 0),
        ("wrong expected count", digest, 7, 2),
        ("wrong expected digest", "0" * 64, 6, 1),
    )
    for label, want_digest, want_nodes, want_failed in cases:
        gate = Gate({"hereditary2": want_digest})
        check_exploration(gate, "hereditary2", eq, want_nodes, 2)
        gate.check_json("hereditary2", text)
        if len(gate.failures) != want_failed or gate.attempted != 4:
            errors.append(f"gate on {label}: {len(gate.failures)} of {gate.attempted} "
                          f"checks failed, expected {want_failed} of 4")
    return errors


def run_bench(cwd, workload: str, trace: int, seconds: int = 1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(doc: dict) -> list[str]:
    errors = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in doc[key]}:
                errors.append(f"{where}: metric names or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: gate reported {result['failed']} of "
                              f"{result['attempted']} checks failed")
            print(f"  {where}: {len(got)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed", flush=True)
    return errors


def check_without_program() -> list[str]:
    bare = TRACE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/silt: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    doc = spec()
    failed = False
    for label, check in (("names match BENCHMARK.json", lambda: check_names(doc)),
                         ("gate fires on wrong expectations", check_gate),
                         ("short runs print every metric", lambda: check_runs(doc)),
                         ("fails without the program", check_without_program)):
        errors = check()
        print(f"{'PASS' if not errors else 'FAIL'} {label}", flush=True)
        for e in errors:
            print(f"  {e}")
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
