"""One iteration of one benchmark workload, in a fresh single-threaded process.

``run.py`` starts this script once per iteration, so no cache of the program
carries over from one iteration to the next and every iteration pays its own
set-up.  Usage::

    python3 perfbench/iteration.py --workload NAME --seed N [--setup-only]
                                   [--trace --run-id K]

The script imports ``silt`` from ``src/`` of the checkout that holds it
(never from anywhere else), builds the workload's algebras, runs the
workload, checks its outputs, and prints one JSON object on stdout.
``--setup-only`` stops after the build.  ``--trace`` records spans around
calls into silt (see ``tracing.py``) and adds the per-layer summary.

The seed picks the field prime: ``PRIMES[seed % len(PRIMES)]``.  In
``completions-auslander2`` it also shuffles the order of the requests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

PRIMES = (32749, 32003, 30011, 28657, 24593, 20011, 16381, 12289)

HEREDITARY_N = 5
NAKAYAMA_N = 4
NAKAYAMA_ELLS = (4, 6, 8, 10, 12)
AUSLANDER_N = 2


def prime_for(seed: int) -> int:
    return PRIMES[seed % len(PRIMES)]


class Gate:
    """Correctness checks of one iteration.  A mismatch is counted, not raised."""

    def __init__(self, digests: dict[str, str]):
        self.digests = digests
        self.attempted = 0
        self.failures: list[str] = []
        self.seen_digests: dict[str, str] = {}

    def check(self, label: str, got, want):
        self.attempted += 1
        if got != want:
            self.failures.append(f"{label}: got {got!r}, want {want!r}")

    def check_json(self, label: str, text: str):
        """SHA-256 of exploration JSON against the digest recorded for it."""
        got = hashlib.sha256(text.encode()).hexdigest()
        self.seen_digests[label] = got
        self.check(f"sha256 {label}", got, self.digests.get(label))


def check_exploration(gate: Gate, label: str, eq, nodes: int, n_vertices: int):
    """Closed-form count, completeness and regularity of one exploration.

    The exchange graph is n-regular (Adachi-Iyama-Reiten, Thm 2.18), so it
    has n * nodes / 2 edges.
    """
    gate.check(f"{label} complete", eq.complete, True)
    gate.check(f"{label} nodes", len(eq.nodes), nodes)
    gate.check(f"{label} edges", len(eq.edges), n_vertices * nodes // 2)


# ---- workloads ------------------------------------------------------------------
#
# Each run function takes the silt package, the prebuilt algebras, the seed,
# the gate and a latency list it fills with one entry (ms) per request, and
# returns the number of silting pairs it produced and checked.  Exploration
# workloads leave the latency list to the harness, which times each mutation
# attempt; the completions workload times its own requests.


def run_tors(silt, algebras, seed, gate, latencies) -> int:
    ex, orders = silt.explorer, silt.orders
    (alg,) = algebras
    n = HEREDITARY_N
    want = math.comb(2 * n, n)
    eq = ex.explore(alg)
    check_exploration(gate, f"hereditary{n}", eq, want, n)
    gate.check("hasse_check", ex.hasse_check(eq), True)
    sincere = orders.classify_sincere(eq)
    gate.check("sincere nodes", sum(sincere), want // 2)
    th = orders.assemble_tors_hasse(eq, sincere)
    gate.check("torsion classes", len(th.nodes), 3 * want // 2)
    gate.check_json(f"hereditary{n}", ex.to_json(eq))
    return len(eq.nodes)


def run_reduction(silt, algebras, seed, gate, latencies) -> int:
    ex, orders = silt.explorer, silt.orders
    n = NAKAYAMA_N
    want = math.comb(2 * n, n)
    eqs = []
    for ell, alg in zip(NAKAYAMA_ELLS, algebras):
        label = f"nakayama{n}-{ell}"
        eq = ex.explore(alg)
        check_exploration(gate, label, eq, want, n)
        gate.check(f"{label} hasse_check", ex.hasse_check(eq), True)
        gate.check_json(label, ex.to_json(eq))
        eqs.append(eq)
    for ell, eq in zip(NAKAYAMA_ELLS[1:], eqs[1:]):
        gate.check(f"poset_isomorphic ell={NAKAYAMA_ELLS[0]} vs {ell}",
                   orders.poset_isomorphic(eqs[0], eq), True)
    return sum(len(eq.nodes) for eq in eqs)


def run_completions(silt, algebras, seed, gate, latencies) -> int:
    """Both completions of every almost-complete pair, mapped back to pairs.

    A request deletes one summand from one exploration node.  Its two
    completions must be the two nodes containing the almost-complete pair,
    distinct, with the co-Bongartz one below the Bongartz one.
    """
    ex, tt = silt.explorer, silt.twoterm
    (alg,) = algebras
    n = AUSLANDER_N
    eq = ex.explore(alg)
    check_exploration(gate, f"auslander{n}", eq, math.factorial(n + 2), n + 1)
    gate.check_json(f"auslander{n}", ex.to_json(eq))
    ws = eq.workspace
    requests = [(node, k) for node in eq.nodes
                for k in range(len(node.summands) + len(node.proj_part))]
    random.Random(seed).shuffle(requests)
    clock = time.perf_counter
    for node, k in requests:
        subs, subp = list(node.summands), list(node.proj_part)
        if k < len(subs):
            del subs[k]
        else:
            del subp[k - len(subs)]
        t0 = clock()
        cx = ws.complex_of(ws.make_pair(subs, subp))
        top = ws.pair_of(tt.bongartz_completion(cx, ws.registry))
        bot = ws.pair_of(tt.co_bongartz_completion(cx, ws.registry))
        latencies.append((clock() - t0) * 1e3)
        found = {other for other in eq.nodes
                 if set(other.summands) >= set(subs) and set(other.proj_part) >= set(subp)}
        gate.check(f"completions of {node} without summand {k}",
                   (top != bot, {top, bot} == found, ws.pair_leq(bot, top)),
                   (True, True, True))
    return len(eq.nodes) + 2 * len(requests)


@dataclass(frozen=True)
class Workload:
    build: Callable            # (silt, prime) -> list of algebras
    run: Callable              # see the note above the run functions
    times_mutations: bool      # requests are mutation attempts, timed by the harness
    tail_pct: int              # percentile reported as request_ms_tail


WORKLOADS = {
    "tors-hereditary5": Workload(
        lambda silt, p: [silt.orders.hereditary_reduction(HEREDITARY_N, p)],
        run_tors, True, 95),
    "reduction-nakayama4": Workload(
        lambda silt, p: [silt.orders.cyclic_nakayama(NAKAYAMA_N, ell, p)
                         for ell in NAKAYAMA_ELLS],
        run_reduction, True, 95),
    "completions-auslander2": Workload(
        lambda silt, p: [silt.orders.auslander_bass_v_reduction(AUSLANDER_N, p)],
        run_completions, False, 90),
}


def time_mutations(silt, latencies: list):
    """Time every ``mutate_left`` call: one request of an exploration workload."""
    cls = silt.silting.SiltingWorkspace
    original = cls.mutate_left
    clock = time.perf_counter

    def timed(self, pair, at):
        t0 = clock()
        try:
            return original(self, pair, at)
        finally:
            latencies.append((clock() - t0) * 1e3)

    cls.mutate_left = timed


def import_silt():
    """Import silt from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import silt
        import silt.explorer
        import silt.orders
        import silt.silting
        import silt.twoterm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import silt from {src}: {exc}")
    if not Path(silt.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: silt was imported from {silt.__file__}, not {src}")
    return silt


def load_digests(prime: int) -> dict[str, str]:
    with open(DIGESTS) as f:
        return json.load(f).get(str(prime), {})


def iterate(name: str, seed: int, setup_only: bool = False, trace: bool = False,
            run_id: str = "0") -> dict:
    workload = WORKLOADS[name]
    prime = prime_for(seed)
    t0 = time.perf_counter()
    silt = import_silt()
    tracer = None
    if trace:
        import tracing  # after the silt import: numpy must load inside set-up
        tracer = tracing.Tracer()
        tracer.install()
    algebras = workload.build(silt, prime)
    setup_s = time.perf_counter() - t0
    out = {"workload": name, "seed": seed, "prime": prime, "setup_s": setup_s}
    if setup_only:
        return out
    gate = Gate(load_digests(prime))
    latencies: list[float] = []
    if workload.times_mutations and tracer is None:
        time_mutations(silt, latencies)
    t1 = time.perf_counter()
    pairs = workload.run(silt, algebras, seed, gate, latencies)
    wall_s = time.perf_counter() - t1
    out.update({
        "wall_s": wall_s,
        "pairs": pairs,
        "latencies_ms": latencies,
        "tail_pct": workload.tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": gate.attempted,
        "failures": gate.failures,
        "digests": gate.seen_digests,
    })
    if tracer is not None:
        out["layers"] = tracer.summary(t1, wall_s)
        tracer.write(TRACE_DIR / f"trace-{name}-{run_id}.npz",
                     f"{name}:seed={seed}:run={run_id}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args(argv)
    out = iterate(args.workload, args.seed, args.setup_only, args.trace, args.run_id)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
