"""Record the SHA-256 of every exploration's JSON, for every prime a seed can pick.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs one iteration of each workload per prime (seeds ``0..len(PRIMES)-1``)
and writes ``perfbench/digests.json``.  The committed file was recorded at
the commit that added the benchmark; record again only when a change is
meant to alter the exploration output, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from iteration import DIGESTS, PRIMES, WORKLOADS, prime_for
from run import run_child


def main() -> int:
    digests: dict[str, dict[str, str]] = {}
    for seed in range(len(PRIMES)):
        prime = str(prime_for(seed))
        for workload in WORKLOADS:
            got = run_child(workload, seed)["digests"]
            digests.setdefault(prime, {}).update(got)
            print(f"prime {prime} {workload}: {len(got)} digests", flush=True)
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
