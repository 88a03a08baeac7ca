"""A fixed reference loop that gauges the host's current speed.

Usage::

    python3 perfbench/reference.py

Prints one JSON object, ``{"ref_s": <seconds>}``: the wall time of a fixed
mix of work in the style of silt's hot paths (small ``int64`` matrix
products reduced mod p, dict and set lookups with tuple keys, short-lived
tuples and lists), with no silt code in it.  ``run.py`` runs it in a fresh
process before and after every iteration and divides the end-to-end timings
by the mean reference time, so a host that slows everything down for
minutes does not read as a change of silt.  On an idle 2-core Xeon host it
takes about 1 s.
"""

from __future__ import annotations

import json
import time

import numpy as np

PRIME = 32749
ROUNDS = 2000


def work() -> int:
    rng = np.random.default_rng(7)
    mats = [rng.integers(0, PRIME, size=(r, c), dtype=np.int64)
            for r in range(1, 9) for c in range(1, 9)]
    acc = 0
    cache: dict = {}
    for _ in range(ROUNDS):
        for a in mats:
            b = (a @ a.T) % PRIME
            key = (a.shape, int(b[0, 0]) & 63)
            cache[key] = cache.get(key, 0) + 1
            acc += len(np.flatnonzero(b[0]))
        seen = set()
        for i in range(600):
            seen.add((i * 7919) % 1009)
            acc += len(seen)
        objs = [(i, str(i), [i]) for i in range(300)]
        acc += len({o[1]: o for o in objs})
    return acc


def main() -> int:
    t0 = time.perf_counter()
    work()
    print(json.dumps({"ref_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
