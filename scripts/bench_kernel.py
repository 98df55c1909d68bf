#!/usr/bin/env python3
"""Time ``semantics.compute_families`` alone, per semantics and size.

Rows:
- every semantics at n = 8, 12, 16 and 20 on a seeded random structure of
  3n attacks whose tails hold 1-3 items;
- preferred on 6, 7 and 8 disjoint mutually attacking pairs, whose 3^pairs
  complete sets make the maximal-set step the whole cost.

Each row is the median of three calls, with the number of masks returned.
The run is stored under ``--label`` in ``--out``; runs under other labels
already in that file are kept, so one file can hold the same rows timed on
two trees of the program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_kernel.py --label change
"""

import json
import random
import statistics
import time

from bench_runs import parser, store
from splitkit.semantics import Semantics, compute_families

SIZES = (8, 12, 16, 20)
PAIRS = (6, 7, 8)
REPEATS = 3


def random_structure(n: int) -> list[tuple[int, int]]:
    rng = random.Random(n)
    attacks = []
    for _ in range(3 * n):
        tail = 0
        for item in rng.sample(range(n), rng.randint(1, 3)):
            tail |= 1 << item
        attacks.append((tail, rng.randrange(n)))
    return attacks


def disjoint_pairs(pairs: int) -> list[tuple[int, int]]:
    return [(1 << 2 * i, 2 * i + 1) for i in range(pairs)] + [
        (1 << 2 * i + 1, 2 * i) for i in range(pairs)
    ]


def timed(n: int, attacks, semantics: Semantics) -> dict:
    times, count = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        count = len(compute_families(n, attacks, semantics))
        times.append((time.perf_counter() - start) * 1000.0)
    return {
        "ms": round(statistics.median(times), 3),
        "times_ms": [round(t, 3) for t in times],
        "masks": count,
    }


def main() -> None:
    args = parser(__doc__, "BENCH_kernel.json").parse_args()

    rows = []
    for n in SIZES:
        attacks = random_structure(n)
        for sem in Semantics:
            row = {"structure": "random", "n": n, "attacks": len(attacks), "semantics": sem.value}
            row.update(timed(n, attacks, sem))
            rows.append(row)
            print(json.dumps(row), flush=True)
    for pairs in PAIRS:
        attacks = disjoint_pairs(pairs)
        row = {"structure": "pairs", "n": 2 * pairs, "attacks": len(attacks), "semantics": "prf"}
        row.update(timed(2 * pairs, attacks, Semantics.PREF))
        rows.append(row)
        print(json.dumps(row), flush=True)

    store(args, "scripts/bench_kernel.py", {"repeats": REPEATS, "rows": rows})


if __name__ == "__main__":
    main()
