#!/usr/bin/env python3
"""Time the three finders alone on stacks of ABA blocks.

Rows: stacks of random ABA blocks drawn by ``perfbench/workloads.py``.
First the two-block stacks of ``layered`` (also drawn by
``scripts/bench_split.py``), blocks of 8 and 9 assumptions, generator seeds
0-19; then the three- and four-block stacks of ``beyond``, blocks of 8,
generator seeds 0-3, with 24 and 32 assumptions: past the guard of 20, so
the split route answers only on a cut that balances them.  On each stack
the script times ``find_balanced_splitting``, ``find_setaf_splitting`` on
the stack's SETAF instantiation and ``find_quasi_splitting``, each as the
median of three calls, and counts the ``max_flow`` calls of one quasi call.
The size of each chosen set, and the quasi k, show that two runs chose alike.

Image rows: ``find_quasi_splitting`` alone on ``setaf_to_aba`` of the SETAF
instantiation of the two-block stacks of blocks of 8, generator seeds 0-3.
They contract to 16 groups, the count at which a finder that scans every
union of groups pays for 2^16 - 2 sets.

Pieces rows: every finder call that one round of ``beyond`` (seed 0) makes
through ``perfbench/routes.py``'s ``run_op``, the pieces of the recursive
SETAF route included, recorded once and then replayed, one row per finder:
the call count, the calls that found a set, a histogram of the frameworks'
sizes (atoms or arguments, in powers of two) and the time of the whole
replay, the median of three.

The run is stored under ``--label`` in ``--out``; runs under other labels
already in that file are kept, so one file can hold the same rows timed on
two trees of the program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_finder.py --label change
"""

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from bench_runs import parser, store
from splitkit import finder
from splitkit.errors import SplitkitError
from splitkit.instantiate import aba_to_setaf, setaf_to_aba

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import routes  # noqa: E402
from workloads import beyond, stack  # noqa: E402

# (blocks, assumptions per block, generator seeds)
STACKS = ((2, 8, range(20)), (2, 9, range(20)), (3, 8, range(4)), (4, 8, range(4)))
IMAGES = (2, 8, range(4))
REPEATS = 3


def timed(find, fw) -> tuple[float, object]:
    times, chosen = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        chosen = find(fw)
        times.append((time.perf_counter() - start) * 1000.0)
    return round(statistics.median(times), 3), chosen


def beyond_calls() -> dict[str, list]:
    """The frameworks that one ``beyond(0)`` round hands each balanced finder."""
    names = ("find_balanced_splitting", "find_setaf_splitting")
    calls: dict[str, list] = {name: [] for name in names}
    originals = {name: getattr(finder, name) for name in names}

    def recorder(name):
        def record(fw, *fargs):
            calls[name].append(fw)
            return originals[name](fw, *fargs)
        return record

    for name in names:
        setattr(finder, name, recorder(name))  # routes looks the finders up there
    try:
        for op in beyond(0):
            try:
                routes.run_op(op.instance.kind, op.instance.text, op.sem, op.route)
            except SplitkitError:
                pass
    finally:
        for name in names:
            setattr(finder, name, originals[name])
    return calls


def piece_row(name: str, frameworks: list) -> dict:
    find = getattr(finder, name)
    times, found = [], 0
    for _ in range(REPEATS):
        found = 0
        start = time.perf_counter()
        for fw in frameworks:
            try:
                find(fw)
                found += 1
            except SplitkitError:
                pass
        times.append((time.perf_counter() - start) * 1000.0)
    lows = Counter(1 << len(fw.names).bit_length() >> 1 for fw in frameworks)  # 0, 1, 2, 4, ...
    return {
        "finder": name, "calls": len(frameworks), "found": found,
        "ms": round(statistics.median(times), 3),
        "sizes": {(f"{low}-{2 * low - 1}" if low > 1 else str(low)): k for low, k in sorted(lows.items())},
    }


def main() -> None:
    args = parser(__doc__, "BENCH_finder.json").parse_args()

    flows = 0
    max_flow = finder.max_flow

    def counted(*fargs):
        nonlocal flows
        flows += 1
        return max_flow(*fargs)

    finder.max_flow = counted  # the finder calls it through its module globals
    rows = []
    for blocks, block, seeds in STACKS:
        for seed in seeds:
            d = stack(seed, blocks, block)
            sf = aba_to_setaf(d)
            balanced_ms, s = timed(finder.find_balanced_splitting, d)
            setaf_ms, a1 = timed(finder.find_setaf_splitting, sf)
            flows = 0
            quasi_ms, q = timed(finder.find_quasi_splitting, d)
            row = {
                "blocks": blocks, "block": block, "seed": seed, "atoms": d.n_atoms,
                "balanced_ms": balanced_ms, "balanced_size": len(s),
                "setaf_ms": setaf_ms, "setaf_size": len(a1),
                "quasi_ms": quasi_ms, "quasi_size": len(q.s), "quasi_k": q.k,
                "max_flow_calls": flows // REPEATS,
            }
            rows.append(row)
            print(json.dumps(row), flush=True)
    blocks, block, seeds = IMAGES
    image_rows = []
    for seed in seeds:
        d = setaf_to_aba(aba_to_setaf(stack(seed, blocks, block)))
        flows = 0
        quasi_ms, q = timed(finder.find_quasi_splitting, d)
        row = {
            "blocks": blocks, "block": block, "seed": seed, "atoms": d.n_atoms,
            "groups": len(finder.pair_contracted(d).groups),
            "quasi_ms": quasi_ms, "quasi_size": len(q.s), "quasi_k": q.k,
            "max_flow_calls": flows // REPEATS,
        }
        image_rows.append(row)
        print(json.dumps(row), flush=True)
    piece_rows = [piece_row(name, fws) for name, fws in beyond_calls().items()]
    for row in piece_rows:
        print(json.dumps(row), flush=True)
    totals = {
        key: round(sum(row[key] for row in rows), 3)
        for key in ("balanced_ms", "setaf_ms", "quasi_ms", "max_flow_calls")
    }
    totals["image_quasi_ms"] = round(sum(row["quasi_ms"] for row in image_rows), 3)
    totals["pieces_ms"] = round(sum(row["ms"] for row in piece_rows), 3)
    print(json.dumps({"totals": totals}), flush=True)

    store(args, "scripts/bench_finder.py", {
        "repeats": REPEATS, "totals": totals, "rows": rows, "image_rows": image_rows,
        "piece_rows": piece_rows,
    })


if __name__ == "__main__":
    main()
