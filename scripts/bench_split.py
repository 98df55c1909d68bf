#!/usr/bin/env python3
"""Time the layers of split solving on the stacks of the layered workload.

Each stack is ``stack(gen, 2, 8 + gen % 2)`` of ``perfbench/workloads.py``
for generator seeds 0-19, the structures of the benchmark's ``layered``
workload: two random blocks whose cross influences all run upward, which
the balanced finder cuts roughly in half.  Each (stack, split semantics)
row times, as the median of ``--repeats`` runs, the layers of one
``split_aba.split_solve`` and its printout:

- ``finder_ms``: ``find_balanced_splitting``;
- ``bottom_ms``: the bottom's ``enumerate_extensions``;
- ``keys_ms``: ``AbaSplitting._key``, one per bottom extension (the first
  call builds the splitting's tables);
- ``top_builds_ms``: ``AbaSplitting._top``, one per distinct key;
- ``top_solves_ms``: ``enumerate_extensions``, one per distinct top;
- ``union_sort_ms``: the canonical sort that ends ``split_union``;
- ``rest_ms``: the rest of the solve (the cut, lifting, and the union);
- ``format_ms``: ``io.format_extensions`` of the answer.

Each row also counts the bottom extensions, the tops built and solved, and
the answers, because every layer's time follows them: a bottom with no
extension leaves no top to solve.  Each row is checked against direct
enumeration once, outside the timing.  The run is stored under
``--label`` in ``--out``, so one file can hold the same rows timed on two
trees of the program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_split.py --label change
"""

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from bench_runs import parser, store
from splitkit import io, semantics, split_aba
from splitkit.aba import enumerate_extensions
from splitkit.finder import find_balanced_splitting
from splitkit.semantics import SPLIT_SEMANTICS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import LAYERED_POOL, stack  # noqa: E402

LAYERS = ("finder", "bottom", "keys", "top_builds", "top_solves", "union_sort", "rest", "format")
COUNTS = ("bottom_exts", "top_builds", "tops", "answers")


class Clock:
    """Seconds and calls per layer, taken by wrapping the program's names."""

    def __init__(self):
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()

    def time(self, layer: str, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[layer] += time.perf_counter() - start
            self.calls[layer] += 1

    def wrap(self, owner, name: str, layer) -> None:
        """Time every call of ``owner.name`` under ``layer(self)``."""
        fn = getattr(owner, name)
        setattr(owner, name, lambda *args: self.time(layer(self), fn, *args))


def install(clock: Clock) -> None:
    # a solve's first sub-solve is its bottom, the others are its tops
    clock.wrap(split_aba, "enumerate_extensions",
               lambda c: "top_solves" if c.calls["bottom"] else "bottom")
    clock.wrap(split_aba.AbaSplitting, "_key", lambda c: "keys")
    clock.wrap(split_aba.AbaSplitting, "_top", lambda c: "top_builds")
    # split_union's own sort: the sub-solves sort through their modules' names
    clock.wrap(semantics, "canonical_sets", lambda c: "union_sort")


def solve_once(clock: Clock, d, sem) -> tuple[dict, dict, str]:
    clock.seconds.clear()
    clock.calls.clear()
    s = clock.time("finder", find_balanced_splitting, d)
    start = time.perf_counter()
    answer = split_aba.split_solve(d, s, sem)
    solve = time.perf_counter() - start
    text = clock.time("format", io.format_extensions, answer, d.names)
    inner = sum(clock.seconds[layer] for layer in LAYERS if layer not in ("finder", "format"))
    clock.seconds["rest"] = solve - inner
    counts = dict(zip(COUNTS, (clock.calls["keys"], clock.calls["top_builds"],
                               clock.calls["top_solves"], len(answer))))
    return {layer: clock.seconds[layer] for layer in LAYERS}, counts, text


def main() -> None:
    ap = parser(__doc__, "BENCH_split.json")
    ap.add_argument("--stacks", type=int, default=LAYERED_POOL, help="generator seeds 0..stacks-1")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    clock = Clock()
    install(clock)

    rows = []
    for gen in range(args.stacks):
        d = stack(gen, 2, 8 + gen % 2)
        for sem in SPLIT_SEMANTICS:
            runs = [solve_once(clock, d, sem) for _ in range(args.repeats)]
            times, counts, text = runs[-1]
            direct = enumerate_extensions(d, sem, guard=len(d.assumptions))
            assert text == io.format_extensions(direct, d.names), (gen, sem)
            row = {"gen": gen, "assumptions": len(d.assumptions), "semantics": sem.value}
            for layer in LAYERS:
                row[f"{layer}_ms"] = round(1000 * statistics.median(t[layer] for t, _, _ in runs), 4)
            row.update(counts)
            rows.append(row)
            print(json.dumps(row), flush=True)

    totals = {}
    for sem in SPLIT_SEMANTICS:
        mine = [row for row in rows if row["semantics"] == sem.value]
        totals[sem.value] = {key: round(sum(row[key] for row in mine), 3)
                             for key in [f"{layer}_ms" for layer in LAYERS] + list(COUNTS)}
    print(json.dumps(totals, indent=1))
    store(args, "scripts/bench_split.py", {"repeats": args.repeats, "rows": rows, "totals": totals})


if __name__ == "__main__":
    main()
