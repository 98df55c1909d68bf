#!/usr/bin/env python3
"""Time the ABA oracle's layers on the pieces that splitting hands it.

The pieces are the bottoms and the distinct modified tops of the twenty
two-block stacks of ``bench_split.layered`` (generator seeds 0-19, blocks of
8 and 9 assumptions, as in the benchmark's ``layered`` workload), each cut
by ``find_balanced_splitting``.  One row per layer, each the total over its
pieces:

- ``construct``: ``Abaf(...)`` on every distinct bottom and top;
- ``minimal_supports``: the support table of each, on a fresh copy;
- ``enumerate_<sem>``, for each split semantics: ``enumerate_extensions``
  on the bottoms and the distinct tops that the semantics' bottom
  extensions leave, on fresh copies whose support table is already built,
  so the row holds the attack lists, the sweep and the conversion to sets;
- ``modification``: ``AbaSplitting.modification`` for every pair of a
  splitting and one of its bottom extensions, under any split semantics.

Each row is the median of five runs over all its pieces.  The run is stored
under ``--label`` in ``--out``; runs under other labels already in that
file are kept, so one file can hold the same rows timed on two trees of the
program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_oracle.py --label change
"""

import argparse
import json
import os
import platform
import statistics
import time

from bench_split import layered
from splitkit.aba import Abaf, enumerate_extensions, minimal_supports
from splitkit.finder import find_balanced_splitting
from splitkit.semantics import Semantics
from splitkit.split_aba import make_splitting

STACKS = 20
REPEATS = 5
SPLIT_SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)


def copy(fw: Abaf) -> Abaf:
    return Abaf(fw.names, fw.rules, fw.assumptions, fw.contrary)


def pieces():
    """The distinct bottoms and tops, those solved under each semantics, and
    every (splitting, bottom extension) pair."""
    everything: dict[Abaf, None] = {}
    solved = {sem: {} for sem in SPLIT_SEMS}
    pairs = {}
    for gen in range(STACKS):
        d = layered(gen, 8 + gen % 2)
        sp = make_splitting(d, find_balanced_splitting(d))
        for sem in SPLIT_SEMS:
            solved[sem][sp.bottom] = everything[sp.bottom] = None
            for e1 in enumerate_extensions(copy(sp.bottom), sem):
                top = sp.modification(e1)
                solved[sem][top] = everything[top] = None
                pairs[(gen, e1)] = (sp, e1)
    return list(everything), {sem: list(fws) for sem, fws in solved.items()}, list(pairs.values())


def timed(prepare, work) -> dict:
    """Median total over ``REPEATS`` runs of ``work`` on what ``prepare`` gives."""
    times = []
    for _ in range(REPEATS):
        items = prepare()
        start = time.perf_counter()
        for item in items:
            work(item)
        times.append((time.perf_counter() - start) * 1000.0)
    return {"ms": round(statistics.median(times), 3), "times_ms": [round(t, 3) for t in times]}


def with_table(fws):
    def prepare():
        copies = [copy(fw) for fw in fws]
        for fw in copies:
            minimal_supports(fw)
        return copies

    return prepare


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of this run, e.g. parent or change")
    ap.add_argument("--out", default="BENCH_oracle.json")
    args = ap.parse_args()

    everything, solved, pairs = pieces()
    rows = []

    def row(layer: str, count: int, result: dict) -> None:
        rows.append({"layer": layer, "pieces": count, **result})
        print(json.dumps(rows[-1]), flush=True)

    row("construct", len(everything), timed(lambda: everything, copy))
    row("minimal_supports", len(everything),
        timed(lambda: [copy(fw) for fw in everything], minimal_supports))
    for sem in SPLIT_SEMS:
        row(f"enumerate_{sem.value}", len(solved[sem]),
            timed(with_table(solved[sem]), lambda fw: enumerate_extensions(fw, sem)))
    row("modification", len(pairs), timed(lambda: pairs, lambda pair: pair[0].modification(pair[1])))

    doc = {"script": "scripts/bench_oracle.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": REPEATS,
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
