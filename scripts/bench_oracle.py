#!/usr/bin/env python3
"""Time the ABA and SETAF oracles' layers on the pieces that splitting hands them.

The ABA pieces are the bottoms and the distinct modified tops of the twenty
two-block stacks of ``perfbench/workloads.py``'s ``stack`` (generator seeds
0-19, blocks of 8 and 9 assumptions, as in the benchmark's ``layered``
workload), each cut by ``find_balanced_splitting``.  The SETAF pieces are
those of the first ``SETAFS`` SETAFs of acceptance criterion c07
(``random_setaf(7000 + i, max_args=8, max_attacks=10, max_tail=3)``), each
cut at every nontrivial splitting bottom, with the bottom extensions that
c07 takes: ``e & A1`` for each extension ``e`` of the whole SETAF under a
split semantics.  One row per layer, each the total over its pieces:

- ``construct``: ``Abaf(...)`` on every distinct bottom and top;
- ``minimal_supports``: the support table of each, on a fresh copy;
- ``enumerate_<sem>``, for each split semantics: ``enumerate_extensions``
  on the bottoms and the distinct tops that the semantics' bottom
  extensions leave, on fresh copies with nothing prebuilt, so the row holds
  whatever the oracle derives its sweep from, the sweep and the conversion
  to sets;
- ``modification``: the tops of every splitting for all its bottom
  extensions under any split semantics, as ``split_union`` gets them: one
  ``solve`` per splitting whose sub-solver hands out those extensions for
  the bottom and none for a top, so the row holds the keying, building and
  lookup of each top and no top solve;
- ``setaf_construct``, ``setaf_enumerate_<sem>`` and ``setaf_modification``:
  the same for the SETAF pieces, ``Setaf(...)`` and
  ``SetafSplitting.modification`` (its ``_top``) for every pair of a
  splitting and one bottom extension in place of the ABA ones;
- ``scan_<n>_<sem>``: the ABA oracle alone, as it grows, on three
  ``full_block`` frameworks of n assumptions (``random.Random(seed)``,
  seeds 0-2) for each n in 12-20, under stb, adm, com and prf, on fresh
  copies.

Both ``modification`` rows run on splittings made afresh for each run, so
they include whatever a splitting computes once, on its first top.
Each row is the median of five runs over all its pieces.  The run is stored
under ``--label`` in ``--out``; runs under other labels already in that
file are kept, so one file can hold the same rows timed on two trees of the
program, each run with its own ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/bench_oracle.py --label change
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

from bench_runs import parser, store
from splitkit import setaf
from splitkit.aba import Abaf, enumerate_extensions, minimal_supports
from splitkit.finder import find_balanced_splitting, setaf_splitting_bottoms
from splitkit.generate import random_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import Setaf
from splitkit.split_aba import make_splitting
from splitkit.split_setaf import make_splitting as make_setaf_splitting

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import full_block, stack  # noqa: E402

STACKS = 20
SETAFS = 100
REPEATS = 5
SPLIT_SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)
SCAN_SIZES = range(12, 21)
SCAN_SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF)


def copy(fw: Abaf) -> Abaf:
    return Abaf(fw.names, fw.rules, fw.assumptions, fw.contrary)


def copy_setaf(sf: Setaf) -> Setaf:
    return Setaf(sf.names, sf.attacks)


def pieces():
    """The distinct ABA bottoms and tops, those solved under each semantics,
    and every (framework, splitting set, bottom extensions) triple, the
    extensions those of any split semantics."""
    everything: dict[Abaf, None] = {}
    solved = {sem: {} for sem in SPLIT_SEMS}
    triples = []
    for gen in range(STACKS):
        d = stack(gen, 2, 8 + gen % 2)
        s = find_balanced_splitting(d)
        sp = make_splitting(d, s)
        exts: dict[frozenset[int], None] = {}
        for sem in SPLIT_SEMS:
            solved[sem][sp.bottom] = everything[sp.bottom] = None
            for e1 in enumerate_extensions(copy(sp.bottom), sem):
                top = sp.modification(e1)
                solved[sem][top] = everything[top] = None
                exts[e1] = None
        triples.append((d, s, tuple(exts)))
    return list(everything), {sem: list(fws) for sem, fws in solved.items()}, triples


def tops(triples):
    """Per triple, a fresh splitting and the sub-solver that gives its bottom
    the triple's extensions and each top none."""
    def prepare():
        out = []
        for d, s, exts in triples:
            sp = make_splitting(d, s)
            out.append((sp, lambda fw, sem, sp=sp, exts=exts: exts if fw is sp.bottom else ()))
        return out

    return prepare


def setaf_pieces():
    """The same for the SETAF pieces; the splitting set is the bottom A1."""
    everything: dict[Setaf, None] = {}
    solved = {sem: {} for sem in SPLIT_SEMS}
    triples = {}
    for i in range(SETAFS):
        sf = random_setaf(7000 + i, max_args=8, max_attacks=10, max_tail=3)
        for a1 in setaf_splitting_bottoms(sf, nontrivial=True):
            sp = make_setaf_splitting(sf, a1)
            bottom = sp.bottom[0]
            for sem in SPLIT_SEMS:
                solved[sem][bottom] = everything[bottom] = None
                for e in setaf.enumerate_extensions(sf, sem):
                    e1 = e & a1
                    top = sp.modification(e1)
                    solved[sem][top] = everything[top] = None
                    triples[(i, a1, e1)] = (sf, a1, e1)
    return list(everything), {sem: list(fws) for sem, fws in solved.items()}, list(triples.values())


def fresh_splittings(make, triples):
    """Each (framework, set, extension) triple as (splitting, extension), with
    one splitting made afresh per distinct (framework, set)."""
    def prepare():
        made = {}
        for fw, s, _ in triples:
            if (id(fw), s) not in made:
                made[id(fw), s] = make(fw, s)
        return [(made[id(fw), s], e1) for fw, s, e1 in triples]

    return prepare


def copies(fws):
    """Fresh copies of ``fws``, with nothing prebuilt."""
    return lambda: [copy(fw) for fw in fws]


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


def main() -> None:
    args = parser(__doc__, "BENCH_oracle.json").parse_args()

    everything, solved, triples = pieces()
    rows = []

    def row(layer: str, count: int, result: dict) -> None:
        rows.append({"layer": layer, "pieces": count, **result})
        print(json.dumps(rows[-1]), flush=True)

    def modify(pair):
        pair[0].modification(pair[1])

    row("construct", len(everything), timed(lambda: everything, copy))
    row("minimal_supports", len(everything), timed(copies(everything), minimal_supports))
    for sem in SPLIT_SEMS:
        row(f"enumerate_{sem.value}", len(solved[sem]),
            timed(copies(solved[sem]), lambda fw: enumerate_extensions(fw, sem)))
    row("modification", sum(len(exts) for _, _, exts in triples),
        timed(tops(triples), lambda pair: pair[0].solve(Semantics.STB, sub_solver=pair[1])))

    everything, solved, triples = setaf_pieces()
    row("setaf_construct", len(everything), timed(lambda: everything, copy_setaf))
    for sem in SPLIT_SEMS:
        row(f"setaf_enumerate_{sem.value}", len(solved[sem]),
            timed(lambda: [copy_setaf(sf) for sf in solved[sem]],
                  lambda sf: setaf.enumerate_extensions(sf, sem)))
    row("setaf_modification", len(triples),
        timed(fresh_splittings(make_setaf_splitting, triples), modify))

    for n in SCAN_SIZES:
        block = [full_block(random.Random(seed), n) for seed in range(3)]
        for sem in SCAN_SEMS:
            row(f"scan_{n}_{sem.value}", len(block),
                timed(copies(block), lambda fw: enumerate_extensions(fw, sem)))

    store(args, "scripts/bench_oracle.py", {"repeats": REPEATS, "rows": rows})


if __name__ == "__main__":
    main()
