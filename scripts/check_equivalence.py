#!/usr/bin/env python3
"""Sweep seeded random instances and confirm every split pipeline agrees with
direct enumeration.  Exits nonzero on the first mismatch and prints it."""

import argparse
import sys

from splitkit.aba import enumerate_extensions as aba_ext
from splitkit.errors import DegenerateSplit
from splitkit.finder import find_balanced_splitting, find_quasi_splitting, setaf_splitting_bottoms
from splitkit.generate import random_abaf, random_setaf
from splitkit.io import emit_aba, emit_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import enumerate_extensions as setaf_ext
from splitkit.split_aba import param_split_solve, split_solve as aba_split
from splitkit.split_setaf import split_solve as setaf_split

SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)


def run(count: int, seed: int) -> int:
    stats = {"aba": 0, "setaf": 0, "param": 0}
    for i in range(count):
        s = seed + i

        d = random_abaf(s, max_assumptions=6, max_rules=9)
        try:
            split_set = find_balanced_splitting(d)
        except DegenerateSplit:
            split_set = frozenset()
        for sem in SEMS:
            if aba_split(d, split_set, sem) != aba_ext(d, sem):
                print(f"ABA mismatch (seed {s}, {sem.value}):\n{emit_aba(d)}")
                return 1
        stats["aba"] += len(SEMS)

        try:
            q = find_quasi_splitting(d)
            quasi_set = q.s
        except DegenerateSplit:
            quasi_set = frozenset()
        if param_split_solve(d, quasi_set) != aba_ext(d, Semantics.STB):
            print(f"param mismatch (seed {s}):\n{emit_aba(d)}")
            return 1
        stats["param"] += 1

        sf = random_setaf(s, max_args=7, max_attacks=9)
        bottoms = setaf_splitting_bottoms(sf, nontrivial=True) or [frozenset()]
        for sem in SEMS:
            if setaf_split(sf, bottoms[0], sem) != setaf_ext(sf, sem):
                print(f"SETAF mismatch (seed {s}, {sem.value}):\n{emit_setaf(sf)}")
                return 1
        stats["setaf"] += len(SEMS)

    print(
        f"{count} seeds: {stats['aba']} ABA, {stats['setaf']} SETAF and "
        f"{stats['param']} parametrised comparisons, all equal"
    )
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.exit(run(args.count, args.seed))
