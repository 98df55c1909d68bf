#!/usr/bin/env python3
"""Sweep seeded random instances and confirm every split pipeline agrees with
direct enumeration.  Exits nonzero on the first mismatch and prints it.

ABA frameworks come from three generators: ``random_abaf`` (flat, with a
contrary atom per assumption), and ``cyclic_abaf`` (often non-flat, with
cyclic rules) and ``assumption_contrary_abaf`` (contraries that are
assumptions) from ``tests/helpers.py``.  On each, ``split`` is compared on
every semantics it covers (all but cf) and ``param`` on stable.  Where the oracle raises a typed
error (``NonFlatError`` on a non-flat framework), the split route must raise
the same type.
"""

import argparse
import sys
from pathlib import Path

from splitkit.aba import enumerate_extensions as aba_ext
from splitkit.errors import DegenerateSplit, NonFlatError, SplitkitError
from splitkit.finder import find_balanced_splitting, find_quasi_splitting, setaf_splitting_bottoms
from splitkit.generate import random_abaf, random_setaf
from splitkit.io import emit_aba, emit_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import enumerate_extensions as setaf_ext
from splitkit.split_aba import param_split_solve, split_solve as aba_split
from splitkit.split_setaf import split_solve as setaf_split

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import assumption_contrary_abaf, cyclic_abaf  # noqa: E402

SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)
ABA_GENERATORS = (
    lambda s: random_abaf(s, max_assumptions=6, max_rules=9),
    cyclic_abaf,
    assumption_contrary_abaf,
)


def outcome(solve, *args):
    """The family, or the type of the ``SplitkitError`` raised instead."""
    try:
        return solve(*args)
    except SplitkitError as err:
        return type(err)


def cut(find, fw) -> frozenset[int]:
    try:
        return find(fw)
    except DegenerateSplit:
        return frozenset()  # as the CLI does: the bottom is empty


def run(count: int, seed: int) -> int:
    stats = {"aba": 0, "nonflat": 0, "setaf": 0, "param": 0}
    for i in range(count):
        s = seed + i

        for generate in ABA_GENERATORS:
            d = generate(s)
            split_set = cut(find_balanced_splitting, d)
            for sem in SEMS:
                expected = outcome(aba_ext, d, sem)
                if outcome(aba_split, d, split_set, sem) != expected:
                    print(f"ABA mismatch (seed {s}, {sem.value}):\n{emit_aba(d)}")
                    return 1
                stats["aba"] += 1
                stats["nonflat"] += expected is NonFlatError

            quasi_set = cut(lambda f: find_quasi_splitting(f).s, d)
            if outcome(param_split_solve, d, quasi_set) != outcome(aba_ext, d, Semantics.STB):
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
        f"{count} seeds: {stats['aba']} ABA ({stats['nonflat']} of them NonFlatError on both "
        f"sides), {stats['setaf']} SETAF and {stats['param']} parametrised comparisons, all equal"
    )
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    sys.exit(run(args.count, args.seed))
