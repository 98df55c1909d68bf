#!/usr/bin/env python3
"""Time direct enumeration against split solving on layered instances.

Two random blocks are stacked so that all cross influences run upward; the
balanced splitting then cuts the instance roughly in half, turning one 2^n
sweep into one 2^(n/2) sweep for the bottom and one per distinct top.

Each seed prints the finder, direct and split times together with the
number of bottom extensions and the sizes of the tops solved, because the
split time depends on those: a bottom with no extension leaves no top to
solve.  No total over seeds is printed, since such seeds would make it
read as a speed-up the splitting did not earn."""

import argparse
import random
import time
from collections import Counter

from splitkit.aba import Abaf, Rule, enumerate_extensions
from splitkit.finder import find_balanced_splitting
from splitkit.generate import random_abaf
from splitkit.semantics import Semantics
from splitkit.split_aba import split_solve


def full_block(rng: random.Random, block: int) -> Abaf:
    while True:  # reject draws that came out smaller than the block size
        d = random_abaf(rng, max_assumptions=block, max_rules=block + 2, max_extra=1)
        if len(d.assumptions) == block:
            return d


def layered(seed: int, block: int) -> Abaf:
    rng = random.Random(seed)
    lo = full_block(rng, block)
    hi = full_block(rng, block)
    shift = lo.n_atoms
    names = lo.names + tuple(f"t_{n}" for n in hi.names)
    rules = list(lo.rules)
    rules += [
        Rule(r.head + shift, frozenset(b + shift for b in r.body)) for r in hi.rules
    ]
    hi_contraries = sorted(set(hi.contrary.values()))
    for _ in range(block):  # upward links only: lower assumptions feed upper rules
        head = shift + rng.choice(hi_contraries)
        body = {rng.choice(sorted(lo.assumptions)), shift + rng.choice(sorted(hi.assumptions))}
        rules.append(Rule(head, frozenset(body)))
    assumptions = lo.assumptions | frozenset(a + shift for a in hi.assumptions)
    contrary = dict(lo.contrary)
    contrary.update({a + shift: c + shift for a, c in hi.contrary.items()})
    return Abaf(names, tuple(rules), assumptions, contrary)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--block", type=int, default=8, help="assumptions per layer")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--semantics", default="stb")
    args = ap.parse_args()
    sem = Semantics(args.semantics)

    for seed in range(args.seeds):
        d = layered(seed, args.block)
        guard = len(d.assumptions)
        solved = []

        def recording(fw, semantics):
            solved.append(fw)
            return enumerate_extensions(fw, semantics, guard=guard)

        t0 = time.perf_counter()
        s = find_balanced_splitting(d)
        t1 = time.perf_counter()
        direct = enumerate_extensions(d, sem, guard=guard)
        t2 = time.perf_counter()
        via = split_solve(d, s, sem, sub_solver=recording)
        t3 = time.perf_counter()

        assert direct == via
        bottom, tops = solved[0], solved[1:]
        sizes = Counter(len(t.assumptions) for t in tops)
        print(
            f"seed {seed}: |A|={len(d.assumptions)} |R|={len(d.rules)} "
            f"finder {t1 - t0:6.3f}s direct {t2 - t1:6.3f}s split {t3 - t2:6.3f}s "
            f"({len(direct)} extensions); bottom |A|={len(bottom.assumptions)} "
            f"with {len(enumerate_extensions(bottom, sem))} extensions, "
            f"{len(tops)} distinct tops by |A| {dict(sorted(sizes.items()))}"
        )


if __name__ == "__main__":
    main()
