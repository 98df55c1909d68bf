#!/usr/bin/env python3
"""Time direct enumeration against split solving on layered instances.

Two random blocks are stacked by ``stack`` of ``perfbench/workloads.py``,
the draw of the benchmark's ``layered`` workload, so that all cross
influences run upward; the balanced splitting then cuts the instance
roughly in half, turning one 2^n sweep into one 2^(n/2) sweep for the
bottom and one per distinct top.

Each seed prints the finder, direct and split times together with the
number of bottom extensions and the sizes of the tops solved, because the
split time depends on those: a bottom with no extension leaves no top to
solve.  No total over seeds is printed, since such seeds would make it
read as a speed-up the splitting did not earn."""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from splitkit.aba import enumerate_extensions
from splitkit.finder import find_balanced_splitting
from splitkit.semantics import Semantics
from splitkit.split_aba import split_solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import stack  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--block", type=int, default=8, help="assumptions per layer")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--semantics", default="stb")
    args = ap.parse_args()
    sem = Semantics(args.semantics)

    for seed in range(args.seeds):
        d = stack(seed, 2, args.block)
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
