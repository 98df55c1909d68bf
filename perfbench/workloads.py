"""Seeded instances and the operation list of each benchmark workload.

An operation is one (instance, semantics, route) triple; a workload is the
list of operations that one round of a run performs.  Instances reach the
program only as emitted text.

``sweep`` draws fresh instances from the acceptance suites' generators for
every seed.  ``layered`` and ``beyond`` take their structures from a fixed
pool of generator seeds, and the workload seed renames the atoms and
shuffles the rules of each one, so the program sees new text for every seed
while the work stays the same.  Fresh structures would not repeat: one
layered instance solves in 0.03 s and the next in 0.9 s, so twenty fresh
draws per run spread the run's throughput by 25-45 % from seed to seed.
Renumbering the atoms would not repeat either, since the finder breaks ties
between equally balanced cuts by atom id: that moved layered throughput by
20 % and peak memory by 40 % between seeds.

Run as a script to print one instance, so that a reported fault can be
rebuilt outside the benchmark:

    PYTHONPATH=src python3 perfbench/workloads.py stack --blocks 4 --gen 4
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from dataclasses import dataclass
from typing import Optional

from splitkit import io
from splitkit.aba import Abaf, Rule
from splitkit.generate import random_abaf, random_setaf
from splitkit.semantics import Semantics
from splitkit.setaf import Setaf

SPLIT_SEMS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)
# Admissible and conflict-free answers multiply block by block past the guard
# (admissible on the four-block stack of generator seed 3: 1 920 sets, which the
# split route took 170 s and 920 MiB to produce), so beyond leaves them out.
BEYOND_SEMS = (Semantics.STB, Semantics.COM, Semantics.PREF, Semantics.GRD)

LAYERED_POOL = 20  # two-block stacks, generator seeds 0..19
BEYOND_POOL = 4  # three-block and four-block stacks, generator seeds 0..3
# The four-block stack that the balanced finder cannot cut: its order-ideal
# enumeration stops at IDEAL_LIMIT, and the best balanced survivor leaves a
# top of 21 assumptions.  Never renamed, so it fails the same on every seed.
TRUNCATED_GEN = 4


@dataclass(frozen=True)
class Instance:
    key: str  # digest of the text before renaming
    kind: str  # "aba" or "setaf"
    text: str
    cut: Optional[frozenset[int]] = None  # a known splitting set; None: use the oracle


@dataclass(frozen=True)
class Op:
    instance: Instance
    sem: Semantics
    route: str
    expect_fail: bool = False  # the named finder truncation fault


# -- generators ---------------------------------------------------------------


def full_block(rng: random.Random, block: int) -> Abaf:
    """A random flat ABAF with exactly ``block`` assumptions."""
    while True:
        d = random_abaf(rng, max_assumptions=block, max_rules=block + 2, max_extra=1)
        if len(d.assumptions) == block:
            return d


def stack(gen: int, blocks: int, block: int) -> Abaf:
    """``blocks`` random blocks, each linked only from the blocks below it.

    Block j > 0 gets ``block`` link rules whose head is one of its own
    contraries and whose body pairs an assumption of a lower block with one
    of its own, so influence runs strictly upward.  The names of block j
    carry the prefix ``t_`` j times.  Two blocks give the same draw as
    ``scripts/bench_split.py``.
    """
    rng = random.Random(gen)
    parts = [full_block(rng, block) for _ in range(blocks)]
    names: list[str] = []
    rules: list[Rule] = []
    assumptions: set[int] = set()
    contrary: dict[int, int] = {}
    shifts = []
    for j, part in enumerate(parts):
        shift = len(names)
        shifts.append(shift)
        names += ["t_" * j + n for n in part.names]
        rules += [Rule(r.head + shift, frozenset(b + shift for b in r.body)) for r in part.rules]
        assumptions |= {a + shift for a in part.assumptions}
        contrary.update({a + shift: c + shift for a, c in part.contrary.items()})
    for j in range(1, blocks):
        part, shift = parts[j], shifts[j]
        contraries = sorted(set(part.contrary.values()))
        for _ in range(block):
            i = rng.randrange(j) if j > 1 else 0
            head = shift + rng.choice(contraries)
            body = {
                shifts[i] + rng.choice(sorted(parts[i].assumptions)),
                shift + rng.choice(sorted(part.assumptions)),
            }
            rules.append(Rule(head, frozenset(body)))
    return Abaf(tuple(names), tuple(rules), frozenset(assumptions), contrary)


def lower_blocks(names, k: int) -> frozenset[int]:
    """Atoms of the lowest ``k`` blocks of a stack: a valid splitting set."""
    return frozenset(i for i, n in enumerate(names) if not n.startswith("t_" * k))


def rename(fw, rng: random.Random):
    """The same framework under fresh atom names, with its rules or attacks shuffled."""
    names = tuple(f"x{v}" for v in rng.sample(range(1000, 10000), len(fw.names)))
    if isinstance(fw, Abaf):
        rules = list(fw.rules)
        rng.shuffle(rules)
        return Abaf(names, tuple(rules), fw.assumptions, fw.contrary)
    attacks = list(fw.attacks)
    rng.shuffle(attacks)
    return Setaf(names, tuple(attacks))


def _emit(fw) -> str:
    return io.emit_aba(fw) if isinstance(fw, Abaf) else io.emit_setaf(fw)


def _instance(fw, rng: Optional[random.Random], cut: Optional[frozenset[int]] = None) -> Instance:
    base = _emit(fw)
    text = base if rng is None else _emit(rename(fw, rng))
    kind = "aba" if isinstance(fw, Abaf) else "setaf"
    return Instance(hashlib.sha1(base.encode()).hexdigest()[:16], kind, text, cut)


# -- workloads ----------------------------------------------------------------


def sweep(seed: int) -> list[Op]:
    """The acceptance suites' distributions; seed 0 draws exactly c07, c08 and c09."""
    ops = []
    for i in range(500):
        sf = random_setaf(7000 + 500 * seed + i, max_args=8, max_attacks=10, max_tail=3)
        ops.append(Op(_instance(sf, None), SPLIT_SEMS[(seed + i) % 5], "split"))
    for i in range(500):
        d = random_abaf(8000 + 500 * seed + i, max_assumptions=7, max_rules=10, max_body=3)
        ops.append(Op(_instance(d, None), SPLIT_SEMS[(seed + i) % 5], "split"))
    for i in range(300):
        d = random_abaf(9000 + 300 * seed + i, max_assumptions=6, max_rules=9, max_body=3)
        ops.append(Op(_instance(d, None), Semantics.STB, "param"))
    return ops


def layered(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for gen in range(LAYERED_POOL):
        inst = _instance(stack(gen, 2, 8 + gen % 2), rng)
        ops += [Op(inst, sem, "split") for sem in SPLIT_SEMS]
        ops.append(Op(inst, Semantics.STB, "param"))
    return ops


def _stack_instance(gen: int, blocks: int, rng: Optional[random.Random]) -> Instance:
    """A stack of 8-assumption blocks, checked by splitting below its middle block."""
    d = stack(gen, blocks, 8)
    return _instance(d, rng, lower_blocks(d.names, blocks // 2))


def beyond(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for gen in range(BEYOND_POOL):
        inst = _stack_instance(gen, 3, rng)
        ops += [Op(inst, sem, route) for route in ("split", "setaf-rec") for sem in BEYOND_SEMS]
    for gen in range(BEYOND_POOL):
        inst = _stack_instance(gen, 4, rng)
        ops += [Op(inst, sem, "setaf-rec") for sem in BEYOND_SEMS]
    stuck = _stack_instance(TRUNCATED_GEN, 4, None)
    ops += [Op(stuck, sem, "split", expect_fail=True) for sem in BEYOND_SEMS]
    return ops


BUILDERS = {"sweep": sweep, "layered": layered, "beyond": beyond}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="print one benchmark instance")
    sub = ap.add_subparsers(dest="what", required=True)
    p = sub.add_parser("stack", help="a stack of random ABA blocks")
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--gen", type=int, required=True, help="generator seed")
    args = ap.parse_args(argv)
    sys.stdout.write(io.emit_aba(stack(args.gen, args.blocks, 8)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
