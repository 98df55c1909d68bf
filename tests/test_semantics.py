"""The column kernel of ``compute_families`` against a per-subset sweep."""

import random
from typing import Iterable, Sequence

from splitkit.semantics import Semantics, attacked_mask, compute_families


def derived_mask(mask: int, closure: Sequence[tuple[int, int]]) -> int:
    acc = 0
    for tail, item in closure:
        if tail & mask == tail:
            acc |= 1 << item
    return acc


def maximal_masks(masks: Iterable[int]) -> list[int]:
    ms = list(masks)
    return [m for m in ms if not any(o != m and o & m == m for o in ms)]


def sweep_families(n, attacks, semantics, closure=()):
    """Reference: test each of the 2^n subsets in turn, definition by definition."""
    assert semantics is not Semantics.GRD  # grounded is a fixpoint, not a sweep
    full = (1 << n) - 1
    per_item_attacks = [[] for _ in range(n)]
    for tail, head in attacks:
        per_item_attacks[head].append(tail)

    out = []
    for mask in range(1 << n):
        att = attacked_mask(mask, attacks)
        if att & mask:
            continue
        if semantics is Semantics.CF:
            out.append(mask)
            continue
        if semantics is Semantics.STB:
            if mask | att == full and not (closure and derived_mask(mask, closure) & ~mask):
                out.append(mask)
            continue
        defended_ok = True
        for tail, head in attacks:
            if (1 << head) & mask and not (tail & att):
                defended_ok = False
                break
        if not defended_ok:
            continue
        if semantics is not Semantics.ADM:
            complete = True
            for item in range(n):
                bit = 1 << item
                if bit & mask:
                    continue
                if all(tail & att for tail in per_item_attacks[item]):
                    complete = False  # defended but excluded
                    break
            if not complete:
                continue
        out.append(mask)
    return maximal_masks(out) if semantics is Semantics.PREF else out


def random_structure(rng: random.Random):
    n = rng.choice((0, 1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 10, 11))
    attacks = []
    for _ in range(rng.randint(0, 3 * n + 2) if n else 0):
        shape = rng.random()
        if shape < 0.1:
            tail = 0
        elif shape < 0.5:
            tail = 1 << rng.randrange(n)
        elif shape < 0.8:
            tail = 0
            for _ in range(rng.randint(1, 3)):
                tail |= 1 << rng.randrange(n)
        else:
            tail = rng.randrange(1 << n)  # dense
        attacks.append((tail, rng.randrange(n)))
    if attacks and rng.random() < 0.3:
        attacks += rng.sample(attacks, rng.randint(1, len(attacks)))  # duplicates
    closure = []
    if n and rng.random() < 0.5:
        closure = [(rng.randrange(1 << n), rng.randrange(n)) for _ in range(rng.randint(1, n))]
    return n, attacks, closure


def test_columns_match_the_per_subset_sweep():
    rng = random.Random(2026)
    for _ in range(2000):
        n, attacks, closure = random_structure(rng)
        for sem in Semantics:
            if sem is Semantics.GRD:
                continue
            for cl in ((), closure) if sem is Semantics.STB else ((),):
                assert compute_families(n, attacks, sem, cl) == sweep_families(
                    n, attacks, sem, cl
                ), (n, attacks, sem, cl)


def test_grounded_is_the_least_complete_mask():
    rng = random.Random(7)
    for _ in range(300):
        n, attacks, _ = random_structure(rng)
        complete = sweep_families(n, attacks, Semantics.COM)
        (grounded,) = compute_families(n, attacks, Semantics.GRD)
        assert grounded in complete
        assert all(grounded & m == grounded for m in complete)

