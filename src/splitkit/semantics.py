"""Semantics names plus the shared brute-force extension engine.

Both the ABA and the SETAF side reduce extension enumeration to the same
combinatorial core: a set of n indexed items and a list of collective attacks
(tail mask, head index).  Subsets are bitmasks, so the 2^n sweep stays cheap
at desk scale; each call computes only the family that was asked for, and
grounded needs no sweep at all.  The enumeration guard (default 20,
overridable through the ``SPLITKIT_GUARD`` environment variable) keeps
accidental blowups out.

``split_union`` is the one splitting schema that the ABA, quasi and SETAF
splittings share: solve the bottom, build one top per bottom extension,
solve each distinct top once, and take the union of the combined results.
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar

from splitkit.errors import GuardExceeded, InvalidGuard, UnsupportedSemantics

DEFAULT_GUARD = 20


class Semantics(Enum):
    CF = "cf"
    ADM = "adm"
    COM = "com"
    GRD = "grd"
    PREF = "prf"
    STB = "stb"

    @classmethod
    def from_token(cls, token: str) -> "Semantics":
        for sem in cls:
            if sem.value == token:
                return sem
        raise ValueError(f"unknown semantics token {token!r}")


def resolve_guard(guard: int | str | None) -> int:
    if guard is None:
        guard = os.environ.get("SPLITKIT_GUARD", DEFAULT_GUARD)
    if not str(guard).strip().isdecimal():
        raise InvalidGuard(f"enumeration guard must be a nonnegative integer, got {guard!r}")
    return int(guard)


def check_guard(size: int, guard: int | None) -> None:
    limit = resolve_guard(guard)
    if size > limit:
        raise GuardExceeded(size, limit)


def attacked_mask(mask: int, attacks: Sequence[tuple[int, int]]) -> int:
    """Items attacked by the subset ``mask``: heads of attacks whose tail fits."""
    acc = 0
    for tail, head in attacks:
        if tail & mask == tail:
            acc |= 1 << head
    return acc


def maximal_masks(masks: Iterable[int]) -> list[int]:
    ms = list(masks)
    return [m for m in ms if not any(o != m and o & m == m for o in ms)]


def compute_families(
    n: int,
    attacks: Sequence[tuple[int, int]],
    semantics: Semantics,
    closure: Sequence[tuple[int, int]] = (),
) -> list[int]:
    """The extensions of an n-item attack structure under one semantics, as masks.

    Grounded is the least fixpoint of the defence function, with no sweep;
    preferred keeps the maximal complete masks; the others come from one
    2^n sweep that runs only the checks its semantics needs.  ``closure``
    lists derivations (tail mask, derived item) and makes ``stb`` the
    closed-set stable variant; for flat inputs it is left empty.
    """
    if semantics is Semantics.GRD:
        return [_least_fixpoint(n, attacks)]
    full = (1 << n) - 1
    per_item_attacks: list[list[int]] = [[] for _ in range(n)]
    for tail, head in attacks:
        per_item_attacks[head].append(tail)

    out: list[int] = []
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


def _least_fixpoint(n: int, attacks: Sequence[tuple[int, int]]) -> int:
    """The grounded mask: iterate the defence function from the empty set."""
    full = (1 << n) - 1
    mask = 0
    while True:
        att = attacked_mask(mask, attacks)
        undefended = 0
        for tail, head in attacks:
            if not tail & att:
                undefended |= 1 << head
        defended = full & ~undefended
        if defended == mask:
            return mask
        mask = defended


def derived_mask(mask: int, closure: Sequence[tuple[int, int]]) -> int:
    acc = 0
    for tail, item in closure:
        if tail & mask == tail:
            acc |= 1 << item
    return acc


def mask_of(items: Iterable[int], index: dict) -> int:
    mask = 0
    for it in items:
        mask |= 1 << index[it]
    return mask


def unmask(mask: int, order: Sequence) -> frozenset:
    return frozenset(order[i] for i in range(len(order)) if mask >> i & 1)


def canonical_sets(sets: Iterable[frozenset]) -> tuple[frozenset, ...]:
    """Deterministic family order: lexicographic on the sorted member ids."""
    return tuple(sorted(set(sets), key=lambda s: tuple(sorted(s))))


# -- the splitting schema ------------------------------------------------------

F = TypeVar("F")

# Solves one framework, a bottom or a top, under one semantics.
SubSolver = Callable[[F, Semantics], Iterable[frozenset[int]]]

SPLIT_SEMANTICS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)

# Builds the top for one bottom extension, with the map lifting each top
# extension, joined with that bottom extension, into the base's ids.
TopBuilder = Callable[[frozenset[int]], tuple[F, Callable[[frozenset[int]], frozenset[int]]]]


def split_union(
    semantics: Semantics, bottom: F, top_of: TopBuilder[F], solver: SubSolver[F]
) -> tuple[frozenset[int], ...]:
    """Extensions of a split framework: the union over all bottom extensions
    of the lifted extensions of the top each one leaves.

    Bottom extensions often leave equal tops, so each distinct top is solved
    once and its extensions are lifted by every bottom extension that left it.
    """
    if semantics not in SPLIT_SEMANTICS:
        raise UnsupportedSemantics(f"split solving does not cover {semantics.value}")
    results: set[frozenset[int]] = set()
    solved: dict[F, tuple[frozenset[int], ...]] = {}
    for e1 in solver(bottom, semantics):
        top, lift = top_of(frozenset(e1))
        if top not in solved:
            solved[top] = tuple(frozenset(e2) for e2 in solver(top, semantics))
        for e2 in solved[top]:
            results.add(lift(e2))
    return canonical_sets(results)
