"""Semantics names plus the shared brute-force extension engine.

Both oracles test all 2^n subsets of n items at once: a *column* is one int
of 2^n bits whose bit m says something about subset m, so a check that a
per-subset loop would make 2^n times is a few big-int ANDs and ORs.  Each
side builds, per item, the columns of the subsets that hold it, attack it
and defend it, and ``select_masks`` is the one block of conditions on them
for both.  The SETAF side (``compute_families``) derives the columns from a
list of collective attacks (tail mask, head index) and holds about 3n
columns, 3n * 2^n bits (7.5 MiB at n = 20).  The ABA side derives them by a
Horn closure on its rules (``aba.enumerate_extensions``) and holds one
column per derived atom, with a second closure for adm, com and prf.
Preferred comes from a superset-sum ("zeta") transform of the complete
column; grounded is a fixpoint and needs no columns.  Each call computes
only the family that was asked for.  The enumeration guard (default 20,
overridable through the ``SPLITKIT_GUARD`` environment variable) keeps
accidental blowups out.

``split_union`` is the one splitting schema that the ABA, quasi and SETAF
splittings share: solve the bottom, key the top of each bottom extension,
solve each distinct top once, and take the union of the combined results.
"""

from __future__ import annotations

import os
from enum import Enum
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

from splitkit.errors import GuardExceeded, InvalidGuard, UnsupportedSemantics

DEFAULT_GUARD = 20


class Semantics(Enum):
    CF = "cf"
    ADM = "adm"
    COM = "com"
    GRD = "grd"
    PREF = "prf"
    STB = "stb"


# the semantics whose conditions read the defended columns
DEFENDING = (Semantics.ADM, Semantics.COM, Semantics.PREF)


def resolve_guard(guard: int | str | None) -> int:
    if type(guard) is int and guard >= 0:
        return guard
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


def compute_families(
    n: int,
    attacks: Sequence[tuple[int, int]],
    semantics: Semantics,
    closure: Sequence[tuple[int, int]] = (),
) -> list[int]:
    """The extensions of an n-item attack structure under one semantics, as
    masks in increasing order.

    Grounded is the least fixpoint of the defence function, with no columns.
    The others test all 2^n subsets at once: bit m of a column is about
    subset m.  From the columns of the subsets holding each item come, per
    item, the columns of the subsets attacking it and (adm, com, prf) of
    those defending it, and ``select_masks`` applies the semantics'
    conditions to them.  ``closure`` lists derivations (tail mask, derived
    item) and makes ``stb`` the closed-set stable variant; for flat inputs
    it is left empty.  Attacks stream into the per-item columns, so about 3n
    columns of 2^n bits are alive at once.
    """
    if semantics is Semantics.GRD:
        return [_least_fixpoint(n, attacks)]
    holds = item_columns(n)
    full = (1 << (1 << n)) - 1

    def fits(tail: int) -> int:
        col = full
        while tail:
            low = tail & -tail
            col &= holds[low.bit_length() - 1]
            tail ^= low
        return col

    attacked = [0] * n
    for tail, head in attacks:
        attacked[head] |= fits(tail)
    defended = None
    if semantics in DEFENDING:
        defended = [full] * n
        for tail, head in attacks:
            counter = 0
            while tail:
                low = tail & -tail
                counter |= attacked[low.bit_length() - 1]
                tail ^= low
            defended[head] &= counter
    return select_masks(semantics, holds, attacked, defended,
                        ((fits(tail), item) for tail, item in closure))


# The widest table of columns kept once built: the table of width n holds
# n * 2^n bits, so the tables of widths 0..16 together hold about 250 KiB.
COLUMN_CAP = 16
_columns: dict[int, tuple[int, ...]] = {}


def item_columns(n: int) -> tuple[int, ...]:
    """Per item i < n, the column of the subsets of n items that hold it.

    Each is built by doubling one period, never by dividing: CPython's
    big-int division is superlinear in the width of the column.  The table
    of a width up to ``COLUMN_CAP`` is built on its first call and kept, so
    every sweep of that width shares it; wider ones are built per call.
    """
    table = _columns.get(n)
    if table is not None:
        return table
    out = []
    for i in range(n):
        width = 1 << i
        col = ((1 << width) - 1) << width
        width <<= 1
        while width < 1 << n:
            col |= col << width
            width <<= 1
        out.append(col)
    table = tuple(out)
    if n <= COLUMN_CAP:
        _columns[n] = table
    return table


def select_masks(
    semantics: Semantics,
    holds: Sequence[int],
    attacked: Sequence[int],
    defended: Optional[Sequence[int]] = None,
    derived: Iterable[tuple[int, int]] = (),
) -> list[int]:
    """The masks, in increasing order, of the subsets that meet the
    conditions of ``semantics`` (anything but grounded), given per item the
    columns of the subsets that hold it, attack it and, for adm, com and
    prf, defend it.  ``derived`` lists (column, item) pairs, the subsets of
    the column deriving the item: a stable subset must hold what it derives.

    This block is the one place of the conditions, whichever side built the
    columns.  Preferred drops each complete subset with a complete strict
    superset, found by a superset-sum transform of the complete column.
    """
    n = len(holds)
    ok = (1 << (1 << n)) - 1
    for i in range(n):
        ok &= ~(attacked[i] & holds[i])
    if semantics is Semantics.STB:
        for i in range(n):
            ok &= holds[i] | attacked[i]
        for col, item in derived:
            ok &= ~(col & ~holds[item])
    elif semantics is not Semantics.CF:
        for i in range(n):
            ok &= ~(holds[i] & ~defended[i])
        if semantics is not Semantics.ADM:
            for i in range(n):
                ok &= ~(defended[i] & ~holds[i])  # defended but excluded
        if semantics is Semantics.PREF:
            above = ok  # subsets with a complete superset
            for i in range(n):
                above |= (above & holds[i]) >> (1 << i)
            strictly = 0
            for i in range(n):
                strictly |= (above & holds[i]) >> (1 << i)
            ok &= ~strictly
    bits = bin(ok)[:1:-1]  # bit 0 first
    out = []
    m = bits.find("1")
    while m >= 0:
        out.append(m)
        m = bits.find("1", m + 1)
    return out


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


def to_mask(items: Iterable[int]) -> int:
    """The mask with bit i set for each item i; ``bits`` inverts it."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def bits(mask: int) -> frozenset[int]:
    """The positions of the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def unmask(mask: int, order: Sequence) -> frozenset:
    """The items of ``order`` at the set bits of ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(order[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


class Family(tuple):
    """A family in canonical order, equal to the plain tuple of its sets.

    ``members`` holds, per set, its members as the sorted list that was its
    sort key, so that a printout lists them without sorting again.
    """

    members: list[list]


def canonical_sets(sets: Iterable[frozenset]) -> Family:
    """Deterministic family order: lexicographic on the sorted member ids.

    Each distinct set is sorted once, and that sorted list is both its key
    and its entry of ``members``.  Repeats are dropped, and a family that
    is already canonical costs one linear pass of the sort.
    """
    keyed = {s: sorted(s) for s in sets}
    family = Family(sorted(keyed, key=keyed.__getitem__))
    family.members = list(map(keyed.__getitem__, family))
    return family


# -- the splitting schema ------------------------------------------------------

F = TypeVar("F")

# Solves one framework, a bottom or a top, under one semantics, returning its
# family as a sequence of frozensets, as ``enumerate_extensions`` does.
SubSolver = Callable[[F, Semantics], Sequence[frozenset[int]]]

SPLIT_SEMANTICS = (Semantics.STB, Semantics.ADM, Semantics.COM, Semantics.PREF, Semantics.GRD)

# Gives, for one bottom extension, a key of the top it leaves and the map
# lifting each top extension, joined with that bottom extension, into the
# base's ids.  Equal keys must stand for equal tops; unequal keys may too.
TopKey = Callable[[frozenset[int]], tuple[Hashable, Callable[[frozenset[int]], frozenset[int]]]]


def require_split(semantics: Semantics) -> None:
    if semantics not in SPLIT_SEMANTICS:
        raise UnsupportedSemantics(f"split solving does not cover {semantics.value}")


def guarded_solver(oracle: Callable, semantics: Semantics, guard: int | str | None) -> SubSolver:
    """The default sub-solver of a split solve: ``oracle`` (an
    ``enumerate_extensions``) under the guard, resolved once for every
    sub-solve.  The semantics is checked first, so an unsupported one is
    reported before a malformed guard."""
    require_split(semantics)
    limit = resolve_guard(guard)
    return lambda fw, sem: oracle(fw, sem, limit)


def split_union(
    semantics: Semantics,
    bottom: F,
    top_of: TopKey,
    solver: SubSolver[F],
    build: Optional[Callable[[Hashable], F]] = None,
) -> Family:
    """Extensions of a split framework: the union over all bottom extensions
    of the lifted extensions of the top each one leaves.

    Bottom extensions often leave equal tops, so each distinct top is solved
    once, its extensions lifted by every bottom extension that left it.  A
    key met before is a fast path to its family; a new key is built into its
    top (by ``build``; without it the key is the top), which is then looked
    up by framework equality, so unequal keys of one top share one solve.
    """
    require_split(semantics)
    results: set[frozenset[int]] = set()
    solved: dict[Hashable, Sequence[frozenset[int]]] = {}  # by key and by top
    for e1 in solver(bottom, semantics):
        key, lift = top_of(e1)
        family = solved.get(key)
        if family is None:
            top = key if build is None else build(key)
            family = solved.get(top)
            if family is None:
                family = solver(top, semantics)
            solved[key] = solved[top] = family
        results.update(map(lift, family))
    return canonical_sets(results)
