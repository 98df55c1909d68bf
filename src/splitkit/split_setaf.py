"""Divide-and-conquer solving of SETAFs via splittings.

A splitting separates the arguments into a bottom part A1 and a top part A2
such that every attack touching both parts points into A2 (the links).  The
bottom is solved first; each of its extensions is propagated into the top by
the reduct (deleting defeated arguments and simplifying links) and the
modification (turning undecided links into set-self-attacks).  Combining
bottom and top extensions yields exactly the extensions of the whole SETAF.
A splitting computes its tables once, on first use: the attacks as tail
masks, with every attack a top can hold prebuilt in the top's ids, so a top
is picked with int operations and renumbered through one remap table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from splitkit.errors import InvalidSplit
from splitkit.semantics import Semantics, SubSolver, guarded_solver, split_union, to_mask
from splitkit.semantics import canonical_sets  # noqa: F401  perfbench/layers.py rebinds it here
from splitkit.setaf import (
    Attack,
    Setaf,
    enumerate_extensions,
    induced,
)


class _Tables(NamedTuple):
    """One splitting's attacks as tail masks, with every attack a top can
    hold prebuilt in the top's own ids.

    Bottom-side masks are over base ids; top-side masks and the prebuilt
    attacks are over positions in the sorted A2, which are the top's ids
    whenever no argument of A2 is defeated.
    """

    order: tuple[int, ...]  # sorted A2
    names: tuple[str, ...]  # their names
    r1: tuple[tuple[int, int], ...]  # (tail mask, head bit)
    r2: tuple[tuple[int, Attack], ...]  # (tail and head bits, attack)
    # (bottom tail mask, top tail mask, head bit, link attack, guarded attack)
    r3: tuple[tuple[int, int, int, Attack, Attack], ...]


@dataclass(eq=False)
class SetafSplitting:
    """A splitting of ``base`` into the bottom A1 and the top A2.

    Reducts and modifications are built from tables computed once per
    splitting, on first use: ``r1``, ``r2`` and ``r3`` as tail masks, with
    the top's attacks prebuilt in the ids of the sorted A2.  A top picks
    among them with int operations; when an argument of A2 is defeated, one
    remap table renumbers the picked attacks densely.
    """

    base: Setaf
    a1: frozenset[int]
    a2: frozenset[int]
    r1: tuple[Attack, ...]
    r2: tuple[Attack, ...]
    r3: tuple[Attack, ...]

    @cached_property
    def bottom(self) -> tuple[Setaf, tuple[int, ...]]:
        """The bottom, densely renumbered, with its id order."""
        return induced(self.base, self.a1, self.r1)

    @cached_property
    def _tables(self) -> _Tables:
        order = tuple(sorted(self.a2))
        local = {a: i for i, a in enumerate(order)}
        r2 = []
        for t, h in self.r2:
            tail = frozenset(map(local.__getitem__, t))
            r2.append((to_mask(tail) | 1 << local[h], (tail, local[h])))
        r3 = []
        for t, h in self.r3:
            rest = frozenset(local[a] for a in t if a in local)
            r3.append((to_mask(t & self.a1), to_mask(rest), 1 << local[h],
                       (rest, local[h]), (rest | {local[h]}, local[h])))
        return _Tables(
            order, tuple(self.base.names[a] for a in order),
            tuple((to_mask(t), 1 << h) for t, h in self.r1), tuple(r2), tuple(r3),
        )

    # -- reduct / modification ----------------------------------------------

    def _top(self, e1: frozenset[int], modified: bool = True) -> tuple[Setaf, tuple[int, ...]]:
        """The reduct of the top w.r.t. ``e1``, or its modification, densely
        renumbered with its id order."""
        t = self._tables
        e = to_mask(e1)
        defeated = self._defeated(e)
        attacks = [att for bits, att in t.r2 if not bits & defeated]
        for bottom, top, head, link, _ in t.r3:
            # a link with its whole tail in e1 has a defeated head
            if bottom & e == bottom and not (top | head) & defeated:
                attacks.append(link)
        if modified:
            for i in self._undecided(e, defeated):
                _, _, head, _, guarded = t.r3[i]
                if not head & defeated:
                    attacks.append(guarded)
        if not defeated:
            return Setaf(t.names, attacks), t.order
        remap = [-1] * len(t.order)
        kept = [i for i in range(len(t.order)) if not defeated >> i & 1]
        for new, i in enumerate(kept):
            remap[i] = new
        dense = [(frozenset(map(remap.__getitem__, tail)), remap[h]) for tail, h in attacks]
        return Setaf(tuple(t.names[i] for i in kept), dense), tuple(t.order[i] for i in kept)

    def reduct(self, e1: Iterable[int]) -> Setaf:
        return self._top(self._check_e1(e1), modified=False)[0]

    def modification(self, e1: Iterable[int]) -> Setaf:
        return self._top(self._check_e1(e1))[0]

    def undecided_links(self, e1: Iterable[int]) -> tuple[Attack, ...]:
        e = to_mask(self._check_e1(e1))
        return tuple(self.r3[i] for i in self._undecided(e, self._defeated(e)))

    def _defeated(self, e: int) -> int:
        """The top arguments (bits over the sorted A2) that links whose whole
        tail lies in ``e`` attack."""
        defeated = 0
        for bottom, top, head, _, _ in self._tables.r3:
            if not top and bottom & e == bottom:
                defeated |= head
        return defeated

    def _undecided(self, e: int, defeated: int) -> list[int]:
        """Indexes of the links neither attacked by ``e`` nor decided in the
        bottom: their tails meet bottom arguments outside the range of ``e``."""
        t = self._tables
        plus = 0
        for tail, head in t.r1:
            if tail & e == tail:
                plus |= head
        return [i for i, (bottom, top, _, _, _) in enumerate(t.r3)
                if bottom & ~e and not bottom & plus and not top & defeated]

    # -- the incremental solver ----------------------------------------------

    def solve(
        self,
        semantics: Semantics,
        guard: Optional[int] = None,
        sub_solver: Optional[SubSolver[Setaf]] = None,
    ) -> tuple[frozenset[int], ...]:
        sub, order = self.bottom

        def top_of(dense_e1: frozenset[int]):
            e1 = frozenset(order[i] for i in dense_e1)
            top, top_order = self._top(e1)
            return top, lambda e2: e1 | frozenset(top_order[i] for i in e2)

        return split_union(
            semantics, sub, top_of,
            sub_solver or guarded_solver(enumerate_extensions, semantics, guard),
        )

    def _check_e1(self, e1: Iterable[int]) -> frozenset[int]:
        s = frozenset(e1)
        if not s <= self.a1:
            raise ValueError("bottom extension must be a subset of A1")
        return s


def make_splitting(sf: Setaf, a1: Iterable[int]) -> SetafSplitting:
    """Partition the attacks around A1, or fail on an attack entering A1."""
    a1 = frozenset(a1)
    if not a1 <= sf.args:
        raise ValueError("A1 must be a set of arguments")
    a2 = sf.args - a1
    r1, r2, r3 = [], [], []
    for tail, head in sf.attacks:
        if head in a1:
            if tail <= a1:
                r1.append((tail, head))
            else:
                raise InvalidSplit((tail, head), sf.names)
        elif tail <= a2:
            r2.append((tail, head))
        else:
            r3.append((tail, head))
    return SetafSplitting(sf, a1, a2, tuple(r1), tuple(r2), tuple(r3))


def split_solve(
    sf: Setaf,
    a1: Iterable[int],
    semantics: Semantics,
    guard: Optional[int] = None,
    sub_solver: Optional[SubSolver[Setaf]] = None,
) -> tuple[frozenset[int], ...]:
    return make_splitting(sf, a1).solve(semantics, guard, sub_solver)
