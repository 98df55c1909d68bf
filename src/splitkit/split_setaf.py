"""Divide-and-conquer solving of SETAFs via splittings.

A splitting separates the arguments into a bottom part A1 and a top part A2
such that every attack touching both parts points into A2 (the links).  The
bottom is solved first; each of its extensions is propagated into the top by
the reduct (deleting defeated arguments and simplifying links) and the
modification (turning undecided links into set-self-attacks).  Combining
bottom and top extensions yields exactly the extensions of the whole SETAF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from splitkit.errors import InvalidSplit
from splitkit.semantics import Semantics, SubSolver, split_union
from splitkit.semantics import canonical_sets  # noqa: F401  perfbench/layers.py rebinds it here
from splitkit.setaf import (
    Attack,
    Setaf,
    attacked_args,
    enumerate_extensions,
    induced,
)


@dataclass(eq=False)
class SetafSplitting:
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

    # -- reduct / modification ----------------------------------------------

    def _top(self, e1: frozenset[int], modified: bool = True) -> tuple[Setaf, tuple[int, ...]]:
        """The reduct of the top w.r.t. ``e1``, or its modification, densely
        renumbered with its id order."""
        defeated = frozenset(h for t, h in self.r3 if t <= e1)
        args = self.a2 - defeated
        attacks = list(self.r2)
        if defeated:
            attacks = [(t, h) for t, h in attacks if h in args and t <= args]
        for t, h in self.r3:
            rest = t - self.a1
            if rest and t & self.a1 <= e1 and not t & defeated and h in args:
                attacks.append((rest, h))
        if modified:
            undecided = self._undecided(e1, defeated)
            attacks += [((t & args) | {h}, h) for t, h in undecided if h in args]
        return induced(self.base, args, attacks)

    def reduct(self, e1: Iterable[int]) -> Setaf:
        return self._top(self._check_e1(e1), modified=False)[0]

    def modification(self, e1: Iterable[int]) -> Setaf:
        return self._top(self._check_e1(e1))[0]

    def undecided_links(self, e1: Iterable[int]) -> tuple[Attack, ...]:
        e1 = self._check_e1(e1)
        return self._undecided(e1, frozenset(h for t, h in self.r3 if t <= e1))

    def _undecided(self, e1: frozenset[int], defeated: frozenset[int]) -> tuple[Attack, ...]:
        """Links neither attacked by ``e1`` nor decided in the bottom: their
        tails meet bottom arguments outside the range of ``e1``."""
        plus_r1 = attacked_args(self.base, e1, self.r1)
        open_a1 = self.a1 - e1 - plus_r1
        attacked = plus_r1 | defeated
        return tuple((t, h) for t, h in self.r3 if t & open_a1 and not t & attacked)

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
            sub_solver or (lambda f, s: enumerate_extensions(f, s, guard)),
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
                raise InvalidSplit((tail, head))
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
