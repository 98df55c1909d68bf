"""Splitting ABA frameworks on the knowledge-base level.

A splitting set S cuts the rule set into a bottom (heads inside S) and a top
(the rest) such that nothing relevant to the bottom is derived up top.  Each
bottom extension E is pushed into the top in two steps: the E-reduct deletes
rules whose bottom-side body atoms E cannot derive and strips derived atoms
from the remaining bodies; the E-modification then re-adds, guarded by one
fresh self-attacking assumption, the rules that were lost only because their
bodies stayed undecided.  A splitting computes its tables once, on first use:
the bottom rules as (body mask, head bit) pairs, each top rule's S-part mask
with its reduct and guarded forms, and the fresh names.  A bottom extension
then runs its closures on ints to a key, the int of the prebuilt rules it
picks, and a solve builds the top of a key only the first time it meets it.
Two keys may pick rules that build one top; ``split_union`` solves it once.

Quasi-splittings relax the cut: bottom rule bodies may mention assumptions
outside S ("vulnerabilities") whose contraries are derivable up top.  A
quasi-splitting is a splitting of its expanded bottom, which holds one
marker assumption per vulnerability to guess it in or out; its top table
ends with a fact or a loop rule per vulnerability that enforces the guess.
This route is exact for stable semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

from splitkit.aba import (
    Abaf, Rule, atom_closure, enumerate_extensions, fresh_name, require_flat, tainted,
    theory_closure,
)
from splitkit.aba import all_supports, minimal_supports  # noqa: F401  perfbench/layers.py rebinds them here
from splitkit.errors import (
    HeadInBodyOut,
    NonAssumptionBodyOut,
    NotAtomClosed,
    UnsupportedSemantics,
    ValidationError,
)
from splitkit.semantics import Semantics, SubSolver, guarded_solver, split_union, to_mask
from splitkit.semantics import canonical_sets  # noqa: F401  perfbench/layers.py rebinds it here


class _Tables(NamedTuple):
    """One splitting's rules as int masks over atom ids, with each top rule's
    reduct form prebuilt."""

    s: int
    bottom: tuple[tuple[int, int], ...]  # (body mask, head bit) per bottom rule
    pairs: tuple[tuple[int, int], ...]  # (bit, contrary bit) per bottom assumption
    # (key bit, S-part mask, Rule(head, body - S)) per top rule, then a
    # quasi-splitting's (key bit, guess bit, enforcing rule) entries
    top: tuple[tuple[int, int, Rule], ...]
    contrary: dict[int, int]  # the top's contrary map


class _Guarded(NamedTuple):
    """The fresh ``_u``/``_cu`` pair and the top rules guarded by ``_u``."""

    names: tuple[str, ...]
    assumptions: frozenset[int]
    contrary: dict[int, int]
    guard: Rule  # _cu <- _u, picked by key bit len(top), the guarded flag
    # (key bit, S-part mask, Rule(head, (body - S) | {_u})), in top order,
    # for each top rule whose body meets S: no other rule can be guarded
    rules: tuple[tuple[int, int, Rule], ...]


@dataclass(eq=False)
class AbaSplitting:
    """A splitting of ``base`` by the sentence set ``s``.

    Reducts and modifications are built from tables computed once per
    splitting, on first use (``_tables``, and ``_guarded`` once some bottom
    extension leaves an assumption undecided).  Every closure runs on int
    masks, and each top rule is only picked, never rebuilt: the theory of a
    bottom extension lies inside S, so a top rule survives the reduct either
    as ``body - S`` or not at all.  A top is first a key, the int of its
    picked entries (``_key``), and is built from it (``_top``) only when
    solving meets the key for the first time.  Two top rules with the same
    reduct make two keys of one top, which ``split_union`` solves once.
    ``QuasiSplitting`` is this class on an expanded bottom, with more
    entries at the end of the top table.
    """

    base: Abaf
    s: frozenset[int]
    bottom: Abaf
    r1: tuple[Rule, ...]
    r2: tuple[Rule, ...]
    a1: frozenset[int]
    a2: frozenset[int]

    def _enforcing(self) -> list[tuple[int, Rule]]:
        """Entries that end the top table: none for a splitting."""
        return []

    @cached_property
    def _tables(self) -> _Tables:
        s = to_mask(self.s)
        top = []
        for r in self.r2:
            part = to_mask(r.body) & s
            top.append((part, Rule(r.head, r.body - self.s) if part else r))
        top = [(1 << j, part, rule) for j, (part, rule) in enumerate(top + self._enforcing())]
        return _Tables(
            s,
            tuple((to_mask(r.body), 1 << r.head) for r in self.bottom.rules),
            tuple((1 << a, 1 << self.bottom.contrary[a]) for a in self.a1),
            tuple(top),
            {a: self.base.contrary[a] for a in self.a2},
        )

    @cached_property
    def _guarded(self) -> _Guarded:
        t = self._tables
        taken = set(self.base.names)
        names = self.base.names + (fresh_name(taken, "_u"), fresh_name(taken, "_cu"))
        xu, cu = len(names) - 2, len(names) - 1
        u = frozenset({xu})
        guard = Rule(cu, u)
        # the reduct entries, one per top rule, each guarded when its body meets S
        reduct = t.top[:len(self.r2)]
        met = [(part, Rule(rule.head, rule.body | u)) for _, part, rule in reduct if part]
        rules = [(1 << j, part, rule) for j, (part, rule) in enumerate(met, len(t.top) + 1)]
        return _Guarded(names, self.a2 | u, {**t.contrary, xu: cu}, guard, tuple(rules))

    def reduct(self, e: Iterable[int]) -> Abaf:
        return self._top(self._key(to_mask(self._check_e(e)), modified=False))

    def undecided(self, e: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
        return undecided_theory(self.bottom, self._check_e(e))

    def incompatible(self, e: Iterable[int]) -> frozenset[int]:
        """Bottom sentences that cannot become true once ``e`` is chosen.

        A sentence is ruled out when every assumption set deriving it contains
        an assumption defeated by ``e`` (vacuously so for underivable ones),
        that is, when the undefeated assumptions cannot derive it; and so are
        the contraries of accepted assumptions.  Ruling out merely everything
        derivable from the defeated assumptions would be wrong in both
        directions: facts are derivable from any set yet never ruled out, and
        a sentence with one defeated and one untouched derivation is still
        reachable.
        """
        e = self._check_e(e)
        live = _undefeated(self.bottom, theory_closure(self.bottom, e))
        derivable = theory_closure(self.bottom, live)
        return (self.s - derivable) | frozenset(self.bottom.contrary[a] for a in e)

    def modification(self, e: Iterable[int]) -> Abaf:
        """The reduct, plus the rules lost only to undecided bodies, each
        guarded by one fresh self-attacking assumption ``_u``."""
        return self._top(self._key(to_mask(self._check_e(e))))

    def _key(self, e: int, modified: bool = True) -> int:
        """The key of the modification (or, without ``modified``, of the
        reduct) that the bottom extension ``e`` leaves: one bit per picked
        entry of the top table, then the guarded flag and one bit per picked
        guarded rule.  Equal keys build equal tops; unequal keys may too, when
        two entries hold the same rule.

        One closure of ``e`` serves the reduct and the undecided assumptions,
        and one closure of the undefeated assumptions serves the undecided
        theory (``tainted``) and the incompatible sentences.  All three live
        inside S, so a top rule's S-part mask decides each test.
        """
        t = self._tables
        th = _closure(t.bottom, e)
        key = 0
        for bit, part, _ in t.top:
            if part & th == part:
                key |= bit
        live = 0
        for bit, contrary in t.pairs:
            if not th & contrary:
                live |= bit
        undecided = live & ~e
        if not (modified and undecided):
            return key
        derivable = _closure(t.bottom, live)
        taint = _taint(t.bottom, derivable, undecided)
        ruled_out = t.s & ~derivable
        for bit, contrary in t.pairs:
            if e & bit:
                ruled_out |= contrary
        g = self._guarded
        key |= 1 << len(t.top)
        for bit, part, _ in g.rules:
            if part & taint and not part & ruled_out:
                key |= bit
        return key

    def _top(self, key: int) -> Abaf:
        """The top that ``key`` picks, its rules in table order."""
        t = self._tables
        rules = [rule for bit, _, rule in t.top if key & bit]
        if not key >> len(t.top):
            return Abaf(self.base.names, rules, self.a2, t.contrary)
        g = self._guarded
        rules.append(g.guard)
        rules += [rule for bit, _, rule in g.rules if key & bit]
        return Abaf(g.names, rules, g.assumptions, g.contrary)

    def solve(
        self,
        semantics: Semantics,
        guard: Optional[int] = None,
        sub_solver: Optional[SubSolver[Abaf]] = None,
    ) -> tuple[frozenset[int], ...]:
        require_flat(self.base, semantics)  # as the oracle does, though bottom and tops may be flat
        return self._union(semantics, guard, sub_solver)

    def _union(
        self, semantics: Semantics, guard: Optional[int], sub_solver: Optional[SubSolver[Abaf]]
    ) -> tuple[frozenset[int], ...]:
        """``split_union`` over this splitting's keyed tops; each result
        keeps the bottom extension's part in S."""

        def top_of(e1: frozenset[int]):
            kept = e1 & self.s
            return self._key(to_mask(e1)), lambda e2: kept | (e2 & self.a2)

        return split_union(
            semantics, self.bottom, top_of,
            sub_solver or guarded_solver(enumerate_extensions, semantics, guard), self._top,
        )

    def _check_e(self, e: Iterable[int]) -> frozenset[int]:
        s = frozenset(e)
        if not s <= self.a1:
            raise ValueError("bottom extension must be a subset of the bottom assumptions")
        return s


def _closure(rules: tuple[tuple[int, int], ...], derived: int) -> int:
    """``theory_closure`` on masks: the heads of the (body, head) rules that
    fire from ``derived``, added until nothing changes."""
    changed = True
    while changed:
        changed = False
        for body, head in rules:
            if not derived & head and body & derived == body:
                derived |= head
                changed = True
    return derived


def _taint(rules: tuple[tuple[int, int], ...], derivable: int, seed: int) -> int:
    """``tainted`` on masks, given the closure ``derivable`` of the allowed set."""
    usable = [(body, head) for body, head in rules if body & derivable == body]
    out = seed
    changed = True
    while changed:
        changed = False
        for body, head in usable:
            if not out & head and body & out:
                out |= head
                changed = True
    return out


def _cut(
    abaf: Abaf, sentence_set: Iterable[int], loose: frozenset[int], error: type[ValidationError]
) -> tuple[frozenset[int], tuple[Rule, ...], tuple[Rule, ...]]:
    """``sentence_set`` checked as a set S of known atoms closed under
    assumption/contrary pairing, and the rules split into those headed in S
    and the rest.  A rule headed in S with a body atom outside both S and
    ``loose`` raises ``error``."""
    s = frozenset(sentence_set)
    if not s <= abaf.atoms:
        raise ValueError("splitting set must contain known atoms")
    missing = atom_closure(abaf, s) - s
    if missing:
        raise NotAtomClosed(abaf.names[min(missing)])
    allowed = s | loose
    r1, r2 = [], []
    for r in abaf.rules:
        if r.head not in s:
            r2.append(r)
        elif r.body <= allowed:
            r1.append(r)
        else:
            raise error(r, abaf.names)
    return s, tuple(r1), tuple(r2)


def make_splitting(abaf: Abaf, sentence_set: Iterable[int]) -> AbaSplitting:
    s, r1, r2 = _cut(abaf, sentence_set, frozenset(), HeadInBodyOut)
    a1 = s & abaf.assumptions
    a2 = abaf.assumptions - s
    bottom = Abaf(abaf.names, r1, a1, {a: abaf.contrary[a] for a in a1})
    return AbaSplitting(abaf, s, bottom, r1, r2, a1, a2)


def undecided_theory(d1: Abaf, e: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Undecided assumptions of the bottom, and every sentence they reach.

    A sentence is undecided when some derivation of it has a leaf set that
    touches an undecided assumption and contains no defeated one.  The leaf
    sets here are the exact ones of derivation trees, not the minimal
    supports: a tree may force extra assumptions in, and those decide
    membership.  ``tainted`` decides this over whole trees, so no leaf set is
    listed.  The allowed leaves are the undefeated assumptions, not ``e``
    with the undecided ones: the two agree only when ``e`` is conflict-free.
    """
    e = frozenset(e)
    live = _undefeated(d1, theory_closure(d1, e))
    ua = live - e
    return ua, tainted(d1, live, ua)


def _undefeated(d1: Abaf, th: frozenset[int]) -> frozenset[int]:
    """The assumptions of ``d1`` whose contraries ``th`` does not hold."""
    return frozenset(a for a in d1.assumptions if d1.contrary[a] not in th)


def split_solve(
    abaf: Abaf,
    sentence_set: Iterable[int],
    semantics: Semantics,
    guard: Optional[int] = None,
    sub_solver: Optional[SubSolver[Abaf]] = None,
) -> tuple[frozenset[int], ...]:
    return make_splitting(abaf, sentence_set).solve(semantics, guard, sub_solver)


# -- parametrised (quasi) splitting ------------------------------------------


@dataclass(eq=False)
class QuasiSplitting(AbaSplitting):
    """A quasi-splitting of ``base`` by ``s``: a splitting of its expanded bottom.

    ``bottom`` is the expanded bottom: the rules headed in S, their bodies cut
    to S, the vulnerabilities and their contraries, and for each vulnerability
    ``b`` with marker ``b'`` (``marker_of[b]``) the rules ``contrary(b) <- b'``
    and ``c_b' <- b``.  ``a1`` holds its assumptions: those of S, the
    vulnerabilities and their markers.  The top table ends with the rules
    that enforce the bottom's guess, ``b <-`` picked when ``b`` is derived and
    ``contrary(b) <- b`` when ``b'`` is.  The reduct still takes only S out
    of top bodies: a guessed contrary stays in them, to be derived up top for
    real, so that a circular top rule cannot confirm its own guess.  A stable
    bottom extension leaves no assumption undecided, so its modification is
    the reduct with the enforcing rules; the route is exact for stable
    semantics only.
    """

    vulnerabilities: frozenset[int]
    marker_of: dict[int, int]

    @property
    def k(self) -> int:
        return len(self.vulnerabilities)

    def _enforcing(self) -> list[tuple[int, Rule]]:
        vulnerable = sorted(self.vulnerabilities)
        facts = [(1 << b, Rule(b, frozenset())) for b in vulnerable]
        loops = [(1 << self.marker_of[b], Rule(self.base.contrary[b], frozenset({b})))
                 for b in vulnerable]
        return facts + loops

    def solve(
        self,
        semantics: Semantics = Semantics.STB,
        guard: Optional[int] = None,
        sub_solver: Optional[SubSolver[Abaf]] = None,
    ) -> tuple[frozenset[int], ...]:
        """Stable extensions of the base framework, via the quasi-splitting;
        the route covers no other semantics."""
        if semantics is not Semantics.STB:
            raise UnsupportedSemantics(f"quasi-splitting covers stb only, not {semantics.value}")
        return self._union(semantics, guard, sub_solver)

    def witness_bottom(self, extension: Iterable[int]) -> frozenset[int]:
        """Bottom choice recovering a stable extension of the base framework:
        keep its bottom assumptions and mark every rejected vulnerability."""
        ext = frozenset(extension)
        markers = frozenset(self.marker_of[b] for b in self.vulnerabilities - ext)
        return (ext & self.a1) | markers


def derivable_atoms(abaf: Abaf) -> frozenset[int]:
    """The atoms that some assumption set may derive, bodies unread: the
    heads of rules, and the assumptions, each derived by itself."""
    return abaf.assumptions.union(r.head for r in abaf.rules)


def vulnerabilities(
    abaf: Abaf, s: frozenset[int], derivable: frozenset[int]
) -> Optional[frozenset[int]]:
    """The vulnerabilities of ``s``, or None if ``s`` is no quasi-splitting set.

    A vulnerability is an assumption outside ``s`` in the body of a rule
    headed in ``s`` whose contrary is derivable: a rule heads it or it is an
    assumption.  ``derivable`` holds those atoms, ``derivable_atoms(abaf)``.
    For an atom-closed ``s`` the contrary lies outside ``s``, so a rule
    heading it is a top rule.  A non-assumption body atom outside ``s`` of
    such a rule makes ``s`` invalid.
    """
    vulnerable: set[int] = set()
    for r in abaf.rules:
        if r.head not in s:
            continue
        for b in r.body:
            if b in s:
                continue
            if b not in abaf.assumptions:
                return None
            if abaf.contrary[b] in derivable:
                vulnerable.add(b)
    return frozenset(vulnerable)


def make_quasi_splitting(abaf: Abaf, sentence_set: Iterable[int]) -> QuasiSplitting:
    """The quasi-splitting of ``abaf`` by ``sentence_set``, kept in the
    framework's cache, so the finder's pick is built once for its solve."""
    key = ("quasi", frozenset(sentence_set))
    if key in abaf._cache:
        return abaf._cache[key]
    s, r1, r2 = _cut(abaf, key[1], abaf.assumptions, NonAssumptionBodyOut)
    vulnerable = vulnerabilities(abaf, s, derivable_atoms(abaf))
    # an assumption outside S that is no vulnerability is never attacked
    l1 = s | vulnerable | frozenset(abaf.contrary[b] for b in vulnerable)
    rules = [Rule(r.head, r.body & l1) for r in r1]
    contrary = {a: abaf.contrary[a] for a in (s & abaf.assumptions) | vulnerable}
    names = list(abaf.names)
    taken = set(names)
    marker_of: dict[int, int] = {}
    for b in sorted(vulnerable):
        marker = marker_of[b] = len(names)
        names.append(fresh_name(taken, f"{abaf.names[b]}'"))
        names.append(fresh_name(taken, f"c_{names[marker]}"))
        contrary[marker] = marker + 1
        rules += [Rule(abaf.contrary[b], frozenset({marker})), Rule(marker + 1, frozenset({b}))]
    a1 = frozenset(contrary)
    bottom = Abaf(tuple(names), tuple(rules), a1, contrary)
    q = QuasiSplitting(abaf, s, bottom, r1, r2, a1, abaf.assumptions - s, vulnerable, marker_of)
    abaf._cache[key] = q
    return q


def param_split_solve(
    abaf: Abaf,
    sentence_set: Iterable[int],
    guard: Optional[int] = None,
    sub_solver: Optional[SubSolver[Abaf]] = None,
) -> tuple[frozenset[int], ...]:
    return make_quasi_splitting(abaf, sentence_set).solve(Semantics.STB, guard, sub_solver)
