"""Assumption-based argumentation frameworks.

An ``Abaf`` bundles a deductive system (atoms plus rules) with a distinguished
assumption set and a total contrary map.  Atoms are dense integer ids with
display names; subsets of assumptions are plain ``frozenset[int]``, except
inside the support tables, whose sets are int masks over atom ids.

Everything here is immutable after construction and every operation is a pure
function of its inputs, so frameworks can be shared freely across workers.
The brute-force enumerator is the reference oracle for the split solvers; it
is deliberately exhaustive and protected by the enumeration guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from splitkit.errors import NonFlatError, NotAtomClosed, ValidationError
from splitkit.semantics import (
    DEFENDING, Semantics, bits, canonical_sets, check_guard, compute_families, item_columns,
    select_masks, to_mask, unmask,
)

MAX_SUPPORTS_PER_ATOM = 200_000


@dataclass(frozen=True)
class Rule:
    """A rule ``head <- body``; an empty body makes the rule a fact."""

    head: int
    body: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "body", frozenset(self.body))
        # the value the generated hash would give, computed once: every top
        # hashes its rules again
        object.__setattr__(self, "_hash", hash((self.head, self.body)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(eq=True)
class Abaf:
    names: tuple[str, ...]
    rules: tuple[Rule, ...]
    assumptions: frozenset[int]
    contrary: dict[int, int]  # assumption -> contrary atom, total on assumptions

    flat: bool = field(init=False, compare=False, repr=False, default=True)
    _cache: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        names = self.names = tuple(self.names)
        n = len(names)
        if not all(names):
            raise ValidationError("atom names must be nonempty")
        assumptions = self.assumptions = frozenset(self.assumptions)
        if assumptions and (min(assumptions) < 0 or max(assumptions) >= n):
            raise ValidationError("assumption id out of range")
        contrary = self.contrary = dict(self.contrary)
        if contrary.keys() != assumptions:
            raise ValidationError("contrary map must be total on assumptions and nothing else")
        if contrary and (min(contrary.values()) < 0 or max(contrary.values()) >= n):
            raise ValidationError("contrary id out of range")
        # dict.fromkeys drops repeated rules and keeps the first of each in order
        rules = self.rules = tuple(dict.fromkeys(
            r if isinstance(r, Rule) else Rule(*r) for r in self.rules
        ))
        heads = [r.head for r in rules]
        mentioned = heads + [b for r in rules for b in r.body]
        if mentioned and (min(mentioned) < 0 or max(mentioned) >= n):
            raise ValidationError("rule mentions an atom id out of range")
        self.flat = assumptions.isdisjoint(heads)

    def __hash__(self) -> int:
        """Agrees with ``==``, so equal frameworks share a dict entry."""
        return hash((self.names, self.rules, self.assumptions, frozenset(self.contrary.items())))

    # -- small conveniences -------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return len(self.names)

    @property
    def atoms(self) -> frozenset[int]:
        return frozenset(range(len(self.names)))

    def atom_id(self, name: str) -> int:
        return self.names.index(name)

    def name_set(self, atoms: Iterable[int]) -> frozenset[str]:
        return frozenset(self.names[a] for a in atoms)

    def rule_names(self, rule: Rule) -> tuple[str, frozenset[str]]:
        return self.names[rule.head], self.name_set(rule.body)

    def rules_by_name(self) -> frozenset[tuple[str, frozenset[str]]]:
        return frozenset(self.rule_names(r) for r in self.rules)

    def is_loop_rule(self, rule: Rule) -> bool:
        return any(
            b in self.assumptions and self.contrary[b] == rule.head for b in rule.body
        )

    @classmethod
    def from_names(
        cls,
        assumptions: Mapping[str, str],
        rules: Sequence[tuple[str, Sequence[str]]],
        extra_atoms: Sequence[str] = (),
    ) -> "Abaf":
        """Build a framework from display names; ids follow first mention."""
        names: list[str] = []
        index: dict[str, int] = {}

        def intern(name: str) -> int:
            if name not in index:
                index[name] = len(names)
                names.append(name)
            return index[name]

        assumption_ids = {intern(a) for a in assumptions}
        contrary = {index[a]: intern(c) for a, c in assumptions.items()}
        for extra in extra_atoms:
            intern(extra)
        rule_objs = [
            Rule(intern(head), frozenset(intern(b) for b in body))
            for head, body in rules
        ]
        return cls(tuple(names), tuple(rule_objs), frozenset(assumption_ids), contrary)


def fresh_name(taken: set[str], base: str) -> str:
    """``base``, or ``base`` with the first suffix 2, 3, ... not in ``taken``; the
    name is added to ``taken``."""
    name = base
    k = 2
    while name in taken:
        name = f"{base}{k}"
        k += 1
    taken.add(name)
    return name


@dataclass(frozen=True)
class ValidationReport:
    flat: bool
    non_flat_rules: tuple[Rule, ...]
    dummy_rules: tuple[Rule, ...]

    @property
    def ok(self) -> bool:
        return self.flat and not self.dummy_rules


def validate(abaf: Abaf) -> ValidationReport:
    """Diagnose flatness and dummy rules (bodies never derivable)."""
    non_flat = tuple(r for r in abaf.rules if r.head in abaf.assumptions)
    everything = theory_closure(abaf, abaf.assumptions)
    dummies = tuple(r for r in abaf.rules if not r.body <= everything)
    return ValidationReport(flat=not non_flat, non_flat_rules=non_flat, dummy_rules=dummies)


def strip_dummy_rules(abaf: Abaf) -> tuple[Abaf, tuple[Rule, ...]]:
    dummies = validate(abaf).dummy_rules
    if not dummies:
        return abaf, ()
    dropped = set(dummies)
    kept = tuple(r for r in abaf.rules if r not in dropped)
    return Abaf(abaf.names, kept, abaf.assumptions, dict(abaf.contrary)), dummies


# -- atom closure -----------------------------------------------------------


def atom_closure(abaf: Abaf, atoms: Iterable[int]) -> frozenset[int]:
    """Least superset closed under assumption/contrary pairing (both ways)."""
    closed = set(atoms)
    changed = True
    while changed:
        changed = False
        for a in list(closed):
            if a in abaf.assumptions and abaf.contrary[a] not in closed:
                closed.add(abaf.contrary[a])
                changed = True
        for a, c in abaf.contrary.items():
            if c in closed and a not in closed:
                closed.add(a)
                changed = True
    return frozenset(closed)


def is_atom_closed(abaf: Abaf, atoms: Iterable[int]) -> bool:
    s = frozenset(atoms)
    return atom_closure(abaf, s) == s


# -- derivations ------------------------------------------------------------


def theory_closure(
    abaf: Abaf, assumption_set: Iterable[int], rules: Optional[Sequence[Rule]] = None
) -> frozenset[int]:
    """Everything derivable from the given assumptions, by the counting Horn
    closure of Dowling and Gallier (1984): each rule counts its body atoms
    not yet derived, and a derived atom counts down the rules waiting for
    it, so each body is read once."""
    s = frozenset(assumption_set)
    if not s <= abaf.assumptions:
        raise ValueError("theory_closure expects a set of assumptions")
    derived = set(s)
    heads: list[int] = []
    missing: list[int] = []  # per rule, its body atoms not yet derived
    waiting: dict[int, list[int]] = {}  # atom -> the rules missing it
    ready = []
    for r in abaf.rules if rules is None else rules:
        count = 0
        for b in r.body:
            if b not in derived:
                count += 1
                waiting.setdefault(b, []).append(len(heads))
        if not count:
            ready.append(r.head)
        heads.append(r.head)
        missing.append(count)
    while ready:
        atom = ready.pop()
        if atom in derived:
            continue
        derived.add(atom)
        for i in waiting.get(atom, ()):
            missing[i] -= 1
            if not missing[i]:
                ready.append(heads[i])
    return frozenset(derived)


def _users(abaf: Abaf) -> list[list[int]]:
    """Per atom, the indexes of the rules whose body holds it."""
    users: list[list[int]] = [[] for _ in range(abaf.n_atoms)]
    for i, r in enumerate(abaf.rules):
        for b in r.body:
            users[b].append(i)
    return users


def _support_fixpoint(abaf: Abaf, minimal: bool) -> dict[int, tuple[int, ...]]:
    """Per-atom deriving assumption sets as masks over atom ids (bit a is
    assumption a), each atom's in increasing order.

    With ``minimal`` the sets are kept subset-minimal; otherwise every exact
    leaf set of some derivation tree is recorded.  A rule is applied again
    only after one of its body atoms has gained a set.
    """
    sup: list[set[int]] = [set() for _ in range(abaf.n_atoms)]
    for a in abaf.assumptions:
        sup[a].add(1 << a)
    rules = abaf.rules
    users = _users(abaf)

    def add(atom: int, mask: int) -> bool:
        bucket = sup[atom]
        if mask in bucket:
            return False
        if minimal:
            if any(m & mask == m for m in bucket):
                return False
            bucket.difference_update({m for m in bucket if m & mask == mask})
        bucket.add(mask)
        if len(bucket) > MAX_SUPPORTS_PER_ATOM:
            raise ValidationError("support table exceeds the safety cap")
        return True

    pending: Iterable[int] = range(len(rules))
    while pending:
        grown = set()
        for i in pending:
            r = rules[i]
            unions = {0}
            for b in r.body:
                unions = {u | m for u in unions for m in sup[b]}
            for mask in unions:
                if add(r.head, mask):
                    grown.add(r.head)
        pending = sorted({i for atom in grown for i in users[atom]})
    return {atom: tuple(sorted(masks)) for atom, masks in enumerate(sup)}


def minimal_supports(abaf: Abaf) -> dict[int, tuple[int, ...]]:
    """For every atom, its subset-minimal deriving assumption sets, cached.

    Each set is a mask over atom ids (bit a is assumption a), and an atom's
    masks come in increasing order; an underivable atom has none, and a
    fact has the empty mask 0.
    """
    if "minsup" not in abaf._cache:
        abaf._cache["minsup"] = _support_fixpoint(abaf, minimal=True)
    return abaf._cache["minsup"]


def all_supports(abaf: Abaf, guard: Optional[int] = None) -> dict[int, tuple[int, ...]]:
    """Every exact derivation leaf set, not just the minimal ones, as masks
    like those of ``minimal_supports``.

    Distinct from the minimal table: a tree may force extra assumptions into
    its leaf set, and the SETAF that lists every tail is built from those
    exact sets.  Yes/no questions about them (undecidedness, influence) are
    answered by ``tainted`` instead, without listing any set.
    """
    if "allsup" not in abaf._cache:
        check_guard(len(abaf.assumptions), guard)
        abaf._cache["allsup"] = _support_fixpoint(abaf, minimal=False)
    return abaf._cache["allsup"]


def tainted(abaf: Abaf, allowed: Iterable[int], seed: Iterable[int]) -> frozenset[int]:
    """Sentences with a derivation from ``allowed`` that has a leaf in ``seed``.

    The least set that holds ``seed`` and the head of every rule whose body
    is derivable from ``allowed`` and meets the set: a labelled Horn fixpoint
    in the style of Dowling and Gallier (1984).  It decides what the exact
    leaf sets of ``all_supports`` would, in polynomial time.
    """
    derivable = theory_closure(abaf, allowed)
    rules = [r for r in abaf.rules if r.body <= derivable]
    out = set(seed)
    changed = True
    while changed:
        changed = False
        for r in rules:
            if r.head not in out and not r.body.isdisjoint(out):
                out.add(r.head)
                changed = True
    return frozenset(out)


def attacked_assumptions(
    abaf: Abaf, assumption_set: Iterable[int], rules: Optional[Sequence[Rule]] = None
) -> frozenset[int]:
    th = theory_closure(abaf, assumption_set, rules)
    return frozenset(a for a in abaf.assumptions if abaf.contrary[a] in th)


def attack_range(
    abaf: Abaf, assumption_set: Iterable[int], rules: Optional[Sequence[Rule]] = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Assumptions attacked by the set, and the set united with them."""
    s = frozenset(assumption_set)
    if not s <= abaf.assumptions:
        raise ValueError("attack_range expects a set of assumptions")
    attacked = attacked_assumptions(abaf, s, rules)
    return attacked, s | attacked


# -- semantics --------------------------------------------------------------


def require_flat(abaf: Abaf, semantics: Semantics) -> None:
    """Only conflict-free and stable extensions are defined on non-flat frameworks."""
    if not abaf.flat and semantics not in (Semantics.CF, Semantics.STB):
        raise NonFlatError(f"{semantics.value} extensions are only supported on flat frameworks")


def enumerate_extensions(
    abaf: Abaf, semantics: Semantics, guard: Optional[int] = None
) -> tuple[frozenset[int], ...]:
    """The family of one semantics, as assumption sets in canonical order, cached.

    The sweep runs over the assumptions in increasing id order.  Grounded
    iterates the defence function on attacks read off ``minimal_supports``;
    the others test all 2^n subsets at once on the rules (``_closure_sweep``),
    with one column per derived atom and, for adm, com and prf, a second
    closure.  Only the returned family becomes sets.  On a non-flat
    framework a stable extension must also be closed: it holds every
    assumption it derives.
    """
    require_flat(abaf, semantics)
    if semantics not in abaf._cache:
        check_guard(len(abaf.assumptions), guard)
        order = sorted(abaf.assumptions)
        if semantics is Semantics.GRD:
            position = {a: i for i, a in enumerate(order)}
            sup = minimal_supports(abaf)
            attacks = [(to_mask(map(position.__getitem__, bits(t))), i)
                       for i, a in enumerate(order) for t in sup[abaf.contrary[a]]]
            masks = compute_families(len(order), attacks, semantics)
        else:
            masks = _closure_sweep(abaf, order, semantics)
        abaf._cache[semantics] = canonical_sets(unmask(m, order) for m in masks)
    return abaf._cache[semantics]


def _closure_sweep(abaf: Abaf, order: list[int], semantics: Semantics) -> list[int]:
    """``compute_families`` on the rules.  A subset attacks assumption a
    when it derives a's contrary, and defends a when the assumptions it
    leaves unattacked cannot: the closure seeded with the holds columns
    gives the attacked columns, and the complement closure seeded with
    those gives the defended ones.  ``select_masks`` does the rest."""
    users = _users(abaf)
    holds = item_columns(len(order))
    full = (1 << (1 << len(order))) - 1
    col = _closure_columns(abaf, users, zip(order, holds), full)
    attacked = [col[abaf.contrary[a]] for a in order]
    defended = None
    if semantics in DEFENDING:
        refuted = _closure_columns(abaf, users, zip(order, attacked), full, complement=True)
        defended = [refuted[abaf.contrary[a]] for a in order]
    derived = () if abaf.flat else ((col[a], i) for i, a in enumerate(order))
    return select_masks(semantics, holds, attacked, defended, derived)


def _closure_columns(
    abaf: Abaf,
    users: list[list[int]],
    seed: Iterable[tuple[int, int]],
    full: int,
    complement: bool = False,
) -> list[int]:
    """Per atom, the column of the subsets that derive it from the seed's
    (assumption, column) pairs: ``col[head] |= AND(col[b] for b in body)``
    until nothing grows, a rule applied again only after one of its body
    atoms (``users``) has grown: the Horn fixpoint of Dowling and Gallier
    (1984) on columns.  With ``complement`` each column is the
    complement, seeded with the subsets under which each assumption is not
    available, every other atom at ``full``, and ``col[head] &= OR(...)``:
    no column is ever negated.
    """
    col = [full if complement else 0] * abaf.n_atoms
    for a, c in seed:
        col[a] = c
    rules = abaf.rules
    pending: Iterable[int] = range(len(rules))
    while pending:
        moved = set()
        for i in pending:
            r = rules[i]
            if complement:
                c = 0
                for b in r.body:
                    c |= col[b]
                new = col[r.head] & c
            else:
                c = full
                for b in r.body:
                    c &= col[b]
                new = col[r.head] | c
            if new != col[r.head]:
                col[r.head] = new
                moved.add(r.head)
        pending = sorted({i for atom in moved for i in users[atom]})
    return col


def check_extension(
    abaf: Abaf,
    assumption_set: Iterable[int],
    semantics: Semantics,
    guard: Optional[int] = None,
) -> bool:
    """Exact per-definition decision for a single candidate set."""
    s = frozenset(assumption_set)
    if not s <= abaf.assumptions:
        raise ValueError("extension candidates must contain assumptions only")
    th = theory_closure(abaf, s)
    cf = not any(abaf.contrary[a] in th for a in s)
    if semantics is Semantics.CF:
        return cf
    if semantics is Semantics.STB:
        if not cf:
            return False
        attacked = frozenset(a for a in abaf.assumptions if abaf.contrary[a] in th)
        # closed as well: vacuous on a flat framework, where no rule heads an assumption
        return s | attacked == abaf.assumptions and th & abaf.assumptions <= s
    if semantics in (Semantics.GRD, Semantics.PREF):
        return s in enumerate_extensions(abaf, semantics, guard)
    # admissible / complete: an assumption is defended when the assumptions
    # the set leaves unattacked cannot derive its contrary
    require_flat(abaf, semantics)
    if not cf:
        return False
    attacked = frozenset(a for a in abaf.assumptions if abaf.contrary[a] in th)
    unrefuted = theory_closure(abaf, abaf.assumptions - attacked)

    def defends(a: int) -> bool:
        return abaf.contrary[a] not in unrefuted

    if not all(defends(a) for a in s):
        return False
    if semantics is Semantics.ADM:
        return True
    if semantics is Semantics.COM:
        return not any(defends(a) for a in abaf.assumptions - s)
    raise ValueError(f"unsupported semantics {semantics}")


# -- projection and influence ------------------------------------------------


def projection(abaf: Abaf, sentence_set: Iterable[int]) -> Abaf:
    """Induced sub-framework on an atom-closed sentence set."""
    s = frozenset(sentence_set)
    missing = atom_closure(abaf, s) - s
    if missing:
        raise NotAtomClosed(abaf.names[min(missing)])
    order = sorted(s)
    remap = {a: i for i, a in enumerate(order)}
    rules = tuple(
        Rule(remap[r.head], frozenset(remap[b] for b in r.body))
        for r in abaf.rules
        if r.head in s and r.body <= s
    )
    assumptions = frozenset(remap[a] for a in abaf.assumptions & s)
    contrary = {remap[a]: remap[abaf.contrary[a]] for a in abaf.assumptions & s}
    return Abaf(tuple(abaf.names[a] for a in order), rules, assumptions, contrary)


def is_uninfluenced(abaf: Abaf, u: Iterable[int]) -> bool:
    """True iff every derivation of a contrary of a member stays inside ``u``."""
    us = frozenset(u)
    if not us <= abaf.assumptions:
        raise ValueError("is_uninfluenced expects a set of assumptions")
    reached = tainted(abaf, abaf.assumptions, abaf.assumptions - us)
    return not any(abaf.contrary[b] in reached for b in us)
