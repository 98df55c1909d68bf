"""Argumentation frameworks with collective attacks (SETAFs).

Arguments are dense integer ids; an attack is a pair (tail, head) where the
tail is a nonempty argument set.  Plain AFs are the special case of all tails
having size one and take the same code paths.  Instances are immutable after
construction and operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from splitkit.errors import ValidationError
from splitkit.graphs import Digraph
from splitkit.semantics import (
    Semantics,
    bits,
    canonical_sets,
    check_guard,
    compute_families,
    to_mask,
)

Attack = tuple[frozenset[int], int]


@dataclass(eq=True)
class Setaf:
    names: tuple[str, ...]
    attacks: tuple[Attack, ...]

    args: frozenset[int] = field(init=False, compare=False, repr=False)
    _cache: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.names = tuple(self.names)
        n = len(self.names)
        seen: set[Attack] = set()
        deduped = []
        for tail, head in self.attacks:
            tail = frozenset(tail)
            if not tail:
                raise ValidationError("attack tails must be nonempty")
            if head < 0 or head >= n or any(t < 0 or t >= n for t in tail):
                raise ValidationError("attack mentions an argument id out of range")
            if (tail, head) not in seen:
                seen.add((tail, head))
                deduped.append((tail, head))
        self.attacks = tuple(deduped)
        self.args = frozenset(range(n))

    def __hash__(self) -> int:
        """Agrees with ``==``, so equal frameworks share a dict entry."""
        return hash((self.names, self.attacks))

    @property
    def n_args(self) -> int:
        return len(self.names)

    def arg_id(self, name: str) -> int:
        return self.names.index(name)

    def name_set(self, args: Iterable[int]) -> frozenset[str]:
        return frozenset(self.names[a] for a in args)

    def attacks_by_name(self) -> frozenset[tuple[frozenset[str], str]]:
        return frozenset((self.name_set(t), self.names[h]) for t, h in self.attacks)

    @classmethod
    def from_names(
        cls, args: Sequence[str], attacks: Sequence[tuple[Sequence[str], str]]
    ) -> "Setaf":
        index = {a: i for i, a in enumerate(args)}
        return cls(
            tuple(args),
            tuple((frozenset(index[t] for t in tail), index[head]) for tail, head in attacks),
        )


def normalized(sf: Setaf) -> Setaf:
    """Drop attacks whose tail is a superset of another tail on the same head."""
    kept = []
    for tail, head in sf.attacks:
        if any(
            h == head and t < tail for t, h in sf.attacks
        ):
            continue
        kept.append((tail, head))
    kept.sort(key=lambda a: (a[1], tuple(sorted(a[0]))))
    return Setaf(sf.names, tuple(kept))


def induced(
    sf: Setaf, args: Iterable[int], attacks: Iterable[Attack]
) -> tuple[Setaf, tuple[int, ...]]:
    """The attacks, which must lie inside ``args``, as a dense sub-framework of
    ``sf``, with the id order."""
    order = tuple(sorted(set(args)))
    remap = {a: i for i, a in enumerate(order)}
    dense = tuple((frozenset(map(remap.__getitem__, tail)), remap[head]) for tail, head in attacks)
    return Setaf(tuple(sf.names[a] for a in order), dense), order


def attacked_args(
    sf: Setaf, arg_set: Iterable[int], attack_filter: Optional[Sequence[Attack]] = None
) -> frozenset[int]:
    s = frozenset(arg_set)
    atts = sf.attacks if attack_filter is None else attack_filter
    return frozenset(h for t, h in atts if t <= s)


def attack_range(
    sf: Setaf, arg_set: Iterable[int], attack_filter: Optional[Sequence[Attack]] = None
) -> tuple[frozenset[int], frozenset[int]]:
    s = frozenset(arg_set)
    if not s <= sf.args:
        raise ValueError("attack_range expects a set of arguments")
    attacked = attacked_args(sf, s, attack_filter)
    return attacked, s | attacked


def enumerate_extensions(
    sf: Setaf, semantics: Semantics, guard: Optional[int] = None
) -> tuple[frozenset[int], ...]:
    """The family of one semantics, cached, as are the attacks' tail masks."""
    if semantics not in sf._cache:
        check_guard(sf.n_args, guard)
        if "tails" not in sf._cache:
            sf._cache["tails"] = [(to_mask(tail), head) for tail, head in sf.attacks]
        masks = compute_families(sf.n_args, sf._cache["tails"], semantics)
        sf._cache[semantics] = canonical_sets(map(bits, masks))
    return sf._cache[semantics]


def check_extension(sf: Setaf, arg_set: Iterable[int], semantics: Semantics,
                    guard: Optional[int] = None) -> bool:
    s = frozenset(arg_set)
    if not s <= sf.args:
        raise ValueError("extension candidates must contain known arguments")
    attacked = attacked_args(sf, s)
    cf = not attacked & s
    if semantics is Semantics.CF:
        return cf
    if semantics is Semantics.STB:
        return cf and s | attacked == sf.args
    if semantics in (Semantics.GRD, Semantics.PREF):
        return s in enumerate_extensions(sf, semantics, guard)
    if not cf:
        return False
    if not all(t & attacked for t, h in sf.attacks if h in s):
        return False
    if semantics is Semantics.ADM:
        return True
    if semantics is Semantics.COM:
        for a in sf.args - s:
            if all(t & attacked for t, h in sf.attacks if h == a):
                return False  # defended but excluded
        return True
    raise ValueError(f"unsupported semantics {semantics}")


def primal_graph(sf: Setaf) -> Digraph:
    """Directed graph with an edge from every tail member to the attack head."""
    edges = frozenset((t, h) for tail, h in sf.attacks for t in tail)
    return Digraph(sf.n_args, edges, sf.names)
