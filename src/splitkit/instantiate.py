"""Translations between ABA frameworks and SETAFs.

A flat ABA framework induces the SETAF whose arguments are the assumptions
and whose attacks are the derivations of contraries.  Only subset-minimal
derivation tails are emitted by default; supersets never change any
extension and the graph stays small.  The reverse translation models each
attack by one dedicated rule and is a right inverse up to dropping
redundant superset tails.
"""

from __future__ import annotations

from typing import Optional

from splitkit.aba import Abaf, Rule, all_supports, fresh_name, minimal_supports
from splitkit.errors import NonFlatError, ValidationError
from splitkit.setaf import Setaf


def aba_to_setaf(abaf: Abaf, all_tails: bool = False, guard: Optional[int] = None) -> Setaf:
    if not abaf.flat:
        raise NonFlatError("only flat frameworks instantiate to a SETAF")
    order = sorted(abaf.assumptions)
    arg_of = {1 << a: i for i, a in enumerate(order)}
    table = all_supports(abaf, guard=guard) if all_tails else minimal_supports(abaf)
    attacks = []
    for i, a in enumerate(order):
        for tail in table[abaf.contrary[a]]:
            if not tail:
                raise ValidationError(
                    f"contrary of {abaf.names[a]!r} is derivable from the empty "
                    "set; no SETAF with nonempty attack tails can express this"
                )
            args = []  # increasing, as the atom ids are
            while tail:
                low = tail & -tail
                args.append(arg_of[low])
                tail ^= low
            attacks.append((i, tuple(args)))
    attacks.sort()
    return Setaf(
        tuple(abaf.names[a] for a in order),
        tuple((frozenset(tail), head) for head, tail in attacks),
    )


def setaf_to_aba(sf: Setaf) -> Abaf:
    """One fresh contrary atom per argument, one rule per attack; always flat."""
    names = list(sf.names)
    taken = set(names)
    contrary: dict[int, int] = {}
    for i, base in enumerate(sf.names):
        contrary[i] = len(names)
        names.append(fresh_name(taken, f"c_{base}"))
    rules = tuple(Rule(contrary[h], frozenset(t)) for t, h in sf.attacks)
    return Abaf(tuple(names), rules, frozenset(range(sf.n_args)), contrary)
