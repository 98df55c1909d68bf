"""Line-based file formats and text emission.

ABA format (UTF-8, ``#`` starts a comment):

    p aba <n>          header; atoms are the ids 1..n
    a <i>              declares atom i as an assumption
    c <i> <j>          sets the contrary of assumption i to atom j
    r <h> <b1>..<bk>   declares a rule (k >= 0)
    # name <i> <text>  optional display name for atom i

SETAF format:

    p setaf <n>
    e <h> <t1>..<tk>   attack ({t1..tk}, h), k >= 1
    # name <i> <text>

Unnamed atoms display as their 1-based id, so output stays diffable.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from splitkit.aba import Abaf, Rule, strip_dummy_rules
from splitkit.errors import ParseError, ValidationError
from splitkit.semantics import Family, canonical_sets
from splitkit.setaf import Setaf


def _tokens(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "#":
            if len(parts) >= 3 and parts[1] == "name":
                yield line_no, ["#name", parts[2], " ".join(parts[3:])]
            continue
        if parts[0].startswith("#"):
            continue
        yield line_no, parts


def _parse_id(line_no: int, token: str, n: int) -> int:
    try:
        i = int(token)
    except ValueError:
        raise ParseError(line_no, f"expected an atom id, got {token!r}") from None
    if not 1 <= i <= n:
        raise ParseError(line_no, f"atom id {i} out of range 1..{n}")
    return i - 1


def _read_framework(text: str, kind: str) -> tuple[int, list[str], list[tuple[int, list[str]]]]:
    """The size from the ``p <kind> <n>`` header, the display names, and the
    remaining directives with their line numbers.

    The final names must be distinct, default names included; a clash is
    reported on the later of the ``# name`` lines that made it.
    """
    n = None
    names: list[str] = []
    named_on: dict[int, int] = {}  # atom -> line of its last ``# name``
    directives = []
    for line_no, parts in _tokens(text):
        if parts[0] == "p":
            if n is not None:
                raise ParseError(line_no, "duplicate header")
            if len(parts) != 3 or parts[1] != kind or not parts[2].isdecimal():
                raise ParseError(line_no, f"expected header 'p {kind} <n>' with n >= 0")
            n = int(parts[2])
            names = [str(i + 1) for i in range(n)]
        elif n is None:
            raise ParseError(line_no, f"missing 'p {kind} <n>' header")
        elif parts[0] == "#name":
            idx = _parse_id(line_no, parts[1], n)
            if not parts[2]:
                raise ParseError(line_no, "empty display name")
            names[idx] = parts[2]
            named_on[idx] = line_no
        else:
            directives.append((line_no, parts))
    if n is None:
        raise ParseError(1, f"missing 'p {kind} <n>' header")
    seen: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in seen:  # default names are distinct, so one of the two was named
            first, later = sorted((seen[name], i), key=lambda k: named_on.get(k, 0))
            raise ParseError(named_on[later],
                             f"display name {name!r} of atom {later + 1} is already atom {first + 1}'s")
        seen[name] = i
    return n, names, directives


def parse_aba(text: str, strict_dummy: bool = False) -> Abaf:
    n, names, directives = _read_framework(text, "aba")
    assumptions: set[int] = set()
    contrary: dict[int, int] = {}
    rules: list[Rule] = []
    for line_no, parts in directives:
        if parts[0] == "a":
            if len(parts) != 2:
                raise ParseError(line_no, "expected 'a <i>'")
            assumptions.add(_parse_id(line_no, parts[1], n))
        elif parts[0] == "c":
            if len(parts) != 3:
                raise ParseError(line_no, "expected 'c <i> <j>'")
            i = _parse_id(line_no, parts[1], n)
            if i in contrary:
                raise ParseError(line_no, f"contrary of atom {i + 1} redeclared")
            contrary[i] = _parse_id(line_no, parts[2], n)
        elif parts[0] == "r":
            if len(parts) < 2:
                raise ParseError(line_no, "expected 'r <head> <body...>'")
            head = _parse_id(line_no, parts[1], n)
            body = frozenset(_parse_id(line_no, t, n) for t in parts[2:])
            rules.append(Rule(head, body))
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    missing = assumptions - set(contrary)
    if missing:
        raise ValidationError(
            f"assumption {min(missing) + 1} has no declared contrary"
        )
    stray = set(contrary) - assumptions
    if stray:
        raise ValidationError(
            f"contrary declared for non-assumption atom {min(stray) + 1}"
        )
    abaf = Abaf(tuple(names), tuple(rules), frozenset(assumptions), contrary)
    abaf, dummies = strip_dummy_rules(abaf)
    if dummies:
        listing = "; ".join(
            f"{abaf.names[r.head]} <- {','.join(sorted(abaf.names[b] for b in r.body))}"
            for r in dummies
        )
        if strict_dummy:
            raise ValidationError(f"dummy rules present: {listing}")
        warnings.warn(f"stripped dummy rules: {listing}", stacklevel=2)
    return abaf


def parse_setaf(text: str) -> Setaf:
    n, names, directives = _read_framework(text, "setaf")
    attacks: list[tuple[frozenset[int], int]] = []
    for line_no, parts in directives:
        if parts[0] == "e":
            if len(parts) < 3:
                raise ParseError(line_no, "attack needs a head and a nonempty tail")
            head = _parse_id(line_no, parts[1], n)
            tail = frozenset(_parse_id(line_no, t, n) for t in parts[2:])
            attacks.append((tail, head))
        else:
            raise ParseError(line_no, f"unknown directive {parts[0]!r}")
    return Setaf(tuple(names), tuple(attacks))


def emit_aba(abaf: Abaf) -> str:
    lines = [f"p aba {abaf.n_atoms}"]
    for i, name in enumerate(abaf.names):
        if name != str(i + 1):
            lines.append(f"# name {i + 1} {name}")
    for a in sorted(abaf.assumptions):
        lines.append(f"a {a + 1}")
    for a in sorted(abaf.assumptions):
        lines.append(f"c {a + 1} {abaf.contrary[a] + 1}")
    for r in abaf.rules:
        body = " ".join(str(b + 1) for b in sorted(r.body))
        lines.append(f"r {r.head + 1} {body}".rstrip())
    return "\n".join(lines) + "\n"


def emit_setaf(sf: Setaf) -> str:
    lines = [f"p setaf {sf.n_args}"]
    for i, name in enumerate(sf.names):
        if name != str(i + 1):
            lines.append(f"# name {i + 1} {name}")
    for tail, head in sf.attacks:
        lines.append(f"e {head + 1} " + " ".join(str(t + 1) for t in sorted(tail)))
    return "\n".join(lines) + "\n"


def format_extensions(extensions: Iterable[frozenset[int]], names: tuple[str, ...]) -> str:
    """One ``E <member names>`` line per extension, in canonical order, or
    ``NO``.  A ``Family`` is printed from the member lists its canonical
    sort kept; anything else is put in canonical order first."""
    if not isinstance(extensions, Family):
        extensions = canonical_sets(extensions)
    if not extensions:
        return "NO\n"
    return "".join(("E " + " ".join([names[a] for a in key])).rstrip() + "\n"
                   for key in extensions.members)


def parse_atom_set(text: str, n: int) -> frozenset[int]:
    """One atom id in 1..n per line; comments and blanks are ignored."""
    out = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        out.add(_parse_id(line_no, line, n))
    return frozenset(out)
