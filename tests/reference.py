"""Earlier forms of program code, kept as the references that their
replacements must match.

The support-based ABA sweep (``support_extensions``) is the oracle as it
was before the sweep ran on the rules: attack lists read off
``minimal_supports``, swept by ``compute_families``.

The split-set finders are those before ``graphs.balanced_prefix``, which
the one-pass finders must match set for set.

Each finder condensed a ``Digraph`` of the framework (``graphs.condense``),
listed the prefixes of five keyed Kahn orders of the condensation
(``prefix_ideals``), picked the best balanced of them (``most_balanced``)
and validated it by building the splitting (``make_splitting``).  The quasi
finder's k = 0 chain candidate came from the same two steps on the group
graph; ``quasi_flow`` is that candidate pool, the rest unchanged.

The parser (``parse_aba``, ``parse_setaf``) is the one before ``io._read``:
a token pass, a pass for the header and the display names, then one over
the directives, each id through ``_parse_id``.  ``theory_closure`` is the
closure before the counting one: it rescans every rule until nothing
changes.
"""

import warnings
from dataclasses import replace
from heapq import heapify, heappop, heappush

from splitkit.aba import Abaf, Rule, minimal_supports, require_flat, strip_dummy_rules
from splitkit.errors import DegenerateSplit, InvalidBalance, ParseError, ValidationError
from splitkit.graphs import Digraph, balls, condense, flow_network, max_flow
from splitkit.semantics import Semantics, canonical_sets, compute_families, unmask
from splitkit.setaf import Setaf, primal_graph
from splitkit.split_aba import make_splitting, vulnerabilities
from splitkit.split_setaf import make_splitting as make_setaf_splitting


def support_extensions(abaf, semantics) -> tuple[frozenset[int], ...]:
    """``aba.enumerate_extensions`` from the support table: each contrary's
    minimal supports, moved to assumption positions, are the attack list,
    and on a non-flat framework each assumption's supports are the
    derivations that closed-set stable checks."""
    require_flat(abaf, semantics)
    order = sorted(abaf.assumptions)
    position = {a: i for i, a in enumerate(order)}

    def packed(mask: int) -> int:
        return sum(1 << position[a] for a in range(mask.bit_length()) if mask >> a & 1)

    sup = minimal_supports(abaf)
    attacks = [(packed(t), i) for i, a in enumerate(order) for t in sup[abaf.contrary[a]]]
    closure = []
    if semantics is Semantics.STB and not abaf.flat:
        closure = [(packed(t), i) for i, a in enumerate(order) for t in sup[a]]
    masks = compute_families(len(order), attacks, semantics, closure)
    return canonical_sets(unmask(m, order) for m in masks)


def dependency_graph(abaf) -> Digraph:
    edges = set()
    for r in abaf.rules:
        for b in r.body:
            edges.add((b, r.head))
    for a in abaf.assumptions:
        edges.add((a, abaf.contrary[a]))
        edges.add((abaf.contrary[a], a))
    return Digraph(abaf.n_atoms, frozenset(edges), abaf.names)


def prefix_ideals(cond, weight) -> list[int]:
    """The prefixes of five topological orders of the condensation, weighted
    by ``weight`` per SCC, each as a bitmask over the original vertices, the
    empty ideal first: Kahn from the sources taking the lowest id, the
    lightest and the heaviest ready SCC first, and the reverse of peeling the
    sinks lightest and heaviest first.  With equal weights only the lowest-id
    order runs, from both ends."""
    members = [sum(1 << v for v in c) for c in cond.sccs]
    n = len(members)
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for u, v in cond.dag_edges:
        succ[u].append(v)
        pred[v].append(u)
    keys = [range(n)]
    top = max(weight, default=0)
    if min(weight, default=0) < top:
        keys.append([w * n + v for v, w in enumerate(weight)])
        keys.append([(top - w) * n + v for v, w in enumerate(weight)])
    orders = [_kahn(succ, pred, key) for key in keys]
    orders += [_kahn(pred, succ, key)[::-1] for key in keys[-2:]]
    out = [0]
    for order in orders:
        chosen = 0
        for v in order:
            chosen |= members[v]
            out.append(chosen)
    return out


def _kahn(succ, pred, key) -> list[int]:
    n = len(succ)
    waiting = [len(p) for p in pred]
    ready = [key[v] for v in range(n) if not waiting[v]]
    heapify(ready)
    order = []
    while ready:
        v = heappop(ready) % n
        order.append(v)
        for w in succ[v]:
            waiting[w] -= 1
            if not waiting[w]:
                heappush(ready, key[w])
    return order


def most_balanced(ideals, total: int, target: float) -> frozenset[int]:
    """The nontrivial ideal of least ``abs(size - target * total)``, then
    least size, then lowest sorted tuple."""
    full = (1 << total) - 1
    masks = [m for m in ideals if m and m != full]
    if not masks:
        raise DegenerateSplit("only the trivial splittings exist")
    sizes = [m.bit_count() for m in masks]
    best = min(set(sizes), key=lambda k: (abs(k - target * total), k))
    tied = [m for k, m in zip(sizes, masks) if k == best]
    win = tied[0]
    for m in tied:
        if m & (m ^ win) & -(m ^ win):
            win = m
    return unmask(win, range(total))


def _chain_cut(fw, total, graph, validate, target):
    if not 0 <= target <= 1:
        raise InvalidBalance(f"balance target must be a number in [0, 1], got {target}")
    if total < 2:
        raise DegenerateSplit("only the trivial splittings exist")
    cond = condense(graph(fw))
    best = most_balanced(prefix_ideals(cond, [len(c) for c in cond.sccs]), total, target)
    validate(fw, best)
    return best


def find_balanced_splitting(abaf, target: float = 0.5) -> frozenset[int]:
    return _chain_cut(abaf, abaf.n_atoms, dependency_graph, make_splitting, target)


def find_setaf_splitting(sf, target: float = 0.5) -> frozenset[int]:
    return _chain_cut(sf, sf.n_args, primal_graph, make_setaf_splitting, target)


def quasi_flow(abaf, con, derivable, lo: float, hi: float):
    """``finder._quasi_flow`` with its k = 0 chain from ``prefix_ideals`` and
    ``most_balanced`` on the condensed group graph."""
    m = len(con.groups)
    charge_node = {}
    arcs = {}
    below = set()
    inf = abaf.n_atoms + 1
    for r in abaf.rules:
        gh = con.group_of[r.head]
        for b in r.body:
            gb = con.group_of[b]
            if gb == gh:
                continue
            if b not in abaf.assumptions:
                arcs[(gh, gb)] = inf
            else:
                if b not in charge_node:
                    charge_node[b] = m + len(charge_node)
                    arcs[(charge_node[b], gb)] = int(abaf.contrary[b] in derivable)
                arcs[(gh, charge_node[b])] = inf
            if b not in abaf.assumptions or abaf.contrary[b] in derivable:
                below.add((gb, gh))

    def adjacency(pairs):
        return Digraph(m, frozenset(pairs)).successors()

    def atoms(mask):
        return frozenset().union(*[g for gi, g in enumerate(con.groups) if mask >> gi & 1])

    rigid = {(u, v) for u, v in arcs if max(u, v) < m}
    down, rigid_down = adjacency((gh, gb) for gb, gh in below), adjacency(rigid)
    around = [balls(down, rigid_down, gs) for gs in range(m)]
    full = (1 << m) - 1
    reaches = {grown[-1] for grown in around} - {full}
    cond = condense(Digraph(m, frozenset(below)))
    members = tuple(frozenset().union(*[con.groups[g] for g in scc]) for scc in cond.sccs)
    chains = prefix_ideals(replace(cond, sccs=members), [len(c) for c in members])
    out = [(0, most_balanced(chains, abaf.n_atoms, (lo + hi) / 2))] if len(members) > 1 else []
    out += [(0, atoms(mask)) for mask in reaches]
    if any(lo * abaf.n_atoms <= len(s) <= hi * abaf.n_atoms for _, s in out):
        return out
    network = flow_network(m + len(charge_node), arcs)
    found = {
        sum(1 << g for g in max_flow(network, gs, gt)[1] if g < m)
        for gs, grown in enumerate(around) for gt in range(m)
        if grown[-1] >> gt & 1 and not grown[0] >> gt & 1
    }
    found.update(ball for grown in around for ball in grown)
    up, rigid_up = adjacency(below), adjacency((v, u) for u, v in rigid)
    found.update(full ^ ball for gs in range(m) for ball in balls(up, rigid_up, gs))
    sets = map(atoms, found - reaches - {0, full})
    return out + [(len(vulnerabilities(abaf, s, derivable)), s) for s in sets]


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


def _read_framework(text: str, kind: str):
    n = None
    names = []
    named_on = {}
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
    seen = {}
    for i, name in enumerate(names):
        if name in seen:
            first, later = sorted((seen[name], i), key=lambda k: named_on.get(k, 0))
            raise ParseError(named_on[later],
                             f"display name {name!r} of atom {later + 1} is already atom {first + 1}'s")
        seen[name] = i
    return n, names, directives


def parse_aba(text: str, strict_dummy: bool = False) -> Abaf:
    n, names, directives = _read_framework(text, "aba")
    assumptions = set()
    contrary = {}
    rules = []
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
        raise ValidationError(f"assumption {min(missing) + 1} has no declared contrary")
    stray = set(contrary) - assumptions
    if stray:
        raise ValidationError(f"contrary declared for non-assumption atom {min(stray) + 1}")
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
    attacks = []
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


def theory_closure(abaf, assumption_set, rules=None) -> frozenset[int]:
    """Forward-chaining fixpoint: everything derivable from the given assumptions."""
    s = frozenset(assumption_set)
    if not s <= abaf.assumptions:
        raise ValueError("theory_closure expects a set of assumptions")
    rs = abaf.rules if rules is None else tuple(rules)
    derived = set(s)
    changed = True
    while changed:
        changed = False
        for r in rs:
            if r.head not in derived and r.body <= derived:
                derived.add(r.head)
                changed = True
    return frozenset(derived)
