"""Automatic discovery of splitting sets.

Splitting sets of an ABA framework are exactly the predecessor-closed vertex
sets of its dependency graph (rule edges body -> head, plus a symmetric pair
of edges between each assumption and its contrary), and likewise for SETAF
bottoms on the primal graph.  Condensing the strongly connected components
makes those sets the order ideals of a DAG.  Both finders take the graph as
successor lists straight from the rules or attacks, score by how evenly
they cut the framework only the prefixes of five topological orders of the
condensation picked by SCC size (``graphs.balanced_prefix``), one ideal per
SCC and order, so nothing is walked or truncated, and check the winner.
``splitting_sets`` and ``setaf_splitting_bottoms`` list every ideal, for
sweeps over small frameworks.

Quasi-splittings drop the requirement that assumption body atoms stay below
their rule heads.  Finding one with few vulnerabilities is a minimum-cut
problem on the pair-contracted dependency graph: crossing a vulnerable
assumption (one whose contrary a rule heads or is an assumption) costs one,
everything else is rigid or free.  The finder ranks one pool for every group
count, built in the order of the ranking: first sets with no vulnerability
at all, a balanced prefix chain and the reach of each group; then, only if
none of them fits the balance window, the minimal minimum cuts anchored on
pairs of groups and the balls around each group.  The pool holds atom
masks, and only the winner becomes a set.  It is not every set, so it can
miss the least k that the balance window allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from splitkit.aba import Abaf
from splitkit.errors import DegenerateSplit, HeadInBodyOut, InvalidBalance, InvalidSplit, NotAtomClosed
from splitkit.graphs import (
    Digraph, balanced_prefix, balls, condense, flow_network, max_flow, order_ideals, tarjan_scc,
)
from splitkit.semantics import bits, to_mask
from splitkit.setaf import Setaf, primal_graph
from splitkit.split_aba import QuasiSplitting, derivable_atoms, make_quasi_splitting, vulnerabilities


def _dependency_successors(abaf: Abaf) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in abaf.names]
    for r in abaf.rules:
        for b in r.body:
            succ[b].append(r.head)
    for a, c in abaf.contrary.items():
        succ[a].append(c)
        succ[c].append(a)
    return succ


def dependency_graph(abaf: Abaf) -> Digraph:
    edges = frozenset((u, v) for u, vs in enumerate(_dependency_successors(abaf)) for v in vs)
    return Digraph(abaf.n_atoms, edges, abaf.names)


def _candidates(masks: list[int], total: int, nontrivial: bool) -> list[frozenset[int]]:
    if nontrivial:
        masks = [m for m in masks if m and m != (1 << total) - 1]
    return sorted(map(bits, masks), key=lambda s: (len(s), tuple(sorted(s))))


def splitting_sets(abaf: Abaf, nontrivial: bool = False) -> list[frozenset[int]]:
    """Every splitting set; for small frameworks only, since the ideals can
    number 2^n."""
    return _candidates(order_ideals(condense(dependency_graph(abaf))), abaf.n_atoms, nontrivial)


def setaf_splitting_bottoms(sf: Setaf, nontrivial: bool = False) -> list[frozenset[int]]:
    """Every splitting bottom; for small SETAFs only, like ``splitting_sets``."""
    return _candidates(order_ideals(condense(primal_graph(sf))), sf.n_args, nontrivial)


def _score(size: int, total: int, target: float) -> float:
    return abs(size - target * total)


def _check_target(target: float) -> None:
    if not 0 <= target <= 1:  # NaN fails every comparison
        raise InvalidBalance(f"balance target must be a number in [0, 1], got {target}")


def balanced_candidates(abaf: Abaf, target: float = 0.5) -> list[frozenset[int]]:
    """Nontrivial candidate splitting sets, best balanced first."""
    _check_target(target)
    return sorted(splitting_sets(abaf, nontrivial=True),
                  key=lambda s: (_score(len(s), abaf.n_atoms, target), len(s), tuple(sorted(s))))


def _best_prefix(succ: list[list[int]], target: float) -> frozenset[int]:
    """``balanced_prefix`` with a bit per vertex, ranked as ``balanced_candidates`` ranks sets."""
    _check_target(target)
    n = len(succ)
    best = balanced_prefix(succ, [1 << v for v in range(n)], target * n) if n > 1 else 0
    if not best:
        raise DegenerateSplit("only the trivial splittings exist")
    return bits(best)


def find_balanced_splitting(abaf: Abaf, target: float = 0.5) -> frozenset[int]:
    s = _best_prefix(_dependency_successors(abaf), target)
    for a, c in abaf.contrary.items():  # never trust the construction unchecked
        if (a in s) != (c in s):
            raise NotAtomClosed(abaf.names[c if a in s else a])
    for r in abaf.rules:
        if r.head in s and not r.body <= s:
            raise HeadInBodyOut(r, abaf.names)
    return s


def find_setaf_splitting(sf: Setaf, target: float = 0.5) -> frozenset[int]:
    succ: list[list[int]] = [[] for _ in sf.names]
    for tail, head in sf.attacks:
        for t in tail:
            succ[t].append(head)
    a1 = _best_prefix(succ, target)
    for attack in sf.attacks:  # never trust the construction unchecked
        if attack[1] in a1 and not attack[0] <= a1:
            raise InvalidSplit(attack, sf.names)
    return a1


# -- quasi-splitting discovery ------------------------------------------------


@dataclass(frozen=True)
class _Contracted:
    groups: tuple[frozenset[int], ...]
    group_of: tuple[int, ...]


def pair_contracted(abaf: Abaf) -> _Contracted:
    """Contract each assumption with its contrary (contraries may be shared)."""
    parent = list(range(abaf.n_atoms))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in abaf.assumptions:
        ra, rc = find(a), find(abaf.contrary[a])
        if ra != rc:
            parent[ra] = rc
    buckets: dict[int, set[int]] = {}
    for atom in range(abaf.n_atoms):
        buckets.setdefault(find(atom), set()).add(atom)
    groups = tuple(frozenset(g) for g in sorted(buckets.values(), key=min))
    group_of = [0] * abaf.n_atoms
    for gi, group in enumerate(groups):
        for atom in group:
            group_of[atom] = gi
    return _Contracted(groups, tuple(group_of))


QUASI_WINDOW = (0.25, 0.75)  # the default balance window in shares of the atoms, CLI's too


def find_quasi_splitting(
    abaf: Abaf, lo: float = QUASI_WINDOW[0], hi: float = QUASI_WINDOW[1]
) -> QuasiSplitting:
    """A quasi-splitting with as few vulnerabilities as the balance window allows.

    The candidates are the unions of contracted groups that ``_quasi_flow``
    finds, whatever the number of groups.  They are not every union, so the
    least k in the window can be missed.  Trivial sets are never returned;
    if no candidate lies in the window, the best nontrivial one is used.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise InvalidBalance(f"balance window must be finite with lo <= hi, got [{lo}, {hi}]")
    con = pair_contracted(abaf)
    if len(con.groups) <= 1:
        raise DegenerateSplit("framework contracts to a single group")
    candidates = _quasi_flow(abaf, con, derivable_atoms(abaf), lo, hi)
    if not candidates:
        raise DegenerateSplit("no nontrivial quasi-splitting found")
    total = abaf.n_atoms
    in_window = [(k, s) for k, s in candidates if lo * total <= s.bit_count() <= hi * total]
    return make_quasi_splitting(abaf, bits(_ranked(in_window or candidates, total, (lo + hi) / 2)))


def _ranked(pool: list[tuple[int, int]], total: int, target: float) -> int:
    """The atom mask of least (k, score, size), then the one holding the
    lowest bit where two differ: for equal sizes, the lower sorted tuple."""
    best, win = None, 0
    for k, mask in pool:
        size = mask.bit_count()
        key = (k, _score(size, total, target), size)
        if best is None or key < best or key == best and mask & (mask ^ win) & -(mask ^ win):
            best, win = key, mask
    return win


def _quasi_flow(
    abaf: Abaf, con: _Contracted, derivable: frozenset[int], lo: float, hi: float
) -> list[tuple[int, int]]:
    """Candidates as (k, atom mask), in the order of the ranking: sets with
    k = 0 and, only if none lies in the window ``[lo, hi]``, minimal minimum
    cuts and balls.

    The network has a node per contracted group and a charge node per body
    assumption outside its rule's head group.  A rule links its head group
    to each body group: a non-assumption body atom by a rigid arc (capacity
    ``inf``, never on a finite cut), an assumption through its charge node,
    whose arc onwards costs 1 if the contrary is in ``derivable`` (see
    ``split_aba.vulnerabilities``) and 0 if not.  Rigid links and links of
    cost 1 are the positive links.

    Stage 0 has k = 0 by construction, so nothing is counted, and it reads
    the positive links alone.  Turned round, they make a graph whose order
    ideals are exactly the sets with k = 0; of its prefix chains, with each
    group's atoms as its mask, the ranking can only choose the best
    balanced, which ``graphs.balanced_prefix`` finds.  Each group's reach
    over the positive links is closed under them: one pass over the SCCs of
    the group graph in Tarjan's order, which emits an SCC after every SCC it
    reaches, gives each SCC its own atoms ORed with the reaches of its
    successors.

    Only then is the network built.  Stage 1 runs ``max_flow``, on one
    residual network, from each group ``gs`` to each ``gt`` that ``gs``
    reaches, but not over rigid arcs alone (no cut is finite then).  The cut
    crosses a charge arc of capacity 1, so its side has k >= 1, counted by
    ``split_aba.vulnerabilities``, and cannot beat a stage-0 set in the
    window.  A cut's minimal side has the least k around ``gs``, which may
    miss the window: on a ring of groups it is one group or all but one.
    The ``graphs.balls`` around each group, and the complements of the balls
    over the links turned round, add the sets between.  The least k in the
    window is a balanced minimum cut, so the pool is not exhaustive and can
    miss it.
    """
    m = len(con.groups)
    group_of, assumptions, contrary = con.group_of, abaf.assumptions, abaf.contrary
    below: set[tuple[int, int]] = set()  # body group -> head group, positive
    for r in abaf.rules:
        gh = group_of[r.head]
        for b in r.body:
            gb = group_of[b]
            if gb != gh and (b not in assumptions or contrary[b] in derivable):
                below.add((gb, gh))

    def adjacency(pairs) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in range(m)]
        for u, v in pairs:
            succ[u].append(v)
        return succ

    down, up = adjacency((gh, gb) for gb, gh in below), adjacency(below)
    group_atoms = [to_mask(g) for g in con.groups]
    scc_of = [0] * m
    reach_groups: list[int] = []  # per SCC, as a group mask and as an atom mask
    reach_atoms: list[int] = []
    for c, comp in enumerate(tarjan_scc(m, down)):
        for g in comp:
            scc_of[g] = c
        groups = atoms = 0
        for g in comp:
            groups |= 1 << g
            atoms |= group_atoms[g]
            for w in down[g]:
                if scc_of[w] != c:
                    groups |= reach_groups[scc_of[w]]
                    atoms |= reach_atoms[scc_of[w]]
        reach_groups.append(groups)
        reach_atoms.append(atoms)
    full = (1 << m) - 1
    reaches = {reach_groups[c] for c in scc_of} - {full}  # in the order of the group masks
    # The set holds the very ints of reach_groups, so each finds its atom
    # mask by identity: the hashes of a chain's reaches, runs of bits, take
    # few values mod 2^61 - 1, so a lookup by value compares long ints.
    atoms_of = {id(g): a for g, a in zip(reach_groups, reach_atoms)}
    chain = balanced_prefix(up, group_atoms, (lo + hi) / 2 * abaf.n_atoms)
    out = [(0, chain)] if chain else []
    out += [(0, atoms_of[id(mask)]) for mask in reaches]
    if any(lo * abaf.n_atoms <= s.bit_count() <= hi * abaf.n_atoms for _, s in out):
        return out  # no set beats k = 0 in the window
    charge_node: dict[int, int] = {}
    arcs: dict[tuple[int, int], int] = {}
    inf = abaf.n_atoms + 1
    for r in abaf.rules:
        gh = group_of[r.head]
        for b in r.body:
            gb = group_of[b]
            if gb == gh:
                continue
            if b not in assumptions:
                arcs[(gh, gb)] = inf
            else:
                if b not in charge_node:
                    charge_node[b] = m + len(charge_node)
                    arcs[(charge_node[b], gb)] = int(contrary[b] in derivable)
                arcs[(gh, charge_node[b])] = inf
    rigid = {(u, v) for u, v in arcs if max(u, v) < m}  # the rigid arcs between groups
    rigid_down = adjacency(rigid)
    around = [balls(down, rigid_down, gs) for gs in range(m)]
    network = flow_network(m + len(charge_node), arcs)
    found = {  # charge nodes count for no group
        sum(1 << g for g in max_flow(network, gs, gt)[1] if g < m)
        for gs, grown in enumerate(around) for gt in range(m)
        if grown[-1] >> gt & 1 and not grown[0] >> gt & 1
    }
    found.update(ball for grown in around for ball in grown)
    rigid_up = adjacency((v, u) for u, v in rigid)
    found.update(full ^ ball for gs in range(m) for ball in balls(up, rigid_up, gs))
    for mask in found - reaches - {0, full}:
        atoms = 0
        for g in bits(mask):
            atoms |= group_atoms[g]
        out.append((len(vulnerabilities(abaf, bits(atoms), derivable)), atoms))
    return out
