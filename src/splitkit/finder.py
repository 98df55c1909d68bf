"""Automatic discovery of splitting sets.

Splitting sets of an ABA framework are exactly the predecessor-closed vertex
sets of its dependency graph (rule edges body -> head, plus a symmetric pair
of edges between each assumption and its contrary), and likewise for SETAF
bottoms on the primal graph.  Condensing the strongly connected components
makes those sets enumerable as order ideals of a DAG; the finder scores them
by how evenly they cut the framework.

Quasi-splittings drop the requirement that assumption body atoms stay below
their rule heads.  Finding one with few vulnerabilities is a minimum-cut
problem on the pair-contracted dependency graph: crossing a vulnerable
assumption (one whose contrary heads a rule) costs one, everything else is
rigid or free.  At desk scale the finder enumerates partitions exactly; on
bigger inputs it anchors augmenting-path max-flow cuts on node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from splitkit.aba import Abaf
from splitkit.errors import DegenerateSplit
from splitkit.graphs import Condensation, Digraph, condense, max_flow, order_ideals, topo_prefix_ideals
from splitkit.setaf import Setaf, primal_graph
from splitkit.split_aba import QuasiSplitting, make_quasi_splitting, make_splitting
from splitkit.split_setaf import make_splitting as make_setaf_splitting

EXACT_GROUP_LIMIT = 16
IDEAL_LIMIT = 4096


def dependency_graph(abaf: Abaf) -> Digraph:
    edges = set()
    for r in abaf.rules:
        for b in r.body:
            edges.add((b, r.head))
    for a in abaf.assumptions:
        edges.add((a, abaf.contrary[a]))
        edges.add((abaf.contrary[a], a))
    return Digraph(abaf.n_atoms, frozenset(edges), abaf.names)


def _ideal_atoms(cond: Condensation, ideal: frozenset[int]) -> frozenset[int]:
    atoms: set[int] = set()
    for i in ideal:
        atoms |= cond.sccs[i]
    return frozenset(atoms)


def splitting_sets(
    abaf: Abaf,
    prefixes_only: bool = False,
    limit: Optional[int] = IDEAL_LIMIT,
    nontrivial: bool = False,
) -> list[frozenset[int]]:
    """Candidate splitting sets from the dependency condensation."""
    cond = condense(dependency_graph(abaf))
    ideals = topo_prefix_ideals(cond) if prefixes_only else order_ideals(cond, limit)
    out = [_ideal_atoms(cond, ideal) for ideal in ideals]
    if nontrivial:
        out = [s for s in out if s and s != abaf.atoms]
    return sorted(set(out), key=lambda s: (len(s), tuple(sorted(s))))


def setaf_splitting_bottoms(
    sf: Setaf, limit: Optional[int] = IDEAL_LIMIT, nontrivial: bool = False
) -> list[frozenset[int]]:
    cond = condense(primal_graph(sf))
    out = [_ideal_atoms(cond, ideal) for ideal in order_ideals(cond, limit)]
    if nontrivial:
        out = [s for s in out if s and s != sf.args]
    return sorted(set(out), key=lambda s: (len(s), tuple(sorted(s))))


def _score(size: int, total: int, target: float) -> float:
    return abs(size - target * total)


def balanced_candidates(abaf: Abaf, target: float = 0.5) -> list[frozenset[int]]:
    """Nontrivial candidate splitting sets, best balanced first."""
    cands = splitting_sets(abaf, nontrivial=True)
    return sorted(
        cands,
        key=lambda s: (_score(len(s), abaf.n_atoms, target), len(s), tuple(sorted(s))),
    )


def find_balanced_splitting(abaf: Abaf, target: float = 0.5) -> frozenset[int]:
    cands = balanced_candidates(abaf, target)
    if not cands:
        raise DegenerateSplit("only the trivial splittings exist")
    best = cands[0]
    make_splitting(abaf, best)  # never trust the construction unvalidated
    return best


def find_setaf_splitting(sf: Setaf, target: float = 0.5) -> frozenset[int]:
    cands = setaf_splitting_bottoms(sf, nontrivial=True)
    if not cands:
        raise DegenerateSplit("only the trivial splittings exist")
    best = min(
        cands,
        key=lambda s: (_score(len(s), sf.n_args, target), len(s), tuple(sorted(s))),
    )
    make_setaf_splitting(sf, best)
    return best


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


def _quasi_cost(abaf: Abaf, s: frozenset[int]) -> Optional[int]:
    """Number of vulnerabilities of a candidate set, or None if not quasi-valid."""
    heads = {r.head for r in abaf.rules}
    vulnerable: set[int] = set()
    for r in abaf.rules:
        if r.head not in s:
            continue
        for b in r.body:
            if b in s:
                continue
            if b not in abaf.assumptions:
                return None
            if abaf.contrary[b] in heads:
                vulnerable.add(b)
    return len(vulnerable)


def find_quasi_splitting(
    abaf: Abaf,
    lo: float = 0.25,
    hi: float = 0.75,
    method: str = "auto",
) -> QuasiSplitting:
    """A quasi-splitting with as few vulnerabilities as the balance window allows.

    Exhaustive over the contracted groups at desk scale; anchored max-flow
    min-cuts otherwise.  Trivial sets are never returned; if the window is
    unsatisfiable the globally best nontrivial candidate is used instead.
    """
    con = pair_contracted(abaf)
    m = len(con.groups)
    if m <= 1:
        raise DegenerateSplit("framework contracts to a single group")
    if method == "exact" or (method == "auto" and m <= EXACT_GROUP_LIMIT):
        candidates = _quasi_exact(abaf, con)
    else:
        candidates = _quasi_flow(abaf, con)
    if not candidates:
        raise DegenerateSplit("no nontrivial quasi-splitting found")
    total = abaf.n_atoms

    def ranked(pool):
        return min(
            pool,
            key=lambda ks: (ks[0], _score(len(ks[1]), total, (lo + hi) / 2),
                            len(ks[1]), tuple(sorted(ks[1]))),
        )

    in_window = [
        (k, s) for k, s in candidates if lo * total <= len(s) <= hi * total
    ]
    k, s = ranked(in_window) if in_window else ranked(candidates)
    return make_quasi_splitting(abaf, s)


def _quasi_exact(abaf: Abaf, con: _Contracted) -> list[tuple[int, frozenset[int]]]:
    m = len(con.groups)
    out = []
    for mask in range(1, (1 << m) - 1):
        atoms = frozenset().union(*(con.groups[i] for i in range(m) if mask >> i & 1))
        k = _quasi_cost(abaf, atoms)
        if k is not None:
            out.append((k, atoms))
    return out


def _quasi_flow(abaf: Abaf, con: _Contracted) -> list[tuple[int, frozenset[int]]]:
    m = len(con.groups)
    heads = {r.head for r in abaf.rules}
    charge_node: dict[int, int] = {}
    next_id = m
    arcs: dict[tuple[int, int], int] = {}
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
                    charge_node[b] = next_id
                    next_id += 1
                    weight = 1 if abaf.contrary[b] in heads else 0
                    arcs[(charge_node[b], gb)] = weight
                arcs[(gh, charge_node[b])] = inf
    source, sink = next_id, next_id + 1
    n_nodes = next_id + 2
    seen: set[frozenset[int]] = set()
    out: list[tuple[int, frozenset[int]]] = []
    for gs in range(m):
        for gt in range(m):
            if gs == gt:
                continue
            trial = dict(arcs)
            trial[(source, gs)] = inf
            trial[(gt, sink)] = inf
            value, side = max_flow(n_nodes, trial, source, sink)
            if value >= inf:
                continue  # anchors are rigidly connected
            atoms = frozenset().union(
                *(con.groups[i] for i in range(m) if i in side)
            )
            if not atoms or atoms == abaf.atoms or atoms in seen:
                continue
            seen.add(atoms)
            k = _quasi_cost(abaf, atoms)
            if k is not None:
                out.append((k, atoms))
    return out
