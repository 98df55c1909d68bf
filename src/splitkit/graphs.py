"""Directed-graph utilities: SCC condensation, order ideals, balanced prefixes, balls, max-flow, DOT."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence


@dataclass(eq=True)
class Digraph:
    n: int
    edges: frozenset[tuple[int, int]]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        self.edges = frozenset(self.edges)
        if not self.names:
            self.names = tuple(str(i) for i in range(self.n))

    def successors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj


def tarjan_scc(n: int, successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components, iterative so deep graphs cannot blow the
    stack.  An emitted vertex gets the index ``n``, so it lowers no ``low``."""
    index = [-1] * n
    low = [0] * n
    stack: list[int] = []
    counter = 0
    sccs: list[list[int]] = []
    for root in range(n):
        if index[root] >= 0:
            continue
        if not successors[root]:  # a sink is an SCC of its own
            index[root] = n
            sccs.append([root])
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    if not successors[w]:  # a sink is an SCC of its own
                        index[w] = n
                        sccs.append([w])
                        continue
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] < index[v]:  # v's SCC holds its parent
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                    continue
                comp = []
                while True:
                    w = stack.pop()
                    index[w] = n
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


@dataclass(eq=True)
class Condensation:
    """The SCCs of a digraph, numbered by least vertex, the edges between
    them, and a topological order of those ids."""

    sccs: tuple[frozenset[int], ...]
    dag_edges: frozenset[tuple[int, int]]
    topo_order: tuple[int, ...]


def condense(g: Digraph) -> Condensation:
    """Contract every SCC to a single vertex; the result is acyclic.  Tarjan
    emits each SCC after every SCC it reaches, so that order reversed is
    topological."""
    found = tarjan_scc(g.n, g.successors())
    comps = sorted(sorted(c) for c in found)  # disjoint, so ids go by least vertex
    member = [0] * g.n
    for i, comp in enumerate(comps):
        for v in comp:
            member[v] = i
    return Condensation(
        tuple(frozenset(c) for c in comps),
        frozenset((member[u], member[v]) for u, v in g.edges if member[u] != member[v]),
        tuple(member[c[0]] for c in reversed(found)),
    )


def order_ideals(cond: Condensation) -> list[int]:
    """All SCC sets closed under predecessors (no dag edge enters from outside),
    each as a bitmask over the original vertices, the empty one first.

    The SCCs are taken in topological order, and every ideal found so far
    that holds the next SCC's predecessors is extended by it.  There can be
    2^n ideals, so this is for small graphs.
    """
    members = [sum(1 << v for v in c) for c in cond.sccs]
    need = [0] * len(members)  # the vertices of each SCC's predecessors
    for u, v in cond.dag_edges:
        need[v] |= members[u]
    out = [0]
    for v in cond.topo_order:
        out += [i | members[v] for i in out if not need[v] & ~i]
    return out


def balanced_prefix(succ: Sequence[Sequence[int]], masks: Sequence[int], goal: float) -> int:
    """The best balanced nontrivial prefix of five topological orders of the
    condensation of ``succ``, as the union of its vertices' ``masks``; 0 if
    the digraph has fewer than two SCCs.

    SCC ids go by least vertex; an SCC weighs the bits of its mask.  A prefix
    of weight ``w`` scores ``(abs(w - goal), w)``, least first, then the one
    holding the lowest bit where two differ (the lower sorted tuple).  The
    orders are Kahn's from the sources and, reversed, from the sinks (the
    complements of up-sets), taking the ready SCC of least key first.  A key
    leaves its SCC as the remainder mod the SCC count: lowest id, lightest
    and heaviest first.  With equal weights only the first runs, from both
    ends; else the sinks are peeled by the last two.  A run stops at the
    goal, since each later prefix lies further from it.
    """
    comps = sorted(tarjan_scc(len(succ), succ), key=min)
    n = len(comps)
    if n < 2:
        return 0
    member = [0] * len(succ)
    mask = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            member[v] = i
            mask[i] |= masks[v]
    down: list[list[int]] = [[] for _ in comps]
    up: list[list[int]] = [[] for _ in comps]
    for u, vs in enumerate(succ):
        mu = member[u]
        for v in vs:
            if mu != member[v]:
                down[mu].append(member[v])
                up[member[v]].append(mu)
    weight = list(map(int.bit_count, mask))
    keys: list[Sequence[int]] = [range(n)]
    top = max(weight)
    if min(weight) < top:
        keys += [w * n + v for v, w in enumerate(weight)], [(top - w) * n + v for v, w in enumerate(weight)]
    # from each end: the arcs onwards, the arcs each SCC waits for, the SCCs
    # ready at once, the mask and weight before the first step, and its sign
    ends = [(down, list(map(len, up)), [v for v in range(n) if not up[v]], 0, 0, 1),
            (up, list(map(len, down)), [v for v in range(n) if not down[v]], sum(mask), sum(weight), -1)]
    best, size_of_best, win = float("inf"), 0, 0
    for run, key in enumerate(keys + keys[-2:]):
        step, waiting, ready, chosen, size, sign = ends[run >= len(keys)]
        waiting = waiting[:]
        ready = list(map(key.__getitem__, ready))
        heapify(ready)
        for _ in range(n - 1):  # the last prefix holds every SCC
            v = heappop(ready) % n
            chosen ^= mask[v]
            size += sign * weight[v]
            score = abs(size - goal)  # least (score, size), then the lowest differing bit
            if score < best or score == best and (size < size_of_best or size == size_of_best
                                                  and chosen & (chosen ^ win) & -(chosen ^ win)):
                best, size_of_best, win = score, size, chosen
            if sign * (size - goal) >= 0:
                break
            for w in step[v]:
                waiting[w] -= 1
                if not waiting[w]:
                    heappush(ready, key[w])
    return win


def balls(step: Sequence[Sequence[int]], close: Sequence[Sequence[int]], root: int) -> list[int]:
    """The balls around ``root``, smallest first, each as a bitmask.

    The first ball is what ``close`` reaches from ``root``; each next one
    adds the ``step`` successors of the last ball and what ``close`` reaches
    from them, until a ball stops growing.  Every ball is closed under
    ``close``.
    """
    out = []
    ball, grow = 0, [root]
    while grow:
        added = []  # what the last ball added; the rest has its successors in already
        while grow:
            v = grow.pop()
            if not ball >> v & 1:
                ball |= 1 << v
                added.append(v)
                grow += close[v]
        out.append(ball)
        grow = [w for v in added for w in step[v] if not ball >> w & 1]
    return out


def flow_network(n: int, arcs: dict[tuple[int, int], int]) -> tuple[list[int], list[int], list[list[int]]]:
    """The residual network of ``arcs`` on nodes ``0..n-1``, for ``max_flow``.

    Arc ``e`` and its reverse ``e ^ 1`` sit side by side: the heads, the
    capacities (0 for each reverse arc), and each node's outgoing arc ids.
    """
    head: list[int] = []
    cap: list[int] = []
    out: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in arcs.items():
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
    return head, cap, out


def max_flow(
    network: tuple[list[int], list[int], list[list[int]]], source: int, sink: int
) -> tuple[int, set[int]]:
    """Edmonds-Karp max-flow on a ``flow_network``: the flow value and the
    minimal minimum cut.

    The cut is given by its source side, the nodes still reachable from
    ``source`` over arcs with residual capacity.  That side is the
    intersection of the source sides of all minimum cuts, so it is the same
    for every maximum flow; with no path of positive capacity it is the set
    reachable from ``source``.  Each call starts from the network's own
    capacities, so one network serves any number of flows.
    """
    head, capacity, out = network
    cap = capacity.copy()
    flow = 0
    while True:
        via = {source: -1}  # each reached node's entering arc
        queue = deque([source])
        while queue and sink not in via:
            u = queue.popleft()
            for e in out[u]:
                v = head[e]
                if cap[e] > 0 and v not in via:
                    via[v] = e
                    queue.append(v)
        if sink not in via:
            return flow, set(via)
        path = []
        v = sink
        while v != source:
            e = via[v]
            path.append(e)
            v = head[e ^ 1]
        bottleneck = min(cap[e] for e in path)
        for e in path:
            cap[e] -= bottleneck
            cap[e ^ 1] += bottleneck
        flow += bottleneck


def to_dot(g: Digraph, title: str = "G") -> str:
    lines = [f"digraph {title} {{"]
    for i in range(g.n):
        lines.append(f'  n{i} [label="{g.names[i]}"];')
    for u, v in sorted(g.edges):
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
