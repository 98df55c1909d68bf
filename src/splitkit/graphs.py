"""Directed-graph utilities: SCC condensation, order ideals and prefix chains, balls, max-flow, DOT."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence


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
    """Strongly connected components, iterative so deep graphs cannot blow the stack."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    sccs: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for i in range(pi, len(successors[v])):
                w = successors[v][i]
                if index[w] == -1:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
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
    members = [_mask(c) for c in cond.sccs]
    need = [0] * len(members)  # the vertices of each SCC's predecessors
    for u, v in cond.dag_edges:
        need[v] |= members[u]
    out = [0]
    for v in cond.topo_order:
        out += [i | members[v] for i in out if not need[v] & ~i]
    return out


def prefix_ideals(cond: Condensation, weight: Sequence[int]) -> list[int]:
    """The prefixes of five topological orders of the condensation, weighted
    by ``weight`` per SCC, each as a bitmask over the original vertices, the
    empty ideal first.

    The orders are Kahn's algorithm from the sources taking the lightest
    ready SCC first, the heaviest first and the lowest id first; and the
    reverse of peeling the sinks lightest first and heaviest first, whose
    prefixes are the complements of up-sets.  Ties go to the lowest id.  Each
    order gives one ideal per SCC, however many ideals the DAG has.
    """
    members = [_mask(c) for c in cond.sccs]
    n = len(members)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in cond.dag_edges:
        succ[u].append(v)
        pred[v].append(u)
    # A key is unique and leaves its SCC as the remainder mod n: lowest id,
    # then lightest and heaviest first.  With equal weights those two orders
    # are the lowest-id one, so they are left out, and the sinks are peeled
    # by the last two keys, or by the one left.
    keys: list[Sequence[int]] = [range(n)]
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


def _kahn(succ: list[list[int]], pred: list[list[int]], key: Sequence[int]) -> list[int]:
    """The topological order of the DAG ``succ`` that takes the ready vertex
    of least ``key`` first."""
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


def _mask(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in vertices)


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
