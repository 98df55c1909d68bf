import random

from splitkit.graphs import Digraph, condense, flow_network, max_flow, order_ideals


def frozenset_walk(cond):
    """The order-ideal walk over SCC-id sets, kept as the reference for the
    bitmask walk: leave each vertex out before taking it in."""
    preds = [set() for _ in cond.sccs]
    for u, v in cond.dag_edges:
        preds[v].add(u)
    order = cond.topo_order
    out = []
    chosen = set()
    taken = []
    while True:
        out.append(frozenset(chosen))
        i = len(order) - 1
        while True:
            last = taken[-1] if taken else -1
            while i > last and not preds[order[i]] <= chosen:
                i -= 1
            if i > last:
                break
            if not taken:
                return out
            chosen.remove(order[taken.pop()])
            i = last - 1
        chosen.add(order[i])
        taken.append(i)
    return out


def as_mask(cond, ideal):
    return sum(1 << v for i in ideal for v in cond.sccs[i])


def random_graph(rng, n):
    """A random digraph; back edges, when drawn, merge vertices into SCCs."""
    forward = rng.random() * 0.4
    back = rng.choice((0.0, 0.0, 0.05))
    edges = set()
    for u in range(n):
        for v in range(n):
            if (u < v and rng.random() < forward) or (u > v and rng.random() < back):
                edges.add((u, v))
    return Digraph(n, frozenset(edges))


def random_condensations():
    """The condensations of 60 random graphs of up to 14 vertices, so that
    the walk stays short."""
    rng = random.Random(0)
    for _ in range(60):
        yield condense(random_graph(rng, rng.randint(0, 14)))


def test_bitmask_walk_matches_the_frozenset_walk():
    """The same ideals, each listed once."""
    for cond in random_condensations():
        expected = {as_mask(cond, ideal) for ideal in frozenset_walk(cond)}
        ideals = order_ideals(cond)
        assert len(ideals) == len(set(ideals))
        assert set(ideals) == expected


def test_topo_order_is_a_topological_order_of_the_sccs():
    """A permutation of the SCC ids with every dag edge pointing forward."""
    for cond in random_condensations():
        assert sorted(cond.topo_order) == list(range(len(cond.sccs)))
        position = {v: i for i, v in enumerate(cond.topo_order)}
        assert all(position[u] < position[v] for u, v in cond.dag_edges)


def test_walk_lists_every_ideal_of_independent_vertices():
    ideals = order_ideals(condense(Digraph(13, frozenset())))
    assert len(ideals) == len(set(ideals)) == 1 << 13


INF = 1000  # more than all finite capacities of a network below together


def random_network(rng, n):
    """Arcs of capacity 0, 1, 2 or ``INF`` between distinct nodes."""
    arcs = {}
    density = rng.choice((0.15, 0.3, 0.5))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                arcs[(u, v)] = rng.choice((0, 1, 1, 2, INF))
    return arcs


def minimum_cuts(n, arcs, s, t):
    """Every s-t cut by brute force: the least capacity and the source sides
    that reach it."""
    cuts = []
    for mask in range(1 << n):
        if mask >> s & 1 and not mask >> t & 1:
            side = {v for v in range(n) if mask >> v & 1}
            cuts.append((sum(c for (u, v), c in arcs.items() if u in side and v not in side), side))
    least = min(c for c, _ in cuts)
    return least, [side for c, side in cuts if c == least]


def test_max_flow_gives_the_minimal_minimum_cut():
    """The value is the least cut capacity and the side is the intersection of
    the source sides of all minimum cuts; with no flow, the side is what the
    source reaches over arcs of positive capacity.  A flow leaves the
    network's capacities as they were."""
    rng = random.Random(7)
    zero = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        arcs = random_network(rng, n)
        s, t = rng.sample(range(n), 2)
        network = flow_network(n, arcs)
        value, side = max_flow(network, s, t)
        assert max_flow(network, s, t) == (value, side)  # a used network serves again
        least, sides = minimum_cuts(n, arcs, s, t)
        assert value == least
        assert side == set.intersection(*sides)
        if value == 0:
            zero += 1
            reached = {s}
            while True:
                more = {v for (u, v), c in arcs.items() if c > 0 and u in reached} - reached
                if not more:
                    break
                reached |= more
            assert side == reached
    assert 40 < zero < 360  # both cases are well represented
