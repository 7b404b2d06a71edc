"""Shared helpers: naive re-implementations used as independent oracles."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from domkit.domsets import SetKind
from domkit.graphs import Graph


def naive_spanning(graph: Graph, members: set[int], v: int) -> int:
    return sum(1 for w in graph.neighbors(v) if w in members)


def naive_satisfies(graph: Graph, members: set[int], kind: SetKind) -> bool:
    """Set-arithmetic re-check of every bound, independent of the library path."""
    lo_in, hi_in, lo_out, hi_out = kind.bounds()
    for v in range(graph.n):
        sn = naive_spanning(graph, members, v)
        lo, hi = (lo_in, hi_in) if v in members else (lo_out, hi_out)
        if sn < lo:
            return False
        if hi is not None and sn > hi:
            return False
    return True


def brute_min(graph: Graph, kind: SetKind):
    """Exhaustive minimum by subset enumeration; (gamma, witness) or (None, None)."""
    for size in range(graph.n + 1):
        for combo in combinations(range(graph.n), size):
            if naive_satisfies(graph, set(combo), kind):
                return size, combo
    return None, None


def brute_all(graph: Graph, kind: SetKind):
    """All satisfying subsets, as sorted tuples."""
    hits = []
    for size in range(graph.n + 1):
        for combo in combinations(range(graph.n), size):
            if naive_satisfies(graph, set(combo), kind):
                hits.append(combo)
    return hits


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    """Random graph conditioned on connectivity (resamples; adds a path as last resort)."""
    from domkit.graphs import is_connected

    for _ in range(200):
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g
    spine = [(i, i + 1) for i in range(n - 1)]
    extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, spine + extra)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD0517)


def nx_to_graph(nxg) -> Graph:
    """Relabel a networkx graph onto 0..n-1 and convert."""
    nodes = sorted(nxg.nodes(), key=str)
    index = {node: i for i, node in enumerate(nodes)}
    return Graph(len(nodes), [(index[u], index[v]) for u, v in nxg.edges()])


def atlas_by_order(max_order: int):
    """Non-isomorphic graphs grouped by order, from the networkx atlas (<= 7)."""
    import networkx as nx

    if max_order > 7:
        raise ValueError("atlas covers at most 7 vertices")
    grouped: dict[int, list[Graph]] = {r: [] for r in range(1, max_order + 1)}
    for nxg in nx.graph_atlas_g()[1:]:
        r = nxg.number_of_nodes()
        if 1 <= r <= max_order:
            grouped[r].append(nx_to_graph(nxg))
    return grouped


def high_max_degree_catalog(max_n: int):
    """Connected graphs with max degree >= n - 2, covering every isomorphism class.

    Built as vertex 0 joined to all of a rest-graph R except possibly one
    marked vertex; R ranges over the atlas, so classes may repeat but none
    is missed.
    """
    from domkit.graphs import is_connected

    grouped = atlas_by_order(max_n - 1)
    for n in range(2, max_n + 1):
        for rest in grouped[n - 1]:
            shifted = [(u + 1, v + 1) for u, v in rest.edges()]
            for skipped in range(0, n):  # 0 means "no non-neighbor"
                spokes = [(0, v) for v in range(1, n) if v != skipped]
                g = Graph(n, shifted + spokes)
                if g.max_degree() >= n - 2 and is_connected(g):
                    yield g


def random_high_max_degree_graph(rng_obj: random.Random, n: int) -> Graph:
    """Random connected graph on n vertices with some degree >= n - 2."""
    from domkit.graphs import is_connected

    while True:
        skipped = rng_obj.choice(range(0, n))
        edges = [(0, v) for v in range(1, n) if v != skipped]
        edges += [
            (u, v)
            for u in range(1, n)
            for v in range(u + 1, n)
            if rng_obj.random() < 0.4
        ]
        g = Graph(n, edges)
        if g.max_degree() >= n - 2 and is_connected(g):
            return g


def nonisomorphic_trees(n: int):
    import networkx as nx

    if n == 1:
        yield Graph(1)
        return
    for t in nx.nonisomorphic_trees(n):
        yield nx_to_graph(t)


def x3c_catalog() -> list:
    """Every Exact-3-Cover instance with q <= 2 and t <= 3 (1351 of them)."""
    from domkit.npc import X3CInstance

    catalog = [X3CInstance(3, ((0, 1, 2),))]
    triples = list(combinations(range(6), 3))
    for count in (1, 2, 3):
        catalog += [X3CInstance(6, sets) for sets in combinations(triples, count)]
    return catalog


def exact_covers(inst) -> list[int]:
    """Bitmasks of the subcollections of ``inst.sets`` that hit every element
    exactly once, ascending."""
    covers = []
    for bits in range(1 << inst.num_sets):
        hits = [0] * inst.universe_size
        for i, triple in enumerate(inst.sets):
            if bits >> i & 1:
                for x in triple:
                    hits[x] += 1
        if all(c == 1 for c in hits):
            covers.append(bits)
    return covers
