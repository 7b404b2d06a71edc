"""Output checks that do not go through domkit.

Everything here is a re-implementation from the definitions: the spanning
bounds of each set kind, a set checker on plain adjacency lists, a checker
for lexicographic-product witnesses that works from the two factors, an
edge-list reader and an Exact-3-Cover decider.  None of it calls
``domkit.domsets.satisfies`` or any other domkit code, so a defect in the
program cannot hide itself from these checks.
"""

from __future__ import annotations

from itertools import combinations


def kind_bounds(base: str, j: int | None = None, k: int | None = None):
    """(lo_in, hi_in, lo_out, hi_out) spanning bounds of a set kind.

    A member's spanning number counts its neighbours inside the set and must
    lie in [lo_in, hi_in]; a non-member's must lie in [lo_out, hi_out].
    ``None`` means no upper bound.
    """
    table = {
        "dominating": (0, None, 1, None),
        "total_dominating": (1, None, 1, None),
        "one_k": (0, None, 1, k),
        "total_one_k": (1, k, 1, k),
        "independent_one_k": (0, 0, 1, k),
        "j_dependent_one_k": (0, j, 1, k),
        "j_dependent_total_one_k": (1, j, 1, k),
        "efficient": (0, 0, 1, 1),
        "open_efficient": (1, 1, 1, 1),
    }
    return table[base]


def _within(value: int, lo: int, hi: int | None) -> bool:
    return value >= lo and (hi is None or value <= hi)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def set_ok(adj: list[set[int]], members, bounds) -> bool:
    """True iff ``members`` meets ``bounds`` on the graph given by ``adj``."""
    chosen = set(members)
    if any(not 0 <= v < len(adj) for v in chosen) or len(chosen) != len(members):
        return False
    lo_in, hi_in, lo_out, hi_out = bounds
    for v, nbrs in enumerate(adj):
        span = len(nbrs & chosen)
        if v in chosen:
            if not _within(span, lo_in, hi_in):
                return False
        elif not _within(span, lo_out, hi_out):
            return False
    return True


def product_set_ok(adj_g: list[set[int]], adj_h: list[set[int]], members, bounds) -> bool:
    """True iff ``members`` meets ``bounds`` on G o H, without building G o H.

    Product vertex ``g * n_h + h`` is adjacent to every vertex of each layer
    above a neighbour of g, and to the neighbours of h in its own layer, so
    its spanning number is the sum of the neighbouring layers' counts plus
    |N_H(h) ∩ D_g|.
    """
    n_g, n_h = len(adj_g), len(adj_h)
    layers: list[set[int]] = [set() for _ in range(n_g)]
    for vid in members:
        if not 0 <= vid < n_g * n_h:
            return False
        layers[vid // n_h].add(vid % n_h)
    if sum(len(layer) for layer in layers) != len(members):
        return False
    lo_in, hi_in, lo_out, hi_out = bounds
    for g in range(n_g):
        outside = sum(len(layers[w]) for w in adj_g[g])
        for h in range(n_h):
            span = outside + len(adj_h[h] & layers[g])
            if h in layers[g]:
                if not _within(span, lo_in, hi_in):
                    return False
            elif not _within(span, lo_out, hi_out):
                return False
    return True


def lex_product_edges(n_g: int, edges_g, n_h: int, edges_h) -> list[tuple[int, int]]:
    """Edges of G o H under the id ``g * n_h + h``."""
    out = []
    for u, v in edges_g:
        for a in range(n_h):
            for b in range(n_h):
                out.append((u * n_h + a, v * n_h + b))
    for g in range(n_g):
        for a, b in edges_h:
            out.append((g * n_h + a, g * n_h + b))
    return out


def read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse the "n m" / "u v" edge-list text, rejecting anything malformed."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n, m = (int(x) for x in rows[0])
    edges = [(int(u), int(v)) for u, v in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"header promises {m} edges, file has {len(edges)}")
    return n, edges


def exact_cover_exists(universe: int, sets) -> bool:
    for size in range(len(sets) + 1):
        for chosen in combinations(sets, size):
            hit = sorted(x for triple in chosen for x in triple)
            if hit == list(range(universe)):
                return True
    return False
