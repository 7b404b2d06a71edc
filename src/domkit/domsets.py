"""Predicates for the domination variants handled by the toolkit.

Every variant is expressed through four spanning-number bounds: closed
intervals for members of the candidate set and for vertices outside it.
``None`` means unbounded above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .graphs import Graph, mask_to_ids

VertexSet = frozenset[int]

# base -> (lo_in, hi_in, lo_out, hi_out); "j" and "k" stand for the kind's
# parameters, and a base takes exactly the parameters its row names.
_BOUNDS = {
    "dominating": (0, None, 1, None),
    "total_dominating": (1, None, 1, None),
    "one_k": (0, None, 1, "k"),
    "total_one_k": (1, "k", 1, "k"),
    "independent_one_k": (0, 0, 1, "k"),
    "j_dependent_one_k": (0, "j", 1, "k"),
    "j_dependent_total_one_k": (1, "j", 1, "k"),
    "efficient": (0, 0, 1, 1),
    "open_efficient": (1, 1, 1, 1),
}

BASES = tuple(_BOUNDS)

_PARAMETERS = {base: tuple(p for p in ("j", "k") if p in row) for base, row in _BOUNDS.items()}


def base_parameters(base: str) -> tuple[str, ...]:
    """The parameters ``base`` takes, in factory order: a subsequence of ("j", "k")."""
    return _PARAMETERS[base]


@dataclass(frozen=True)
class SetKind:
    """A domination variant, optionally parameterized by k and j.

    ``k`` is the upper spanning bound for off-set vertices (k >= 1); ``j``
    the dependency bound for set members (0 <= j <= k).
    """

    base: str
    k: int | None = None
    j: int | None = None
    # resolved from the table once, because bounds() runs in every search and satisfies
    _bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.base not in BASES:
            raise ValueError(f"unknown set kind {self.base!r}")
        takes = base_parameters(self.base)
        for name, low in (("k", 1), ("j", 0)):
            value = getattr(self, name)
            if name not in takes:
                if value is not None:
                    raise ValueError(f"{self.base} takes no {name} parameter")
            elif value is not None and type(value) is not int:
                # bool is an int subclass and 2.0 compares like 2, but the
                # search indexes levels by these bounds and JSON writes them
                raise ValueError(f"{self.base} requires an integer {name}, got {value!r}")
            elif value is None or value < low:
                raise ValueError(f"{self.base} requires {name} >= {low}, got {value}")
        if "j" in takes and self.j > self.k:  # type: ignore[operator]
            raise ValueError(f"j={self.j} must not exceed k={self.k}")
        params = {"j": self.j, "k": self.k}
        object.__setattr__(self, "_bounds", tuple([params.get(b, b) for b in _BOUNDS[self.base]]))

    def bounds(self) -> tuple[int, int | None, int, int | None]:
        """(lo_in, hi_in, lo_out, hi_out) spanning-number bounds; None = unbounded."""
        return self._bounds

    def label(self) -> str:
        params = (f"{p}={getattr(self, p)}" for p in base_parameters(self.base))
        return " ".join([self.base, *params])


def dominating() -> SetKind:
    return SetKind("dominating")


def total_dominating() -> SetKind:
    return SetKind("total_dominating")


def one_k(k: int) -> SetKind:
    return SetKind("one_k", k=k)


def total_one_k(k: int) -> SetKind:
    return SetKind("total_one_k", k=k)


def independent_one_k(k: int) -> SetKind:
    return SetKind("independent_one_k", k=k)


def j_dependent_one_k(j: int, k: int) -> SetKind:
    return SetKind("j_dependent_one_k", k=k, j=j)


def j_dependent_total_one_k(j: int, k: int) -> SetKind:
    return SetKind("j_dependent_total_one_k", k=k, j=j)


def efficient() -> SetKind:
    return SetKind("efficient")


def open_efficient() -> SetKind:
    return SetKind("open_efficient")


def _as_vertex_set(graph: Graph, members: Iterable[int]) -> VertexSet:
    ids = tuple(members)  # checked before a frozenset lets True collapse into 1
    for v in ids:
        graph._check_vertex(v)
    return frozenset(ids)


def _as_mask(graph: Graph, members: Iterable[int]) -> int:
    return sum(1 << v for v in _as_vertex_set(graph, members))


def spanning_number(graph: Graph, members: Iterable[int], v: int) -> int:
    """Number of neighbors of v inside the candidate set: |N(v) ∩ S|."""
    s = _as_vertex_set(graph, members)
    return len(graph.neighbors(v) & s)


def satisfies(graph: Graph, members: Iterable[int], kind: SetKind) -> bool:
    """Decide whether the vertex set meets every bound of the named variant."""
    smask = _as_mask(graph, members)
    lo_in, hi_in, lo_out, hi_out = kind.bounds()
    for v, nbrs in enumerate(graph.neighbor_masks):
        sn = (nbrs & smask).bit_count()
        if smask >> v & 1:
            if sn < lo_in or (hi_in is not None and sn > hi_in):
                return False
        else:
            if sn < lo_out or (hi_out is not None and sn > hi_out):
                return False
    return True


def near_masks(adj: tuple[int, ...]) -> list[int]:
    """``near[v]`` = mask of the vertices at distance 1 or 2 from v."""
    near = []
    for v, m in enumerate(adj):
        reach = m
        for w in mask_to_ids(m):
            reach |= adj[w]
        near.append(reach & ~(1 << v))
    return near


def scattered_test(graph: Graph, near: list[int] | None = None) -> Callable[[int], bool]:
    """Mask test for scattered sets on ``graph``: every member with no
    in-set neighbor sits at distance >= 3 from every other member.

    The ``near_masks`` of the graph are computed once, here, unless the
    caller passes them, so the returned test costs two ANDs per member.
    """
    adj = graph.neighbor_masks
    if near is None:
        near = near_masks(adj)

    def scattered(s: int) -> bool:
        for v in mask_to_ids(s):
            if not adj[v] & s and near[v] & s:
                return False
        return True

    return scattered


def in_sd_class(graph: Graph, members: Iterable[int], j: int, k: int) -> bool:
    """Scattered-dependence test: a j-dependent [1,k]-set whose members with
    no in-set neighbor sit at distance >= 3 from every other member."""
    s = _as_vertex_set(graph, members)
    return (satisfies(graph, s, j_dependent_one_k(j, k))
            and scattered_test(graph)(_as_mask(graph, s)))
