"""Immutable simple graphs, standard families, and the lexicographic product.

Vertices are always the integers ``0..n-1``.  Adjacency is stored only as
one neighbour bitmask per vertex (bit ``w`` of ``mask[v]`` set iff v ~ w);
every accessor, the breadth-first searches and the product construction read
those masks, and neighbour sets are derived from them on request.  Product
vertices use the fixed encoding ``id(g, h) = g * n_h + h`` so that witnesses
and reports are reproducible across runs.  An edge list is read in one pass
(``parse_edge_list``: one regex drops the comments, one ``str.split`` gives
every token) and written by ``edge_list_text``, which ``format_edge_list``
and ``domkit reduce`` share.  Every output file is written by
``write_outputs``, as UTF-8 bytes at the descriptor.
"""

from __future__ import annotations

import math
import os
import re
import stat
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]

STANDARD_FAMILIES = ("path", "cycle", "complete", "star", "empty")


class GraphTooLargeError(ValueError):
    """Raised when a graph exceeds the solver cap and force is not set."""


def check_int(**values: object) -> None:
    """Raise ``ValueError`` unless every value is an ``int``: bool is an int
    subclass and 2.0 compares like 2, but neither is a size or a bound."""
    for name, value in values.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")


def check_vertex_cap(n: int, cap: int) -> None:
    """Raise ``GraphTooLargeError`` when ``n`` vertices exceed ``cap``."""
    if n > cap:
        raise GraphTooLargeError(
            f"graph has {n} vertices, cap is {cap} (pass force=True or --force to override)"
        )


def mask_to_ids(mask: int) -> tuple[int, ...]:
    """Ids of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(out)


class Graph:
    """Undirected simple graph stored as one neighbour bitmask per vertex.

    Duplicate edges collapse, self-loops are rejected, adjacency is kept
    symmetric.  Instances are immutable after construction and safe to share
    between threads.
    """

    __slots__ = ("n", "_masks")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if type(n) is not int or n < 0:
            check_int(n=n)  # raises unless n is an int, which is then negative
            raise ValueError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)

    @classmethod
    def _from_masks(cls, n: int, masks: tuple[int, ...]) -> Graph:
        """Graph from ``n`` neighbour masks that are already symmetric and loop-free."""
        graph = cls.__new__(cls)
        graph.n = n
        graph._masks = masks
        return graph

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(mask_to_ids(self._masks[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v].bit_count()

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency as bitmasks (bit ``w`` set iff ``w`` adjacent)."""
        return self._masks

    def edges(self) -> Iterator[Edge]:
        """Yield edges as (u, v) with u < v, in ascending order."""
        for u, m in enumerate(self._masks):
            m >>= u + 1  # bit p now stands for v = u + 1 + p
            while m:
                low = m & -m
                yield (u, u + low.bit_length())
                m ^= low

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._masks) // 2

    def max_degree(self) -> int:
        return max((m.bit_count() for m in self._masks), default=0)

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self._masks), default=0)

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, m in enumerate(self._masks) if not m)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    # -- equality / hashing (used by tests and round-trip checks) ----------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_standard(family: str, n: int) -> Graph:
    """Construct a named graph family with canonical vertex order.

    ``path``: 0-1-...-(n-1); ``cycle`` additionally closes {n-1, 0} and
    requires n >= 3; ``star`` has center 0.
    """
    if family not in STANDARD_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    check_int(n=n)
    if n < 1:
        raise ValueError("n must be positive")
    if family == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle requires n >= 3")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    return Graph(n)  # empty


def complement(graph: Graph) -> Graph:
    """Graph with edge {u, v} present iff absent in the input (u != v)."""
    full = (1 << graph.n) - 1
    return Graph._from_masks(
        graph.n, tuple(full ^ m ^ (1 << v) for v, m in enumerate(graph.neighbor_masks))
    )


def distance(graph: Graph, u: int, v: int) -> float:
    """Shortest-path length between u and v; ``math.inf`` when disconnected."""
    graph._check_vertex(u)
    graph._check_vertex(v)
    depth, _ = _breadth_first(graph, u, 1 << v)
    return math.inf if depth is None else depth


def is_connected(graph: Graph) -> bool:
    """True iff a breadth-first search from vertex 0 reaches every vertex."""
    if graph.n < 1:
        raise ValueError("connectivity is defined for n >= 1")
    _, seen = _breadth_first(graph, 0, 0)
    return seen == (1 << graph.n) - 1


def _breadth_first(graph: Graph, source: int, target: int) -> tuple[int | None, int]:
    """Breadth-first search from ``source`` over the neighbour masks: the depth
    of the first layer that meets the ``target`` mask, None when none does,
    and the mask of the vertices reached by then."""
    masks = graph._masks
    seen = frontier = 1 << source
    depth = 0
    while frontier:
        if frontier & target:
            return depth, seen
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        seen |= frontier
        depth += 1
    return None, seen


@dataclass(frozen=True)
class ProductIndex:
    """Bijection between product vertex ids and factor pairs (g, h).

    The encoding ``id(g, h) = g * n_h + h`` is fixed; ``h_layer(g)`` is the
    copy of the second factor sitting above ``g``, ``g_layer(h)`` the copy of
    the first factor through ``h``.
    """

    n_g: int
    n_h: int

    def id_of(self, g: int, h: int) -> int:
        if not (0 <= g < self.n_g and 0 <= h < self.n_h):
            raise ValueError(f"pair ({g}, {h}) out of range")
        return g * self.n_h + h

    def pair_of(self, vid: int) -> tuple[int, int]:
        if not (0 <= vid < self.n_g * self.n_h):
            raise ValueError(f"product id {vid} out of range")
        return divmod(vid, self.n_h)

    def h_layer(self, g: int) -> tuple[int, ...]:
        return tuple(g * self.n_h + h for h in range(self.n_h))

    def g_layer(self, h: int) -> tuple[int, ...]:
        return tuple(g * self.n_h + h for g in range(self.n_g))

    def layer_profile(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """Per-h_layer counts |D ∩ H^g| for a set D of product ids."""
        counts = [0] * self.n_g
        for vid in vertices:
            g, _ = self.pair_of(vid)
            counts[g] += 1
        return tuple(counts)


def lex_product(g: Graph, h: Graph) -> tuple[Graph, ProductIndex]:
    """Lexicographic product: (g1,h1) ~ (g2,h2) iff g1~g2, or g1=g2 and h1~h2.

    Built from masks: vertex (g, h) sees the full layer of every neighbour of
    g, plus its own layer's copy of h's neighbours.
    """
    n_h = h.n
    layer = (1 << n_h) - 1
    h_masks = h.neighbor_masks
    masks: list[int] = []
    for gv, g_mask in enumerate(g.neighbor_masks):
        across = 0
        while g_mask:
            low = g_mask & -g_mask
            across |= layer << ((low.bit_length() - 1) * n_h)
            g_mask ^= low
        shift = gv * n_h
        masks += [across | h_mask << shift for h_mask in h_masks]
    return Graph._from_masks(g.n * n_h, tuple(masks)), ProductIndex(g.n, n_h)


# -- edge-list text format ---------------------------------------------------
#
# First line "n m"; then m lines "u v" with 0-based ids.  '#' starts a
# comment.  The writer emits edges with u < v in ascending order, which is
# the bit-exact canonical form.

# A comment runs from '#' to the first ``str.splitlines`` boundary, each of
# which is whitespace to ``str.split``, so the tokens are those of a per-line
# reading.
_COMMENT = re.compile(r"#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def edge_list_text(n: int, m: int, edges: Iterable[Edge]) -> str:
    """Edge-list text of ``n`` vertices and the ``m`` ``edges``, written as
    given: the canonical form when they are (u, v) with u < v in ascending
    order."""
    names = [str(v) for v in range(n)]
    lines = [f"{n} {m}"]
    lines.extend(f"{names[u]} {names[v]}" for u, v in edges)
    lines.append("")
    return "\n".join(lines)


def format_edge_list(graph: Graph) -> str:
    return edge_list_text(graph.n, graph.num_edges, graph.edges())


def parse_edge_list(text: str, max_n: int | None = None) -> Graph:
    """Graph from edge-list text, in one pass over its tokens.

    With ``max_n`` a header announcing more vertices raises
    ``GraphTooLargeError`` before anything of that size is allocated.
    """
    tokens = _COMMENT.sub("", text).split()
    if len(tokens) < 2:
        raise ValueError("edge list must start with 'n m'")
    try:
        numbers = list(map(int, tokens))
    except ValueError as exc:
        raise ValueError(f"malformed edge list: {exc}") from None
    n, m = numbers[0], numbers[1]
    if len(numbers) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges, found {(len(numbers) - 2) / 2:g}")
    if max_n is not None:
        check_vertex_cap(n, max_n)
    return Graph(n, zip(numbers[2::2], numbers[3::2]))


def load_graph(path: str, max_n: int | None = None) -> Graph:
    with open(path, "rb") as fh:
        return parse_edge_list(fh.read().decode("utf-8"), max_n)


def write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write each text to its path as UTF-8, or to stdout where the path is empty.

    Every path is opened before anything is written, so a path that fails to
    open leaves every output unwritten and removes the files that the opens
    created, the target of a dangling symlink among them.  Two paths that
    name one regular file, the same path or through a symlink or a hard link,
    do the same and raise ``ValueError``.  A new file gets mode 0o666 less
    the umask.  An existing file is rewritten in place, not truncated to zero
    first, which on ext4 measured 6-19 times slower (most likely the
    ``auto_da_alloc`` flush on truncate).  Only a regular file longer than
    the new bytes is then cut, so ``/dev/null``, terminals and FIFOs work as
    targets.  On POSIX the bytes are those of ``open(path, "w",
    encoding="utf-8")``.
    """
    created = []  # the files the opens create: missing paths, and dangling links' targets
    for path, _ in outputs:
        if path and not os.path.exists(path):
            target = os.path.realpath(path)
            if not os.path.lexists(target):  # a link loop has no target to create
                created.append(target)
    fds: list[int | None] = []
    try:
        try:
            for path, _ in outputs:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666) if path else None)
            olds = [None if fd is None else os.fstat(fd) for fd in fds]
            named = {}  # (st_dev, st_ino) of each regular file -> its path
            for old, (path, _) in zip(olds, outputs):
                if old is not None and stat.S_ISREG(old.st_mode):
                    key = (old.st_dev, old.st_ino)
                    if key in named:
                        raise ValueError(f"two outputs name one file: {named[key]} and {path}")
                    named[key] = path
        except (OSError, ValueError):
            for path in filter(os.path.lexists, created):  # skips the unopened ones
                os.unlink(path)
            raise
        for fd, old, (_, text) in zip(fds, olds, outputs):
            if fd is None:
                sys.stdout.write(text)
                continue
            data = text.encode("utf-8")
            written = os.write(fd, data)
            while written < len(data):
                written += os.write(fd, data[written:])
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                os.ftruncate(fd, len(data))
    finally:
        for fd in fds:
            if fd is not None:
                os.close(fd)


def save_graph(graph: Graph, path: str) -> None:
    write_outputs([(path, format_edge_list(graph))])
