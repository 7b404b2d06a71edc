"""Exact-3-Cover reduction to bounded total [1,2]-domination.

Each 3-set gets a 4-cycle with an anchor vertex and three connector vertices;
each universe element attaches to all three connectors of every set containing
it.  A cover of size q corresponds to a total [1,2]-set of size 2t + q, which
is also the budget of the decision question.  The gadget's 7t + 3q vertices
are checked against the solver cap before the gadget is built.  Its edges
(``gadget_layout``) and the sidecar's role map are both read off the fixed id
layout, so ``domkit reduce`` writes the gadget's text without building a
``Graph``; only the searches and the witness checks build one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .domsets import satisfies, total_one_k
from .graphs import Edge, Graph
from .solvers import check_cap, exists_set, min_set


class ReductionError(RuntimeError):
    """A witness inside budget failed to yield an exact cover."""


@dataclass(frozen=True)
class X3CInstance:
    """An Exact-3-Cover instance: universe 0..3q-1 and 3-element subsets."""

    universe_size: int
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        # lists of lists would leave the frozen instance unhashable and unequal
        # to its own JSON round trip, which gives tuples
        try:
            object.__setattr__(self, "sets", tuple(map(tuple, self.sets)))
        except TypeError:
            raise ValueError(f"the sets {self.sets!r} are not a collection of triples") from None
        # bool is an int subclass and a float such as 3.0 compares like one,
        # but x3c_from_json rejects both, and a float cannot index the gadget
        if type(self.universe_size) is not int:
            raise ValueError(f"universe size {self.universe_size!r} is not an integer")
        if self.universe_size <= 0 or self.universe_size % 3 != 0:
            raise ValueError("universe size must be a positive multiple of 3")
        if not self.sets:
            raise ValueError("the collection must contain at least one set")
        for triple in self.sets:
            if len(triple) != 3 or len(set(triple)) != 3:
                raise ValueError(f"set {triple} must have exactly 3 distinct elements")
            for x in triple:
                if type(x) is not int:
                    raise ValueError(f"element {x!r} is not an integer")
                if not (0 <= x < self.universe_size):
                    raise ValueError(f"element {x} outside universe 0..{self.universe_size - 1}")

    @property
    def num_sets(self) -> int:
        return len(self.sets)

    @property
    def q(self) -> int:
        return self.universe_size // 3


@dataclass(frozen=True)
class GadgetMeta:
    """Id bookkeeping for a built gadget.

    Layout: per set i a 4-cycle block (anchor, then three cycle fillers),
    then all connectors in set order, then the universe elements.
    """

    num_sets: int
    universe_size: int
    budget: int
    cycles: tuple[tuple[int, int, int, int], ...]
    connectors: tuple[tuple[int, int, int], ...]
    elements: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return 7 * self.num_sets + self.universe_size

    def anchor(self, i: int) -> int:
        return self.cycles[i][0]

    def role_of(self, vid: int) -> dict:
        t = self.num_sets
        if 0 <= vid < 4 * t:
            i, pos = divmod(vid, 4)
            return {"role": "cycle", "set": i, "pos": pos}
        if 4 * t <= vid < 7 * t:
            i, slot = divmod(vid - 4 * t, 3)
            return {"role": "connector", "set": i, "slot": slot}
        if 7 * t <= vid < 7 * t + self.universe_size:
            return {"role": "element", "element": vid - 7 * t}
        raise ValueError(f"vertex {vid} not in gadget")

    def to_sidecar_json(self) -> str:
        """``json.dumps({"budget": ..., "roles": {str(v): role_of(v), ...}})``,
        formatted straight from the three id ranges of the layout."""
        t = self.num_sets
        roles = [f'"{v}": {{"role": "cycle", "set": {v >> 2}, "pos": {v & 3}}}'
                 for v in range(4 * t)]
        roles += [f'"{4 * t + 3 * i + slot}": {{"role": "connector", "set": {i}, "slot": {slot}}}'
                  for i in range(t) for slot in range(3)]
        roles += [f'"{7 * t + x}": {{"role": "element", "element": {x}}}'
                  for x in range(self.universe_size)]
        return f'{{"budget": {self.budget}, "roles": {{{", ".join(roles)}}}}}'


def check_gadget_cap(inst: X3CInstance, force: bool = False) -> None:
    """``solvers.check_cap`` on the gadget's 7t + 3q vertices, before it is built."""
    check_cap(7 * inst.num_sets + inst.universe_size, force)


def gadget_layout(inst: X3CInstance) -> tuple[list[Edge], GadgetMeta]:
    """The gadget's edges, (u, v) with u < v in ascending order, read off the
    id layout, and its ``GadgetMeta``.

    Set i's block 4i..4i+3 meets its connectors c..c+2 (c = 4t + 3i) through
    the anchor 4i; each connector then meets the set's elements 7t + x.
    """
    t = inst.num_sets
    q = inst.q
    edges: list[Edge] = []
    for i in range(t):
        a, c = 4 * i, 4 * t + 3 * i
        edges += ((a, a + 1), (a, a + 3), (a, c), (a, c + 1), (a, c + 2),
                  (a + 1, a + 2), (a + 2, a + 3))
    base = 7 * t
    for i, triple in enumerate(inst.sets):
        x, y, z = sorted(triple)
        c = 4 * t + 3 * i
        for v in (c, c + 1, c + 2):
            edges += ((v, base + x), (v, base + y), (v, base + z))
    cycles = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(t))
    connectors = tuple(tuple(range(4 * t + 3 * i, 4 * t + 3 * i + 3)) for i in range(t))
    elements = tuple(range(base, base + 3 * q))
    return edges, GadgetMeta(t, inst.universe_size, 2 * t + q, cycles, connectors, elements)


def build_gadget(inst: X3CInstance) -> tuple[Graph, GadgetMeta]:
    """Deterministic gadget graph on 7t + 3q vertices with budget 2t + q."""
    edges, meta = gadget_layout(inst)
    return Graph(meta.num_vertices, edges), meta


def _check_exact_cover(inst: X3CInstance, cover: frozenset[int]) -> None:
    hits = [0] * inst.universe_size
    for i in cover:
        if not (0 <= i < inst.num_sets):
            raise ValueError(f"set index {i} out of range")
        for x in inst.sets[i]:
            hits[x] += 1
    if any(c != 1 for c in hits):
        raise ValueError("cover is not exact: some element is not hit exactly once")


def cover_to_witness(inst: X3CInstance, meta: GadgetMeta,
                     cover: frozenset[int] | set[int]) -> frozenset[int]:
    """Total [1,2]-set of size 2t + |cover| built from an exact cover.

    Every block contributes its anchor and the anchor's fixed cycle neighbor;
    chosen sets add their first connector.
    """
    cover = frozenset(cover)
    _check_exact_cover(inst, cover)
    picked: set[int] = set()
    for u, a, _b, _c in meta.cycles:
        picked.update((u, a))
    for i in cover:
        picked.add(meta.connectors[i][0])
    return frozenset(picked)


def witness_to_cover(inst: X3CInstance, meta: GadgetMeta,
                     witness: frozenset[int] | set[int]) -> frozenset[int]:
    """Extract the covering sets from a budget-respecting total [1,2]-set.

    Raises ``ValueError`` on an invalid or over-budget witness and
    ``ReductionError`` when the extraction is not an exact cover, which the
    equivalence theorem rules out.
    """
    witness = frozenset(witness)
    graph, _ = build_gadget(inst)
    if not satisfies(graph, witness, total_one_k(2)):
        raise ValueError("witness is not a total [1,2]-set of the gadget")
    if len(witness) > meta.budget:
        raise ValueError(f"witness has {len(witness)} vertices, budget is {meta.budget}")
    chosen = frozenset(
        i for i, slots in enumerate(meta.connectors) if witness & set(slots)
    )
    try:
        _check_exact_cover(inst, chosen)
    except ValueError as exc:
        raise ReductionError(f"extracted collection is not an exact cover: {exc}") from None
    return chosen


def _covers_universe(inst: X3CInstance) -> bool:
    return len({x for triple in inst.sets for x in triple}) == inst.universe_size


def _has_exact_cover(inst: X3CInstance) -> bool:
    """Brute force over all 2^t subcollections."""
    t = inst.num_sets
    for bits in range(1 << t):
        hits = [0] * inst.universe_size
        for i in range(t):
            if bits >> i & 1:
                for x in inst.sets[i]:
                    hits[x] += 1
        if all(c == 1 for c in hits):
            return True
    return False


def decide_x3c(inst: X3CInstance, mode: str = "via_gadget", *, force: bool = False) -> bool:
    """Decide Exact-3-Cover either by direct enumeration or via the gadget.

    Both answer "no" at once when some element lies in no set.  Otherwise
    both check the gadget's size against the cap (``resolve_cap``, unless
    ``force``) before any exponential work, so they refuse the same instances.
    """
    if mode not in ("brute_force", "via_gadget"):
        raise ValueError(f"unknown mode {mode!r}")
    if not _covers_universe(inst):
        return False  # an uncovered element would be an isolated gadget vertex
    check_gadget_cap(inst, force)
    if mode == "brute_force":
        return _has_exact_cover(inst)
    graph, meta = build_gadget(inst)
    return exists_set(graph, total_one_k(2), limit=meta.budget, force=force)


def minimum_gadget_witness(inst: X3CInstance, *, force: bool = False):
    """Exact minimum total [1,2]-set of the gadget (for budget-tightness checks).

    The cap is checked before the gadget is built.
    """
    check_gadget_cap(inst, force)
    graph, _ = build_gadget(inst)
    return min_set(graph, total_one_k(2), force=force)


# -- instance JSON ------------------------------------------------------------


def _json_int(value: object) -> int:
    # bool is an int subclass; floats, 6.0 included, are never truncated
    if type(value) is not int:
        raise ValueError(f"malformed instance JSON: {value!r} is not an integer")
    return value


def x3c_from_json(text: str) -> X3CInstance:
    data = json.loads(text)
    try:
        universe = _json_int(data["universe"])
        sets = tuple(tuple(_json_int(x) for x in triple) for triple in data["sets"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from None
    return X3CInstance(universe, sets)  # type: ignore[arg-type]


def x3c_to_json(inst: X3CInstance) -> str:
    return json.dumps({"universe": inst.universe_size,
                       "sets": [list(t) for t in inst.sets]})
