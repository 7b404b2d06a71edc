"""Exact minimum-cardinality search for every set kind, plus path/cycle closed forms.

The search enumerates candidate sets as bitmasks in ascending cardinality and,
within a cardinality, in ascending lexicographic order of the sorted vertex
ids, so the first satisfying set found is the canonical witness.  One
recursive loop deepens over exact target sizes for ``min_set``,
``enumerate_sets`` and the scattered-set scans.  Existence questions go to a
second search, the existence walk (below): ``exists_set``, and ``min_set``'s
guess and its descent after two passes that found no set.  A walk that
succeeds keeps the set it reached, which need not be the canonical one.
Where the walks locate the minimum, the witness phase (below) builds the
canonical witness from that set; every other witness comes from deepening.

The existence walk asks whether some set has at most ``limit`` members.  It
keeps a chosen set S and an excluded set X.  It succeeds once no vertex is
unmet and no vertex outside S is over hi_out, and dies on the counting bound
below.  Without a member bound, a vertex over hi_out must join S: the walk
dies if there are more of them than picks left, and otherwise its only
branch adds the lowest of them.  No such vertex is ever in X, by the
saturation cut: a vertex in X that hears hi_out members would go over
hi_out if one more neighbour joined, so its neighbours leave the suppliers
and go to X untried.  Otherwise, with two picks or more left, it takes the
unmet vertex with the fewest suppliers (the vertices of its hood, below)
outside S and X, lowest id on ties, the fail-first rule of Haralick and
Elliott (*Artificial Intelligence* 14, 1980): every completion holds one of
them; the last pick is below.  Each supplier is tried in ascending id order
and added to X after its branch, so no two branches share a set.  A
supplier whose joining would put a member over hi_in, or (with a member
bound) an outside vertex over hi_out, which could only join over
hi_in <= hi_out, goes to X with no branch: no completion holds it.  So does a
supplier v whose next lower twin u is in X.  The branch that put u in X
searched every set holding the S of that moment plus u and avoiding the X
of that moment; neither twin was in either, so swapping u and v maps any
set through v, S and the current X into that space.  The answer is that of
a full subset scan.  Each child's forced joins, success and counting bound
are read off its parent's levels, as in deepening (below), and only a child
that passes them costs a call.

Pruning is sound-only.  A branch is cut when a spanning number already
exceeds the applicable upper bound with no way to recover, or by a counting
bound: one new member newly satisfies at most Delta + 1 vertices (Delta for
total kinds, whose members need an in-set neighbor themselves), so more
unsatisfied vertices than ``picks left * gain`` cannot be repaired.  The loop
over a node's candidates stops at the first candidate whose skipped
predecessors leave an unsatisfied vertex with no supplier left (a neighbor,
or the vertex itself for non-total kinds); a prefix table makes that one AND
per candidate.  No spanning number exceeds Delta, so upper bounds at or above
Delta are dropped.  A node's levels hold at most Delta + 1 masks: level i
holds the vertices with more than i neighbors in the set, so they are
nested and the child that adds v has level i equal to
``levels[i] | adj[v] & levels[i - 1]``.  The candidate loop reads each
child's cuts, unmet vertices and validity from that identity; only a child
that will be extended builds a levels list and costs a call.

Twins are vertices with the same open neighbourhood, N(u) = N(v), or the
same closed one, N[u] = N[v]; swapping two twins maps the graph onto itself.
Deepening in ``min_set`` skips a candidate while its next lower twin is left
out of the set (the lex-leader rule of Crawford, Ginsberg, Luks and Roy,
KR 1996); the existence walk excludes it as above.  Every kind is defined by
bounds on |N(x) & S| alone, so swapping twins u < v in a set that holds v
but not u gives a set of the same kind and size that is lexicographically
smaller.  The lexicographically smallest minimum witness thus never breaks
the rule, so every answer and witness is that of the full search; only
``nodes_explored`` falls.
``enumerate_masks`` and ``enumerate_sets`` list every set, without the cut.

The last member must meet every unmet vertex, and a member meets u exactly
when it lies in u's hood.  So at the last pick both searches take only the
vertices in every unmet vertex's hood, one AND per unmet vertex; each vertex
this drops would leave one unmet.  Deepening narrows start..cap to them.
The walk skips its scan and branches on the forced vertex, else on its free
vertices, within them, ascending.  Its first success, and so ``found``, stay
the same: every child that succeeded under the scan is among them, in the
same order; a dropped sibling would have failed; and where one was v's lower
twin, the swap argument shows that v fails too.

The scattered-set scans, ``first_sd_set`` and ``min_sd_size_plus_alpha``,
build a ``_Search`` with the graph's ``near`` masks (vertices at distance 1
or 2), which then applies the scattered cut.  A member is settled once no
candidate after the last pick is its neighbor, and lonely while it has no
in-set neighbor; a settled lonely member stays lonely in every extension,
so once another member lies within distance 2 of it no extension is
scattered and the child is skipped.  The scans accept only scattered sets,
so their answers are those of the full listing.

Deepening ends at a pass that finds a set or at the size limit, or it is
settled by the descent that ``min_set`` runs after two failed passes, before
the pass at size s.  The walk first asks for a set of at most the limit;
with none, the answer is nonexistence.  Each set it finds, of u members,
makes it ask again for u - 1 or fewer, while that is at least s.  The
last walk proves every size below the smallest u empty, or u is s, so u is
the minimum.  The witness phase then takes v = 0, 1, ... in turn with a set
S and an excluded set X, both empty at first, until S has u members.  v
joins S if it is in ``found``, which holds S, avoids X and has u members,
or if a walk from the imposed prefix (S plus v, X) finds a set of at most u
members, which becomes ``found``; otherwise v goes to X.  The phase keeps
the twin table.  Each vertex w in its X went there when a walk answered
that no set of at most u members holds the S of that moment plus w and
avoids the X of that moment: the invariant the walk keeps for its own X,
at the same limit, so the swap argument holds for the phase's X as well,
and a v whose next lower twin is in X goes to X with no walk.

A packing bounds every set of a kind from below.  Call a vertex's hood its
closed neighbourhood N[v], or its open one N(v) when members need an in-set
neighbour (the total kinds).  Every kind has lo_out = 1, and the total kinds
lo_in = 1, so every vertex needs a member in its hood; vertices whose hoods
are pairwise disjoint therefore need distinct members, and no set is smaller
than such a packing (rho <= gamma, Meir and Moon, Pacific J. Math. 61, 1975;
open packings bound gamma_t, Henning and Slater, 1999).  ``packing`` takes
hoods greedily, smallest first.  ``exists_set`` answers "no" without a
walk when the packing exceeds its limit: on the X3C gadget, q + 1
elements that no set holds two of, plus two vertices per 4-cycle, exceed
the budget 2t + q, which settles all 300 no-instances of the catalog that
reach the gadget.  ``min_set`` computes the packing once, after its first
pass that finds no set, and deepening then skips every size below it;
every skipped size is empty, so answers and witnesses are unchanged.

Deepening never starts a pass for a size that double counting rules out
(the edge-counting argument for bounded domination in Haynes, Hedetniemi
and Slater, *Fundamentals of Domination in Graphs*, 1998).  It applies to
kinds whose outside vertices hear at most hi_out members.  Count the edges
between a set of s members and the t = n - s other vertices: a member of
degree d sends at least d - min(s - 1, hi_in) of them and an outside vertex
receives at most hi_out, so the s smallest degrees must give
sum(max(0, d - min(s - 1, hi_in))) <= hi_out * t; an outside vertex keeps at
least d - hi_out neighbors among the t - 1 others, so the t smallest degrees
must give sum(max(0, d - hi_out)) <= t * (t - 1).  A size that fails holds no
set; skipping it runs no pass, so it cannot end the deepening, and the walk
lowers its limit to the largest size the bound allows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from itertools import accumulate
from operator import or_
from typing import Callable

from .domsets import SetKind, check_int, j_dependent_one_k, near_masks, scattered_test
from .graphs import (  # noqa: F401 (GraphTooLargeError is re-exported)
    Graph,
    GraphTooLargeError,
    check_vertex_cap,
    mask_to_ids,
)

DEFAULT_MAX_N = 32


def resolve_cap() -> int:
    """Solver vertex cap: DOMKIT_MAX_N, else 32.

    Raises ``ValueError`` for a cap that is not a non-negative integer.
    """
    env = os.environ.get("DOMKIT_MAX_N")
    if env is None:
        return DEFAULT_MAX_N
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"DOMKIT_MAX_N must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"the vertex cap must be non-negative, got {cap}")
    return cap


def check_cap(n: int, force: bool = False) -> None:
    """Raise ``GraphTooLargeError`` when ``n`` vertices exceed the solver cap
    (``resolve_cap()``), unless ``force``; the cap is validated either way."""
    cap = resolve_cap()
    if not force:
        check_vertex_cap(n, cap)


def _check_limit(limit: int | None) -> None:
    if limit is not None and (type(limit) is not int or limit < 0):
        check_int(limit=limit)  # raises unless limit is an int, which is then negative
        raise ValueError(f"the limit must be non-negative, got {limit}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact minimum search.

    ``exists`` iff ``gamma``/``witness`` are present; the witness is the
    lexicographically smallest minimum set; ``nodes_explored`` counts search
    tree nodes for reproducibility checks: those of deepening plus those of
    every existence walk the search ran, the witness phase's included.  It
    is deterministic, but a property of the search, not of the answer.
    """

    kind: SetKind
    exists: bool
    gamma: int | None
    witness: tuple[int, ...] | None
    nodes_explored: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.base,
            "j": self.kind.j,
            "k": self.kind.k,
            "exists": self.exists,
            "gamma": self.gamma,
            "witness": None if self.witness is None else list(self.witness),
            "nodes_explored": self.nodes_explored,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def _twin_before(adj: tuple[int, ...], closed: list[int]) -> list[int] | None:
    """``twin_before[v]`` = the bit of v's next lower twin, or 0; None when
    the graph has no twins.  No vertex v has both an open twin u and a closed
    twin w: w is in N(v) = N(u), so u is in N[w] = N[v], and an open twin
    is never adjacent to v."""
    n = len(adj)
    table = None
    for hoods in (adj, closed):
        if len(set(hoods)) == n:
            continue  # no two vertices share this neighbourhood
        table = table or [0] * n
        last: dict[int, int] = {}
        for v, hood in enumerate(hoods):
            if hood in last:
                table[v] = last[hood]
            last[hood] = 1 << v
    return table


class _Search:
    """Bitmask DFS over candidate sets for one (graph, kind) pair: ``run``
    deepens over exact sizes, ``exists`` walks the existence question,
    ``locate`` descends with walks to the minimum, and ``witness`` builds
    the canonical witness there (see the module docstring).  With
    ``break_twins`` deepening and the walk break twin symmetry, with the
    graph's ``near`` masks deepening applies the scattered cut, and with
    neither it reaches every set."""

    __slots__ = (
        "n", "adj", "full", "delta", "dead_before", "levels_len", "gain", "hi_in", "hi_out",
        "member_needs_lo", "hoods", "twin_before", "near", "degrees", "nodes", "found",
    )

    def __init__(self, graph: Graph, kind: SetKind, break_twins: bool = False,
                 near: list[int] | None = None) -> None:
        """Build the tables both searches read: the bounds that can bind,
        the hoods, and with ``break_twins`` the twin table.  Deepening's
        ``dead_before`` prefix table waits for the first ``run``, so a search
        that only walks never builds it.  Every search builds its own;
        nothing is kept per graph.
        """
        self.n = n = graph.n
        self.adj = adj = graph.neighbor_masks
        self.full = (1 << n) - 1
        lo_in, hi_in, _, hi_out = kind.bounds()
        self.delta = delta = max(map(int.bit_count, adj), default=0)
        # No spanning number exceeds delta, so a bound >= delta never binds.
        self.hi_in = hi_in = hi_in if hi_in is not None and hi_in < delta else None
        self.hi_out = hi_out = hi_out if hi_out is not None and hi_out < delta else None
        self.member_needs_lo = member_needs_lo = lo_in >= 1
        # One new member newly satisfies at most its delta neighbors, plus
        # itself when members need no in-set neighbor.
        self.gain = delta + (0 if member_needs_lo else 1)
        # levels[i] = mask of vertices with spanning number >= i + 1
        self.levels_len = 1 + max(hi_in or 0, hi_out or 0)
        closed = [m | 1 << w for w, m in enumerate(adj)]
        # hoods[v] = the vertices whose membership meets v's lower bound
        self.hoods = adj if member_needs_lo else closed
        self.dead_before: list[int] | None = None  # built by the first run
        self.twin_before = _twin_before(adj, closed) if break_twins else None
        self.near = near
        self.degrees: list[int] | None = None  # ascending, sorted by _size_fits
        self.nodes = 0
        self.found = 0  # the set the last successful walk reached

    def run(self, min_size: int, max_size: int, on_solution: Callable[[int], bool],
            descend: bool = False) -> bool:
        """Explore candidate sets of each exact size from ``min_size`` to
        ``max_size``, one size at a time; sizes ascending, lexicographic
        within a size.  Deepening ends when the callback returns True or
        after ``max_size``.  With ``descend``, the first pass that finds no
        set computes the packing, and deepening skips every size below it;
        a skip of one size or more counts as one more failed pass.  The pass
        that follows two failed passes first asks ``locate``: if no set of
        at most ``max_size`` members exists, deepening ends; otherwise the
        callback gets the ``witness`` at the minimum the walks found.
        A size that the double-counting bound (``_size_fits``) rules out
        holds no set: deepening skips it without a pass.  The root, the
        empty set, is valid only when n = 0; no vertex must join it, so its
        one entry cut is the counting bound.
        """
        n = self.n
        if min_size == 0:
            self.nodes += 1
            if n == 0 and on_solution(0):
                return True
        if self.dead_before is None:
            # A vertex's suppliers are its hood.  dead_before[v] = vertices
            # whose suppliers all have ids below v: once the candidates
            # start..v-1 are skipped, an unmet one among them can never be
            # met.  A member's suppliers hold all its neighbors, so
            # dead_before[v + 1] holds every member that no candidate after
            # v can touch; dead_before[n] is every vertex.
            buckets = [0] * (n + 1)
            for w, hood in enumerate(self.hoods):
                buckets[hood.bit_length()] |= 1 << w
            self.dead_before = list(accumulate(buckets, or_))
        empty = [0] * self.levels_len  # _rec copies levels before changing them
        failed = 0  # passes that ended with no set
        floor = 0  # sizes below it hold no set: the packing
        for size in range(max(min_size, 1), min(max_size, n) + 1):
            if size < floor or not self._size_fits(size):
                continue  # no set has this size; a skipped size is not a pass
            if descend and failed == 2:
                # two: on the seed-11 benchmark calls, after one solve takes 12,496 nodes
                # against 18,143 but product 55,552 against 54,089; after three solve 32,297
                minimum = self.locate(size, max_size)  # None: no set of any size up to max_size
                return minimum is not None and on_solution(self.witness(minimum))
            self.nodes += 1
            if n > size * self.gain:
                continue  # the counting bound, which a larger size may pass
            if self._rec(0, size, 0, self.full, empty, n - size, on_solution):
                return True
            failed += 1
            if descend and failed == 1:
                floor = self.packing().bit_count()
                if floor > size + 1:
                    failed += 1  # the sizes skipped up to the packing count as a failed pass
        return False

    def locate(self, low: int, limit: int) -> int | None:
        """Where the minimum lies, by a descent of existence walks: None
        when no set has at most ``limit`` members; otherwise the size u of
        the smallest set the walks found.  Each walk after a success asks
        for a set smaller than the last one found, while that limit is at
        least ``low``.  So no set has fewer than u members unless one has
        fewer than ``low``: u is the minimum when every size below ``low``
        is known to hold no set.
        """
        size = None
        while limit >= low and self.exists(limit):
            size = self.found.bit_count()
            limit = size - 1
        return size

    def exists(self, limit: int, mask: int = 0, excluded: int = 0) -> bool:
        """True iff some set of the kind holds ``mask``, avoids ``excluded``
        and has at most ``limit`` members, by the existence walk of the
        module docstring; on True, ``found`` is the set the walk reached.
        ``limit`` first drops to the largest size that ``_size_fits``
        allows.  This is the walk's root node: it builds ``mask``'s levels
        and runs the entry cuts every child gets from its parent, after the
        checks that ``_walk`` keeps true only for a prefix it built itself:
        no member over hi_in, no outsider over hi_out while hi_in binds, and
        no vertex over hi_out in ``excluded``.  With the twin table,
        ``excluded`` must keep the walk's invariant, as the phase's X does."""
        while limit > 0 and not self._size_fits(limit):
            limit -= 1
        self.nodes += 1
        levels = [0] * self.levels_len
        for v in mask_to_ids(mask):
            carry = self.adj[v]
            for i, prev in enumerate(levels):
                levels[i] = prev | carry
                carry &= prev
        hi_in = self.hi_in
        must = 0 if self.hi_out is None else levels[self.hi_out] & ~mask
        if hi_in is not None and (mask & levels[hi_in] or must) or must & excluded:
            return False
        unmet = self.full & ~(levels[0] if self.member_needs_lo else levels[0] | mask)
        if not (unmet or must):
            self.found = mask
            return True
        left = limit - mask.bit_count()
        if must.bit_count() > left or unmet.bit_count() > left * self.gain:
            return False
        return self._walk(mask, excluded, levels, unmet, must, left)

    def witness(self, size: int) -> int:
        """The lexicographically smallest set of the kind, when ``found`` has
        ``size`` members and no set is smaller: the witness phase of the
        module docstring."""
        twin_before = self.twin_before
        mask = excluded = v = 0
        while mask != self.found:  # found holds mask, avoids excluded and has size members
            bit = 1 << v
            if self.found & bit or not (twin_before and twin_before[v] & excluded) and \
                    self.exists(size, mask | bit, excluded):
                mask |= bit
            else:
                excluded |= bit  # no walk when v's lower twin is excluded: the swap maps v there
            v += 1
        return mask

    def _walk(self, mask: int, excluded: int, levels: list[int], unmet: int, must: int,
              left: int) -> bool:
        """True iff some set of the kind holds ``mask``, avoids ``excluded``
        and has at most ``left`` more members; on True, ``found`` holds it.
        ``levels`` are ``mask``'s nested levels, ``unmet`` its unmet vertices
        and ``must`` its vertices over hi_out that must join.  The caller
        counted this node and ran its entry cuts.  Each child is read off
        this node's levels, as in ``_rec``: its forced joins, success and
        counting bound cost a few mask operations, it counts one node, and
        only a child that passes them gets a levels list and a call.  The
        forced joins, cuts, exclusions and the last pick's branches, which
        meet every unmet vertex, are those of the module docstring.
        """
        hi_in = self.hi_in
        hi_out = self.hi_out
        adj = self.adj
        free = self.full & ~(mask | excluded)
        if hi_out is not None:  # hi_out >= lo_out = 1
            out_at = levels[hi_out]
            out_below = levels[hi_out - 1]
        if hi_in is not None:
            in_at = levels[hi_in]
            in_below = levels[hi_in - 1] if hi_in else self.full
            free &= ~in_at  # a vertex over the member bound can never join
        elif hi_out is not None:
            # an excluded vertex that hears hi_out members would have to
            # join if one more neighbor did, so no neighbor of it can join
            saturated = excluded & out_below
            while saturated:
                low = saturated & -saturated
                saturated ^= low
                free &= ~adj[low.bit_length() - 1]
        if left == 1:
            suppliers = self._meeting(unmet, must or free)  # no scan: it must meet every unmet
        elif must:
            suppliers = must & -must  # the lowest forced vertex is the only branch
        else:
            hoods = self.hoods
            fewest = self.n + 1
            rest = unmet
            while rest:
                low = rest & -rest
                rest ^= low
                hood = hoods[low.bit_length() - 1] & free
                count = hood.bit_count()
                if count < fewest:
                    fewest, suppliers = count, hood
                    if count <= 1:
                        break
        level0 = levels[0]
        member_needs_lo = self.member_needs_lo
        levels_len = self.levels_len
        twin_before = self.twin_before
        left -= 1
        unmet_cap = left * self.gain
        child_must = 0
        nodes = 0
        while suppliers:
            bit = suppliers & -suppliers
            suppliers ^= bit
            v = bit.bit_length() - 1
            if twin_before is not None and twin_before[v] & excluded:
                excluded |= bit  # v's lower twin was excluded: swapping them maps v's sets there
                continue
            av = adj[v]
            new_mask = mask | bit
            if hi_in is not None:
                # a member over hi_in, or an outsider over hi_out >= hi_in,
                # which must join and would then be over hi_in too
                if new_mask & (in_at | av & in_below) or (
                        hi_out is not None and (out_at | av & out_below) & ~new_mask):
                    excluded |= bit
                    continue
            elif hi_out is not None:
                if av & excluded & out_below:
                    excluded |= bit  # an excluded neighbor would go over hi_out
                    continue
                child_must = (out_at | av & out_below) & ~new_mask
            nodes += 1
            child0 = level0 | av
            # a new member meets its own lower bound unless it needs an in-set neighbor
            child_unmet = unmet & ~(child0 if member_needs_lo else child0 | bit)
            if not (child_unmet or child_must):
                self.nodes += nodes
                self.found = new_mask
                return True
            if child_must.bit_count() <= left and child_unmet.bit_count() <= unmet_cap:
                new_levels = levels.copy()
                new_levels[0] = child0
                carry = av & level0
                i = 1
                while carry and i < levels_len:
                    prev = new_levels[i]
                    new_levels[i] = prev | carry
                    carry &= prev
                    i += 1
                if self._walk(new_mask, excluded, new_levels, child_unmet, child_must, left):
                    self.nodes += nodes
                    return True
            excluded |= bit
        self.nodes += nodes
        return False

    def _meeting(self, unmet: int, candidates: int) -> int:
        """The ``candidates`` that meet every ``unmet`` vertex: a member
        meets u exactly when it lies in u's hood."""
        hoods = self.hoods
        while unmet and candidates:
            low = unmet & -unmet
            unmet ^= low
            candidates &= hoods[low.bit_length() - 1]
        return candidates

    def packing(self) -> int:
        """Mask of a greedy packing: vertices with pairwise disjoint non-empty
        hoods, taken in ascending order of hood size, ties by id.  Every
        vertex needs a member in its hood, and disjoint hoods need distinct
        members, so no set of the kind has fewer members than the packing
        has vertices (see the module docstring).
        """
        hoods = self.hoods
        taken = packed = 0
        for v in sorted(range(self.n), key=lambda v: hoods[v].bit_count()):
            hood = hoods[v]
            if hood and not hood & taken:
                taken |= hood
                packed |= 1 << v
        return packed

    def _size_fits(self, size: int) -> bool:
        """False when double counting the edges between a set of ``size``
        members and the other vertices rules the size out (see the module
        docstring); kinds with no binding hi_out always fit.  The degrees,
        sorted on first use, give the smallest sums any set can have.
        """
        hi_out = self.hi_out
        if hi_out is None:
            return True
        out = self.n - size
        own = size - 1 if self.hi_in is None else min(size - 1, self.hi_in)
        budget = hi_out * out
        delta = self.delta
        if size * (delta - own) <= budget and delta - hi_out < out:
            return True  # no degree is large enough for either sum to exceed its budget
        degrees = self.degrees
        if degrees is None:
            degrees = self.degrees = sorted(map(int.bit_count, self.adj))
        for d in degrees[:size]:
            if d > own:
                budget -= d - own
                if budget < 0:
                    return False
        budget = out * (out - 1)
        for d in degrees[:out]:
            if d > hi_out:
                budget -= d - hi_out
                if budget < 0:
                    return False
        return True

    def _rec(self, start: int, remaining: int, mask: int, unmet: int,
             levels: list[int], cap: int,
             on_solution: Callable[[int], bool]) -> bool:
        """Extend the set ``mask`` by candidates ``start..cap``; ``remaining``
        picks are left, and the caller has counted this node.

        Each child is read off this node's nested levels (see the module
        docstring): its levels 0, ``hi_in`` and ``hi_out``, its unmet
        vertices and its validity cost a few mask operations, and only a
        child that passes its entry cuts and will be extended gets a levels
        list and a call.  Only sets that use every pick are tested.  The loop
        stops once the skipped candidates ``start..v-1`` were the last
        suppliers of an unmet vertex; the last pick takes only candidates
        in every unmet vertex's hood (see the module docstring).
        """
        adj = self.adj
        dead_before = self.dead_before
        twin_before = self.twin_before
        near = self.near
        member_needs_lo = self.member_needs_lo
        levels_len = self.levels_len
        level0 = levels[0]
        hi_in = self.hi_in
        if hi_in is not None:
            in_at = levels[hi_in]
            in_below = levels[hi_in - 1] if hi_in else self.full
        hi_out = self.hi_out
        must = 0  # vertices over the off-set bound, which must join the set
        if hi_out is not None:
            out_at = levels[hi_out]
            out_below = levels[hi_out - 1]  # hi_out >= lo_out = 1
            # every kind has hi_in <= hi_out, so a vertex over hi_out that joins is over hi_in
            must_dies = hi_in is not None
        left = remaining - 1
        unmet_cap = left * self.gain
        child_top = self.n - left
        nodes = 0
        candidates = (2 << cap) - (1 << start)  # start..cap
        if not left:  # the last member must meet every unmet vertex
            candidates = self._meeting(unmet, candidates)
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            v = bit.bit_length() - 1
            if unmet & dead_before[v]:
                break  # skipping start..v-1 left an unmet vertex no supplier
            if twin_before is not None and twin_before[v] & ~mask:
                continue  # v's lower twin was skipped: swapping them gives a smaller set
            new_mask = mask | bit
            av = adj[v]
            if hi_in is not None:
                child_in = in_at | av & in_below
                if new_mask & child_in:
                    continue  # a member, v or another, is over its member bound
            child0 = level0 | av
            if near is not None:
                # settled lonely members: no in-set neighbor, none to come
                lonely = new_mask & ~child0 & dead_before[v + 1]
                while lonely:
                    low = lonely & -lonely
                    if near[low.bit_length() - 1] & new_mask:
                        break
                    lonely ^= low
                if lonely:
                    continue  # that member is too near another: no extension is scattered
            # a new member meets its own lower bound unless it needs an in-set neighbor
            new_unmet = unmet & ~(child0 if member_needs_lo else child0 | bit)
            if hi_out is not None:
                must = (out_at | av & out_below) & ~new_mask
            nodes += 1
            if not left:
                if not (new_unmet or must) and on_solution(new_mask):
                    self.nodes += nodes
                    return True
                continue
            if new_unmet.bit_count() > unmet_cap:
                continue
            child_cap = child_top
            if must:
                low = must & -must
                if low < bit or must_dies or must.bit_count() > left:
                    continue  # one must join but was skipped, cannot join, or lacks a pick
                child_cap = min(child_cap, low.bit_length() - 1)
            new_levels = levels.copy()
            new_levels[0] = child0
            carry = av & level0
            i = 1
            while carry and i < levels_len:
                prev = new_levels[i]
                new_levels[i] = prev | carry
                carry &= prev
                i += 1
            if self._rec(v + 1, left, new_mask, new_unmet, new_levels, child_cap, on_solution):
                self.nodes += nodes
                return True
        self.nodes += nodes
        return False


def min_set(graph: Graph, kind: SetKind, limit: int | None = None, *, guess: int = 0,
            force: bool = False) -> SolveResult:
    """Exact minimum set of the given kind, or nonexistence.

    Returns the lexicographically smallest witness of the smallest size.
    With ``limit`` the search stops after that cardinality and reports
    ``exists=False`` when nothing was found within it; a negative ``limit``
    raises ``ValueError``.  Above the cap (``resolve_cap``) it raises
    ``GraphTooLargeError`` unless ``force``.

    Deepening tries sizes 0, 1, 2, ..., and its first set is the witness.
    Every kind runs one plan (``_Search.run`` with ``descend``): the first
    pass that finds no set computes a greedy packing, and deepening skips
    every size below it; after two failed passes, a descent of existence
    walks locates the minimum and the witness phase builds the witness there
    (see the module docstring).  The packing waits for a failed pass because
    computing it in every call cost the ``product`` benchmark's thousands of
    small factor solves 3-18% in wall time.

    A ``guess`` g >= 1, an expected minimum size, starts with a descent
    below g.  If it finds no set, deepening starts at g, so the sizes below
    g cost one walk instead of one pass each; the phase in place of the
    pass at g cost ``product`` 33% more nodes.  A guess above n makes the
    walk settle nonexistence alone.  The answer and witness never depend on
    the guess, only ``nodes_explored`` does; a negative guess raises
    ``ValueError``.
    """
    _check_limit(limit)
    if type(guess) is not int or guess < 0:  # checked inline: min_set runs in hot loops
        check_int(guess=guess)
        raise ValueError(f"the guess must be non-negative, got {guess}")
    check_cap(graph.n, force)
    search = _Search(graph, kind, break_twins=True)
    top = graph.n if limit is None else min(limit, graph.n)
    found: list[int] = []

    def grab(mask: int) -> bool:
        found.append(mask)
        return True

    size = search.locate(0, min(guess - 1, top)) if guess else None
    if size is None:  # no guess, or no set is smaller than it
        search.run(guess, top, grab, descend=True)
    else:
        found.append(search.witness(size))
    if found:
        witness = mask_to_ids(found[0])
        return SolveResult(kind, True, len(witness), witness, search.nodes)
    return SolveResult(kind, False, None, None, search.nodes)


def exists_set(graph: Graph, kind: SetKind, limit: int | None = None, *,
               force: bool = False) -> bool:
    """True iff some vertex set of the kind exists (within ``limit`` if given).

    Runs the existence walk (see the module docstring) rather than
    cardinality-ordered search, so it is the cheaper query when only
    existence matters.  A limit below n that a greedy packing exceeds is
    answered False before any search, since no set has fewer members than
    the packing has vertices.  A negative
    ``limit`` raises ``ValueError``; the cap is that of ``min_set``.
    """
    _check_limit(limit)
    check_cap(graph.n, force)
    search = _Search(graph, kind, break_twins=True)
    top = graph.n if limit is None else min(limit, graph.n)
    if top < graph.n and search.packing().bit_count() > top:
        return False  # every set has at least as many members as the packing
    return search.exists(top)


def enumerate_masks(graph: Graph, kind: SetKind, min_size: int, max_size: int,
                    on_solution: Callable[[int], bool]) -> int:
    """Invoke the callback on every satisfying set of ``min_size..max_size``
    members, as a bitmask: sizes ascending, lexicographic order within a
    size.  The callback returns True to stop early.  Returns the number of
    search nodes explored.  Above the cap it raises ``GraphTooLargeError``.
    """
    check_int(min_size=min_size, max_size=max_size)
    if min_size < 0:
        raise ValueError("size must be non-negative")
    check_cap(graph.n)
    search = _Search(graph, kind)
    search.run(min_size, max_size, on_solution)
    return search.nodes


def enumerate_sets(graph: Graph, kind: SetKind, size: int,
                   on_solution: Callable[[frozenset[int]], bool]) -> int:
    """Invoke the callback on every satisfying set of the exact size, in
    lexicographic order; the callback returns True to stop early.  Returns
    the number of search nodes explored."""
    check_int(size=size)
    return enumerate_masks(graph, kind, size, size,
                           lambda mask: on_solution(frozenset(mask_to_ids(mask))))


def _sd_scan(graph: Graph, j: int, k: int, weight: int,
             force: bool) -> tuple[int, int] | None:
    """Minimum of |S| + (weight - 1) * alpha(S) over scattered j-dependent
    [1,k]-sets S, where ``alpha`` counts members with no in-set neighbor.

    Returns the value and the mask of the first set reaching it, or None when
    no such set exists.  The listing runs with the scattered cut, which skips
    only sets that no extension makes scattered, whatever their size, so the
    answer is that of the full scan.  Sizes only grow along the listing, so it
    stops at the first set of size >= the best value, and at a scattered set
    whose value is its size; with weight 1 that is the first scattered set.
    The solver cap applies unless ``force``, as for every other search.
    """
    check_cap(graph.n, force)
    adj = graph.neighbor_masks
    near = near_masks(adj)
    scattered = scattered_test(graph, near)
    best: list[int] = []  # [value, mask] of the first set reaching the minimum

    def consider(s: int) -> bool:
        size = s.bit_count()
        if best and size >= best[0]:
            return True
        if not scattered(s):
            return False
        value = size + (weight - 1) * sum(1 for v in mask_to_ids(s) if not adj[v] & s)
        if not best or value < best[0]:
            best[:] = [value, s]
        return value == size

    _Search(graph, j_dependent_one_k(j, k), near=near).run(0, graph.n, consider)
    return (best[0], best[1]) if best else None


def first_sd_set(graph: Graph, j: int, k: int, *,
                 force: bool = False) -> frozenset[int] | None:
    """Smallest (then lexicographically first) scattered j-dependent [1,k]-set."""
    found = _sd_scan(graph, j, k, 1, force)
    return frozenset(mask_to_ids(found[1])) if found else None


def min_sd_size_plus_alpha(graph: Graph, j: int, k: int, *,
                           force: bool = False) -> tuple[int, frozenset[int]] | None:
    """Minimum of |S| + alpha over scattered j-dependent [1,k]-sets S, with the
    first set achieving it, or None when no such set exists."""
    found = _sd_scan(graph, j, k, 2, force)
    return (found[0], frozenset(mask_to_ids(found[1]))) if found else None


def check_closed_form_k(k: int) -> None:
    """Raise ``ValueError`` unless the closed forms cover ``k`` (k >= 2)."""
    check_int(k=k)
    if k < 2:
        raise ValueError("closed forms require k >= 2")


def closed_form(family: str, n: int, kind: str, k: int = 2) -> int:
    """Known minimum sizes on paths and cycles; independent of k for k >= 2.

    ``t1k``: n/2, (n+1)/2, (n+2)/2, (n+1)/2 by n mod 4.
    ``one_k`` and ``i1k``: ceil(n/3).
    """
    if family not in ("path", "cycle"):
        raise ValueError(f"closed forms cover path and cycle, not {family!r}")
    if kind not in ("t1k", "one_k", "i1k"):
        raise ValueError(f"unknown closed-form kind {kind!r}")
    check_closed_form_k(k)
    check_int(n=n)
    minimum = 2 if family == "path" else 3
    if n < minimum:
        raise ValueError(f"{family} closed form requires n >= {minimum}")
    if kind == "t1k":
        return (n + (0, 1, 2, 1)[n % 4]) // 2
    return math.ceil(n / 3)
