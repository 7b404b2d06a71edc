"""Exact minimum-cardinality search for every set kind, plus path/cycle closed forms.

The search enumerates candidate sets as bitmasks in ascending cardinality and,
within a cardinality, in ascending lexicographic order of the sorted vertex
ids, so the first satisfying set found is the canonical witness.  One
recursive loop serves both modes: ``min_set`` and ``enumerate_sets`` deepen
over exact target sizes, while ``exists_set`` makes one variable-size sweep
up to its limit, which on the X3C gadgets explores far fewer nodes than
per-size deepening (README, "Solver notes").  ``min_set`` also runs that
sweep when deepening would go on after two passes that found no set, so a
nonexistence proof costs at most two passes and one sweep (see ``min_set``).

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
``min_set`` and ``exists_set`` skip a candidate while its next lower twin is
left out of the set (the lex-leader rule of Crawford, Ginsberg, Luks and
Roy, KR 1996).  Every kind is defined by bounds on |N(x) & S| alone, so
swapping twins u < v in a set that holds v but not u gives a set of the same
kind and size that is lexicographically smaller.  The lexicographically
smallest minimum witness thus never breaks the rule, so every answer and
witness is that of the full search; only ``nodes_explored`` falls.
``enumerate_masks`` and ``enumerate_sets`` list every set, without the cut.

The scattered-set scans of ``lex_theory`` build a ``_Search`` with the
graph's ``near`` masks (vertices at distance 1 or 2), which then applies the
scattered cut.  A member is settled once no candidate after the last pick
is its neighbor, and lonely while it has no in-set neighbor; a settled
lonely member stays lonely in every extension, so once another member lies
within distance 2 of it no extension is scattered and the child is skipped.
The scans accept only scattered sets, so their answers are those of the
full listing.

Exact-size deepening stops by the termination test of iterative deepening
(Korf, 1985): a pass in which no cut depended on the target size proves that
no larger size has a solution either.  The size-dependent cuts are the
counting bound, the count of vertices that must still join, and the leaf
level.  The others fire at any size: upper bounds and dead candidates only
on sets that no extension repairs, the twin and scattered cuts on the set
and its last pick alone.  A larger target keeps them and only relaxes the
size-dependent cuts, so when none of those fired it reaches no node beyond
this pass's tree, tests no set, and a nonexistence proof costs one pass.

A packing bounds every set of a kind from below.  Call a vertex's hood its
closed neighbourhood N[v], or its open one N(v) when members need an in-set
neighbour (the total kinds).  Every kind has lo_out = 1, and the total kinds
lo_in = 1, so every vertex needs a member in its hood; vertices whose hoods
are pairwise disjoint therefore need distinct members, and no set is smaller
than such a packing (rho <= gamma, Meir and Moon, Pacific J. Math. 61, 1975;
open packings bound gamma_t, Henning and Slater, 1999).  ``packing`` takes
hoods greedily, smallest first.  ``exists_set`` answers "no" without a
search when the packing exceeds its limit: on the X3C gadget, q + 1
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
set; skipping it runs no pass, so it cannot end the deepening, and the sweep
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

from .domsets import SetKind
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
    if limit is not None and limit < 0:
        raise ValueError(f"the limit must be non-negative, got {limit}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact minimum search.

    ``exists`` iff ``gamma``/``witness`` are present; the witness is the
    lexicographically smallest minimum set; ``nodes_explored`` counts search
    tree nodes for reproducibility checks.
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
    """Bitmask DFS over candidate sets for one (graph, kind) pair; with
    ``break_twins`` it applies the twin cut, with the graph's ``near`` masks
    the scattered cut, and with neither it reaches every set."""

    __slots__ = (
        "n", "adj", "full", "delta", "dead_before", "levels_len", "gain", "hi_in", "hi_out",
        "member_needs_lo", "hoods", "twin_before", "near", "degrees", "nodes", "size_cut",
    )

    def __init__(self, graph: Graph, kind: SetKind, break_twins: bool = False,
                 near: list[int] | None = None) -> None:
        self.n = graph.n
        self.adj = adj = graph.neighbor_masks
        self.full = (1 << graph.n) - 1
        lo_in, hi_in, _, hi_out = kind.bounds()
        self.delta = delta = max(map(int.bit_count, adj), default=0)
        # No spanning number exceeds delta, so a bound >= delta never binds.
        self.hi_in = hi_in if hi_in is not None and hi_in < delta else None
        self.hi_out = hi_out if hi_out is not None and hi_out < delta else None
        self.member_needs_lo = lo_in >= 1
        # One new member newly satisfies at most its delta neighbors, plus
        # itself when members need no in-set neighbor.
        self.gain = delta + (0 if self.member_needs_lo else 1)
        # levels[i] = mask of vertices with spanning number >= i + 1
        self.levels_len = 1 + max(b for b in (self.hi_in, self.hi_out, 0) if b is not None)
        # A vertex's suppliers are its neighbors, plus itself when membership
        # lifts its lower bound.  dead_before[v] = vertices whose suppliers all
        # have ids below v: once the candidates start..v-1 are skipped, an
        # unmet one among them can never be met.  A member's suppliers hold
        # all its neighbors, so dead_before[v + 1] holds every member that no
        # candidate after v can touch; dead_before[n] is every vertex.
        closed = [m | 1 << w for w, m in enumerate(adj)]
        # hoods[v] = the vertices whose membership meets v's lower bound
        self.hoods = hoods = adj if self.member_needs_lo else closed
        buckets = [0] * (graph.n + 1)
        for w, m in enumerate(hoods):
            buckets[m.bit_length()] |= 1 << w
        self.dead_before = list(accumulate(buckets, or_))
        self.twin_before = _twin_before(adj, closed) if break_twins else None
        self.near = near
        self.degrees: list[int] | None = None  # ascending, sorted by _size_fits
        self.nodes = 0
        self.size_cut = False

    def run(self, min_size: int, max_size: int, on_solution: Callable[[int], bool],
            any_size: bool = False, sweep_after: int = 0, pack: bool = False) -> bool:
        """Explore candidate sets; sizes ascending, lexicographic within a size.

        With ``any_size`` every valid subset of size <= max_size is a solution
        candidate, found in one variable-size sweep; otherwise only subsets of
        each exact target size are, one size at a time.  The callback returns
        True to stop the whole search.  Deepening ends after a pass that no
        size-dependent cut touched (``size_cut`` stays False): it tested no
        set of the full target size and pruned nothing for lack of picks, so
        every larger target would explore the same tree and find nothing.
        With ``sweep_after`` p >= 1, deepening about to start a pass after p
        passes that found no set first runs one sweep up to ``max_size``: if
        it finds no set, no size holds one and the search ends; if it finds
        one, deepening goes on as without the sweep.  With ``pack``, the
        first pass that finds no set computes the packing, and deepening
        skips every size below it; a skip of one size or more counts as one
        more failed pass for ``sweep_after``.
        A size that the double-counting bound (``_size_fits``) rules out
        holds no set: deepening skips it without a pass, so it never ends
        the deepening, and the sweep lowers ``max_size`` to the largest size
        the bound allows.  The root, the empty set, is valid only when n = 0;
        no vertex must join it, so its one entry cut is the counting bound.
        """
        n = self.n
        if any_size or min_size == 0:
            self.nodes += 1
            if n == 0 and on_solution(0):
                return True
        if any_size:
            while max_size > 0 and not self._size_fits(max_size):
                max_size -= 1
            sizes = [max_size] if max_size > 0 else []
        else:
            sizes = range(max(min_size, 1), min(max_size, n) + 1)
        exact = not any_size
        empty = [0] * self.levels_len  # _rec copies levels before changing them
        failed = 0  # passes that ended with no set and a size-dependent cut
        floor = 0  # sizes below it hold no set: the packing, once a pass has failed
        for size in sizes:
            if size < floor or not self._size_fits(size):
                continue  # no set has this size; a skipped size is not a pass
            if (sweep_after and failed == sweep_after
                    and not self.run(0, max_size, lambda mask: True, any_size=True)):
                return False  # no set of any size up to max_size
            self.nodes += 1
            if n > size * self.gain:
                continue  # the counting bound, which a larger size may pass
            self.size_cut = False
            if self._rec(0, size, 0, self.full, empty, n - (size if exact else 1), exact,
                         on_solution):
                return True
            if not self.size_cut:
                return False  # every larger size would explore this same tree
            failed += 1
            if pack and failed == 1:
                floor = self.packing().bit_count()
                if floor > size + 1:
                    failed += 1  # the sizes skipped up to the packing count as a failed pass
        return False

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
             levels: list[int], cap: int, exact: bool,
             on_solution: Callable[[int], bool]) -> bool:
        """Extend the set ``mask`` by candidates ``start..cap``; ``remaining``
        picks are left, and the caller has counted this node.

        Each child is read off this node's nested levels (see the module
        docstring): its levels 0, ``hi_in`` and ``hi_out``, its unmet
        vertices and its validity cost a few mask operations, and only a
        child that passes its entry cuts and will be extended gets a levels
        list and a call.  With ``exact`` only sets that use every pick are
        tested; otherwise every extension is.  The loop stops once the
        skipped candidates ``start..v-1`` were the last suppliers of an unmet
        vertex.  The twin and scattered cuts never read the target size.
        Whenever a cut depends on the target size (the counting bound, too
        many vertices that must join, or a child that would be extended if
        more picks were left), ``size_cut`` is set for ``run``'s stop test;
        the node count and that flag stay in locals until the loop ends.
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
            out_below = levels[hi_out - 1] if hi_out else self.full
            # every kind has hi_in <= hi_out, so a vertex over hi_out that joins is over hi_in
            must_dies = hi_in is not None
        left = remaining - 1
        unmet_cap = left * self.gain
        child_top = self.n - (left if exact else 1)
        nodes = 0
        size_cut = False
        for v in range(start, cap + 1):
            if unmet & dead_before[v]:
                break  # skipping start..v-1 left an unmet vertex no supplier
            if twin_before is not None and twin_before[v] & ~mask:
                continue  # v's lower twin was skipped: swapping them gives a smaller set
            bit = 1 << v
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
                size_cut = True  # a larger size would extend this child
                if not (new_unmet or must) and on_solution(new_mask):
                    self.nodes += nodes
                    return True
                continue
            if not (exact or new_unmet or must) and on_solution(new_mask):
                self.nodes += nodes
                return True
            if new_unmet.bit_count() > unmet_cap:
                size_cut = True
                continue
            child_cap = child_top
            if must:
                low = must & -must
                if low < bit or must_dies:
                    continue  # one must join but was skipped, or would break its bound
                if must.bit_count() > left:
                    size_cut = True
                    continue
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
            if self._rec(v + 1, left, new_mask, new_unmet, new_levels, child_cap, exact,
                         on_solution):
                self.nodes += nodes
                return True
        self.nodes += nodes
        if size_cut:
            self.size_cut = True
        return False


def min_set(graph: Graph, kind: SetKind, limit: int | None = None, *, guess: int = 0,
            force: bool = False) -> SolveResult:
    """Exact minimum set of the given kind, or nonexistence.

    Iterates target sizes 0, 1, 2, ... and returns the lexicographically
    smallest witness at the first feasible size.  With ``limit`` the search
    stops after that cardinality and reports ``exists=False`` when nothing
    was found within it; a negative ``limit`` raises ``ValueError``.  Above
    the cap (``resolve_cap``) it raises ``GraphTooLargeError`` unless ``force``.

    A ``guess`` g >= 1 is an expected minimum size.  One variable-size sweep
    (``exists_set``'s) first asks whether any set of fewer than g members
    exists: if none does, deepening starts at size g, so the sizes below g
    cost one pass instead of one each; if one does, deepening runs from
    size 0 as without a guess.  A guess above n makes the sweep settle
    nonexistence alone.  The answer and witness never depend on the guess,
    only ``nodes_explored`` does; a negative guess raises ``ValueError``.

    When deepening is about to start a third pass after two that found no
    set, one sweep over every size up to the limit first asks whether any
    set is left: if none is, the answer is nonexistence; if one is,
    deepening goes on, so the answer and witness are those of deepening
    alone.  This needs a binding upper bound; a kind without one is
    monotone, so V is a set if any set is, and its first pass already ends
    the deepening when no set exists.  No sweep runs once a sweep has found
    a set.

    After the first pass that finds no set, the search computes a greedy
    packing once (see the module docstring) and deepening skips every size
    below it, since none holds a set; a skip of one size or more counts as
    a failed pass for the rule above.  The packing waits for a failed pass
    because computing it in every call cost the ``product`` benchmark's
    thousands of small factor solves 3-18% in wall time.  On the
    sparse 18-vertex ``solve`` benchmark graph, both the packing and the
    sweep shorten the proof that no total [1,2]-set exists.
    """
    _check_limit(limit)
    if guess < 0:
        raise ValueError(f"the guess must be non-negative, got {guess}")
    check_cap(graph.n, force)
    search = _Search(graph, kind, break_twins=True)
    top = graph.n if limit is None else min(limit, graph.n)
    found: list[int] = []

    def grab(mask: int) -> bool:
        found.append(mask)
        return True

    # Two failed passes: on the seed-11 benchmark calls, sweeping after one
    # costs the product workload's factor solves 5% more nodes, and after
    # three saves less on solve (79,976 nodes against 76,614).
    sweep_after = 2 if search.hi_in is not None or search.hi_out is not None else 0
    if guess and search.run(0, min(guess - 1, top), lambda mask: True, any_size=True):
        guess = sweep_after = 0  # a set smaller than the guess exists: deepen from the empty set
    search.run(guess, top, grab, sweep_after=sweep_after, pack=True)
    if found:
        witness = mask_to_ids(found[0])
        return SolveResult(kind, True, len(witness), witness, search.nodes)
    return SolveResult(kind, False, None, None, search.nodes)


def exists_set(graph: Graph, kind: SetKind, limit: int | None = None, *,
               force: bool = False) -> bool:
    """True iff some vertex set of the kind exists (within ``limit`` if given).

    Uses a single variable-size sweep rather than cardinality-ordered search,
    so it is the cheaper query when only existence matters.  A limit below n
    that a greedy packing exceeds is answered False before any search, since
    no set has fewer members than the packing has vertices.  A negative
    ``limit`` raises ``ValueError``; the cap is that of ``min_set``.
    """
    _check_limit(limit)
    check_cap(graph.n, force)
    search = _Search(graph, kind, break_twins=True)
    top = graph.n if limit is None else min(limit, graph.n)
    if top < graph.n and search.packing().bit_count() > top:
        return False  # every set has at least as many members as the packing
    return search.run(0, top, lambda mask: True, any_size=True)


def enumerate_masks(graph: Graph, kind: SetKind, min_size: int, max_size: int,
                    on_solution: Callable[[int], bool]) -> int:
    """Invoke the callback on every satisfying set of ``min_size..max_size``
    members, as a bitmask: sizes ascending, lexicographic order within a
    size.  The callback returns True to stop early.  Returns the number of
    search nodes explored.  Above the cap it raises ``GraphTooLargeError``.
    """
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
    return enumerate_masks(graph, kind, size, size,
                           lambda mask: on_solution(frozenset(mask_to_ids(mask))))


def check_closed_form_k(k: int) -> None:
    """Raise ``ValueError`` unless the closed forms cover ``k`` (k >= 2)."""
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
    minimum = 2 if family == "path" else 3
    if n < minimum:
        raise ValueError(f"{family} closed form requires n >= {minimum}")
    if kind == "t1k":
        r = n % 4
        if r == 0:
            return n // 2
        if r == 2:
            return (n + 2) // 2
        return (n + 1) // 2
    return math.ceil(n / 3)
