import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_all,
    brute_min,
    high_max_degree_catalog,
    naive_satisfies,
    nonisomorphic_trees,
    random_connected_graph,
    random_graph,
    random_high_max_degree_graph,
    x3c_catalog,
)
from test_graphs import graphs_strategy

from domkit.domsets import (
    BASES,
    SetKind,
    base_parameters,
    dominating,
    efficient,
    independent_one_k,
    j_dependent_one_k,
    j_dependent_total_one_k,
    near_masks,
    one_k,
    open_efficient,
    satisfies,
    scattered_test,
    total_dominating,
    total_one_k,
)
from domkit.graphs import (
    Graph,
    build_standard,
    complement,
    is_connected,
    lex_product,
    mask_to_ids,
)
from domkit import lex_theory, solvers
from domkit.npc import X3CInstance, build_gadget, decide_x3c, minimum_gadget_witness
from domkit.solvers import (
    GraphTooLargeError,
    _Search,
    closed_form,
    enumerate_masks,
    enumerate_sets,
    exists_set,
    min_set,
)

ALL_KINDS = (
    dominating(),
    total_dominating(),
    one_k(2),
    total_one_k(2),
    independent_one_k(2),
    j_dependent_one_k(1, 2),
    j_dependent_total_one_k(1, 2),
    efficient(),
    open_efficient(),
)


class TestMinSetExamples:
    def test_k3_single_vertex(self):
        r = min_set(build_standard("complete", 3), one_k(2))
        assert (r.exists, r.gamma, r.witness) == (True, 1, (0,))

    def test_c5_total_one_2(self):
        r = min_set(build_standard("cycle", 5), total_one_k(2))
        assert r.gamma == 3  # (n+1)/2 for n = 1 mod 4

    def test_c6_efficient(self):
        r = min_set(build_standard("cycle", 6), efficient())
        assert (r.gamma, r.witness) == (2, (0, 3))
        assert brute_min(build_standard("cycle", 6), efficient()) == (2, (0, 3))

    def test_c5_c3_product_has_no_total_one_2(self):
        p, _ = lex_product(build_standard("cycle", 5), build_standard("cycle", 3))
        r = min_set(p, total_one_k(2))
        assert not r.exists and r.gamma is None and r.witness is None

    def test_k1_plain_vs_total(self):
        k1 = build_standard("path", 1)
        assert min_set(k1, dominating()).witness == (0,)
        assert not min_set(k1, total_dominating()).exists

    def test_limit_reports_nonexistence_within_bound(self):
        c6 = build_standard("cycle", 6)
        r = min_set(c6, total_one_k(2), limit=3)
        assert not r.exists
        assert min_set(c6, total_one_k(2), limit=4).gamma == 4


class TestExistsSet:
    def test_full_vertex_set_always_works_for_one_k(self):
        for fam, n in [("path", 4), ("empty", 3), ("star", 5)]:
            assert exists_set(build_standard(fam, n), one_k(1))

    def test_isolated_vertex_blocks_total(self):
        g = Graph(3, [(0, 1)])
        assert not exists_set(g, total_dominating())

    def test_c5_has_no_1_dependent_total_one_2(self):
        c5 = build_standard("cycle", 5)
        assert not exists_set(c5, j_dependent_total_one_k(1, 2))
        assert brute_min(c5, j_dependent_total_one_k(1, 2)) == (None, None)

    def test_limit_respected(self):
        c6 = build_standard("cycle", 6)
        assert not exists_set(c6, total_one_k(2), limit=3)
        assert exists_set(c6, total_one_k(2), limit=4)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy(6))
    def test_gamma_and_witness_match(self, g):
        for kind in ALL_KINDS:
            gamma, witness = brute_min(g, kind)
            r = min_set(g, kind)
            assert r.gamma == gamma
            assert r.witness == witness  # brute force scans in the same canonical order
            assert exists_set(g, kind) == (gamma is not None)
            if r.exists:
                assert satisfies(g, set(r.witness), kind)
                assert naive_satisfies(g, set(r.witness), kind)

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(6), st.integers(min_value=0, max_value=6))
    def test_limit_agrees_with_brute_force(self, g, limit):
        gamma, _ = brute_min(g, total_one_k(2))
        r = min_set(g, total_one_k(2), limit=limit)
        expect = gamma is not None and gamma <= limit
        assert r.exists == expect
        assert exists_set(g, total_one_k(2), limit=limit) == expect


def _kinds_k_up_to_7():
    """Every base with k in {1, 2, 3, 7} and every valid j <= 2 (38 kinds)."""
    kinds = []
    for base in BASES:
        if base.startswith("j_dependent"):
            kinds += [SetKind(base, k=k, j=j) for k in (1, 2, 3, 7) for j in range(min(k, 2) + 1)]
        elif base in ("one_k", "total_one_k", "independent_one_k"):
            kinds += [SetKind(base, k=k) for k in (1, 2, 3, 7)]
        else:
            kinds.append(SetKind(base))
    return kinds


class TestPrunedSearchAgainstBruteForce:
    """Graphs with 7..10 vertices, where Delta + 1 is well below n, so the
    counting bound and the bounds clamped at Delta cut real branches."""

    def test_random_graphs_all_kinds(self):
        rng = random.Random(0xB0C4)
        kinds = _kinds_k_up_to_7()
        assert len(kinds) == 38
        for n in range(7, 11):
            for p in (0.15, 0.25, 0.35, 0.5, 0.65, 0.8):
                g = random_graph(rng, n, p)
                for kind in kinds:
                    gamma, witness = brute_min(g, kind)
                    r = min_set(g, kind)
                    assert (r.gamma, r.witness) == (gamma, witness), (g, kind)
                    limit = rng.randint(0, n) if gamma is None else rng.choice((gamma - 1, gamma))
                    within = gamma is not None and gamma <= limit
                    r = min_set(g, kind, limit=limit)
                    assert (r.gamma, r.witness) == ((gamma, witness) if within else (None, None))
                    assert exists_set(g, kind) == (gamma is not None)
                    assert exists_set(g, kind, limit=limit) == within

                    hits = brute_all(g, kind)
                    size = len(rng.choice(hits)) if hits else rng.randint(0, n)
                    seen = []
                    enumerate_sets(g, kind, size,
                                   lambda s: (seen.append(tuple(sorted(s))), False)[1])
                    assert seen == [h for h in hits if len(h) == size], (g, kind, size)


class TestGuess:
    """``min_set``'s guess changes only how hard the search works: a guess
    that is too low, exact, too high or past n gives the answer and witness
    of no guess."""

    def test_every_guess_matches_no_guess(self):
        rng = random.Random(0x6E55)
        kinds = _kinds_k_up_to_3()
        assert {kind.base for kind in kinds} == set(BASES)
        for n in range(12):
            for p in (0.15, 0.3, 0.45, 0.6, 0.8):
                g = random_graph(rng, n, p)
                for kind in kinds:
                    limit = rng.choice((None, rng.randint(0, n)))
                    r = min_set(g, kind, limit=limit)
                    assert min_set(g, kind, limit=limit, guess=0) == r
                    for guess in range(1, n + 3):
                        q = min_set(g, kind, limit=limit, guess=guess)
                        assert (q.exists, q.gamma, q.witness) == (r.exists, r.gamma, r.witness), \
                            (g, kind, limit, guess)

    def test_negative_guess_rejected(self):
        for g in (Graph(0), build_standard("path", 5)):
            with pytest.raises(ValueError, match="guess must be non-negative"):
                min_set(g, dominating(), guess=-1)


class TestSweepAfterFailedPasses:
    """After two deepening passes that find no set, ``min_set`` asks the
    existence walks where the minimum lies, and the witness phase builds the
    witness there; they must change only ``nodes_explored``, never the answer
    or the witness of deepening alone."""

    @staticmethod
    def _recording(monkeypatch):
        """Patch ``_Search`` so that each descent after failed passes
        appends the size it located, None when it settled nonexistence, and
        each witness phase appends its size to ``phases``, and to ``twinned``
        when the phase runs with the twin table.  Those descents start above
        0, a guess's descent at 0."""
        sweeps, phases, twinned = [], [], []

        class Recorded(_Search):
            def locate(self, low, limit):
                size = super().locate(low, limit)
                if low > 0:
                    sweeps.append(size)
                return size

            def witness(self, size):
                mask = super().witness(size)
                phases.append(size)
                if self.twin_before is not None:  # still on after the phase
                    twinned.append(size)
                return mask

        monkeypatch.setattr(solvers, "_Search", Recorded)
        return sweeps, phases, twinned

    @staticmethod
    def _assert_deepening_alone(g, kind, limit, guess):
        """``min_set`` gives the answer and witness of deepening alone: the
        first set ``enumerate_masks`` lists, which has no twin cut and no
        walk."""
        first = []
        enumerate_masks(g, kind, 0, g.n if limit is None else limit,
                        lambda m: (first.append(mask_to_ids(m)), True)[1])
        expected = (True, len(first[0]), first[0]) if first else (False, None, None)
        r = min_set(g, kind, limit=limit, guess=guess)
        assert (r.exists, r.gamma, r.witness) == expected, (g, kind, limit, guess)

    def test_answers_match_deepening_alone(self, monkeypatch):
        sweeps, phases, twinned = self._recording(monkeypatch)
        rng = random.Random(0x5EE9)
        kinds = _kinds_k_up_to_3()
        assert {kind.base for kind in kinds} == set(BASES)
        graphs = [random_graph(rng, n, p) for n in range(14) for p in (0.1, 0.2, 0.35, 0.6, 0.85)]
        graphs += [random_connected_graph(rng, n, p) for n in range(4, 14) for p in (0.1, 0.2)]
        for g in graphs:
            for kind in kinds:
                limit = rng.choice((None, rng.randint(0, g.n)))
                guess = rng.choice((0, rng.randint(1, g.n + 2)))
                self._assert_deepening_alone(g, kind, limit, guess)
        # twin-heavy lex products under the monotone kinds: every layer of an
        # empty or complete H is a class of twins, and the witness phase keeps
        # the twin table
        for g_n, h_n in ((2, 3), (2, 5), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (6, 2)):
            for h_p in (0.0, 1.0, 0.5):
                g = lex_product(random_connected_graph(rng, g_n, 0.4), random_graph(rng, h_n, h_p))[0]
                for kind in (dominating(), total_dominating(), one_k(g.n)):
                    for guess in (0, 1, 2, 4):
                        self._assert_deepening_alone(g, kind, rng.choice((None, g.n // 2)), guess)
        # descents that settled nonexistence, descents that located the
        # minimum, and witness phases, after a descent or a guess's walks
        located = len(sweeps) - sweeps.count(None)
        assert sweeps.count(None) >= 150 and located >= 100 and len(phases) >= 650
        # phases on graphs with twins, which keep the twin table (487)
        assert len(twinned) >= 450

    def test_set_found_only_after_the_sweep(self, monkeypatch):
        # the whole vertex set is the only [1,2]-set: two passes fail, the
        # first walk finds it, the second finds no smaller set, and the
        # witness phase takes V, which the walk found, with no further walk
        sweeps, phases, _ = self._recording(monkeypatch)
        r = min_set(TestPinnedSearchWork.C5_C6, one_k(2))
        assert sweeps == [30] and phases == [30]
        assert (r.gamma, r.witness) == (30, tuple(range(30)))

    def test_witness_phase_checks_the_imposed_prefix(self, monkeypatch):
        # in the phase, the prefix (1, 2, 3, 5) meets every vertex, but
        # members 3 and 5 are adjacent: the root must reject it before its
        # success test, or the witness is (1, 2, 3, 5), which is not independent
        sweeps, phases, _ = self._recording(monkeypatch)
        g = Graph(10, [(0, 1), (0, 2), (0, 8), (1, 7), (1, 8), (1, 9), (3, 4), (3, 5), (3, 8),
                       (5, 6), (8, 9)])
        r = min_set(g, independent_one_k(2))
        assert sweeps == [4] and phases == [4]
        assert (r.gamma, r.witness) == (4, (1, 2, 3, 6))

    def test_monotone_kinds_descend(self, monkeypatch):
        # no binding upper bound: a kind with any set has V, but the walks
        # still locate the minimum after two failed passes, and the answers
        # are those of deepening alone; on P20 and under dominating() on
        # C14 o P2 the first pass finds a set
        sweeps, phases, twinned = self._recording(monkeypatch)
        product = lex_product(build_standard("cycle", 14), build_standard("path", 2))[0]
        for g in (TestPinnedSearchWork.G18, build_standard("path", 20), product):
            for kind in (dominating(), total_dominating(), one_k(100)):
                self._assert_deepening_alone(g, kind, None, 0)
        assert sweeps == phases == twinned == [5, 6, 5, 8]


def _first_set(g, kind):
    """Size and lexicographically first set of the smallest size, by a
    subset scan with ``satisfies``; (None, None) when no set exists."""
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            if satisfies(g, combo, kind):
                return size, combo
    return None, None


class TestExistenceWalk:
    """``_Search.exists`` answers ``exists_set``, ``min_set``'s guess, the
    question deepening asks after two failed passes and the witness phase's
    questions.  It joins forced vertices, branches on the unmet vertex with
    the fewest suppliers and excludes each tried supplier, and a supplier
    whose lower twin is excluded; every answer must be that of a subset
    scan."""

    @staticmethod
    def _graphs():
        rng = random.Random(0x3A1C)
        graphs = []
        # lex products, where every twin pair of H recurs in each layer
        for g_n, h_n in ((2, 2), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
                         (5, 2), (6, 2)):
            for p in (0.35, 0.7):
                product = lex_product(random_connected_graph(rng, g_n, p),
                                      random_graph(rng, h_n, p))[0]
                graphs.append(product if rng.random() < 0.5 else _relabelled(rng, product))
        for n in range(1, 10):
            for p in (0.2, 0.45, 0.7, 0.9):
                graphs.append(random_graph(rng, n, p))
        return graphs

    @staticmethod
    def _recording(monkeypatch):
        """Patch ``_Search`` to count walk nodes where vertices over hi_out
        must join, and where the saturation cut applies: a vertex outside S
        and X has an excluded neighbor that already hears hi_out members."""
        seen = {"forced": 0, "saturated": 0}

        class Recorded(_Search):
            def _walk(self, mask, excluded, levels, unmet, must, left):
                if self.hi_in is None and self.hi_out is not None:
                    assert must == levels[self.hi_out] & ~mask
                    seen["forced"] += bool(must)
                    blocked = 0
                    for x in mask_to_ids(excluded & levels[self.hi_out - 1]):
                        blocked |= self.adj[x]
                    seen["saturated"] += bool(blocked & ~(mask | excluded))
                return super()._walk(mask, excluded, levels, unmet, must, left)

        monkeypatch.setattr(solvers, "_Search", Recorded)
        return seen

    def test_exists_set_and_guesses_match_a_subset_scan(self, monkeypatch):
        seen = self._recording(monkeypatch)
        kinds = _kinds_k_up_to_3()
        assert {kind.base for kind in kinds} == set(BASES)
        checks = 0
        for g in self._graphs():
            assert g.n <= 12
            for kind in kinds:
                gamma, witness = _first_set(g, kind)
                for limit in range(g.n + 1):
                    within = gamma is not None and gamma <= limit
                    assert exists_set(g, kind, limit=limit) is within, (g, kind, limit)
                for guess in range(g.n + 3):
                    r = min_set(g, kind, guess=guess)
                    assert (r.gamma, r.witness) == (gamma, witness), (g, kind, guess)
                checks += 2 * g.n + 4
        assert checks >= 20000
        # forced joins and the saturation cut were both reached
        assert seen["forced"] >= 2000 and seen["saturated"] >= 1000

    def test_prefix_walks_match_the_listing(self):
        # the witness phase's question: is there a set that holds a prefix,
        # avoids an excluded set and has at most limit members?  An excluded
        # vertex can meet every unmet vertex, and the last pick must skip it
        rng = random.Random(0x3A1D)
        kinds = _kinds_k_up_to_3()
        answers = []
        for g in self._graphs():
            for kind in kinds:
                sets = []
                enumerate_masks(g, kind, 0, g.n, lambda mask: sets.append(mask))
                for _ in range(6):
                    mask, excluded = rng.getrandbits(g.n), rng.getrandbits(g.n)
                    mask &= rng.getrandbits(g.n) & ~excluded
                    limit = rng.randint(mask.bit_count(), g.n)
                    search = _Search(g, kind)
                    answer = search.exists(limit, mask, excluded)
                    assert answer is any(s & mask == mask and not s & excluded and
                                         s.bit_count() <= limit for s in sets), (g, kind)
                    if answer:
                        assert search.found & mask == mask and not search.found & excluded
                        assert search.found in sets and search.found.bit_count() <= limit
                    answers.append(answer)
        assert answers.count(True) >= 1000 and answers.count(False) >= 1000

    def test_every_reported_set_is_a_set_within_the_limit(self):
        reported = 0
        for g in self._graphs():
            for kind in _kinds_k_up_to_3():
                for limit in range(g.n + 1):
                    search = _Search(g, kind, break_twins=True)
                    if search.exists(limit):
                        found = mask_to_ids(search.found)
                        assert len(found) <= limit and satisfies(g, found, kind), (g, kind, limit)
                        reported += 1
        assert reported >= 5000

    def test_node_counts_repeat(self):
        kinds = _kinds_k_up_to_3()
        for g in self._graphs()[::3]:
            for kind in kinds:
                counts = []
                for _ in range(2):
                    search = _Search(g, kind, break_twins=True)
                    search.exists(g.n)
                    counts.append((search.nodes, min_set(g, kind, guess=g.n + 1).nodes_explored))
                assert counts[0] == counts[1], (g, kind)


class TestPackingBound:
    """A greedy packing (vertices with pairwise disjoint non-empty hoods:
    closed neighbourhoods, or open ones when members need an in-set
    neighbour) bounds every set of the kind from below.  ``exists_set``
    answers "no" from it at the root, and ``min_set``'s deepening skips every
    size below it once a pass has failed; neither may change an answer or a
    witness."""

    def test_packed_hoods_are_disjoint_and_bound_every_set(self):
        rng = random.Random(0x9AC4)
        kinds = _kinds_k_up_to_3()
        assert {kind.base for kind in kinds} == set(BASES)
        exact = 0
        for n in range(14):
            for p in (0.1, 0.25, 0.4, 0.6, 0.85):
                g = random_graph(rng, n, p)
                for kind in kinds:
                    search = _Search(g, kind)
                    packed = mask_to_ids(search.packing())
                    hoods = [search.hoods[v] for v in packed]
                    assert all(hoods), (g, kind)
                    assert not any(a & b for a, b in combinations(hoods, 2)), (g, kind)
                    r = min_set(g, kind)
                    if r.exists:
                        assert len(packed) <= r.gamma, (g, kind)
                        exact += len(packed) == r.gamma
        assert exact >= 1000

    def test_answers_match_the_first_listed_set(self, monkeypatch):
        skips = []

        class Recorded(_Search):
            __slots__ = ("last",)

            def _rec(self, start, remaining, mask, *args):
                if not mask:
                    self.last = remaining  # the target size of the pass at the root
                return super()._rec(start, remaining, mask, *args)

            def packing(self):
                packed = super().packing()
                if hasattr(self, "last"):  # min_set, after its first failed pass
                    skips.append(packed.bit_count() - self.last - 1)
                return packed

        monkeypatch.setattr(solvers, "_Search", Recorded)
        rng = random.Random(0x9AC5)
        kinds = _kinds_k_up_to_3()
        graphs = [random_graph(rng, n, p) for n in range(14) for p in (0.1, 0.2, 0.35, 0.6, 0.85)]
        graphs += [random_connected_graph(rng, n, p) for n in range(4, 14) for p in (0.1, 0.2)]
        for g in graphs:
            for kind in kinds:
                limit = rng.choice((None, rng.randint(0, g.n)))
                guess = rng.choice((0, rng.randint(1, g.n + 2)))
                first = []
                enumerate_masks(g, kind, 0, g.n if limit is None else limit,
                                lambda m: (first.append(mask_to_ids(m)), True)[1])
                expected = (True, len(first[0]), first[0]) if first else (False, None, None)
                # a guess above the minimum walks straight to it, skipping
                # the passes that compute the packing, so also deepen without one
                for guess in {0, guess}:
                    r = min_set(g, kind, limit=limit, guess=guess)
                    assert (r.exists, r.gamma, r.witness) == expected, (g, kind, limit, guess)
                assert exists_set(g, kind, limit=limit) is bool(first), (g, kind, limit)
        # deepening skipped at least one size up to the packing on some calls
        assert sum(skip > 0 for skip in skips) >= 150

    def test_x3c_catalog_searches_only_yes_instances(self, monkeypatch):
        # every no-instance that reaches the gadget is settled by the packing:
        # 491 sweeps of 90,522 nodes before the bound
        searches = []

        class Recorded(_Search):
            def exists(self, limit):
                searches.append(self)
                return super().exists(limit)

        monkeypatch.setattr(solvers, "_Search", Recorded)
        catalog = x3c_catalog()
        assert len(catalog) == 1351
        answers = [decide_x3c(inst) for inst in catalog]
        assert answers == [decide_x3c(inst, "brute_force") for inst in catalog]
        assert sum(answers) == len(searches) == 191


class TestSearchEffort:
    def test_counting_bound_keeps_long_paths_and_cycles_shallow(self):
        # 870,846 / 1,019,269 / 961,737 nodes before the counting bound
        for family, kind in (("path", dominating()), ("path", total_one_k(2)),
                             ("cycle", one_k(2))):
            assert min_set(build_standard(family, 32), kind).nodes_explored <= 100

    def test_bounds_at_or_above_max_degree_are_vacuous(self):
        c12 = build_standard("cycle", 12)
        huge = min_set(c12, one_k(10**5))
        two = min_set(c12, one_k(2))
        assert (huge.gamma, huge.witness, huge.nodes_explored) == (
            two.gamma, two.witness, two.nodes_explored)

    def test_sweep_stops_at_the_first_dead_candidate(self):
        # the existence walk on two X3C gadgets, without the twin table: it
        # stops at an unmet vertex with no supplier left.  The variable-size
        # sweep took 1,102 and 168 nodes, and 6,330 and 1,020 when every dead
        # candidate was still entered as a child
        for sets, found, nodes in ((((0, 1, 2), (1, 3, 4), (2, 4, 5)), False, 655),
                                   (((0, 1, 2), (0, 1, 3), (3, 4, 5)), True, 9)):
            graph, meta = build_gadget(X3CInstance(6, sets))
            search = _Search(graph, total_one_k(2))
            assert search.exists(meta.budget) is found
            assert search.nodes <= nodes


def _kinds_k_up_to_3():
    """Every base with k in {1, 2, 3} and every valid j."""
    kinds = []
    for base in BASES:
        ks = (1, 2, 3) if "k" in base_parameters(base) else (None,)
        for k in ks:
            js = range(k + 1) if "j" in base_parameters(base) else (None,)
            kinds += [SetKind(base, k=k, j=j) for j in js]
    return kinds


def test_member_bound_never_exceeds_the_off_set_bound():
    # _Search._rec drops a child whose forced joiner is over hi_out, since it is then over hi_in
    for kind in _kinds_k_up_to_3():
        _, hi_in, _, hi_out = kind.bounds()
        assert hi_in is None or hi_out is None or hi_in <= hi_out, kind


class TestDoubleCountingSizeBound:
    """Deepening skips every size that double counting the edges between
    the set and the rest rules out; the skipped sizes must hold no set."""

    def test_ruled_out_sizes_hold_no_set(self):
        rng = random.Random(0xD0C)
        kinds = _kinds_k_up_to_3()
        ruled_out = 0
        for n in range(1, 11):
            for p in (0.2, 0.4, 0.6, 0.8, 0.95):
                g = random_graph(rng, n, p)
                for kind in kinds:
                    sizes = {len(h) for h in brute_all(g, kind)}
                    search = _Search(g, kind)
                    for size in range(1, n + 1):
                        if not search._size_fits(size):
                            ruled_out += 1
                            assert size not in sizes, (g, kind, size)
        assert ruled_out >= 2000  # the bound is not vacuous on these graphs

    def test_answers_and_listing_order_unchanged(self, monkeypatch):
        rng = random.Random(0x51CE)
        kinds = _kinds_k_up_to_3()
        graphs = [random_graph(rng, rng.randint(2, 10), rng.choice((0.3, 0.6, 0.9)))
                  for _ in range(40)]

        def answers():
            out = []
            for g in graphs:
                for kind in kinds:
                    listed = []
                    nodes = enumerate_masks(g, kind, 0, g.n,
                                            lambda m: (listed.append(m), False)[1])
                    r = min_set(g, kind)
                    out.append(((r.gamma, r.witness, exists_set(g, kind), listed),
                                (r.nodes_explored, nodes)))
            return out

        bounded = answers()
        monkeypatch.setattr(_Search, "_size_fits", lambda self, size: True)
        unbounded = answers()
        assert [a for a, _ in bounded] == [a for a, _ in unbounded]
        assert all(b <= u for (_, bn), (_, un) in zip(bounded, unbounded)
                   for b, u in zip(bn, un))
        assert sum(sum(bn) for _, bn in bounded) < sum(sum(un) for _, un in unbounded)

    def test_whole_vertex_set_proofs_stay_small(self):
        # 53,211, 24,194 and 15,222 nodes when every size is searched
        c5 = build_standard("cycle", 5)
        for m, kind, nodes in ((6, one_k(2), 27294), (5, one_k(2), 14745),
                               (6, total_one_k(2), 9194)):
            product, _ = lex_product(c5, build_standard("cycle", m))
            r = min_set(product, kind)
            assert r.gamma == (product.n if kind == one_k(2) else None)
            assert r.nodes_explored <= nodes, (m, kind)


class TestDeepeningStopRule:
    """Exact-size deepening ends at a set, at the size limit, or when the
    existence walk after two failed passes finds no set: every size range
    must list exactly the sets a subset scan finds, and that walk keeps
    nonexistence proofs within their ceilings."""

    def test_enumerate_masks_matches_brute_force_on_size_ranges(self):
        rng = random.Random(0x57095)
        kinds = _kinds_k_up_to_7()
        for n in range(1, 11):
            for p in (0.2, 0.45, 0.75):
                g = random_graph(rng, n, p)
                for kind in kinds:
                    hits = brute_all(g, kind)
                    seen = []
                    enumerate_masks(g, kind, 0, n,
                                    lambda m: (seen.append(mask_to_ids(m)), False)[1])
                    assert seen == hits, (g, kind)
                    lo = rng.randint(0, n)
                    hi = rng.choice((n, rng.randint(lo, n)))
                    seen = []
                    enumerate_masks(g, kind, lo, hi,
                                    lambda m: (seen.append(mask_to_ids(m)), False)[1])
                    assert seen == [h for h in hits if lo <= len(h) <= hi], (g, kind, lo, hi)

    def test_kinds_that_often_do_not_exist(self):
        rng = random.Random(0xE11)
        kinds = (efficient(), open_efficient(), independent_one_k(1), independent_one_k(2),
                 total_one_k(1), total_one_k(2), j_dependent_total_one_k(1, 2))
        missing = 0
        for _ in range(100):
            n = rng.randint(5, 10)
            g = random_graph(rng, n, rng.choice((0.25, 0.4, 0.6)))
            for kind in kinds:
                hits = brute_all(g, kind)
                r = min_set(g, kind)
                assert r.witness == (hits[0] if hits else None), (g, kind)
                missing += not hits
                lo = rng.randint(0, n)
                seen = []
                enumerate_masks(g, kind, lo, n,
                                lambda m: (seen.append(mask_to_ids(m)), False)[1])
                assert seen == [h for h in hits if len(h) >= lo], (g, kind, lo)
        assert missing >= 300  # half of the 700 cases have no set at all

    def test_nonexistence_proofs_take_one_pass(self):
        # the walk after two failed passes keeps these ceilings: 19 and 246
        # nodes, where deepening alone takes 19 and 446; the corollary table
        # also has no independent [1,2]-set for C4 o C4
        for n, m, kind, nodes in ((4, 4, independent_one_k(2), 77),
                                  (5, 4, total_one_k(2), 682)):
            product, _ = lex_product(build_standard("cycle", n), build_standard("cycle", m))
            r = min_set(product, kind)
            assert (r.exists, r.gamma, r.witness) == (False, None, None)
            assert r.nodes_explored <= nodes, (n, m, kind)


def _relabelled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _with_copies(rng, g, copies):
    """``g`` plus ``copies`` new vertices, each a true or a false twin of a
    random earlier vertex (copies of copies make classes of three or more)."""
    n, edges = g.n, list(g.edges())
    for x in range(n, n + copies):
        v = rng.randrange(x)
        edges += [(x, w) for w in range(x) if (v, w) in edges or (w, v) in edges]
        if rng.random() < 0.5:
            edges.append((v, x))
    return Graph(n + copies, edges)


class TestDisjointUnion:
    """Metamorphic checks past brute force.  Every kind bounds each vertex's
    count of in-set neighbours, so on a disjoint union G + H a set exists
    iff both parts have one, gamma adds over the parts, and the canonical
    witness is the union of the parts' canonical witnesses, each part taken
    under the id order the union induces on it: for sets of one size, S
    comes first iff min(S ^ T) is in S, and S ^ T splits by part.  The
    unions reach 32 vertices, where the packing, the counting and
    double-counting bounds, the last pick and the twin table all act."""

    @staticmethod
    def _part(rng):
        n = rng.randint(1, 16)
        p = rng.choice((0.1, 0.2, 0.35, 0.5, 0.8))
        copies = rng.randint(0, n // 3)  # twin classes for the twin table
        return _with_copies(rng, random_graph(rng, n - copies, p), copies)

    @staticmethod
    def _union(rng, parts):
        """The disjoint union under shuffled ids, and for each part its
        union ids ascending and the part relabelled in that order."""
        total = sum(part.n for part in parts)
        perm = list(range(total))
        rng.shuffle(perm)
        edges, placed, offset = [], [], 0
        for part in parts:
            ids = sorted(perm[offset:offset + part.n])
            rank = {u: i for i, u in enumerate(ids)}
            moved = [(perm[offset + u], perm[offset + v]) for u, v in part.edges()]
            edges += moved
            placed.append((ids, Graph(part.n, [(rank[u], rank[v]) for u, v in moved])))
            offset += part.n
        return Graph(total, edges), placed

    def test_union_of_two_parts(self):
        rng = random.Random(0xD15C)
        kinds = _kinds_k_up_to_3()
        assert len(kinds) == 31
        checks = 0
        for _ in range(100):
            parts = [self._part(rng), self._part(rng)]
            union, placed = self._union(rng, parts)
            for kind in kinds:
                r = min_set(union, kind)
                gamma, witness, exists = 0, set(), True
                for part, (ids, induced) in zip(parts, placed):
                    q = min_set(induced, kind)
                    # relabelling invariance: the part under its own ids
                    p = min_set(part, kind)
                    assert (q.exists, q.gamma) == (p.exists, p.gamma), (part, kind)
                    exists = exists and q.exists
                    if q.exists:
                        gamma += q.gamma
                        witness.update(ids[v] for v in q.witness)
                expected = (True, gamma, tuple(sorted(witness))) if exists else (False, None, None)
                assert (r.exists, r.gamma, r.witness) == expected, (parts, union, kind)
                assert exists_set(union, kind) is exists, (union, kind)
                if exists:
                    assert exists_set(union, kind, limit=gamma) is True, (union, kind)
                    assert exists_set(union, kind, limit=gamma - 1) is False, (union, kind)
                checks += 1
        assert checks == 3100


@lru_cache(maxsize=None)
def _twin_rich_cases():
    """(graph, kind, every satisfying set) on graphs full of twins, each under
    a random relabelling: G o H with H complete, edgeless or random, graphs
    with duplicated vertices, and graphs with isolated vertices."""
    rng = random.Random(0x7791)
    graphs = []
    for h in (build_standard("complete", 2), build_standard("complete", 3),
              build_standard("empty", 2), build_standard("empty", 3),
              random_graph(rng, 3, 0.5), random_graph(rng, 2, 0.5)):
        for g_n in (2, 3):
            graphs.append(lex_product(random_connected_graph(rng, g_n), h)[0])
    for n in (3, 4, 5, 6):
        for p in (0.3, 0.6):
            graphs.append(_with_copies(rng, random_graph(rng, n, p), rng.randint(1, 3)))
    for n in (2, 4, 6):
        graphs.append(Graph(n + rng.randint(2, 3), random_graph(rng, n, 0.5).edges()))
    cases = []
    for g in [_relabelled(rng, g) for g in graphs]:
        assert _Search(g, dominating(), break_twins=True).twin_before is not None
        cases += [(g, kind, brute_all(g, kind)) for kind in _kinds_k_up_to_7()]
    return tuple(cases)


class TestTwinCut:
    """min_set and exists_set skip a candidate while its next lower twin is
    left out; answers and witnesses must still be those of a full subset
    scan, and enumerate_masks must still list every set."""

    def test_min_set_and_exists_set_match_brute_force(self):
        rng = random.Random(0x7C07)
        for g, kind, hits in _twin_rich_cases():
            gamma, witness = (len(hits[0]), hits[0]) if hits else (None, None)
            r = min_set(g, kind)
            assert (r.gamma, r.witness) == (gamma, witness), (g, kind)
            assert exists_set(g, kind) == bool(hits), (g, kind)
            limit = rng.randint(0, g.n) if gamma is None else rng.choice((gamma - 1, gamma))
            within = gamma is not None and gamma <= limit
            r = min_set(g, kind, limit=limit)
            assert (r.gamma, r.witness) == ((gamma, witness) if within else (None, None))
            assert exists_set(g, kind, limit=limit) == within, (g, kind, limit)

    def test_enumerate_masks_lists_every_set(self):
        rng = random.Random(0xE7A5)
        for g, kind, hits in _twin_rich_cases():
            seen = []
            enumerate_masks(g, kind, 0, g.n, lambda m: (seen.append(mask_to_ids(m)), False)[1])
            assert seen == hits, (g, kind)
            lo = rng.randint(0, g.n)
            hi = rng.randint(lo, g.n)
            seen = []
            enumerate_masks(g, kind, lo, hi, lambda m: (seen.append(mask_to_ids(m)), False)[1])
            assert seen == [h for h in hits if lo <= len(h) <= hi], (g, kind, lo, hi)

    def test_x3c_sweep_with_three_sets(self, monkeypatch):
        # 501,150 nodes over the 480 gadgets that search before the twin cut,
        # 90,285 before the packing bound settled the 300 no-instances, and
        # 16,605 in the variable-size sweep before the existence walk
        searches = []

        class Recorded(_Search):
            def exists(self, limit):
                searches.append(self)
                return super().exists(limit)

        monkeypatch.setattr(solvers, "_Search", Recorded)
        found = sum(decide_x3c(X3CInstance(6, sets))
                    for sets in combinations(combinations(range(6), 3), 3))
        assert (found, len(searches)) == (180, 180)
        assert sum(search.nodes for search in searches) <= 1620

    def test_closed_twins_of_a_product(self):
        # the layers of C14 o P2 are pairs of closed twins; the walks locate
        # 8 and the witness phase, with the twin table, builds the witness:
        # 656 nodes, 719 while the phase walked for a vertex whose lower twin
        # it had excluded, 870 while every last pick tried each candidate,
        # 1,838 with the phase's twin table off, 487 while monotone kinds
        # deepened through the pass at 8, and 10,167 before the twin cut
        product, _ = lex_product(build_standard("cycle", 14), build_standard("path", 2))
        r = min_set(product, total_dominating())
        assert (r.gamma, r.witness) == (8, (0, 1, 4, 6, 12, 14, 20, 22))
        assert r.nodes_explored <= 656

    def test_witness_phase_keys_twins_on_the_excluded_set(self, monkeypatch):
        # (P3 + K1) o Km: the last layer is a clique of closed twins whose
        # only suppliers under a total kind are each other, so a phase walk
        # must add a twin before its lower twin; a phase that skipped every
        # vertex whose lower twin is not yet chosen returns (1, ...)
        phases = []

        class Recorded(_Search):
            def witness(self, size):
                mask = super().witness(size)
                phases.append(self.twin_before is not None)
                return mask

        monkeypatch.setattr(solvers, "_Search", Recorded)
        g_plus_k1 = Graph(4, [(0, 1), (1, 2)])
        for m, witness in ((2, (0, 2, 6, 7)), (3, (0, 3, 9, 10))):
            product = lex_product(g_plus_k1, build_standard("complete", m))[0]
            for kind in (total_dominating(), total_one_k(2)):
                assert _first_set(product, kind) == (4, witness)
                r = min_set(product, kind)
                assert (r.gamma, r.witness) == (4, witness), (m, kind)
        assert phases == [True] * 4


class TestNestedLevels:
    """A child's level i is derived as ``levels[i] | adj[v] & levels[i - 1]``.
    On kinds whose levels run three or more deep, every mode must still
    agree with a subset scan, so a derivation that drops ``levels[i - 1]``
    (and so counts one new neighbor as several) fails here."""

    KINDS = (j_dependent_one_k(2, 3), total_one_k(3), one_k(3), j_dependent_total_one_k(2, 3))

    @staticmethod
    def _cases():
        rng = random.Random(0x1E7E15)
        for _ in range(40):
            g = random_graph(rng, rng.randint(7, 10), rng.choice((0.5, 0.65, 0.8)))
            if max(map(int.bit_count, g.neighbor_masks)) < 4:
                continue
            for kind in TestNestedLevels.KINDS:
                assert _Search(g, kind).levels_len >= 3
                yield rng, g, kind, brute_all(g, kind)

    def test_min_set_and_exists_set(self):
        cases = 0
        for rng, g, kind, hits in self._cases():
            gamma, witness = (len(hits[0]), hits[0]) if hits else (None, None)
            r = min_set(g, kind)
            assert (r.gamma, r.witness) == (gamma, witness), (g, kind)
            limit = rng.randint(0, g.n) if gamma is None else rng.choice((gamma - 1, gamma))
            within = gamma is not None and gamma <= limit
            assert exists_set(g, kind, limit=limit) == within, (g, kind, limit)
            assert exists_set(g, kind) == bool(hits), (g, kind)
            cases += 1
        assert cases >= 100

    def test_enumerate_masks_with_and_without_near(self):
        for _, g, kind, hits in self._cases():
            every, listed = [], []
            enumerate_masks(g, kind, 0, g.n, lambda m: (every.append(m), False)[1])
            assert [mask_to_ids(m) for m in every] == hits, (g, kind)
            near = near_masks(g.neighbor_masks)
            _Search(g, kind, near=near).run(0, g.n, lambda m: (listed.append(m), False)[1])
            scattered = scattered_test(g, near)
            assert [m for m in listed if scattered(m)] == [m for m in every if scattered(m)]
            assert set(listed) <= set(every)


class TestPinnedSearchWork:
    """Exact node counts of one named search per mode.  A change to the
    pruning updates these numbers on purpose; a change that only makes each
    node cheaper must leave them as they are."""

    C5_C6 = lex_product(build_standard("cycle", 5), build_standard("cycle", 6))[0]
    # the solve benchmark's sparse1: a sparse connected graph with no total [1,2]-set
    G18 = Graph(18, [(0, 2), (0, 4), (0, 15), (1, 2), (1, 8), (3, 17), (4, 8), (4, 16),
                     (5, 16), (6, 8), (6, 13), (7, 8), (8, 11), (8, 13), (8, 14), (9, 14),
                     (10, 17), (11, 16), (12, 16), (13, 15), (16, 17)])

    def test_exact_deepening(self):
        # 23,922 before the question after two failed passes, which here
        # finds V: 23,954 when a variable-size sweep asked it, 23,953 when
        # one walk did and deepening went on through every size, 4,122 when
        # a second walk proved every smaller size empty and deepening skipped
        # to 30; now the witness phase takes V from the walk with no node;
        # 4,091 while every last pick tried each candidate
        r = min_set(self.C5_C6, one_k(2))
        assert (r.gamma, r.nodes_explored) == (30, 2330)

    def test_witness_phase(self):
        # the walks locate the minimum 6 after two failed passes, and the
        # witness phase builds the witness from the set they found; 1,147
        # when deepening ran its pass at 6, 424 while every last pick tried
        # each candidate, and 263 while the phase walked for a vertex whose
        # lower twin it had excluded
        r = min_set(self.G18, one_k(2))
        assert (r.gamma, r.witness, r.nodes_explored) == (6, (0, 4, 8, 9, 16, 17), 261)

    def test_nonexistence_proof(self):
        # 9,194 while every last pick tried each candidate
        r = min_set(self.C5_C6, total_one_k(2))
        assert (r.exists, r.nodes_explored) == (False, 6635)

    def test_nonexistence_settled_by_the_sweep(self):
        # 9,816 when deepening alone proves every size empty, 1,941 before
        # the first failed pass let deepening skip to the packing, and 1,870
        # when a variable-size sweep settled it; the existence walk takes 6
        r = min_set(self.G18, total_one_k(2))
        assert (r.exists, r.nodes_explored) == (False, 12)

    def test_deepening_jumps_to_the_packing(self):
        # after the failed pass at size 3 (the counting bound rules out 1 and
        # 2), the open packing of 6 vertices skips sizes 4 and 5, which counts
        # as a second failed pass, so the walks locate 6 and the witness
        # phase builds the witness; 869 before the packing, 410 while
        # monotone kinds deepened through the pass at 6, 55 while every last
        # pick tried each candidate, and 43 while the phase walked for a
        # vertex whose lower twin it had excluded
        r = min_set(self.G18, total_dominating())
        assert (r.gamma, r.nodes_explored) == (6, 39)
        assert _Search(self.G18, total_dominating()).packing().bit_count() == 6

    def test_monotone_nonexistence_settled_by_the_walk(self):
        # vertex 31 is isolated, so no total dominating set exists: the root
        # and one node per size up to 17, each ended by the counting bound or
        # at the first candidate, then 3 in the walk that settles
        # nonexistence after the failed passes at 16 and 17; 33 while
        # monotone kinds deepened through every size
        g = Graph(32, [(i, i + 1) for i in range(30)])
        r = min_set(g, total_dominating())
        assert (r.exists, r.nodes_explored) == (False, 21)

    def test_guessed_deepening(self):
        # the existence walk proves sizes 0..29 empty, then size 30 is
        # deepened; 8,265 when a variable-size sweep did the proof, 3,977
        # before the walk's saturation cut
        r = min_set(self.C5_C6, one_k(2), guess=30)
        assert (r.gamma, r.nodes_explored) == (30, 985)

    def test_guessed_nonexistence_proof(self):
        # a guess past n: the one existence walk settles nonexistence; 6,677
        # when a variable-size sweep did
        r = min_set(self.C5_C6, total_one_k(2), guess=31)
        assert (r.exists, r.nodes_explored) == (False, 322)

    def test_guessed_nonexistence_of_an_independent_set(self):
        # 496 nodes without a guess; 62 when a vertex over the member bound
        # still counted among the suppliers of the vertex the walk picks
        r = min_set(self.C5_C6, independent_one_k(2), guess=31)
        assert (r.exists, r.nodes_explored) == (False, 33)

    def test_exists_set_sweep(self):
        # the existence walk with exists_set's twin table, before its packing
        # test; 1,102 and 168 nodes in the variable-size sweep without one,
        # and 61 for the no-instance while the last pick scanned for suppliers
        for sets, found, nodes in ((((0, 1, 2), (1, 3, 4), (2, 4, 5)), False, 48),
                                   (((0, 1, 2), (0, 1, 3), (3, 4, 5)), True, 9)):
            graph, meta = build_gadget(X3CInstance(6, sets))
            search = _Search(graph, total_one_k(2), break_twins=True)
            assert search.exists(meta.budget) is found
            assert search.nodes == nodes

    def test_last_pick_meets_every_unmet_vertex(self):
        # one pick is left at the root, and every vertex but 1 is unmet; the
        # fewest-suppliers scan chose 3 (hood {3, 4}), not the lowest unmet
        # vertex 0, and tried 3 before 4: 3 nodes.  The last pick tries only
        # 4, the one vertex in every unmet vertex's hood, and reaches the
        # same set
        search = _Search(Graph(5, [(0, 2), (0, 4), (2, 4), (3, 4)]), dominating(),
                         break_twins=True)
        assert search.exists(2, 0b10)
        assert (search.found, search.nodes) == (0b10010, 2)

    def test_scattered_scan(self, monkeypatch):
        searches = []

        class Counted(_Search):
            def run(self, *args, **kwargs):
                searches.append(self)
                return super().run(*args, **kwargs)

        monkeypatch.setattr(solvers, "_Search", Counted)
        assert lex_theory.min_sd_size_plus_alpha(build_standard("path", 20), 1, 2)[0] == 10
        # 1,003 while every last pick tried each candidate
        assert [search.nodes for search in searches] == [909]


class TestEnumerateSets:
    def test_lists_all_sets_of_a_size(self):
        g = build_standard("cycle", 6)
        seen = []
        enumerate_sets(g, efficient(), 2, lambda s: (seen.append(tuple(sorted(s))), False)[1])
        assert seen == [(0, 3), (1, 4), (2, 5)]

    def test_early_stop(self):
        g = build_standard("cycle", 6)
        seen = []
        enumerate_sets(g, efficient(), 2, lambda s: (seen.append(s), True)[1])
        assert len(seen) == 1

    def test_empty_size_range_lists_nothing(self):
        # sizes 0..-1 hold no set: the empty set of K0 is not listed, and no
        # root is counted
        for g in (Graph(0), build_standard("path", 3)):
            seen = []
            assert enumerate_masks(g, dominating(), 0, -1, seen.append) == 0
            assert seen == []

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="^size must be non-negative$"):
            enumerate_masks(build_standard("path", 3), dominating(), -1, 2, lambda mask: False)


class TestClosedForm:
    def test_examples(self):
        assert closed_form("path", 8, "t1k", 2) == 4
        assert closed_form("cycle", 7, "t1k", 3) == 4
        assert closed_form("path", 7, "one_k", 2) == 3

    def test_residue_table(self):
        assert [closed_form("cycle", n, "t1k") for n in (4, 5, 6, 7)] == [2, 3, 4, 4]

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError):
            closed_form("path", 1, "t1k")
        with pytest.raises(ValueError):
            closed_form("cycle", 2, "one_k")
        with pytest.raises(ValueError):
            closed_form("path", 5, "t1k", k=1)

    @pytest.mark.parametrize("n, k", [(5, 2.5), (5, 2.0), (5, True), (5.0, 2), (True, 2)])
    def test_rejects_parameters_that_are_not_ints(self, n, k):
        bad = ("k", k) if type(k) is not int else ("n", n)
        with pytest.raises(ValueError) as exc:
            closed_form("path", n, "one_k", k=k)
        assert str(exc.value) == f"{bad[0]} must be an integer, got {bad[1]!r}"

    @pytest.mark.parametrize("family, kind, message", [
        ("star", "t1k", "closed forms cover path and cycle, not 'star'"),
        ("path", "bogus", "unknown closed-form kind 'bogus'"),
    ])
    def test_rejects_unknown_family_or_kind(self, family, kind, message):
        with pytest.raises(ValueError) as exc:
            closed_form(family, 5, kind)
        assert str(exc.value) == message

    def test_oracle_agreement_small(self):
        for fam in ("path", "cycle"):
            for n in range(3, 11):
                g = build_standard(fam, n)
                for k in (2, 3):
                    assert min_set(g, total_one_k(k)).gamma == closed_form(fam, n, "t1k", k)
                    assert min_set(g, one_k(k)).gamma == closed_form(fam, n, "one_k", k)
                    assert min_set(g, independent_one_k(k)).gamma == closed_form(fam, n, "i1k", k)


class TestOrderingInvariants:
    def test_on_random_graphs(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 8))
            gamma = min_set(g, dominating()).gamma
            g12 = min_set(g, one_k(2)).gamma
            assert gamma <= g12
            rt = min_set(g, total_dominating())
            rt12 = min_set(g, total_one_k(2))
            if rt12.exists:
                assert rt.exists and rt.gamma <= rt12.gamma
            g13 = min_set(g, one_k(3)).gamma
            assert g13 <= g12


class TestSpecialGraphLemmas:
    def test_high_max_degree_forces_two_exhaustive(self):
        checked = 0
        for g in high_max_degree_catalog(7):
            for k in (2, 3):
                assert min_set(g, total_one_k(k), limit=2).gamma == 2, g
            checked += 1
        assert checked > 1000

    def test_high_max_degree_forces_two_sampled_n9(self, rng):
        for _ in range(60):
            g = random_high_max_degree_graph(rng, 9)
            assert min_set(g, total_one_k(2), limit=2).gamma == 2

    def test_covering_edge_forces_two(self, rng):
        found = 0
        for _ in range(120):
            g = random_connected_graph(rng, rng.randint(3, 8))
            for u, v in g.edges():
                closed = g.neighbors(u) | g.neighbors(v) | {u, v}
                if len(closed) == g.n:
                    assert satisfies(g, {u, v}, total_one_k(2))
                    assert min_set(g, total_one_k(2), limit=2).gamma == 2
                    found += 1
                    break
        assert found > 20

    def test_tree_complements(self):
        checked = 0
        for n in range(2, 10):
            for tree in nonisomorphic_trees(n):
                cg = complement(tree)
                if not is_connected(cg):
                    continue
                assert min_set(cg, total_one_k(2), limit=2).gamma == 2
                checked += 1
        assert checked > 30


_P2, _P3, _P6 = (build_standard("path", n) for n in (2, 3, 6))
_ONE_SET = X3CInstance(3, ((0, 1, 2),))  # its gadget has 7 + 3 vertices

# entry point -> (vertices its cap check sees, call); the predictions' cap
# checks are those of their factor solves on G = P6.
CAPPED_ENTRY_POINTS = {
    "min_set": (6, lambda **kw: min_set(_P6, one_k(2), **kw)),
    "exists_set": (6, lambda **kw: exists_set(_P6, one_k(2), **kw)),
    "enumerate_masks": (6, lambda: enumerate_masks(_P6, one_k(2), 0, 6, lambda m: False)),
    "verify_against_oracle": (
        6, lambda **kw: lex_theory.verify_against_oracle(_P3, _P2, "plain", **kw)),
    "verify_membership_against_oracle": (
        6, lambda **kw: lex_theory.verify_membership_against_oracle(_P3, _P2, "total", **kw)),
    "decide_x3c": (10, lambda **kw: decide_x3c(_ONE_SET, "via_gadget", **kw)),
    "decide_x3c_brute_force": (10, lambda **kw: decide_x3c(_ONE_SET, "brute_force", **kw)),
    "minimum_gadget_witness": (10, lambda **kw: minimum_gadget_witness(_ONE_SET, **kw)),
    "product_gamma": (6, lambda **kw: lex_theory.product_gamma(_P6, _P2, "plain", **kw)),
    "characterize_total": (6, lambda **kw: lex_theory.characterize_total(_P6, _P2, **kw)),
    "characterize_independent": (
        6, lambda **kw: lex_theory.characterize_independent(_P6, _P2, **kw)),
    "first_sd_set": (6, lambda **kw: lex_theory.first_sd_set(_P6, 1, 2, **kw)),
    "min_sd_size_plus_alpha": (6, lambda **kw: lex_theory.min_sd_size_plus_alpha(_P6, 1, 2, **kw)),
}


class TestDeterminismAndCap:
    def test_repeat_runs_identical(self):
        g = build_standard("cycle", 9)
        a = min_set(g, total_one_k(2))
        b = min_set(g, total_one_k(2))
        assert a == b
        assert a.to_json() == b.to_json()

    def test_json_shape(self):
        r = min_set(build_standard("complete", 3), one_k(2))
        assert r.to_dict() == {
            "kind": "one_k",
            "j": None,
            "k": 2,
            "exists": True,
            "gamma": 1,
            "witness": [0],
            "nodes_explored": r.nodes_explored,
        }

    def test_cap_enforced(self):
        big = build_standard("empty", 33)
        with pytest.raises(GraphTooLargeError):
            min_set(big, one_k(2))
        assert min_set(big, one_k(2), force=True).gamma == 33

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DOMKIT_MAX_N", "10")
        with pytest.raises(GraphTooLargeError):
            exists_set(build_standard("path", 12), one_k(2))
        monkeypatch.setenv("DOMKIT_MAX_N", "40")
        assert exists_set(build_standard("path", 12), one_k(2))

    def test_negative_cap_rejected(self, monkeypatch):
        p5 = build_standard("path", 5)
        monkeypatch.setenv("DOMKIT_MAX_N", "-3")
        for call in (min_set, exists_set):
            with pytest.raises(ValueError, match="non-negative") as info:
                call(p5, dominating())
            assert not isinstance(info.value, GraphTooLargeError)
        monkeypatch.setenv("DOMKIT_MAX_N", "0")
        with pytest.raises(GraphTooLargeError):
            min_set(p5, dominating())

    def test_negative_limit_rejected(self):
        for g in (Graph(0), build_standard("path", 5)):
            for call in (min_set, exists_set):
                with pytest.raises(ValueError, match="limit must be non-negative"):
                    call(g, dominating(), limit=-1)
            assert min_set(g, dominating(), limit=0).exists is (g.n == 0)
            assert exists_set(g, dominating(), limit=0) is (g.n == 0)

    def test_sizes_that_are_not_ints_rejected(self):
        # each used to raise TypeError inside range, count True as 1, or, for
        # exists_set at 1.5, answer False
        c5, kind = build_standard("cycle", 5), one_k(2)
        for name, value, call in (
                ("limit", 2.5, lambda v: min_set(c5, kind, limit=v)),
                ("limit", 2.0, lambda v: min_set(c5, kind, limit=v)),
                ("limit", True, lambda v: min_set(c5, kind, limit=v)),
                ("guess", 2.0, lambda v: min_set(c5, kind, guess=v)),
                ("guess", True, lambda v: min_set(c5, kind, guess=v)),
                ("limit", 1.5, lambda v: exists_set(c5, kind, limit=v)),
                ("limit", True, lambda v: exists_set(c5, kind, limit=v)),
                ("min_size", 0.0, lambda v: enumerate_masks(c5, kind, v, 2, lambda m: False)),
                ("max_size", 2.5, lambda v: enumerate_masks(c5, kind, 0, v, lambda m: False)),
                ("size", 2.0, lambda v: enumerate_sets(c5, kind, v, lambda s: False)),
                ("size", True, lambda v: enumerate_sets(c5, kind, v, lambda s: False))):
            with pytest.raises(ValueError) as exc:
                call(value)
            assert str(exc.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("entry", sorted(CAPPED_ENTRY_POINTS))
    def test_env_cap_reaches_every_entry_point(self, monkeypatch, entry):
        n, call = CAPPED_ENTRY_POINTS[entry]
        force = {} if entry == "enumerate_masks" else {"force": True}  # the one without force
        monkeypatch.setenv("DOMKIT_MAX_N", str(n))
        at_cap = call()
        monkeypatch.setenv("DOMKIT_MAX_N", str(n - 1))
        with pytest.raises(GraphTooLargeError, match=f"{n} vertices, cap is {n - 1}"):
            call()
        if force:
            assert call(**force) == at_cap
        monkeypatch.setenv("DOMKIT_MAX_N", "-1")  # validated even under force
        with pytest.raises(ValueError, match="non-negative"):
            call(**force)
