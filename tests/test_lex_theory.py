import hashlib
import json
import math
import random
from itertools import combinations

import networkx as nx
import pytest

from conftest import (
    atlas_by_order,
    brute_min,
    naive_satisfies,
    random_connected_graph,
    random_graph,
)

from domkit.domsets import (
    BASES,
    SetKind,
    base_parameters,
    dominating,
    in_sd_class,
    independent_one_k,
    j_dependent_one_k,
    j_dependent_total_one_k,
    near_masks,
    one_k,
    satisfies,
    scattered_test,
    total_dominating,
    total_one_k,
)
from domkit import cli, lex_theory, solvers
from domkit.graphs import Graph, build_standard, is_connected, lex_product, mask_to_ids
from domkit.lex_theory import (
    DisconnectedFactorError,
    characterize_independent,
    characterize_total,
    corollary_value,
    first_sd_set,
    min_sd_size_plus_alpha,
    product_gamma,
    verify_against_oracle,
    verify_membership_against_oracle,
)
from domkit.solvers import GraphTooLargeError, _Search, enumerate_masks, exists_set, min_set


def P(n):
    return build_standard("path", n)


def C(n):
    return build_standard("cycle", n)


K1 = build_standard("path", 1)


class TestSdScans:
    def test_c5_has_no_scattered_1_dependent_set(self):
        assert first_sd_set(C(5), 1, 2) is None

    def test_p3_smallest(self):
        assert first_sd_set(P(3), 1, 2) == {1}

    def test_min_size_plus_alpha_counts_lonely_members(self):
        # {1} on P3 is scattered with a lonely member: value 1 + 1 = 2
        value, members = min_sd_size_plus_alpha(P(3), 2, 2)
        assert (value, members) == (2, {1})

    def test_min_size_plus_alpha_prefers_paired_members(self):
        # on P4, {0,1} (value 2+0) beats {1} (not dominating 3)
        value, members = min_sd_size_plus_alpha(P(4), 1, 2)
        assert value == 2 and members in ({0, 1}, {1, 2}, {2, 3})

    def test_scans_match_a_brute_force_subset_scan(self):
        # subsets in (size, lexicographic) order, bounds by naive_satisfies,
        # distances by networkx; in_sd_class must agree on every subset
        rng = random.Random(0x5CA7)
        hits = 0
        for _ in range(40):
            n = rng.randint(1, 9) if rng.random() < 0.2 else rng.randint(6, 9)
            g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
            nxg = nx.Graph(list(g.edges()))
            nxg.add_nodes_from(range(n))
            dist = dict(nx.all_pairs_shortest_path_length(nxg))

            def lonely(members):
                return [v for v in members if not any(w in members for w in nxg[v])]

            def scattered(members):
                return all(w == v or dist[v].get(w, math.inf) >= 3
                           for v in lonely(members) for w in members)

            for j, k in ((0, 2), (1, 2), (2, 2), (1, 3)):
                first, best = None, None
                for size in range(n + 1):
                    for combo in combinations(range(n), size):
                        members = set(combo)
                        ok = (naive_satisfies(g, members, j_dependent_one_k(j, k))
                              and scattered(members))
                        assert in_sd_class(g, members, j, k) == ok
                        if not ok:
                            continue
                        if first is None:
                            first = frozenset(combo)
                        value = size + len(lonely(members))
                        if best is None or value < best[0]:
                            best = (value, frozenset(combo))
                assert first_sd_set(g, j, k) == first
                got = min_sd_size_plus_alpha(g, j, k)
                assert got == best
                if got is not None:
                    assert sorted(got[1]) == sorted(best[1])
                # with a bound b: the same answer when its value is below b, else None
                for b in range((2 * n if best is None else best[0]) + 2):
                    expected = best if best is not None and best[0] < b else None
                    assert min_sd_size_plus_alpha(g, j, k, below=b) == expected, (n, j, k, b)
                hits += first is not None
        assert hits > 40

    def test_callers_bound_the_scan_by_the_earlier_subcases(self, monkeypatch):
        # each scan gets the smallest candidate value before it, None without one
        calls = []

        def spy(g, j, k, *, below=None, force=False):
            calls.append((j, below))
            return min_sd_size_plus_alpha(g, j, k, below=below, force=force)

        monkeypatch.setattr(lex_theory, "min_sd_size_plus_alpha", spy)

        def gamma(g, kind):
            return min_set(g, kind).gamma

        # the spider with three legs of two edges has no total [1,2]-set
        spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        grid = [g for n, group in atlas_by_order(6).items() if n >= 2
                for g in group if is_connected(g)]
        seen = set()
        for g in grid + [spider]:
            t12, jdt = gamma(g, total_one_k(2)), gamma(g, j_dependent_total_one_k(1, 2))
            # H = 2K1 runs case1b after case1a; H = C4 runs one_2's case2c
            # after case2b and total_one_2's case2b after case2a
            for h, kind, expected in ((build_standard("empty", 2), "one_2", (2, t12)),
                                      (C(4), "one_2", (1, jdt)),
                                      (C(4), "total_one_2", (1, jdt))):
                calls.clear()
                product_gamma(g, h, kind)
                assert calls == [expected], (sorted(g.edges()), h.n, kind)
                seen.add((kind, expected[0], expected[1] is None))
        assert len(seen) == 6  # every call site, with and without an earlier candidate

    @pytest.mark.parametrize("g,h,kind,label,value", [
        (C(14), P(4), "one_2", "case2b", 8),
        (C(20), C(4), "total_one_2", "case2a", 10),
    ])
    def test_a_scan_that_ties_an_earlier_subcase_loses(self, g, h, kind, label, value):
        # the scan's own minimum equals the earlier value, so it runs bounded
        # by that value, finds nothing below it, and the earlier case wins
        assert min_sd_size_plus_alpha(g, 1, 2)[0] == value
        assert min_sd_size_plus_alpha(g, 1, 2, below=value) is None
        a = product_gamma(g, h, kind)
        assert (a.matched_condition, a.predicted_gamma) == (label, value)


def _uncut_scans(g, j, k):
    """Both scans' answers from the full listing of j-dependent [1,k]-sets
    (``enumerate_masks`` without the scattered cut), filtered by
    ``scattered_test``, and the nodes that listing explored."""
    scattered = scattered_test(g)
    adj = g.neighbor_masks
    first, best = [], []

    def visit(s):
        size = s.bit_count()
        if best and size >= best[0]:
            return True
        if scattered(s):
            first[:] = first or [s]
            value = size + sum(1 for v in mask_to_ids(s) if not adj[v] & s)
            if not best or value < best[0]:
                best[:] = [value, s]
        return False

    nodes = enumerate_masks(g, j_dependent_one_k(j, k), 0, g.n, visit)
    as_set = lambda s: frozenset(mask_to_ids(s))  # noqa: E731
    return (as_set(first[0]) if first else None,
            (best[0], as_set(best[1])) if best else None, nodes)


class TestScatteredCut:
    """The scans search with the scattered cut; their answers must be those
    of the uncut listing, and their cost far below it."""

    PAIRS = ((0, 1), (0, 2), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3))

    def test_scans_match_the_uncut_listing(self):
        rng = random.Random(0x5C47)
        with_isolated = 0
        for _ in range(2000):
            n = rng.randint(1, 13)
            p = rng.choice((0.1, 0.2, 0.3, 0.45, 0.6, 0.8))
            isolated = rng.randint(1, min(3, n)) if rng.random() < 0.25 else 0
            core = random_graph(rng, n - isolated, p)
            ids = rng.sample(range(n), n)  # spread the isolated vertices among the ids
            g = Graph(n, [(ids[u], ids[v]) for u, v in core.edges()])
            with_isolated += bool(g.isolated_vertices())
            for j, k in self.PAIRS:
                first, best, _ = _uncut_scans(g, j, k)
                assert first_sd_set(g, j, k) == first, (n, sorted(g.edges()), j, k)
                assert min_sd_size_plus_alpha(g, j, k) == best, (n, sorted(g.edges()), j, k)
        assert with_isolated > 500

    # the uncut listings took 18,564, 15,082, 33,324 and 24,559 nodes while
    # every last pick tried each candidate; the ids leave out the pins
    @pytest.mark.parametrize("family,j,k,ceiling,uncut", [
        pytest.param("path", 1, 2, 1010, 15868, id="path-1-2"),
        pytest.param("cycle", 1, 2, 1089, 12500, id="cycle-1-2"),
        pytest.param("path", 2, 2, 3000, 26774, id="path-2-2"),
        pytest.param("cycle", 2, 2, 2610, 19483, id="cycle-2-2"),
    ])
    def test_min_sd_node_ceilings(self, monkeypatch, family, j, k, ceiling, uncut):
        searches = []

        class Counted(solvers._Search):
            def run(self, *args, **kwargs):
                searches.append(self)
                return super().run(*args, **kwargs)

        monkeypatch.setattr(solvers, "_Search", Counted)
        g = build_standard(family, 20)
        assert lex_theory.min_sd_size_plus_alpha(g, j, k)[0] == 10
        assert len(searches) == 1 and searches[0].nodes <= ceiling
        _, best, full = _uncut_scans(g, j, k)
        assert best[0] == 10 and full == uncut

    def test_cut_lists_a_superset_of_the_scattered_sets(self):
        rng = random.Random(0x5C48)
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice((0.2, 0.35, 0.5)))
            scattered = scattered_test(g)
            near = near_masks(g.neighbor_masks)
            for j, k in self.PAIRS:
                kind = j_dependent_one_k(j, k)
                every, listed = [], []
                enumerate_masks(g, kind, 0, n, lambda s: every.append(s))
                _Search(g, kind, near=near).run(0, n, lambda s: listed.append(s))
                assert [s for s in every if scattered(s)] == [s for s in listed if scattered(s)]
                assert set(listed) <= set(every)


class TestCharacterizeTotal:
    def test_trivial_g(self):
        a = characterize_total(K1, P(4), 2)
        assert a.membership and a.matched_condition == 1
        assert a.layer_profile == (2,)

    def test_c5_c4_has_none(self):
        a = characterize_total(C(5), C(4), 2)
        assert not a.membership and a.matched_condition is None

    def test_p4_p5_via_total_set_of_g(self):
        a = characterize_total(P(4), P(5), 2)
        assert a.membership and a.matched_condition == 2
        product, idx = lex_product(P(4), P(5))
        assert satisfies(product, set(a.witness), total_one_k(2))
        assert {idx.pair_of(v)[0] for v in a.witness} == {1, 2}

    def test_rejects_disconnected_g(self):
        with pytest.raises(DisconnectedFactorError):
            characterize_total(build_standard("empty", 2), P(2), 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            characterize_total(P(2), P(2), 1)

    def test_witness_always_validates(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(1, 3))
            a = characterize_total(g, h, 2)
            product, _ = lex_product(g, h)
            if a.membership:
                assert a.witness is not None
                assert satisfies(product, set(a.witness), total_one_k(2))
                assert sum(a.layer_profile) == len(a.witness)
            else:
                assert not exists_set(product, total_one_k(2))


class TestCharacterizeIndependent:
    def test_efficient_route(self):
        a = characterize_independent(C(6), P(2), 2)
        assert a.membership and a.matched_condition == 2

    def test_trivial_g(self):
        a = characterize_independent(K1, C(4), 2)
        assert a.membership and a.matched_condition == 1

    def test_p2_c7_false(self):
        a = characterize_independent(P(2), C(7), 2)
        assert not a.membership

    def test_witness_always_validates(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(1, 3))
            a = characterize_independent(g, h, 2)
            product, _ = lex_product(g, h)
            if a.membership:
                assert satisfies(product, set(a.witness), independent_one_k(2))
            else:
                assert not exists_set(product, independent_one_k(2))


class TestProductGamma:
    def test_c5_c4_one_2_full_product(self):
        a = product_gamma(C(5), C(4), "one_2")
        assert a.predicted_gamma == 20 and a.matched_condition == "case2d"

    def test_p4_p4_one_2(self):
        a = product_gamma(P(4), P(4), "one_2")
        assert a.predicted_gamma == 2 and a.matched_condition == "case2b"

    def test_p2_p2_total(self):
        assert product_gamma(P(2), P(2), "total").predicted_gamma == 2

    def test_p3_c4_plain(self):
        # gamma(C4) = 2 > 1, so the total-set-of-G case rules and predicts 2
        a = product_gamma(P(3), C(4), "plain")
        assert a.predicted_gamma == 2 and a.matched_condition == "total_set_of_g"

    def test_plain_with_dominated_layer(self):
        # star has a universal vertex, so gamma(G o star) = gamma(G)
        a = product_gamma(P(4), build_standard("star", 3), "plain")
        assert a.predicted_gamma == min_set(P(4), total_dominating()).gamma
        b = product_gamma(C(4), build_standard("star", 3), "plain")
        assert b.matched_condition == "dominated_layer"

    def test_identity_cases(self):
        a = product_gamma(K1, C(6), "total_one_2")
        assert a.predicted_gamma == 4 and a.matched_condition == "identity"
        b = product_gamma(C(6), K1, "total_one_2")
        assert b.predicted_gamma == 4

    def test_total_one_2_nonexistence(self):
        a = product_gamma(C(5), C(3), "total_one_2")
        assert not a.membership and a.predicted_gamma is None
        assert a.matched_condition == "case2c_nonexistent"

    def test_one_2_isolated_layer_cases(self):
        a = product_gamma(P(3), build_standard("empty", 2), "one_2")
        assert a.predicted_gamma == 2  # both case1a and case1b yield 2 here

    def test_independent_kinds(self):
        a = product_gamma(C(6), P(2), "i_one_2")
        assert a.predicted_gamma == 2 and a.matched_condition == "case_a_efficient"
        b = product_gamma(P(2), C(7), "i_one_k", k=2)
        assert not b.membership

    def test_rejects_bad_kind_and_k(self):
        with pytest.raises(ValueError):
            product_gamma(P(2), P(2), "nope")
        with pytest.raises(ValueError):
            product_gamma(P(2), P(2), "one_2", k=3)


class TestEmptySecondFactor:
    """An H with no vertices leaves no H-vertex for a layer plan to name, so
    every prediction, characterization and oracle check rejects it."""

    @staticmethod
    def assert_rejected(call):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == "second factor must have at least one vertex"

    @pytest.mark.parametrize("kind", lex_theory.PRODUCT_GAMMA_KINDS)
    def test_product_gamma_rejects(self, kind):
        for g in (K1, P(2), C(6)):
            self.assert_rejected(lambda: product_gamma(g, Graph(0), kind))
            self.assert_rejected(lambda: verify_against_oracle(g, Graph(0), kind))

    @pytest.mark.parametrize("which", sorted(lex_theory.CHARACTERIZATIONS))
    def test_characterizations_reject(self, which):
        characterize, _ = lex_theory.CHARACTERIZATIONS[which]
        for g in (K1, P(2), C(6)):
            self.assert_rejected(lambda: characterize(g, Graph(0), 2))
            self.assert_rejected(lambda: verify_membership_against_oracle(g, Graph(0), which, 2))


SPIDER = Graph(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)])


def _atlas_pairs():
    """Connected G on 1..6 vertices with any H on 1..4: 2,574 pairs, products <= 24."""
    atlas = atlas_by_order(6)
    hs = [h for order in range(1, 5) for h in atlas[order]]
    for order in range(1, 7):
        for g in atlas[order]:
            if is_connected(g):
                yield from ((g, h) for h in hs)


class TestTotalOne2Prediction:
    """Lonely members (no in-set G-neighbor) need an edge of H that dominates
    H above them; gamma_[1,2](H) = 2 neither implies nor is implied by one."""

    @pytest.mark.parametrize("m", [2, 5])
    def test_spider_with_complete_layer(self, m):
        # gamma_[1,2](K_m) = 1, yet every edge of K_m dominates it
        h = build_standard("complete", m)
        r = verify_against_oracle(SPIDER, h, "total_one_2")
        assert r.agree and r.prediction == r.oracle == 6
        assert r.matched_condition == "case2b"
        assert r.witness_pred == r.witness_oracle
        if m == 2:
            assert r.witness_oracle == (0, 1, 8, 9, 10, 11)
        assert characterize_total(SPIDER, h, 2).membership

    @pytest.mark.parametrize("m, witness", [(2, (2, 4, 6)), (5, (5, 10, 15))])
    def test_spider_with_complete_layer_at_k3(self, m, witness):
        # condition 2: a total [1,3]-set of the spider, one vertex per layer
        h = build_standard("complete", m)
        assert min_set(lex_product(SPIDER, h)[0], total_one_k(3)).gamma == 3
        r = verify_membership_against_oracle(SPIDER, h, "total", 3)
        assert r.agree and r.prediction is r.oracle is True
        assert (r.matched_condition, r.witness_pred) == (2, witness)

    def test_atlas_grid_against_exhaustive_search(self):
        kind = total_one_k(2)
        wins = {}
        for g, h in _atlas_pairs():
            a = product_gamma(g, h, "total_one_2")
            product, _ = lex_product(g, h)
            if product.n <= 12:
                gamma, _ = brute_min(product, kind)
            else:
                gamma = min_set(product, kind).gamma
            assert (a.membership, a.predicted_gamma) == (gamma is not None, gamma), (
                list(g.edges()), list(h.edges()), h.n, a.matched_condition)
            if a.membership:
                assert naive_satisfies(product, set(a.witness), kind)
            wins[a.matched_condition] = wins.get(a.matched_condition, 0) + 1
        assert wins["case2b"] >= 20 and wins["case2c_nonexistent"] >= 20

    def test_characterization_agrees_without_an_oracle(self):
        for g, h in _atlas_pairs():
            assert (characterize_total(g, h, 2).membership
                    == product_gamma(g, h, "total_one_2").membership), (
                list(g.edges()), list(h.edges()), h.n)


def _factor_classes(total: bool, k: int):
    """Connected atlas G on 2..6 vertices (142), and every atlas H on 1..4
    vertices (18) with its class: n_H, whether H has an isolated vertex, and
    c, which is γ_t[1,k](H) when ``total`` and γ_[1,k](H) otherwise (None
    when no such set exists)."""
    atlas = atlas_by_order(6)
    gs = [g for order in range(2, 7) for g in atlas[order] if is_connected(g)]
    c_kind = total_one_k(k) if total else one_k(k)
    hs = [(h, (h.n, 0 in h.neighbor_masks, min_set(h, c_kind).gamma))
          for order in range(1, 5) for h in atlas[order]]
    return gs, hs


class TestFactorInvariance:
    """ROADMAP item 13: for a fixed G, γ_[1,k], γ_t[1,k] and γ_i[1,k] of G∘H
    read H only through its class (``_factor_classes``).  The law is a
    measured regularity, not a theorem; a prediction that varies inside a
    class is wrong before any comparison with the oracle."""

    @staticmethod
    def assert_one_value_per_class(value, total, k):
        gs, hs = _factor_classes(total, k)
        assert len(gs) == 142 and len(hs) == 18
        shared = 0
        for g in gs:
            seen = {}
            for h, cls in hs:
                if cls in seen:
                    shared += 1
                v = value(g, h)
                assert seen.setdefault(cls, v) == v, (list(g.edges()), list(h.edges()), cls)
        assert shared >= 142 * 7  # 7 to 10 of the 18 H share a class with an earlier H

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", [one_k, total_one_k, independent_one_k])
    def test_oracle(self, kind, k):
        self.assert_one_value_per_class(
            lambda g, h: min_set(lex_product(g, h)[0], kind(k)).gamma,
            kind is total_one_k, k)

    @pytest.mark.parametrize("name, k", [
        ("one_2", 2), ("total_one_2", 2), ("i_one_2", 2), ("i_one_k", 3),
    ])
    def test_predictions(self, name, k):
        def prediction(g, h):
            if h.n == 1:  # the identity row
                return None
            a = product_gamma(g, h, name, k)
            return a.membership, a.predicted_gamma

        self.assert_one_value_per_class(prediction, name == "total_one_2", k)


# found by a random search; the product with K2 has 22 vertices
G11 = Graph(11, [(0, 2), (1, 9), (2, 9), (2, 10), (3, 4), (3, 6), (3, 9), (5, 8),
                 (6, 7), (6, 9), (8, 9)])


class TestFailedConstruction:
    def test_reported_without_searching_the_product(self, monkeypatch):
        # characterize_total(G11, K2, 4) decides on a plan that fails the
        # layer-count check (see TestRareSubcases)
        product_sizes = []
        real_min_set = lex_theory.min_set

        def recording_min_set(graph, kind, *args, **kwargs):
            product_sizes.append(graph.n)
            return real_min_set(graph, kind, *args, **kwargs)

        monkeypatch.setattr(lex_theory, "min_set", recording_min_set)
        a = characterize_total(G11, P(2), 4)
        assert (a.membership, a.matched_condition) == (True, 4)
        assert a.witness is None and a.layer_profile is None
        assert product_sizes and max(product_sizes) == 11  # factor solves only


class TestLayerMasks:
    """The layer-count check of a plan agrees with ``satisfies`` on the
    explicit product, and the witness it yields is the plan's product ids.
    ``satisfies`` referees the check's one test per empty layer, so the
    plans leave layers empty and H may have isolated vertices or none."""

    KINDS = [SetKind(base, k=k, j=j)
             for base in BASES
             for k in ((1, 2, 3) if "k" in base_parameters(base) else (None,))
             for j in (range(k + 1) if "j" in base_parameters(base) else (None,))]

    def test_agrees_with_satisfies_on_random_plans(self):
        rng = random.Random(0x1A7E)
        accepted = {base: 0 for base in BASES}
        with_isolated = 0
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 5), rng.choice((0.2, 0.5, 0.8)))
            h = random_graph(rng, rng.randint(0, 4), rng.choice((0.2, 0.5, 0.8)))
            with_isolated += bool(g.isolated_vertices() or h.isolated_vertices())
            plan = tuple(rng.sample(range(n), rng.randint(0, n)) for n in (g.n, h.n, h.n))
            members, shared, lonely = map(set, plan)
            # by definition: a member's layer carries ``lonely`` too when no
            # other member is a G-neighbor
            ids = sorted(v * h.n + x for v in members
                         for x in shared | (set() if g.neighbors(v) & members else lonely))
            product, idx = lex_product(g, h)
            for kind in self.KINDS:
                a = lex_theory._finish(g, h, kind, plan, None, None)
                ok = satisfies(product, ids, kind)
                assert (lex_theory._layer_masks(g, h, kind, *plan) is not None) == ok
                if ok:
                    assert a.witness == tuple(ids)
                    assert a.layer_profile == idx.layer_profile(ids)
                    accepted[kind.base] += 1
                else:
                    assert a.witness is None and a.layer_profile is None
        assert with_isolated > 100
        assert min(accepted.values()) >= 5, accepted


DOUBLE_STAR = Graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
K33 = Graph(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])


class TestIndependentLargeK:
    """A non-member layer hears |D| for each member G-neighbor, so with D =
    the gamma_i[1,k](H)-set in every member layer G is asked for an
    independent [1, floor(k/|D|)]-set; that first differs from k at k = 4."""

    def test_double_star(self):
        r = verify_against_oracle(DOUBLE_STAR, Graph(2), "i_one_k", 4)
        assert r.agree and r.prediction == r.oracle == 8
        assert r.matched_condition == "case_b_independent"
        assert r.witness_pred == r.witness_oracle == (2, 3, 4, 5, 8, 9, 10, 11)
        a = characterize_independent(DOUBLE_STAR, Graph(2), 4)
        assert (a.membership, a.matched_condition, a.witness) == (True, 3, r.witness_pred)

    def test_k33_has_none(self):
        a = product_gamma(K33, Graph(2), "i_one_k", 4)
        assert (a.membership, a.matched_condition) == (False, "case_c_nonexistent")
        r = verify_membership_against_oracle(K33, Graph(2), "independent", 4)
        assert r.agree and r.prediction is False and r.oracle is False

    def test_atlas_grid_at_k4(self):
        for g, h in _atlas_pairs():
            where = (list(g.edges()), list(h.edges()), h.n)
            r = verify_against_oracle(g, h, "i_one_k", 4)
            assert r.agree, where
            assert r.prediction is None or len(r.witness_pred) == r.prediction, where
            m = verify_membership_against_oracle(g, h, "independent", 4)
            assert m.agree and m.prediction == (r.prediction is not None), where
            assert not m.prediction or m.witness_pred is not None, where


class TestRareSubcases:
    """Pairs won by subcases that never decide on the atlas grid, so their
    layer plans are built and checked somewhere (found by a random search)."""

    def test_characterize_total_condition_4(self):
        g = Graph(8, [(0, 2), (1, 6), (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (6, 7)])
        h = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        a = characterize_total(g, h, k=2)
        assert (a.membership, a.matched_condition, a.witness) == (True, 4, (4, 5, 8, 12))
        assert naive_satisfies(lex_product(g, h)[0], set(a.witness), total_one_k(2))
        r = verify_membership_against_oracle(g, h, "total", 2)
        assert r.agree and r.oracle is True

    def test_characterize_total_condition_4_second_branch(self):
        # gamma_t[1,4](K2) = 2 <= floor(4/2), and G11 has no efficient or
        # scattered 3-dependent set, so condition 4 decides on its second
        # branch.  Membership is right, but the layer plan on {1,2,3,5,6}
        # fails: non-member 9 hears 2 + 2 + 1 + 1 = 6 > 4, so no witness.
        a = characterize_total(G11, P(2), k=4)
        assert (a.membership, a.matched_condition, a.witness, a.layer_profile) == (
            True, 4, None, None)
        assert min_set(G11, j_dependent_one_k(3, 4)).witness == (1, 2, 3, 5, 6)
        r = verify_membership_against_oracle(G11, P(2), "total", 4)
        assert r.agree and r.oracle is True

    def test_characterize_total_k3_misses_a_weighted_set(self):
        # non-members 3 and 6 hear 2 + 1 = 3 from a lonely doubled layer and a
        # single one: the label rule of ROADMAP item 1 with c = 2
        assert not characterize_total(G11, P(2), k=3).membership
        product, idx = lex_product(G11, P(2))
        r = min_set(product, total_one_k(3))
        assert r.gamma == 7 and satisfies(product, set(r.witness), total_one_k(3))
        assert idx.layer_profile(r.witness) == (0, 0, 1, 0, 2, 0, 0, 2, 1, 1, 0)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="condition 4 needs the label rule of ROADMAP item 1")
    def test_characterize_total_k3_agrees(self):
        assert verify_membership_against_oracle(G11, P(2), "total", 3).agree

    # 7-vertex G with H = 2K1: predicted 6 (case1b), 14 and 14 (case1c), but the
    # oracle finds 5, 8 and 8; in each oracle set a member with in-set
    # G-neighbours carries its whole layer, which no one_2 subcase plans
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="one_2 needs the full-layer label of ROADMAP item 1")
    @pytest.mark.parametrize("edges", [
        "01 03 04 12 36 45",
        "02 03 05 12 25 34 35 56",
        "01 02 03 04 12 13 16 23 35",
    ])
    def test_one_2_agrees_on_g7_with_two_isolated_vertices(self, edges):
        g = Graph(7, [(int(e[0]), int(e[1])) for e in edges.split()])
        assert verify_against_oracle(g, Graph(2), "one_2").agree

    def test_one_2_case1b(self):
        g = Graph(9, [(0, 2), (0, 3), (1, 2), (1, 6), (1, 8), (2, 4), (2, 6), (2, 7),
                      (3, 4), (4, 6), (5, 6), (6, 7), (7, 8)])
        h = Graph(3, [(0, 2)])
        a = product_gamma(g, h, "one_2")
        assert (a.matched_condition, a.predicted_gamma) == ("case1b", 6)
        assert a.witness == (1, 10, 15, 16, 24, 25)
        assert naive_satisfies(lex_product(g, h)[0], set(a.witness), one_k(2))
        r = verify_against_oracle(g, h, "one_2")
        assert r.agree and r.oracle == 6


class TestOracleKind:
    def test_builds_only_the_kind_asked_for(self):
        # kinds with a fixed k never read the caller's k
        assert lex_theory.oracle_kind("plain", 0) == dominating()
        assert lex_theory.oracle_kind("one_2", 0) == one_k(2)
        assert lex_theory.oracle_kind("i_one_k", 3) == independent_one_k(3)
        with pytest.raises(ValueError, match="unknown product kind 'bogus'"):
            lex_theory.oracle_kind("bogus", 0)
        with pytest.raises(ValueError, match="requires k >= 1"):
            lex_theory.oracle_kind("i_one_k", 0)

    def test_check_k_rejects_an_unknown_kind(self):
        for call in (lambda: lex_theory.check_k(2, "bogus"),
                     lambda: product_gamma(P(3), P(2), "bogus")):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == "unknown product kind 'bogus'"

    def test_cli_tokens_name_every_kind(self):
        assert tuple(cli.PRODUCT_KIND_TOKENS.values()) == lex_theory.PRODUCT_GAMMA_KINDS

    @pytest.mark.parametrize("kind", ["plain", "total", "one_2", "total_one_2", "i_one_2",
                                      "i_one_k"])
    def test_k_rule(self, kind):
        # check_k and product_gamma pass or fail alike, on the same message
        for k in (1, 2, 3):
            if kind.endswith("_2"):
                message = None if k == 2 else f"{kind} is defined for k=2 only"
            else:
                message = None if k >= 2 else f"product theorems require k >= 2, got {k}"
            for call in (lambda: lex_theory.check_k(k, kind),
                         lambda: product_gamma(P(3), P(2), kind, k)):
                if message is None:
                    call()
                    continue
                with pytest.raises(ValueError) as exc:
                    call()
                assert str(exc.value) == message

    @pytest.mark.parametrize("kind", [None, "plain", "one_2", "i_one_k"])
    @pytest.mark.parametrize("k", [2.5, 2.0, True])
    def test_k_must_be_an_int(self, kind, k):
        # as in SetKind: bool is an int subclass and 2.0 compares like 2
        for call in (lambda: lex_theory.check_k(k, kind),
                     lambda: verify_against_oracle(P(3), P(2), kind or "total", k)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"k must be an integer, got {k!r}"

    FACTORIES = ("dominating", "efficient", "independent_one_k", "j_dependent_one_k",
                 "j_dependent_total_one_k", "one_k", "total_dominating", "total_one_k")

    def test_shared_kinds_equal_fresh_ones(self):
        # each factory lex_theory solves with hands out one kind per
        # parameters; a factory is named after the base it builds
        for name in self.FACTORIES:
            takes = base_parameters(name)
            for k in ((1, 2, 3, 4) if "k" in takes else (None,)):
                for j in (range(k + 1) if "j" in takes else (None,)):
                    args = [p for p in (j, k) if p is not None]
                    shared = getattr(lex_theory, name)(*args)
                    fresh = SetKind(name, k=k, j=j)
                    assert getattr(lex_theory, name)(*args) is shared
                    assert shared == fresh and hash(shared) == hash(fresh)
                    assert repr(shared) == repr(fresh) and shared.bounds() == fresh.bounds()
        # a parameter of another type that compares equal is not served the
        # cached kind: it is rejected
        assert lex_theory.one_k(1).k is not True
        with pytest.raises(ValueError, match="requires an integer k, got True"):
            lex_theory.one_k(True)

    @pytest.mark.parametrize("name,args", [
        ("one_k", (0,)),
        ("total_one_k", (-1,)),
        ("independent_one_k", (0,)),
        ("j_dependent_one_k", (3, 2)),
        ("j_dependent_total_one_k", (1, 0)),
    ])
    def test_invalid_parameters_raise_on_every_call(self, name, args):
        j, k = args if len(args) == 2 else (None, args[0])
        with pytest.raises(ValueError) as fresh:
            SetKind(name, k=k, j=j)
        for _ in range(3):
            with pytest.raises(ValueError) as shared:
                getattr(lex_theory, name)(*args)
            assert str(shared.value) == str(fresh.value)


class TestPinnedOutput:
    """Every witness, label, layer profile and key order on a small grid,
    pinned as one SHA-256 so that a refactor of the witness builders cannot
    change a byte of the output unnoticed."""

    DIGEST = "620674d4856fd59cd0d2b1b56799aa6230cf2da864b019563269b022996c7b9b"

    @staticmethod
    def _pairs():
        atlas = atlas_by_order(4)
        hs = [h for order in range(1, 4) for h in atlas[order]]
        for order in range(1, 5):
            for g in atlas[order]:
                if is_connected(g):
                    yield from ((g, h) for h in hs)
        paths_cycles = [P(n) for n in range(1, 6)] + [C(n) for n in range(3, 6)]
        yield from ((g, h) for g in paths_cycles for h in paths_cycles)
        # the smallest atlas pairs won by total_one_2 case2b, characterize_total
        # condition 3, one_2 case2c and i_one_2 identity_nonexistent
        k33 = Graph(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
        yield from ((SPIDER, P(2)), (SPIDER, Graph(4, [(0, 1), (2, 3)])), (k33, K1))

    @staticmethod
    def _digest(records):
        digest = hashlib.sha256()
        calls = 0
        for record in records:
            d = record.to_dict()
            digest.update(f"{json.dumps(d)}\n{d}\n".encode())
            calls += 1
        return calls, digest.hexdigest()

    def test_output_digest(self):
        def analyses(g, h):
            for kind in lex_theory.PRODUCT_GAMMA_KINDS:
                yield product_gamma(g, h, kind)
            yield product_gamma(g, h, "i_one_k", k=3)
            for k in (2, 3):
                yield characterize_total(g, h, k)
                yield characterize_independent(g, h, k)

        assert self._digest(a for g, h in self._pairs() for a in analyses(g, h)) == (
            1507, self.DIGEST)

    def test_oracle_report_digest(self):
        cases = [(kind, 2) for kind in lex_theory.PRODUCT_GAMMA_KINDS]
        cases += [("i_one_k", 3), ("i_one_k", 4)]
        reports = (verify_against_oracle(g, h, kind, k)
                   for g, h in self._pairs() for kind, k in cases)
        assert self._digest(reports) == (
            1096, "182338a144275426abe6438210a30f9324906f12b31ebec8b146df29a71a2d5b")

    def test_membership_report_digest(self):
        reports = (verify_membership_against_oracle(g, h, which, k)
                   for g, h in self._pairs()
                   for which in ("total", "independent") for k in (2, 3, 4))
        assert self._digest(reports) == (
            822, "186b1534f33d301b86631adb54dbe3759b9f606ff6715e94748912757bc7ed06")


class TestCorollaryValues:
    def test_examples(self):
        assert corollary_value("path", "path", 5, 2, "one_2") == 2
        assert corollary_value("cycle", "cycle", 6, 4, "i_one_2") == 4
        assert corollary_value("path", "path", 3, 7, "i_one_2") is None

    def test_cycle_rows_top_to_bottom(self):
        # the m=2,3 row fires before the n=5 row
        assert corollary_value("cycle", "cycle", 5, 3, "one_2") == 2
        assert corollary_value("cycle", "cycle", 5, 4, "one_2") == 20
        assert corollary_value("cycle", "cycle", 5, 4, "total_one_2") is None
        assert corollary_value("cycle", "cycle", 8, 4, "total_one_2") == 4

    def test_mixed_families_follow_first_factor(self):
        assert corollary_value("path", "cycle", 6, 4, "one_2") == 4
        assert corollary_value("cycle", "path", 5, 4, "one_2") == 20

    def test_range_checks(self):
        with pytest.raises(ValueError):
            corollary_value("cycle", "cycle", 2, 4, "one_2")
        with pytest.raises(ValueError):
            corollary_value("path", "path", 4, 1, "one_2")

    @pytest.mark.parametrize("n, m", [(4.0, 3), (4, 3.0), (True, 3), (4, True)])
    def test_rejects_sizes_that_are_not_ints(self, n, m):
        bad = ("n", n) if type(n) is not int else ("m", m)
        with pytest.raises(ValueError) as exc:
            corollary_value("path", "path", n, m, "one_2")
        assert str(exc.value) == f"{bad[0]} must be an integer, got {bad[1]!r}"

    @pytest.mark.parametrize("family_g, family_h, kind, message", [
        ("path", "path", "bogus", "unknown corollary kind 'bogus'"),
        ("star", "path", "one_2", "factors must be path or cycle"),
        ("path", "complete", "one_2", "factors must be path or cycle"),
    ])
    def test_rejects_unknown_kind_or_family(self, family_g, family_h, kind, message):
        with pytest.raises(ValueError) as exc:
            corollary_value(family_g, family_h, 5, 4, kind)
        assert str(exc.value) == message

    def test_independent_rows(self):
        assert corollary_value("cycle", "cycle", 7, 4, "i_one_2") is None
        assert corollary_value("path", "path", 7, 5, "i_one_2") == 2 * 3
        assert corollary_value("cycle", "cycle", 9, 6, "i_one_2") == 6

    def test_every_row_matches_the_solver(self):
        # every family pair and kind with n * m <= 24; a cycle H with m = 2 is K2
        kinds = {"one_2": one_k(2), "total_one_2": total_one_k(2),
                 "i_one_2": independent_one_k(2)}
        cells = 0
        for fam_g in ("path", "cycle"):
            for fam_h in ("path", "cycle"):
                for n in range(2 if fam_g == "path" else 3, 13):
                    for m in range(2, 24 // n + 1):
                        h = P(2) if m == 2 else build_standard(fam_h, m)
                        product, _ = lex_product(build_standard(fam_g, n), h)
                        for name, kind in kinds.items():
                            got = min_set(product, kind).gamma
                            assert got == corollary_value(fam_g, fam_h, n, m, name), \
                                (fam_g, fam_h, n, m, name, got)
                            cells += 1
        assert cells == 378


class TestEfficientSetSizes:
    def test_all_efficient_sets_share_one_size(self, rng):
        # the product formulas rely on a well-defined efficient-set size
        from conftest import brute_all
        from domkit.domsets import efficient

        seen = 0
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 7))
            sizes = {len(s) for s in brute_all(g, efficient())}
            assert len(sizes) <= 1
            seen += bool(sizes)
        assert seen > 5


class TestVerifyAgainstOracle:
    def test_p4_p4(self):
        r = verify_against_oracle(P(4), P(4), "one_2")
        assert r.agree and r.prediction == 2 and r.oracle == 2

    def test_c5_c3_total_nonexistence(self):
        r = verify_against_oracle(C(5), C(3), "total_one_2")
        assert r.agree and r.prediction is None and r.oracle is None

    def test_identity_product_value(self):
        r = verify_against_oracle(K1, C(6), "total_one_2")
        assert r.agree and r.prediction == 4 and r.oracle == 4

    def test_rejects_an_unknown_characterization(self):
        with pytest.raises(ValueError) as exc:
            verify_membership_against_oracle(P(3), P(2), "bogus")
        assert str(exc.value) == "unknown characterization 'bogus'"

    def test_report_is_json_serializable(self):
        r = verify_against_oracle(P(3), P(2), "plain")
        parsed = json.loads(r.to_json())
        assert parsed["agree"] is True
        assert set(parsed) == {
            "kind", "k", "prediction", "oracle", "agree",
            "matched_condition", "witness_pred", "witness_oracle", "layer_profile",
        }

    def test_layer_profile_falls_back_to_the_oracle_witness(self, monkeypatch):
        bare = lex_theory.ProductAnalysis(True, "case1", 2, None, None)
        monkeypatch.setattr(lex_theory, "product_gamma", lambda *args, **kwargs: bare)
        r = verify_against_oracle(P(4), P(4), "one_2")
        _, idx = lex_product(P(4), P(4))
        assert r.agree and r.witness_pred is None and r.witness_oracle is not None
        assert r.layer_profile == idx.layer_profile(r.witness_oracle) == (0, 1, 1, 0)

    def test_membership_comparison(self):
        r = verify_membership_against_oracle(C(5), C(3), "total")
        assert r.agree and r.prediction is False and r.oracle is False
        r2 = verify_membership_against_oracle(C(6), P(2), "independent")
        assert r2.agree and r2.prediction is True

    def test_membership_calls_the_characterization_by_its_module_name(self, monkeypatch):
        # so that a wrapper put on the name, as the benchmark's tracer does, sees the call
        stub = lex_theory.ProductAnalysis(True, "stub", None, None, None)
        for which in lex_theory.CHARACTERIZATIONS:
            monkeypatch.setattr(lex_theory, f"characterize_{which}", lambda *a, **kw: stub)
            assert verify_membership_against_oracle(C(5), C(3), which).matched_condition == "stub"

    def test_each_check_builds_its_product_once(self, monkeypatch):
        built = []

        def counted(g, h):
            built.append((g, h))
            return lex_product(g, h)

        monkeypatch.setattr(lex_theory, "lex_product", counted)
        g, h = P(4), P(4)
        # predictions check their layer plans from layer counts alone
        analyses = [product_gamma(g, h, kind) for kind in lex_theory.PRODUCT_GAMMA_KINDS]
        analyses += [characterize_total(g, h), characterize_independent(g, h)]
        assert built == [] and sum(a.witness is not None for a in analyses) >= 5
        r = verify_against_oracle(g, h, "one_2")
        assert r.witness_pred is not None and built == [(g, h)]
        r = verify_membership_against_oracle(g, h, "total")
        assert r.witness_pred is not None and built == [(g, h)] * 2
        verify_membership_against_oracle(g, h, "independent")
        assert built == [(g, h)] * 3

    def test_over_cap_product_is_refused_before_the_prediction(self, monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        calls = []
        solve = lex_theory.min_set
        monkeypatch.setattr(lex_theory, "min_set",
                            lambda *args, **kwargs: calls.append(args) or solve(*args, **kwargs))
        g, h = P(17), P(2)  # 34 product vertices, above the default cap of 32
        for check in (lambda: verify_against_oracle(g, h, "one_2"),
                      lambda: verify_membership_against_oracle(g, h, "total"),
                      lambda: verify_membership_against_oracle(g, h, "independent")):
            with pytest.raises(GraphTooLargeError):
                check()
        monkeypatch.setenv("DOMKIT_MAX_N", "5")
        with pytest.raises(GraphTooLargeError):
            verify_against_oracle(P(3), P(2), "plain")
        assert calls == []
        assert verify_against_oracle(P(3), P(2), "plain", force=True).agree
        assert calls

    def test_force_reaches_every_factor_solve(self, monkeypatch):
        forced = []
        solve = lex_theory.min_set
        monkeypatch.setattr(lex_theory, "min_set", lambda *args, **kwargs: (
            forced.append(kwargs["force"]) or solve(*args, **kwargs)))
        for force in (False, True):
            forced.clear()
            for g, h in ((P(4), P(4)), (C(5), build_standard("empty", 2)), (K1, C(6))):
                for kind in lex_theory.PRODUCT_GAMMA_KINDS:
                    product_gamma(g, h, kind, force=force)
                    verify_against_oracle(g, h, kind, force=force)
                for which, fn in (("total", characterize_total),
                                  ("independent", characterize_independent)):
                    fn(g, h, force=force)
                    verify_membership_against_oracle(g, h, which, force=force)
            assert len(forced) >= 80 and set(forced) == {force}
        big = P(40)  # condition 2 of the total characterization solves on G alone
        with pytest.raises(GraphTooLargeError):
            characterize_total(big, C(5))
        assert characterize_total(big, C(5), force=True).membership is True


class TestLayerStructure:
    def test_layer_cardinality_bound_small_corpus(self, rng):
        # minimum total [1,2]-sets of products with nontrivial connected G
        # never use more than two vertices of one layer
        checked = 0
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(1, 4))
            if g.n * h.n > 16:
                continue
            product, idx = lex_product(g, h)
            r = min_set(product, total_one_k(2))
            if not r.exists:
                continue
            profile = idx.layer_profile(r.witness)
            assert max(profile) <= 2
            checked += 1
        assert checked > 10

    def test_generalized_layer_bound_k3(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(2, 3))
            h = random_graph(rng, rng.randint(1, 4))
            if g.n * h.n > 12:
                continue
            product, idx = lex_product(g, h)
            r = min_set(product, total_one_k(3))
            if r.exists:
                assert max(idx.layer_profile(r.witness)) <= 3

    def test_projection_of_single_layer_witness(self, rng):
        # witnesses touching each layer at most once project to total [1,2]-sets of G
        seen = 0
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(1, 3))
            product, idx = lex_product(g, h)
            r = min_set(product, total_one_k(2))
            if not r.exists:
                continue
            profile = idx.layer_profile(r.witness)
            if max(profile) <= 1:
                projection = {idx.pair_of(v)[0] for v in r.witness}
                assert satisfies(g, projection, total_one_k(2))
                seen += 1
        assert seen > 5

    def test_shared_layer_pairs_are_total_sets_of_h(self, rng):
        # when H has no isolated vertex, a doubled layer carries a total [1,2]-set of H
        seen = 0
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(2, 4), p=0.7)
            if h.isolated_vertices() or g.n * h.n > 16:
                continue
            product, idx = lex_product(g, h)
            r = min_set(product, total_one_k(2))
            if not r.exists:
                continue
            by_layer: dict[int, set[int]] = {}
            for v in r.witness:
                gg, hh = idx.pair_of(v)
                by_layer.setdefault(gg, set()).add(hh)
            for hs in by_layer.values():
                if len(hs) == 2:
                    assert satisfies(h, hs, total_one_k(2))
                    seen += 1
        assert seen > 0

    def test_gamma_t_product_law_spot(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_graph(rng, rng.randint(1, 4))
            if g.n * h.n > 16:
                continue
            product, _ = lex_product(g, h)
            assert min_set(product, total_dominating()).gamma == \
                min_set(g, total_dominating()).gamma
