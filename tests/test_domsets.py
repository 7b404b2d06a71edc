import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.domsets import (
    BASES,
    SetKind,
    dominating,
    efficient,
    in_sd_class,
    independent_one_k,
    j_dependent_one_k,
    j_dependent_total_one_k,
    one_k,
    open_efficient,
    satisfies,
    spanning_number,
    total_dominating,
    total_one_k,
)
from domkit.graphs import Graph, build_standard

from conftest import naive_satisfies
from test_graphs import graphs_strategy


def graph_with_subset(max_n=7):
    return graphs_strategy(max_n).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.sets(st.integers(min_value=0, max_value=g.n - 1), max_size=g.n),
        )
    )


class TestKindValidation:
    def test_k_required(self):
        with pytest.raises(ValueError):
            SetKind("one_k")

    def test_k_at_least_one(self):
        with pytest.raises(ValueError):
            one_k(0)

    def test_j_bounded_by_k(self):
        with pytest.raises(ValueError):
            j_dependent_one_k(3, 2)

    def test_no_spurious_parameters(self):
        with pytest.raises(ValueError):
            SetKind("dominating", k=2)

    @pytest.mark.parametrize("base, k, j, message", [
        ("bogus", None, None, "unknown set kind 'bogus'"),
        ("j_dependent_one_k", 2, None, "j_dependent_one_k requires j >= 0, got None"),
        ("one_k", 2, 1, "one_k takes no j parameter"),
    ])
    def test_rejects_with_message(self, base, k, j, message):
        with pytest.raises(ValueError) as exc:
            SetKind(base, k=k, j=j)
        assert str(exc.value) == message

    def test_rejects_parameters_that_are_not_integers(self):
        # bool is an int subclass and 2.0 compares like 2; neither may solve
        # or serialise as a parameter
        for base, k, j, bad in (("one_k", 1.0, None, "k, got 1.0"),
                                ("one_k", 2.0, None, "k, got 2.0"),
                                ("one_k", True, None, "k, got True"),
                                ("total_one_k", "2", None, "k, got '2'"),
                                ("j_dependent_one_k", 2, 1.0, "j, got 1.0"),
                                ("j_dependent_total_one_k", 2, False, "j, got False"),
                                ("j_dependent_one_k", True, 0, "k, got True")):
            with pytest.raises(ValueError) as exc:
                SetKind(base, k=k, j=j)
            assert str(exc.value) == f"{base} requires an integer {bad}"

    def test_valid_kinds(self):
        # (kind, (lo_in, hi_in, lo_out, hi_out), label), written out from the
        # definitions: members need at least lo_in and at most hi_in in-set
        # neighbors, non-members between lo_out and hi_out; None is unbounded.
        expected = [
            (dominating(), (0, None, 1, None), "dominating"),
            (total_dominating(), (1, None, 1, None), "total_dominating"),
            (one_k(3), (0, None, 1, 3), "one_k k=3"),
            (total_one_k(2), (1, 2, 1, 2), "total_one_k k=2"),
            (independent_one_k(3), (0, 0, 1, 3), "independent_one_k k=3"),
            (j_dependent_one_k(1, 3), (0, 1, 1, 3), "j_dependent_one_k j=1 k=3"),
            (j_dependent_total_one_k(1, 2), (1, 1, 1, 2), "j_dependent_total_one_k j=1 k=2"),
            (efficient(), (0, 0, 1, 1), "efficient"),
            (open_efficient(), (1, 1, 1, 1), "open_efficient"),
        ]
        assert [kind.base for kind, _, _ in expected] == list(BASES)
        for kind, bounds, label in expected:
            assert (kind.bounds(), kind.label()) == (bounds, label)


class TestSpanningNumber:
    def test_both_neighbors_inside(self):
        assert spanning_number(build_standard("path", 3), {0, 2}, 1) == 2

    def test_empty_set(self):
        g = build_standard("cycle", 4)
        assert all(spanning_number(g, set(), v) == 0 for v in range(4))

    def test_single_neighbor(self):
        assert spanning_number(build_standard("cycle", 4), {0, 1}, 2) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            spanning_number(build_standard("path", 3), {0}, 7)
        with pytest.raises(ValueError):
            spanning_number(build_standard("path", 3), {5}, 0)


class TestSatisfies:
    def test_p4_total_one_2(self):
        g = build_standard("path", 4)
        assert [spanning_number(g, {1, 2}, v) for v in range(4)] == [1, 1, 1, 1]
        assert satisfies(g, {1, 2}, total_one_k(2))

    def test_c6_efficient_brute_force(self):
        # {0, 3} should be the first efficient set an exhaustive scan finds
        from conftest import brute_all

        g = build_standard("cycle", 6)
        assert satisfies(g, {0, 3}, efficient())
        assert brute_all(g, efficient())[0] == (0, 3)

    def test_c5_independent_one_2(self):
        g = build_standard("cycle", 5)
        assert [spanning_number(g, {0, 2}, v) for v in range(5)] == [0, 2, 0, 1, 1]
        assert satisfies(g, {0, 2}, independent_one_k(2))

    def test_empty_set_fails_on_nonempty_graph(self):
        assert not satisfies(build_standard("path", 3), set(), one_k(2))

    def test_empty_set_on_empty_graph(self):
        assert satisfies(Graph(0), set(), one_k(2))

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            satisfies(build_standard("path", 3), {9}, one_k(2))

    def test_full_vertex_set_is_one_k(self):
        for fam, n in [("path", 5), ("cycle", 4), ("star", 6), ("empty", 3)]:
            g = build_standard(fam, n)
            assert satisfies(g, set(range(g.n)), one_k(1))

    @settings(max_examples=120)
    @given(graph_with_subset())
    def test_agrees_with_naive_oracle(self, pair):
        g, s = pair
        for kind in (
            SetKind("dominating"),
            SetKind("total_dominating"),
            one_k(2),
            total_one_k(2),
            independent_one_k(2),
            j_dependent_one_k(1, 2),
            j_dependent_total_one_k(1, 2),
            efficient(),
            open_efficient(),
        ):
            assert satisfies(g, s, kind) == naive_satisfies(g, s, kind)

    @settings(max_examples=100)
    @given(graph_with_subset())
    def test_kind_implications(self, pair):
        g, s = pair
        if satisfies(g, s, total_one_k(2)):
            assert satisfies(g, s, one_k(2))
        if satisfies(g, s, independent_one_k(2)):
            for j in (0, 1, 2):
                assert satisfies(g, s, j_dependent_one_k(j, 2))
        if satisfies(g, s, efficient()):
            assert satisfies(g, s, independent_one_k(1))
        if satisfies(g, s, open_efficient()):
            assert satisfies(g, s, total_one_k(1))

    @settings(max_examples=100)
    @given(graph_with_subset())
    def test_monotone_in_k(self, pair):
        g, s = pair
        for k in (1, 2, 3):
            if satisfies(g, s, one_k(k)):
                assert satisfies(g, s, one_k(k + 1))


class TestSdClass:
    def test_c5_pair_too_close(self):
        # both members have spanning number 0 but sit at distance 2
        assert not in_sd_class(build_standard("cycle", 5), {0, 2}, 1, 2)

    def test_singleton_vacuous(self):
        assert in_sd_class(build_standard("complete", 3), {0}, 1, 2)

    def test_no_lonely_members(self):
        # every member has a neighbor inside, so the distance clause never fires
        assert in_sd_class(build_standard("path", 2), {0, 1}, 1, 2)

    def test_scattered_pair_accepted(self):
        g = build_standard("path", 6)
        assert in_sd_class(g, {0, 3, 4}, 1, 2)

    def test_requires_dependent_one_k(self):
        # {0, 1, 2} on K3 is not 1-dependent (members see two inside)
        assert not in_sd_class(build_standard("complete", 3), {0, 1, 2}, 1, 2)
