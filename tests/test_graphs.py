import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atlas_by_order, random_graph

from domkit.graphs import (
    Graph,
    ProductIndex,
    build_standard,
    check_vertex_cap,
    complement,
    distance,
    format_edge_list,
    is_connected,
    lex_product,
    load_graph,
    parse_edge_list,
    save_graph,
    write_outputs,
)


def graphs_strategy(max_n=6):
    def build(n, picks):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, [p for p, keep in zip(pairs, picks) if keep])

    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
        )
    )


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("call, message", [
        (lambda: Graph(-1), "vertex count must be non-negative"),
        (lambda: is_connected(Graph(0)), "connectivity is defined for n >= 1"),
        (lambda: ProductIndex(3, 4).id_of(3, 0), "pair (3, 0) out of range"),
        (lambda: ProductIndex(3, 4).id_of(0, -1), "pair (0, -1) out of range"),
        (lambda: ProductIndex(3, 4).pair_of(12), "product id 12 out of range"),
        (lambda: ProductIndex(3, 4).pair_of(-1), "product id -1 out of range"),
        (lambda: build_standard("wheel", 4), "unknown family 'wheel'"),
    ])
    def test_rejects_bad_arguments(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [True, False, 2.0, "3"])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        # bool is an int subclass: Graph(True) was a graph that wrote "True 0",
        # an edge list the parser rejects
        for call in (lambda: Graph(n), lambda: build_standard("path", n)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"n must be an integer, got {n!r}"

    def test_collapses_duplicates(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_adjacency_symmetric(self):
        g = Graph(4, [(0, 2), (2, 3)])
        for u in range(4):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


class TestStandardFamilies:
    def test_single_vertex_path(self):
        g = build_standard("path", 1)
        assert g.n == 1 and g.num_edges == 0

    def test_c4(self):
        g = build_standard("cycle", 4)
        assert g.n == 4 and g.num_edges == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_k3(self):
        g = build_standard("complete", 3)
        assert g.num_edges == 3
        assert g.max_degree() == g.min_degree() == 2

    def test_star_center(self):
        g = build_standard("star", 5)
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            build_standard("cycle", 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_standard("path", 0)


class TestComplement:
    def test_complete_becomes_empty(self):
        assert complement(build_standard("complete", 3)).num_edges == 0

    def test_p4_self_complementary(self):
        cg = complement(build_standard("path", 4))
        assert cg.num_edges == 3
        assert sorted(cg.degree(v) for v in range(4)) == [1, 1, 2, 2]

    @settings(max_examples=60)
    @given(graphs_strategy(max_n=8))
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestDistance:
    def test_antipodal_on_c6(self):
        assert distance(build_standard("cycle", 6), 0, 3) == 3

    def test_identity(self):
        assert distance(build_standard("path", 4), 2, 2) == 0

    def test_disconnected_is_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert distance(g, 0, 3) == math.inf

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            distance(build_standard("path", 3), 0, 5)

    @given(graphs_strategy(max_n=8))
    def test_matches_repeated_relaxation(self, g):
        # Bellman-Ford on unit weights, and connectivity as every distance finite
        for u in range(g.n):
            dist = [math.inf] * g.n
            dist[u] = 0
            for _ in range(g.n):
                for a, b in g.edges():
                    dist[a] = min(dist[a], dist[b] + 1)
                    dist[b] = min(dist[b], dist[a] + 1)
            assert [distance(g, u, v) for v in range(g.n)] == dist
            if u == 0:
                assert is_connected(g) == (math.inf not in dist)


class TestConnectivity:
    def test_path_connected(self):
        assert is_connected(build_standard("path", 5))

    def test_empty_pair_disconnected(self):
        assert not is_connected(build_standard("empty", 2))

    def test_k1_connected(self):
        assert is_connected(build_standard("path", 1))

    def test_one_search_without_the_distance_matrix(self):
        assert is_connected(build_standard("path", 2000))
        assert not is_connected(Graph(2000, [(i, i + 1) for i in range(1999) if i != 1000]))
        assert not is_connected(build_standard("empty", 2))


class SetGraph:
    """Adjacency-set reference for ``Graph``, built straight from the definition."""

    def __init__(self, n, edges):
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.key = (n, tuple(frozenset(s) for s in self.adj))

    def edges(self):
        return [(u, v) for u, s in enumerate(self.adj) for v in sorted(s) if u < v]


class TestMasksAgainstSetReference:
    def test_accessors_equality_and_hash(self):
        rng = random.Random(0x6A5)
        for _ in range(300):
            n = rng.randint(0, 12)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [p for p in pairs if rng.random() < rng.choice((0.1, 0.4, 0.8))]
            g, ref = Graph(n, edges), SetGraph(n, edges)
            assert list(g.edges()) == ref.edges()
            assert [g.neighbors(v) for v in range(n)] == [frozenset(s) for s in ref.adj]
            assert [g.degree(v) for v in range(n)] == [len(s) for s in ref.adj]
            assert g.num_edges == len(ref.edges())
            assert g.isolated_vertices() == tuple(v for v in range(n) if not ref.adj[v])
            # the same edge set given in another order, reversed and repeated
            shuffled = [(v, u) for u, v in edges] + edges
            rng.shuffle(shuffled)
            same = Graph(n, shuffled)
            assert same == g and hash(same) == hash(g)
            if pairs:
                toggled = set(edges) ^ {rng.choice(pairs)}
                assert SetGraph(n, toggled).key != ref.key
                assert Graph(n, toggled) != g
            assert Graph(n + 1, edges) != g


def lex_product_by_definition(g, h):
    """G o H from the definition, as an edge list over ids g * n_h + h."""
    m = h.n
    edges = []
    for g1 in range(g.n):
        for h1 in range(m):
            for g2 in range(g.n):
                for h2 in range(m):
                    if g2 in g.neighbors(g1) or (g1 == g2 and h2 in h.neighbors(h1)):
                        edges.append((g1 * m + h1, g2 * m + h2))
    return Graph(g.n * m, edges)


class TestLexProduct:
    def test_matches_definition_on_every_atlas_pair(self):
        # every graph on 1..4 vertices as either factor, K1 and edgeless H included
        atlas = [g for graphs in atlas_by_order(4).values() for g in graphs]
        assert len(atlas) == 18
        for g in atlas:
            for h in atlas:
                product, idx = lex_product(g, h)
                assert product == lex_product_by_definition(g, h)
                assert list(product.edges()) == list(lex_product_by_definition(g, h).edges())
                assert (idx.n_g, idx.n_h) == (g.n, h.n)

    def test_identity_factor(self):
        k1 = build_standard("path", 1)
        h = build_standard("path", 4)
        p, idx = lex_product(k1, h)
        assert p == h
        assert idx.id_of(0, 2) == 2
        # G o K1 and K1 o G are G with the same ids, since id(g, h) = g * n_h + h
        rng = random.Random(0xD15D)
        for n in range(1, 17):
            g = random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            assert lex_product(g, k1)[0] == g and lex_product(k1, g)[0] == g

    def test_p2_p2_is_k4(self):
        p, _ = lex_product(build_standard("path", 2), build_standard("path", 2))
        assert p == build_standard("complete", 4)

    def test_p3_p2_edge_count(self):
        # count both by construction and by the closed formula
        g = build_standard("path", 3)
        h = build_standard("path", 2)
        p, _ = lex_product(g, h)
        assert p.num_edges == 11
        assert p.num_edges == g.num_edges * h.n**2 + g.n * h.num_edges

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(6), graphs_strategy(6))
    def test_edge_count_formula(self, g, h):
        p, _ = lex_product(g, h)
        assert p.num_edges == g.num_edges * h.n**2 + g.n * h.num_edges

    @settings(max_examples=25, deadline=None)
    @given(graphs_strategy(4), graphs_strategy(4))
    def test_neighborhood_union_is_layer_determined(self, g, h):
        # for an edge {v,v'} of g, N((v,u)) ∪ N((v',u')) does not depend on u, u'
        p, idx = lex_product(g, h)
        for v, vp in g.edges():
            unions = {
                frozenset(p.neighbors(idx.id_of(v, u)) | p.neighbors(idx.id_of(vp, up)))
                for u in range(h.n)
                for up in range(h.n)
            }
            assert len(unions) == 1

    @settings(max_examples=30, deadline=None)
    @given(graphs_strategy(5), graphs_strategy(4))
    def test_disconnected_first_factor_propagates(self, g, h):
        if not is_connected(g):
            p, _ = lex_product(g, h)
            assert not is_connected(p)


class TestProductIndex:
    def test_bijection(self):
        idx = ProductIndex(3, 4)
        seen = {idx.id_of(g, h) for g in range(3) for h in range(4)}
        assert seen == set(range(12))
        for vid in range(12):
            g, h = idx.pair_of(vid)
            assert idx.id_of(g, h) == vid

    def test_layer_sizes(self):
        idx = ProductIndex(3, 4)
        assert all(len(idx.h_layer(g)) == 4 for g in range(3))
        assert all(len(idx.g_layer(h)) == 3 for h in range(4))

    def test_layer_profile_sums(self):
        idx = ProductIndex(3, 4)
        prof = idx.layer_profile([0, 1, 5, 11])
        assert prof == (2, 1, 1)
        assert sum(prof) == 4


class TestEdgeListFormat:
    def test_round_trip_canonical(self):
        for fam, n in [("cycle", 6), ("star", 5), ("path", 1), ("empty", 3)]:
            g = build_standard(fam, n)
            text = format_edge_list(g)
            assert parse_edge_list(text) == g
            assert format_edge_list(parse_edge_list(text)) == text

    def test_header(self):
        assert format_edge_list(build_standard("cycle", 6)).splitlines()[0] == "6 6"

    def test_comments_and_whitespace(self):
        g = parse_edge_list("# a triangle\n3 3\n0 1\n1 2  # last two\n0 2\n")
        assert g == build_standard("complete", 3)

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_edges_ascending_on_random_graphs(self):
        rng = random.Random(0xED6E)
        for _ in range(60):
            n = rng.randint(0, 200)
            density = rng.choice((0.01, 0.05, 0.3))
            pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
            g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs])
            assert list(g.edges()) == sorted(pairs)
            lines = [f"{n} {len(pairs)}"] + [f"{u} {v}" for u, v in sorted(pairs)]
            assert format_edge_list(g) == "\n".join(lines) + "\n"

    @settings(max_examples=50)
    @given(graphs_strategy(7))
    def test_round_trip_random(self, g):
        assert parse_edge_list(format_edge_list(g)) == g


def parse_edge_list_by_lines(text, max_n=None):
    """The per-line reader that ``parse_edge_list`` replaced, kept as its reference."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if len(tokens) < 2:
        raise ValueError("edge list must start with 'n m'")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"malformed edge list: {exc}") from None
    n, m = numbers[0], numbers[1]
    if len(numbers) != 2 + 2 * m:
        raise ValueError(f"expected {m} edges, found {(len(numbers) - 2) / 2:g}")
    if max_n is not None:
        check_vertex_cap(n, max_n)
    edges = [(numbers[i], numbers[i + 1]) for i in range(2, len(numbers), 2)]
    return Graph(n, edges)


LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # every str.splitlines boundary
BLANKS = " \t\x1f\xa0\u3000"  # whitespace that ends no line
ALPHABET = "0123456789+-_#" + LINE_BREAKS + BLANKS + "\ufeff\u0663"  # a BOM, Arabic-Indic 3


def random_edge_list(rng):
    """An edge-list text in the alphabet: mostly a valid graph with unusual
    separators, signs, underscores and comments, sometimes mutated."""
    n = rng.randint(0, 6)
    pairs = [(rng.randrange(n + 1), rng.randrange(n + 1)) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.8:
        pairs = [(u, v) for u, v in pairs if u != v and max(u, v) < n]

    def token(value):
        text = str(value)
        roll = rng.random()
        if roll < 0.1:
            return "+" + text
        if roll < 0.15:
            return "0_" + text
        if roll < 0.2:
            return text.replace("3", "\u0663")
        return text

    def gap(breaking):
        pool = LINE_BREAKS if breaking else BLANKS
        out = "".join(rng.choice(pool) for _ in range(rng.randint(1, 2)))
        if breaking and rng.random() < 0.3:
            comment = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))
            out = " #" + comment.translate({ord(c): None for c in LINE_BREAKS}) + out
        return out

    parts = [gap(True)] if rng.random() < 0.3 else []
    for u, v in [(n, len(pairs)), *pairs]:
        parts += [token(u), gap(False), token(v), gap(True)]
    chars = list("".join(parts))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randrange(len(chars) + 1)
        chars[at:at + rng.randint(0, 1)] = rng.choice(ALPHABET)
    return "".join(chars)


def outcome(parse, *args):
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestEdgeListDifferential:
    """``parse_edge_list`` and ``load_graph`` against the per-line reference on
    seeded random texts: the same graph, or the same error and message."""

    def test_texts_match_the_per_line_reader(self):
        rng = random.Random(0x5EED27)
        valid = 0
        for i in range(3000):
            text = random_edge_list(rng)
            max_n = (None, 4)[i % 2]
            expected = outcome(parse_edge_list_by_lines, text, max_n)
            assert outcome(parse_edge_list, text, max_n) == expected, repr(text)
            valid += isinstance(expected, Graph)
        assert valid >= 1000

    def test_files_match_the_text_mode_reader(self, tmp_path):
        def by_lines(path):
            with open(path, "r", encoding="utf-8") as fh:
                return parse_edge_list_by_lines(fh.read())

        rng = random.Random(0xF11E)
        target = tmp_path / "g.el"
        for _ in range(300):
            data = bytearray(random_edge_list(rng).encode("utf-8"))
            if rng.random() < 0.2:  # an undecodable byte
                data.insert(rng.randrange(len(data) + 1), rng.choice((0xE9, 0xFF, 0x80)))
            target.write_bytes(bytes(data))
            assert outcome(load_graph, str(target)) == outcome(by_lines, str(target)), data


class TestWriteText:
    """``write_outputs``, the one writer of every output file."""

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        target = tmp_path / "out.txt"
        write_outputs([(str(target), "0123456789\n" * 50)])
        write_outputs([(str(target), "short\n")])
        assert target.read_text() == "short\n"

    @pytest.mark.parametrize("old_size", (5, 6, 7, 0))
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, old_size):
        # longer, equal-length, shorter and empty old files
        target = tmp_path / "out.txt"
        target.write_bytes(b"x" * old_size)
        write_outputs([(str(target), "new!\n\n")])
        assert target.read_bytes() == b"new!\n\n"

    def test_cut_compares_bytes_not_characters(self, tmp_path):
        # 4 characters but 9 bytes over a 7-byte file: nothing may be cut
        target = tmp_path / "out.txt"
        target.write_bytes(b"abcdef\n")
        write_outputs([(str(target), "γγγγ\n")])
        assert target.read_bytes() == "γγγγ\n".encode("utf-8")
        write_outputs([(str(target), "λ\n")])
        assert target.read_bytes() == "λ\n".encode("utf-8")

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, bytes(data[:3])))
        target = tmp_path / "out.txt"
        target.write_bytes(b"y" * 100)
        text = "0 1\n1 2\nγ\n"
        write_outputs([(str(target), text)])
        assert target.read_bytes() == text.encode("utf-8")

    def test_bytes_match_open_w(self, tmp_path):
        text = "5 2\n0 1\nγ ∘ λ\r\n\n"
        ours, reference = tmp_path / "ours", tmp_path / "reference"
        write_outputs([(str(ours), text)])
        with open(reference, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert ours.read_bytes() == reference.read_bytes()

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            write_outputs([(str(tmp_path / "new.txt"), "x\n")])
        finally:
            os.umask(old)
        assert (tmp_path / "new.txt").stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_symlink_updates_its_target(self, tmp_path):
        target, link = tmp_path / "target.txt", tmp_path / "link.txt"
        target.write_text("a much longer old content\n")
        link.symlink_to(target)
        write_outputs([(str(link), "new\n")])
        assert link.is_symlink()
        assert target.read_text() == "new\n"

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_non_regular_target_is_not_truncated(self):
        write_outputs([("/dev/null", "discarded\n")])

    def test_save_graph_writes_the_edge_list(self, tmp_path):
        graph = lex_product(build_standard("cycle", 5), build_standard("path", 3))[0]
        target = tmp_path / "g.el"
        target.write_bytes(b"x" * 1000)
        save_graph(graph, str(target))
        assert target.read_bytes() == format_edge_list(graph).encode("utf-8")
        assert load_graph(str(target)) == graph

    def test_one_file_named_twice_writes_nothing(self, tmp_path, capsys):
        old, fresh = tmp_path / "old.el", tmp_path / "fresh.el"
        old.write_text("old contents\n")
        (tmp_path / "link.el").symlink_to(old)
        os.link(old, tmp_path / "hard.el")
        for second in ("old.el", "link.el", "hard.el"):
            with pytest.raises(ValueError, match="name one file"):
                write_outputs([(str(old), "new\n"), (None, "out"),
                               (str(tmp_path / second), "{}")])
        with pytest.raises(ValueError, match="name one file"):
            write_outputs([(str(fresh), "new\n"), (str(fresh), "{}")])
        assert old.read_text() == "old contents\n"
        assert not fresh.exists()
        assert capsys.readouterr().out == ""

    def test_unopenable_second_path_writes_nothing(self, tmp_path, capsys):
        # a directory cannot be opened for writing
        old, fresh = tmp_path / "old.el", tmp_path / "fresh.el"
        old.write_text("old contents\n")
        for first in (str(old), str(fresh), None):
            with pytest.raises(OSError):
                write_outputs([(first, "new\n"), (str(tmp_path), "{}")])
        assert old.read_text() == "old contents\n"
        assert not fresh.exists()
        assert capsys.readouterr().out == ""
