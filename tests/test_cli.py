import json
import os
from itertools import combinations

import pytest

from domkit import cli, graphs, npc
from domkit.cli import COMMANDS, KIND_TOKENS, PRODUCT_KIND_TOKENS, main
from domkit.graphs import (
    build_standard,
    format_edge_list,
    lex_product,
    load_graph,
    parse_edge_list,
)
from domkit.lex_theory import corollary_value


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.el"
    path.write_text(format_edge_list(build_standard("cycle", 5)))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.el"
    path.write_text(format_edge_list(build_standard("cycle", 4)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    def test_one_parser_serves_every_call(self, capsys, c5_file):
        calls = (("solve", c5_file, "--kind", "nope"), ("--help",),
                 ("solve", c5_file, "--kind", "t1k", "--k", "2"))
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in first] == [64, 0, 0]
        assert [run(capsys, *argv) for argv in calls] == first


def _fill(argv, **paths):
    return [paths.get(word, word) for word in argv]


class TestParser:
    """The command table's parser: help, usage errors and the argv forms that
    name the same option.  C5, C4 and OUT stand for files made per test."""

    @pytest.mark.parametrize("argv", [
        ("-h",), ("--help",), ("--he",), ("--bogus", "-h"),
        *((command, flag) for command in COMMANDS for flag in ("-h", "--help")),
        ("solve", "C5", "--kind", "dom", "--help"),  # after a complete command line
        ("solve", "C5", "--bogus", "-h"),  # before the word is reported
        ("gen", "-h", "hypercube"),
    ])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: domkit")

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("nope",), "argument command: invalid choice: 'nope'"),
        (("solve", "C5", "--kind", "dom", "--bogus"), "unrecognized arguments: --bogus"),
        (("solve", "C5"), "the following arguments are required: --kind"),
        (("solve", "--kind", "dom"), "the following arguments are required: graph"),
        (("theorem", "total", "C5"), "the following arguments are required: h"),
        (("solve", "C5", "C4", "--kind", "dom"), "unrecognized arguments: C4"),
        (("gen", "path", "x"), "argument n: invalid int value: 'x'"),
        (("solve", "C5", "--kind", "dom", "--k", "2.5"), "argument --k: invalid int value: '2.5'"),
        (("solve", "C5", "--kind", "nope"), "argument --kind: invalid choice: 'nope'"),
        (("gen", "hypercube", "4"), "argument family: invalid choice: 'hypercube'"),
        (("solve", "C5", "--kind"), "argument --kind: expected one argument"),
        (("reduce", "C5", "-o", "--force"), "argument -o/--output: expected one argument"),
        (("solve", "C5", "--kind", "dom", "--pretty=1"),
         "argument --pretty: ignored explicit argument '1'"),
        (("solve", "--", "C5", "--kind", "dom"), "the following arguments are required: --kind"),
        (("--bogus", "solve", "C5", "--kind", "dom"), "unrecognized arguments: --bogus"),
    ])
    def test_usage_errors_exit_64(self, capsys, c5_file, c4_file, argv, message):
        code, out, err = run(capsys, *_fill(argv, C5=c5_file, C4=c4_file))
        assert (code, out) == (64, "")
        usage, error = err.splitlines()
        assert usage.startswith("usage: domkit") and error.startswith("error: ")
        assert message.replace("C4", c4_file) in error

    def test_ambiguous_prefix_exits_64(self, capsys, monkeypatch, c5_file):
        # no two long options of a command share a prefix, so add one that does
        solve = COMMANDS["solve"]
        prefix = solve.options[-1]._replace(names=("--prefix",))
        monkeypatch.setitem(COMMANDS, "solve", solve._replace(options=(*solve.options, prefix)))
        code, out, err = run(capsys, "solve", c5_file, "--kind", "dom", "--pre")
        assert (code, out) == (64, "") and err.startswith("usage: domkit solve")
        assert "error: ambiguous option: --pre could match --pretty, --prefix" in err
        assert run(capsys, "solve", c5_file, "--kind", "dom", "--pretty")[0] == 0

    @pytest.mark.parametrize("argv, plain", [
        (("solve", "C5", "--kind=t1k", "--k=2"), ("solve", "C5", "--kind", "t1k", "--k", "2")),
        (("solve", "C5", "--ki", "t1k", "--k", "2", "--pre", "--lim", "3"),
         ("solve", "C5", "--kind", "t1k", "--k", "2", "--pretty", "--limit", "3")),
        (("theorem", "product-gamma", "C5", "C4", "--comp", "--k=2"),
         ("theorem", "product-gamma", "C5", "C4", "--compare-oracle")),
        (("solve", "C5", "--kind", "dom", "--kind", "t1k", "--k", "3", "--k", "2"),
         ("solve", "C5", "--kind", "t1k", "--k", "2")),
        (("theorem", "--kind", "plain", "product-gamma", "C5", "--k", "2", "C4"),
         ("theorem", "product-gamma", "C5", "C4", "--kind", "plain")),
        (("gen", "cycle", "6", "-oOUT"), ("gen", "cycle", "6", "-o", "OUT")),
        (("gen", "-o=OUT", "cycle", "6"), ("gen", "cycle", "6", "-o", "OUT")),
        (("gen", "cycle", "6", "--out", "OUT.first", "--output=OUT"), ("gen", "cycle", "6", "-o", "OUT")),
        (("product", "C5", "C4", "--lay=OUT"), ("product", "C5", "C4", "--layer-map", "OUT")),
    ])
    def test_equivalent_forms(self, tmp_path, capsys, c5_file, c4_file, argv, plain):
        target = tmp_path / "out"

        def outcome(argv):
            code, out, _ = run(capsys, *(word.replace("OUT", str(target)) for word in
                                         _fill(argv, C5=c5_file, C4=c4_file)))
            written = target.read_text() if target.exists() else None
            target.unlink(missing_ok=True)
            return code, out, written

        result = outcome(argv)
        assert result == outcome(plain) and result[0] == 0 and (result[1] or result[2])


class TestGen:
    def test_stdout_header(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "6")
        assert code == 0
        assert out.splitlines()[0] == "6 6"

    def test_file_round_trip(self, tmp_path, capsys):
        target = tmp_path / "g.el"
        code, _, _ = run(capsys, "gen", "star", "5", "-o", str(target))
        assert code == 0
        g = load_graph(str(target))
        assert g == build_standard("star", 5)
        assert format_edge_list(g) == target.read_text()

    def test_bad_family_exits_64(self, capsys):
        code, _, err = run(capsys, "gen", "hypercube", "4")
        assert code == 64 and "error" in err

    def test_cap_refuses_before_building(self, capsys, monkeypatch):
        # complete 100000 has about 5 billion edges: the cap must stop it first
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)

        def guard(*args):
            raise AssertionError("build_standard ran")

        monkeypatch.setattr(cli, "build_standard", guard)
        code, out, err = run(capsys, "gen", "complete", "100000")
        assert code == 3 and out == ""
        assert "100000 vertices, cap is 32" in err and "--force" in err

    def test_force_lifts_the_cap(self, capsys, monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        code, out, err = run(capsys, "gen", "path", "40")
        assert code == 3 and out == "" and "40 vertices, cap is 32" in err
        code, out, _ = run(capsys, "gen", "path", "40", "--force")
        assert code == 0 and out == format_edge_list(build_standard("path", 40))

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, capsys):
        target = tmp_path / "g.el"
        assert run(capsys, "gen", "complete", "8", "-o", str(target))[0] == 0
        assert run(capsys, "gen", "path", "2", "-o", str(target))[0] == 0
        assert target.read_text() == run(capsys, "gen", "path", "2")[1]


class TestProduct:
    def test_product_and_layer_map(self, tmp_path, capsys, c5_file, c4_file):
        out_file = tmp_path / "p.el"
        map_file = tmp_path / "layers.json"
        code, _, _ = run(capsys, "product", c5_file, c4_file,
                         "-o", str(out_file), "--layer-map", str(map_file))
        assert code == 0
        product = load_graph(str(out_file))
        assert product.n == 20
        layers = json.loads(map_file.read_text())
        assert layers["h_layers"]["0"] == [0, 1, 2, 3]
        assert layers["g_layers"]["0"] == [0, 4, 8, 12, 16]

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, capsys, c5_file,
                                                  c4_file):
        k1 = tmp_path / "k1.el"
        k1.write_text(format_edge_list(build_standard("path", 1)))
        out_file, map_file = tmp_path / "p.el", tmp_path / "layers.json"
        fresh_map = tmp_path / "fresh.json"
        for g, h, layer_map in ((c5_file, c4_file, map_file), (c4_file, str(k1), map_file),
                                (c4_file, str(k1), fresh_map)):
            code, _, _ = run(capsys, "product", g, h, "-o", str(out_file),
                             "--layer-map", str(layer_map))
            assert code == 0
        assert out_file.read_text() == run(capsys, "product", c4_file, str(k1))[1]
        assert map_file.read_text() == fresh_map.read_text()

    def test_missing_file_exits_1(self, capsys, c5_file):
        code, _, err = run(capsys, "product", c5_file, "/nonexistent.el")
        assert code == 1 and "error" in err

    def test_huge_header_exits_3_before_building_the_graph(self, tmp_path, capsys, c5_file,
                                                           monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        huge = tmp_path / "huge.el"
        huge.write_text("1000000000 0\n")
        real_graph = graphs.Graph

        def small_graph(n, *args, **kwargs):
            if n > 32:
                raise AssertionError("graph built before the cap check")
            return real_graph(n, *args, **kwargs)

        monkeypatch.setattr(graphs, "Graph", small_graph)
        out_file = tmp_path / "p.el"
        for g, h in ((c5_file, str(huge)), (str(huge), c5_file)):
            code, out, err = run(capsys, "product", g, h, "-o", str(out_file))
            assert code == 3 and out == "" and not out_file.exists()
            assert "1000000000 vertices, cap is 32" in err

    def test_force_lifts_the_factor_cap(self, tmp_path, capsys, c5_file, monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        p40 = tmp_path / "p40.el"
        p40.write_text(format_edge_list(build_standard("path", 40)))
        code, out, err = run(capsys, "product", str(p40), c5_file)
        assert code == 3 and out == "" and "40 vertices, cap is 32" in err
        code, out, _ = run(capsys, "product", str(p40), c5_file, "--force")
        product, _ = lex_product(build_standard("path", 40), build_standard("cycle", 5))
        assert code == 0 and out == format_edge_list(product)


class TestSolve:
    def test_c5_total_one_2(self, capsys, c5_file):
        code, out, _ = run(capsys, "solve", c5_file, "--kind", "t1k", "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma"] == 3 and payload["exists"] is True

    def test_missing_k_exits_64(self, capsys, c5_file):
        code, _, _ = run(capsys, "solve", c5_file, "--kind", "t1k")
        assert code == 64

    def test_invalid_parameters_exit_64(self, capsys, c5_file):
        code, _, _ = run(capsys, "solve", c5_file, "--kind", "jd1k", "--j", "3", "--k", "2")
        assert code == 64

    def test_cap_violation_exits_3(self, tmp_path, capsys):
        big = tmp_path / "big.el"
        big.write_text(format_edge_list(build_standard("path", 40)))
        code, _, err = run(capsys, "solve", str(big), "--kind", "dom")
        assert code == 3 and "cap" in err

    def test_huge_header_exits_3_before_building_the_graph(self, tmp_path, capsys,
                                                           monkeypatch):
        huge = tmp_path / "huge.el"
        huge.write_text("1000000000 0\n")

        def no_graph(*args, **kwargs):
            raise AssertionError("graph built before the cap check")

        monkeypatch.setattr(graphs, "Graph", no_graph)
        code, out, err = run(capsys, "solve", str(huge), "--kind", "dom")
        assert code == 3 and out == ""
        assert "1000000000 vertices, cap is 32" in err

    def test_negative_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        p5 = tmp_path / "p5.el"
        p5.write_text(format_edge_list(build_standard("path", 5)))
        monkeypatch.setenv("DOMKIT_MAX_N", "-3")
        code, out, err = run(capsys, "solve", str(p5), "--kind", "dom")
        assert code == 1 and out == "" and "non-negative" in err

    @pytest.mark.parametrize("data, cap, message", [
        (b"5\n", None, "error: edge list must start with 'n m'"),
        (b"2 1\n0 x\n", None, "error: malformed edge list"),
        (b"5 4\n0 1\n1 2\n2 3\n3 4\n", "abc", "error: DOMKIT_MAX_N must be an integer"),
        # a comment is decoded too, and a BOM is not skipped
        (b"3 1\n0 1\n# caf\xe9\n", None, "error: 'utf-8' codec can't decode byte 0xe9 in "
         "position 13: invalid continuation byte\n"),
        (b"\xef\xbb\xbf3 1\n0 1\n", None, "error: malformed edge list: invalid literal for "
         "int() with base 10: '\\ufeff3'\n"),
    ])
    def test_bad_input_exits_1(self, tmp_path, capsys, monkeypatch, data, cap, message):
        graph = tmp_path / "g.el"
        graph.write_bytes(data)
        if cap is not None:
            monkeypatch.setenv("DOMKIT_MAX_N", cap)
        code, out, err = run(capsys, "solve", str(graph), "--kind", "dom")
        assert (code, out) == (1, "") and err.startswith(message)

    @pytest.mark.parametrize("text", [
        "# triangle\r\n3 3\r\n0 1 # first\r\n1 2\r\n0 2\r\n",
        "# triangle\n3 3\n0 1 # first\f1 2\n0 2\n",
        "# triangle\u20283 3\n0 1 # first\u20281 2\n0 2\n",
    ])
    def test_any_line_boundary_reads_as_lf(self, tmp_path, capsys, text):
        lf, other = tmp_path / "lf.el", tmp_path / "other.el"
        lf.write_bytes(b"# triangle\n3 3\n0 1 # first\n1 2\n0 2\n")
        other.write_bytes(text.encode("utf-8"))
        expected = run(capsys, "solve", str(lf), "--kind", "t1k", "--k", "2")
        assert expected[0] == 0 and json.loads(expected[1])["gamma"] == 2
        assert run(capsys, "solve", str(other), "--kind", "t1k", "--k", "2") == expected

    def test_negative_limit_exits_64(self, capsys, c5_file):
        code, out, err = run(capsys, "solve", c5_file, "--kind", "dom", "--limit", "-1")
        assert code == 64 and out == "" and "--limit must be non-negative" in err
        code, out, _ = run(capsys, "solve", c5_file, "--kind", "dom", "--limit", "0")
        assert code == 0 and json.loads(out)["exists"] is False

    def test_force_overrides_cap(self, tmp_path, capsys):
        big = tmp_path / "big.el"
        big.write_text(format_edge_list(build_standard("star", 33)))
        code, out, _ = run(capsys, "solve", str(big), "--kind", "dom", "--force")
        assert code == 0 and json.loads(out)["gamma"] == 1

    def test_every_kind_token(self, capsys, c5_file):
        expected = {
            "dom": ("dominating", None, None),
            "total": ("total_dominating", None, None),
            "1k": ("one_k", None, 3),
            "t1k": ("total_one_k", None, 3),
            "i1k": ("independent_one_k", None, 3),
            "jd1k": ("j_dependent_one_k", 1, 3),
            "jdt1k": ("j_dependent_total_one_k", 1, 3),
            "eff": ("efficient", None, None),
            "oeff": ("open_efficient", None, None),
        }
        assert KIND_TOKENS == tuple(expected)
        for token, (base, j, k) in expected.items():
            code, out, _ = run(capsys, "solve", c5_file, "--kind", token, "--j", "1", "--k", "3")
            payload = json.loads(out)
            assert code == 0 and (payload["kind"], payload["j"], payload["k"]) == (base, j, k)
            if k is not None:
                code, _, err = run(capsys, "solve", c5_file, "--kind", token, "--j", "1")
                assert code == 64 and err == f"error: --k is required for kind {token}\n"
            if j is not None:
                code, _, err = run(capsys, "solve", c5_file, "--kind", token, "--k", "3")
                assert code == 64 and err == f"error: --j is required for kind {token}\n"

    def test_pretty_output(self, capsys, c5_file):
        code, out, _ = run(capsys, "solve", c5_file, "--kind", "dom", "--pretty")
        assert code == 0 and "gamma" in out and "{" not in out

    def test_deterministic_bytes(self, capsys, c5_file):
        _, out1, _ = run(capsys, "solve", c5_file, "--kind", "t1k", "--k", "2")
        _, out2, _ = run(capsys, "solve", c5_file, "--kind", "t1k", "--k", "2")
        assert out1 == out2


class TestClosedForm:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "closed-form", "cycle", "7", "--kind", "t1k", "--k", "3")
        assert code == 0 and json.loads(out)["value"] == 4

    def test_below_minimum_exits_1(self, capsys):
        code, _, _ = run(capsys, "closed-form", "cycle", "2", "--kind", "1k")
        assert code == 1

    def test_bad_k_exits_64(self, capsys):
        code, out, err = run(capsys, "closed-form", "cycle", "7", "--kind", "t1k", "--k", "0")
        assert code == 64 and out == "" and "closed forms require k >= 2" in err


class TestTheorem:
    def test_product_gamma_compare_agrees(self, capsys, c5_file, c4_file):
        code, out, _ = run(capsys, "theorem", "product-gamma", c5_file, c4_file,
                           "--kind", "one2", "--compare-oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["prediction"] == 20 and payload["agree"] is True

    def test_membership_compare(self, tmp_path, capsys, c5_file):
        c3 = tmp_path / "c3.el"
        c3.write_text(format_edge_list(build_standard("cycle", 3)))
        code, out, _ = run(capsys, "theorem", "total", c5_file, str(c3),
                           "--compare-oracle")
        assert code == 0
        assert json.loads(out)["prediction"] is False

    def test_over_cap_product_exits_3(self, tmp_path, capsys, c5_file, monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        p7 = tmp_path / "p7.el"
        p7.write_text(format_edge_list(build_standard("path", 7)))
        for argv in (("product-gamma", str(p7), c5_file, "--kind", "one2"),
                     ("total", str(p7), c5_file)):
            code, out, err = run(capsys, "theorem", *argv, "--compare-oracle")
            assert code == 3 and out == "" and "35 vertices, cap is 32" in err

    def test_huge_header_exits_3_before_building_the_graph(self, tmp_path, capsys, c5_file,
                                                           monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        huge = tmp_path / "huge.el"
        huge.write_text("1000000000 0\n")
        real_graph = graphs.Graph

        def small_graph(n, *args, **kwargs):
            if n > 32:
                raise AssertionError("graph built before the cap check")
            return real_graph(n, *args, **kwargs)

        monkeypatch.setattr(graphs, "Graph", small_graph)
        for argv in (("product-gamma", c5_file, str(huge), "--kind", "total"),
                     ("total", str(huge), c5_file),
                     ("independent", c5_file, str(huge))):
            code, out, err = run(capsys, "theorem", *argv)
            assert code == 3 and out == ""
            assert "1000000000 vertices, cap is 32" in err

    def test_force_lifts_the_factor_cap(self, tmp_path, capsys, c5_file, monkeypatch):
        # the total prediction solves only on G, so a 40-vertex H is no cost
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        p40 = tmp_path / "p40.el"
        p40.write_text(format_edge_list(build_standard("path", 40)))
        argv = ("theorem", "product-gamma", c5_file, str(p40), "--kind", "total")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "40 vertices, cap is 32" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["predicted_gamma"] == 3

    def test_force_reaches_the_factor_solves(self, tmp_path, capsys, c5_file, monkeypatch):
        # condition 2 solves on the 40-vertex G, which needs the same --force
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        p40 = tmp_path / "p40.el"
        p40.write_text(format_edge_list(build_standard("path", 40)))
        for argv in (("total",), ("independent",), ("product-gamma", "--kind", "t-one2")):
            code, out, err = run(capsys, "theorem", argv[0], str(p40), c5_file, *argv[1:])
            assert code == 3 and out == "" and "40 vertices, cap is 32" in err
            code, out, _ = run(capsys, "theorem", argv[0], str(p40), c5_file, *argv[1:],
                               "--force")
            payload = json.loads(out)
            assert code == 0 and payload["membership"] is True
            assert payload["matched_condition"] == ("case2a" if argv[1:] else 2)
        # the scattered-set scan obeys the same cap, so --force reaches it too
        argv = ("theorem", "product-gamma", str(p40), c5_file)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "40 vertices, cap is 32" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["predicted_gamma"] == 20

    def test_scattered_set_scan_runs_up_to_the_cap(self, tmp_path, capsys, c5_file,
                                                   monkeypatch):
        # one2 on P24 x C5 scans the 24-vertex G: the scan runs up to the cap like every search
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        p24 = tmp_path / "p24.el"
        p24.write_text(format_edge_list(build_standard("path", 24)))
        argv = ("theorem", "product-gamma", str(p24), c5_file, "--kind", "one2")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["predicted_gamma"] == 12
        assert corollary_value("path", "cycle", 24, 5, "one_2") == 12
        monkeypatch.setenv("DOMKIT_MAX_N", "20")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "24 vertices, cap is 20" in err and "--force" in err

    def test_force_reaches_the_scattered_set_scan(self, tmp_path, capsys, c5_file,
                                                  monkeypatch):
        # one2 on P15 x C5 runs min_sd_size_plus_alpha on the 15-vertex G
        monkeypatch.setenv("DOMKIT_MAX_N", "10")
        p15 = tmp_path / "p15.el"
        p15.write_text(format_edge_list(build_standard("path", 15)))
        argv = ("theorem", "product-gamma", str(p15), c5_file, "--kind", "one2")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "15 vertices, cap is 10" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["predicted_gamma"] == 8

    def test_strict_flag_is_gone(self, capsys, c5_file, c4_file):
        # it never changed anything: a disagreement exits 2 with or without it
        code, out, err = run(capsys, "theorem", "total", c5_file, c4_file,
                             "--compare-oracle", "--strict")
        assert code == 64 and out == "" and "--strict" in err

    def test_plain_prediction_without_oracle(self, capsys, c5_file, c4_file):
        code, out, _ = run(capsys, "theorem", "product-gamma", c5_file, c4_file,
                           "--kind", "plain")
        assert code == 0
        assert json.loads(out)["predicted_gamma"] == 3

    @pytest.mark.parametrize("argv, message", [
        (("product-gamma", "--kind", "i-one-k", "--k", "0"),
         "product theorems require k >= 2, got 0"),
        (("product-gamma", "--kind", "one2", "--k", "3"), "one_2 is defined for k=2 only"),
        (("total", "--k", "-1"), "product theorems require k >= 2, got -1"),
        (("independent", "--k", "1"), "product theorems require k >= 2, got 1"),
    ])
    def test_bad_k_exits_64(self, capsys, c5_file, c4_file, argv, message):
        code, out, err = run(capsys, "theorem", argv[0], c5_file, c4_file, *argv[1:])
        assert code == 64 and out == "" and message in err

    @pytest.mark.parametrize("argv", [
        *(("product-gamma", "--kind", token) for token in PRODUCT_KIND_TOKENS),
        ("total",), ("independent",),
    ])
    def test_empty_second_factor_exits_1(self, tmp_path, capsys, c5_file, argv):
        k0, k2 = tmp_path / "k0.el", tmp_path / "k2.el"
        k0.write_text("0 0\n")
        k2.write_text("2 1\n0 1\n")
        for g in (c5_file, str(k2)):
            for extra in ((), ("--compare-oracle",)):
                result = run(capsys, "theorem", argv[0], g, str(k0), *argv[1:], *extra)
                assert result == (1, "", "error: second factor must have at least one vertex\n")

    def test_disconnected_factor_exits_1(self, tmp_path, capsys, c4_file):
        bad = tmp_path / "disc.el"
        bad.write_text(format_edge_list(build_standard("empty", 2)))
        code, _, err = run(capsys, "theorem", "total", str(bad), c4_file)
        assert code == 1 and "connected" in err


class TestReduceAndDecide:
    def test_reduce_writes_gadget_and_meta(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        gadget = tmp_path / "gadget.el"
        meta = tmp_path / "meta.json"
        code, _, _ = run(capsys, "reduce", str(inst), "-o", str(gadget),
                         "--meta", str(meta))
        assert code == 0
        g = load_graph(str(gadget))
        assert g.n == 10 and g.num_edges == 16
        sidecar = json.loads(meta.read_text())
        assert sidecar["budget"] == 3

    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path, capsys):
        big, small = tmp_path / "big.json", tmp_path / "small.json"
        big.write_text(json.dumps({"universe": 6, "sets": [[0, 1, 2], [3, 4, 5], [1, 2, 3]]}))
        small.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        gadget, meta, fresh_meta = (tmp_path / name for name in ("g.el", "m.json", "f.json"))
        for inst, meta_path in ((big, meta), (small, meta), (small, fresh_meta)):
            code, _, _ = run(capsys, "reduce", str(inst), "-o", str(gadget),
                             "--meta", str(meta_path))
            assert code == 0
        assert gadget.read_text() == run(capsys, "reduce", str(small))[1]
        assert meta.read_text() == fresh_meta.read_text()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_reduce_to_dev_null(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        code, out, _ = run(capsys, "reduce", str(inst), "-o", "/dev/null",
                           "--meta", "/dev/null")
        assert code == 0 and out == ""

    @pytest.mark.parametrize("command", ("reduce", "product"))
    def test_bad_second_path_writes_nothing(self, tmp_path, capsys, c5_file, c4_file,
                                            command):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        argv = ((command, str(inst), "--meta") if command == "reduce"
                else (command, c5_file, c4_file, "--layer-map"))
        # a directory cannot be opened for writing
        code, out, err = run(capsys, *argv, str(tmp_path))
        assert (code, out) == (1, "") and "error:" in err
        target = tmp_path / "old.el"
        target.write_text("old contents\n")
        code, out, _ = run(capsys, *argv, str(tmp_path), "-o", str(target))
        assert (code, out) == (1, "")
        assert target.read_text() == "old contents\n"
        fresh = tmp_path / "new.el"
        code, out, _ = run(capsys, *argv, str(tmp_path), "-o", str(fresh))
        assert (code, out) == (1, "")
        assert not fresh.exists()

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
    def test_bad_second_path_removes_a_dangling_links_target(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        link, made = tmp_path / "link.el", tmp_path / "made.el"
        link.symlink_to(made)
        code, out, err = run(capsys, "reduce", str(inst), "-o", str(link),
                             "--meta", str(tmp_path))
        assert (code, out) == (1, "") and "error:" in err
        assert not os.path.lexists(made)
        assert os.path.islink(link) and os.readlink(link) == str(made)
        loop = tmp_path / "loop.el"
        loop.symlink_to(loop)
        code, out, _ = run(capsys, "reduce", str(inst), "-o", str(loop))
        assert (code, out) == (1, "") and os.path.islink(loop)
        code, _, _ = run(capsys, "reduce", str(inst), "-o", str(link),
                         "--meta", str(tmp_path / "meta.json"))
        assert code == 0 and made.read_text() == run(capsys, "reduce", str(inst))[1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_every_descriptor_is_closed(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        before = sorted(os.listdir("/proc/self/fd"))
        for extra in (("--meta", str(tmp_path / "m.json")), ("--meta", str(tmp_path))):
            run(capsys, "reduce", str(inst), "-o", str(tmp_path / "g.el"), *extra)
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.fixture
    def eighteen_sets(self, tmp_path, monkeypatch):
        """An 18-set instance with no exact cover (every set holds element 0)
        and a 135-vertex gadget, under the default cap of 32."""
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        sets = [[0, a, b] for a, b in combinations(range(1, 9), 2)][:18]
        inst = tmp_path / "many.json"
        inst.write_text(json.dumps({"universe": 9, "sets": sets}))
        return str(inst)

    def test_over_cap_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                              eighteen_sets):
        def refuse(inst):
            raise AssertionError("work done before the cap check")

        monkeypatch.setattr(npc, "_has_exact_cover", refuse)
        monkeypatch.setattr(npc, "build_gadget", refuse)
        monkeypatch.setattr(npc, "gadget_layout", refuse)
        monkeypatch.setattr(cli, "gadget_layout", refuse)
        for mode in ("both", "via_gadget", "brute_force"):
            code, out, err = run(capsys, "decide-x3c", eighteen_sets, "--mode", mode)
            assert (code, out) == (3, "") and "135 vertices, cap is 32" in err
            assert "--force" in err
        gadget, meta = tmp_path / "g.el", tmp_path / "m.json"
        code, out, err = run(capsys, "reduce", eighteen_sets, "-o", str(gadget),
                             "--meta", str(meta))
        assert (code, out) == (3, "") and "135 vertices, cap is 32" in err
        assert not gadget.exists() and not meta.exists()

    def test_force_lifts_the_gadget_cap(self, tmp_path, capsys, monkeypatch, eighteen_sets):
        code, out, _ = run(capsys, "reduce", eighteen_sets, "--force")
        assert code == 0 and parse_edge_list(out).n == 135
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 6, "sets": [[0, 1, 2], [3, 4, 5], [1, 2, 3]]}))
        expected = run(capsys, "reduce", str(inst))[1]
        full = {"universe": 6, "num_sets": 3, "brute_force": True, "via_gadget": True,
                "agree": True}
        monkeypatch.setenv("DOMKIT_MAX_N", "26")  # the gadget has 27 vertices
        for argv, forced in ((("reduce", str(inst)), expected),
                             (("decide-x3c", str(inst)), json.dumps(full) + "\n")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "") and "27 vertices, cap is 26" in err
            assert run(capsys, *argv, "--force")[:2] == (0, forced)
        argv = ("decide-x3c", str(inst), "--mode", "brute_force")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "27 vertices, cap is 26" in err and "--force" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out)["brute_force"] is True

    def test_force_lifts_the_brute_force_cap(self, tmp_path, capsys, monkeypatch):
        # 14 sets [0, a, b] cover all of 0..8 and hold no exact cover: 2^14 subcollections
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        inst = tmp_path / "fourteen.json"
        sets = [[0, a, b] for a, b in combinations(range(1, 9), 2)][:14]
        inst.write_text(json.dumps({"universe": 9, "sets": sets}))
        argv = ("decide-x3c", str(inst), "--mode", "brute_force")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "") and "107 vertices, cap is 32" in err and "--force" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and json.loads(out) == {"universe": 9, "num_sets": 14,
                                                 "brute_force": False}

    def test_uncovered_element_skips_the_brute_force(self, tmp_path, capsys):
        inst = tmp_path / "copies.json"  # 2^24 subcollections; elements 3..5 in no set
        inst.write_text(json.dumps({"universe": 6, "sets": [[0, 1, 2]] * 24}))
        code, out, _ = run(capsys, "decide-x3c", str(inst))
        assert code == 0 and json.loads(out) == {
            "universe": 6, "num_sets": 24, "brute_force": False, "via_gadget": False,
            "agree": True}

    def test_decide_both_modes(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 6, "sets": [[0, 1, 2], [3, 4, 5]]}))
        code, out, _ = run(capsys, "decide-x3c", str(inst))
        assert code == 0
        payload = json.loads(out)
        assert payload == {"universe": 6, "num_sets": 2, "brute_force": True,
                           "via_gadget": True, "agree": True}

    def test_malformed_instance_exits_1(self, tmp_path, capsys):
        inst = tmp_path / "bad.json"
        inst.write_text("{not json")
        code, _, _ = run(capsys, "decide-x3c", str(inst))
        assert code == 1

    def test_non_integer_instance_exits_1(self, tmp_path, capsys):
        inst = tmp_path / "float.json"
        inst.write_text('{"universe": 6.9, "sets": [[0,1,2],[3,4,5.7]]}')
        code, out, err = run(capsys, "decide-x3c", str(inst))
        assert code == 1 and out == "" and "not an integer" in err

    @pytest.mark.parametrize("data, message", [
        (b'{"universe": 3, "sets": [[0, 1, 2]]}\xff',
         "'utf-8' codec can't decode byte 0xff in position 36: invalid start byte"),
        (b'\xef\xbb\xbf{"universe": 3, "sets": [[0, 1, 2]]}',
         "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        ('{"universe": 3, "sets": [[0, 1, 2]]}'.encode("utf-16"),
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'{"universe": 3, "sets": [[0, 1, 2.0]]}',
         "element 2.0 is not an integer"),
        (b'{"universe": 3, "sets": [5]}',
         "the sets [5] are not a collection of triples"),
        # CR LF and a lone CR each end one line, as when the file is read in text mode
        (b'{"universe": 3,\r\n "sets": [[0, 1, 2]\r\n\r "x"}',
         "Expecting ',' delimiter: line 4 column 2 (char 38)"),
        (b'{"universe": 3, "sets": [[0, 1, 2]], "a\r": 1}',
         "Invalid control character at: line 1 column 40 (char 39)"),
    ])
    @pytest.mark.parametrize("command", ("reduce", "decide-x3c"))
    def test_unreadable_instance_exits_1(self, tmp_path, capsys, command, data, message):
        inst = tmp_path / "inst.json"
        inst.write_bytes(data)
        assert run(capsys, command, str(inst)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ("reduce", "decide-x3c"))
    def test_deeply_nested_instance_exits_1(self, tmp_path, capsys, command):
        # past the JSON decoder's recursion limit on every supported Python:
        # one error line, not the decoder's RecursionError
        inst = tmp_path / "deep.json"
        inst.write_text("[" * 100_000)
        code, out, err = run(capsys, command, str(inst))
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed instance JSON: ") and err.count("\n") == 1

    def test_crlf_instance_reads_as_lf(self, tmp_path, capsys):
        inst, crlf = tmp_path / "inst.json", tmp_path / "crlf.json"
        inst.write_bytes(b'{"universe": 3,\n "sets":\n [[0, 1, 2]]}\n')
        crlf.write_bytes(b'{"universe": 3,\r\n "sets":\r [[0, 1, 2]]}\r\n')
        for command in ("reduce", "decide-x3c"):
            assert run(capsys, command, str(crlf)) == run(capsys, command, str(inst))

    @pytest.mark.parametrize("command", ("reduce", "product"))
    def test_two_outputs_naming_one_file_exit_1(self, tmp_path, capsys, c5_file, c4_file,
                                                command):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        argv = ((command, str(inst), "--meta") if command == "reduce"
                else (command, c5_file, c4_file, "--layer-map"))
        out_file, link, hard = tmp_path / "out", tmp_path / "link", tmp_path / "hard"
        code, out, err = run(capsys, *argv, str(out_file), "-o", str(out_file))
        assert (code, out) == (1, "") and "name one file" in err
        assert not out_file.exists()
        out_file.write_text("old contents\n")
        link.symlink_to(out_file)
        os.link(out_file, hard)
        for other in (out_file, link, hard):
            code, out, err = run(capsys, *argv, str(other), "-o", str(out_file))
            assert (code, out) == (1, "") and "name one file" in err
        assert out_file.read_text() == "old contents\n"

    def test_gadget_stdout_parses(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        code, out, _ = run(capsys, "reduce", str(inst))
        assert code == 0
        assert parse_edge_list(out).n == 10
