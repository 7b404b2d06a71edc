import json
import os

import pytest

from domkit import graphs
from domkit.cli import KIND_TOKENS, _build_parser, main
from domkit.graphs import (
    build_standard,
    format_edge_list,
    lex_product,
    load_graph,
    parse_edge_list,
)


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
        first = []
        for argv in calls:
            _build_parser.cache_clear()
            first.append(run(capsys, *argv))
        assert [code for code, _, _ in first] == [64, 0, 0]
        _build_parser.cache_clear()
        assert [run(capsys, *argv) for argv in calls] == first
        assert _build_parser() is _build_parser()


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
        # the scattered-set scan keeps its own cap, and says that --force cannot lift it
        code, out, err = run(capsys, "theorem", "product-gamma", str(p40), c5_file, "--force")
        assert code == 3 and out == ""
        assert "scattered-set scan needs n <= 20, got 40; --force does not lift this limit" in err

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

    def test_gadget_stdout_parses(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"universe": 3, "sets": [[0, 1, 2]]}))
        code, out, _ = run(capsys, "reduce", str(inst))
        assert code == 0
        assert parse_edge_list(out).n == 10
