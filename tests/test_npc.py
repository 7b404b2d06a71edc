import hashlib
import json
import random
from itertools import combinations

import pytest

from conftest import exact_covers, x3c_catalog

from domkit import cli, npc
from domkit.domsets import satisfies, total_one_k
from domkit.graphs import Graph, GraphTooLargeError, edge_list_text, format_edge_list
from domkit.npc import (
    X3CInstance,
    build_gadget,
    check_gadget_cap,
    cover_to_witness,
    decide_x3c,
    gadget_layout,
    minimum_gadget_witness,
    witness_to_cover,
    x3c_from_json,
    x3c_to_json,
)


def two_coloring_exists(graph) -> bool:
    color = [None] * graph.n
    for root in range(graph.n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if color[w] is None:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def reference_instance(text: str):
    """(universe, sets) of an instance JSON text, or None when the text holds
    no instance: an object whose "universe" is an int 3q > 0 and whose "sets"
    is a non-empty list of lists of three distinct ints in 0..universe-1.
    Written without npc, as the reference for its reader."""
    data = json.loads(text)
    if not isinstance(data, dict):
        return None
    universe, sets = data.get("universe"), data.get("sets")
    if type(universe) is not int or universe <= 0 or universe % 3:
        return None
    if type(sets) is not list or not sets:
        return None
    for triple in sets:
        if type(triple) is not list or len(triple) != 3:
            return None
        if any(type(x) is not int or not 0 <= x < universe for x in triple):
            return None
        if len(set(triple)) != 3:
            return None
    return universe, tuple(map(tuple, sets))


LOOKALIKES = (bool, float, str, lambda x: [x], lambda x: None)


def random_instance_text(rng: random.Random) -> str:
    """A valid instance's JSON text, or one with a few of these faults."""
    universe = rng.choice((3, 6, 9))
    sets = [rng.sample(range(universe), 3) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.15:  # an element is a bool, float, string, list or null
        triple = rng.choice(sets)
        i = rng.randrange(3)
        triple[i] = rng.choice(LOOKALIKES)(triple[i])
    if rng.random() < 0.1:  # an element repeats or lies outside the universe
        triple = rng.choice(sets)
        triple[rng.randrange(3)] = rng.choice((triple[0], -1, universe, universe + 3))
    if rng.random() < 0.1:  # a triple has two or four elements
        triple = rng.choice(sets)
        if rng.random() < 0.5:
            triple.pop()
        else:
            triple.append(rng.randrange(universe))
    if rng.random() < 0.08:  # a triple is not a list
        sets[rng.randrange(len(sets))] = rng.choice((5, "012", {"0": 1}, None, []))
    if rng.random() < 0.1:  # the universe is a lookalike or no positive multiple of 3
        universe = rng.choice(LOOKALIKES + (lambda x: x + 1, lambda x: 0, lambda x: -x))(universe)
    data = {"universe": universe, "sets": sets}
    if rng.random() < 0.06:  # the sets are no list of triples
        data["sets"] = rng.choice(([], {}, "", "abc", 5, None, {"0": [0, 1, 2]}, sets[0]))
    if rng.random() < 0.06:
        del data[rng.choice(("universe", "sets"))]
    if rng.random() < 0.04:  # the document is no object
        data = rng.choice(([data], [universe, sets], 3, "x3c", None))
    return json.dumps(data)


class TestInstanceValidation:
    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError):
            X3CInstance(3, ())

    def test_rejects_bad_universe(self):
        with pytest.raises(ValueError):
            X3CInstance(4, ((0, 1, 2),))

    def test_rejects_duplicate_elements(self):
        with pytest.raises(ValueError):
            X3CInstance(3, ((0, 0, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            X3CInstance(3, ((0, 1, 5),))

    def test_json_round_trip(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5)))
        assert x3c_from_json(x3c_to_json(inst)) == inst
        with pytest.raises(ValueError):
            x3c_from_json(json.dumps({"universe": 3}))

    def test_json_rejects_non_integers(self):
        for bad in ({"universe": 6.9, "sets": [[0, 1, 2], [3, 4, 5.7]]},
                    {"universe": 6.0, "sets": [[0, 1, 2], [3, 4, 5]]},
                    {"universe": 6, "sets": [[0, 1, 2], [3, 4, 5.0]]},
                    {"universe": 3, "sets": [[0, True, 2]]},
                    {"universe": True, "sets": [[0, 1, 2]]},
                    {"universe": 3, "sets": [[0, 1, "2"]]}):
            with pytest.raises(ValueError, match="not an integer"):
                x3c_from_json(json.dumps(bad))
        inst = x3c_from_json('{"universe": 3, "sets": [[2, 0, 1]]}')
        assert inst == X3CInstance(3, ((2, 0, 1),))

    def test_sets_are_stored_as_tuples(self):
        inst = X3CInstance(6, [[0, 1, 2], (3, 4, 5)])
        assert inst.sets == ((0, 1, 2), (3, 4, 5))
        assert hash(inst) == hash(X3CInstance(6, ((0, 1, 2), (3, 4, 5))))
        assert x3c_from_json(x3c_to_json(inst)) == inst
        for bad in (None, (5,), [[0, 1, 2], 3]):
            with pytest.raises(ValueError, match="not a collection of triples"):
                X3CInstance(3, bad)

    def test_rejects_non_integers(self):
        for universe, sets in ((3.0, ((0, 1, 2),)), (True, ((0, 1, 2),)),
                               ("3", ((0, 1, 2),)), (3, ((0, True, 2.0),)),
                               (3, ((0, 1, 2.0),)), (6, ((0, 1, 2), (3, 4, "5"))),
                               # the element types are checked before set() sees them
                               (3, (([0], 1, 2),)), (3, ((0, 1, True),))):
            with pytest.raises(ValueError, match="is not an integer"):
                X3CInstance(universe, sets)

    def test_every_accepted_instance_round_trips(self):
        # valid instances, some with one value swapped for an equal bool,
        # float or string
        rng = random.Random(0x3C)
        lookalikes = (bool, float, str)
        accepted = 0
        for _ in range(500):
            universe = rng.choice((3, 6, 9))
            sets = [rng.sample(range(universe), 3) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                triple = rng.choice(sets)
                i = rng.randrange(3)
                triple[i] = rng.choice(lookalikes)(triple[i])
            if rng.random() < 0.1:
                universe = float(universe)
            sets = tuple(map(tuple, sets))
            try:
                inst = X3CInstance(universe, sets)
            except ValueError:
                continue
            accepted += 1
            assert x3c_from_json(x3c_to_json(inst)) == inst, inst
        assert accepted >= 100

    def test_reader_matches_the_reference(self):
        rng = random.Random(0x3C3)
        accepted = 0
        for _ in range(4000):
            text = random_instance_text(rng)
            expected = reference_instance(text)
            try:
                inst = x3c_from_json(text)
            except ValueError:
                assert expected is None, text
            else:
                assert (inst.universe_size, inst.sets) == expected, text
                accepted += 1
        assert 1000 <= accepted <= 3000, accepted


class TestBuildGadget:
    def test_single_set_structure(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        graph, meta = build_gadget(inst)
        assert graph.n == 10
        assert graph.num_edges == 16  # 4 cycle + 3 anchor spokes + 9 element links
        assert meta.budget == 3
        assert two_coloring_exists(graph)

    def test_two_set_structure(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5)))
        graph, meta = build_gadget(inst)
        assert graph.n == 7 * 2 + 3 * 2
        assert meta.budget == 6
        assert two_coloring_exists(graph)

    def test_degrees(self):
        inst = X3CInstance(6, ((0, 1, 2), (1, 2, 3)))
        graph, meta = build_gadget(inst)
        for i in range(inst.num_sets):
            assert graph.degree(meta.anchor(i)) == 5  # two cycle + three connectors
            for v in meta.connectors[i]:
                assert graph.degree(v) == 4  # anchor + its three elements
        appearances = [0] * inst.universe_size
        for triple in inst.sets:
            for x in triple:
                appearances[x] += 1
        for x, vid in enumerate(meta.elements):
            assert graph.degree(vid) == 3 * appearances[x]

    def test_deterministic_layout(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        g1, m1 = build_gadget(inst)
        g2, m2 = build_gadget(inst)
        assert g1 == g2 and m1 == m2

    def test_role_map(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        _, meta = build_gadget(inst)
        sidecar = json.loads(meta.to_sidecar_json())
        assert sidecar["budget"] == 3
        assert sidecar["roles"]["0"] == {"role": "cycle", "set": 0, "pos": 0}
        assert sidecar["roles"]["4"] == {"role": "connector", "set": 0, "slot": 0}
        assert sidecar["roles"]["7"] == {"role": "element", "element": 0}

    def test_role_map_round_trips_every_vertex(self):
        inst = X3CInstance(6, ((0, 1, 2), (1, 3, 4), (2, 4, 5)))
        graph, meta = build_gadget(inst)
        for vid in range(graph.n):
            role = meta.role_of(vid)
            if role["role"] == "cycle":
                assert meta.cycles[role["set"]][role["pos"]] == vid
            elif role["role"] == "connector":
                assert meta.connectors[role["set"]][role["slot"]] == vid
            else:
                assert role["role"] == "element" and meta.elements[role["element"]] == vid
        for vid in (-1, graph.n):
            with pytest.raises(ValueError):
                meta.role_of(vid)
        # SHA-256 of the sidecar written by the earlier linear-scan role_of
        sidecar = meta.to_sidecar_json()
        assert len(sidecar) == 1250
        assert hashlib.sha256(sidecar.encode()).hexdigest() == (
            "35f520dbe86705090425a8997aa245f8b6e32a37dfca0eca1983dc7970e90a61")


class TestOutputBytes:
    def test_catalog_outputs_match_their_references(self):
        # both texts against references built another way: the edge list from
        # sorted neighbour pairs, the sidecar by json.dumps over role_of
        for inst in x3c_catalog():
            graph, meta = build_gadget(inst)
            pairs = sorted((u, w) for u in range(graph.n) for w in graph.neighbors(u) if u < w)
            lines = [f"{graph.n} {len(pairs)}"] + [f"{u} {w}" for u, w in pairs]
            assert format_edge_list(graph) == "\n".join(lines) + "\n", inst
            roles = {str(v): meta.role_of(v) for v in range(graph.n)}
            assert meta.to_sidecar_json() == json.dumps(
                {"budget": meta.budget, "roles": roles}), inst


def reference_gadget(inst: X3CInstance) -> Graph:
    """The gadget as ``build_gadget`` built it edge by edge before its edges
    were read off the id layout."""
    t = inst.num_sets
    q = inst.q
    cycles = tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(t))
    connectors = tuple(tuple(range(4 * t + 3 * i, 4 * t + 3 * i + 3)) for i in range(t))
    elements = tuple(range(7 * t, 7 * t + 3 * q))
    edges: list[tuple[int, int]] = []
    for u, a, b, c in cycles:
        edges += [(u, a), (a, b), (b, c), (c, u)]
    for i in range(t):
        u = cycles[i][0]
        for v in connectors[i]:
            edges.append((u, v))
        for x in inst.sets[i]:
            for v in connectors[i]:
                edges.append((elements[x], v))
    return Graph(7 * t + 3 * q, edges)


def relabeled(rng: random.Random, inst: X3CInstance) -> X3CInstance:
    """The same instance up to renaming elements and reordering sets and triples."""
    names = list(range(inst.universe_size))
    rng.shuffle(names)
    sets = [[names[x] for x in triple] for triple in inst.sets]
    for triple in sets:
        rng.shuffle(triple)
    rng.shuffle(sets)
    return X3CInstance(inst.universe_size, tuple(map(tuple, sets)))


class TestLayout:
    """``gadget_layout`` against the per-edge construction it replaced."""

    @staticmethod
    def instances():
        rng = random.Random(28)
        catalog = x3c_catalog()
        yield from catalog
        for inst in catalog:
            for _ in range(3):
                yield relabeled(rng, inst)
        triples = [(0, a, b) for a, b in combinations(range(1, 9), 2)]
        for t in (5, 14, 18, len(triples)):  # 44 to 205 vertices, over the cap of 32
            yield X3CInstance(9, tuple(triples[:t]))
            yield relabeled(rng, X3CInstance(9, tuple(triples[:t])))
        yield X3CInstance(6, ((0, 1, 2),) * 24)

    def test_layout_matches_the_per_edge_gadget(self):
        count = 0
        for inst in self.instances():
            edges, meta = gadget_layout(inst)
            reference = reference_gadget(inst)
            assert Graph(meta.num_vertices, edges) == reference, inst
            assert edges == list(reference.edges()), inst
            text = edge_list_text(meta.num_vertices, len(edges), edges)
            assert text == format_edge_list(reference), inst
            assert build_gadget(inst) == (reference, meta), inst
            count += 1
        assert count == 4 * 1351 + 9

    def test_reduce_writes_the_per_edge_gadget_above_the_cap(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.delenv("DOMKIT_MAX_N", raising=False)
        triples = [(0, a, b) for a, b in combinations(range(1, 9), 2)][:18]
        inst = X3CInstance(9, tuple(triples))
        path = tmp_path / "many.json"
        path.write_text(x3c_to_json(inst))
        assert cli.main(["reduce", str(path), "--force"]) == 0
        out = capsys.readouterr().out
        assert out == format_edge_list(reference_gadget(inst))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7f7a715409a45f8d6c5c3c54d9d57aad98e28136fadeca80bd4425cbecb7dc3a")


class TestCapBeforeGadget:
    @pytest.fixture
    def no_gadget(self, monkeypatch):
        def refuse(inst):
            raise AssertionError("gadget built before the cap check")

        monkeypatch.setattr(npc, "build_gadget", refuse)
        monkeypatch.setattr(npc, "gadget_layout", refuse)

    def test_over_cap_refused_before_building(self, no_gadget, monkeypatch):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5), (1, 2, 3)))  # 27 vertices
        monkeypatch.setenv("DOMKIT_MAX_N", "26")
        for call in (lambda: decide_x3c(inst, "via_gadget"),
                     lambda: minimum_gadget_witness(inst),
                     lambda: check_gadget_cap(inst)):
            with pytest.raises(GraphTooLargeError, match="27 vertices, cap is 26"):
                call()
        check_gadget_cap(inst, force=True)
        monkeypatch.setenv("DOMKIT_MAX_N", "27")
        check_gadget_cap(inst)
        monkeypatch.setenv("DOMKIT_MAX_N", "-1")
        with pytest.raises(ValueError, match="non-negative"):
            check_gadget_cap(inst, force=True)

    def test_uncovered_element_answers_before_the_cap(self, no_gadget, monkeypatch):
        inst = X3CInstance(6, ((0, 1, 2), (2, 3, 4)))
        monkeypatch.setenv("DOMKIT_MAX_N", "1")
        assert decide_x3c(inst, "via_gadget") is False

    def test_force_lifts_the_cap(self, monkeypatch):
        inst = X3CInstance(3, ((0, 1, 2),))
        monkeypatch.setenv("DOMKIT_MAX_N", "5")
        assert decide_x3c(inst, "via_gadget", force=True)
        assert minimum_gadget_witness(inst, force=True).gamma == 3


class TestCoverToWitness:
    def test_single_set(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        graph, meta = build_gadget(inst)
        witness = cover_to_witness(inst, meta, {0})
        assert len(witness) == 3
        assert satisfies(graph, witness, total_one_k(2))

    def test_three_sets_cover_of_two(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5), (1, 2, 3)))
        graph, meta = build_gadget(inst)
        assert graph.n == 27
        witness = cover_to_witness(inst, meta, {0, 1})
        assert len(witness) == 2 * 3 + 2
        assert satisfies(graph, witness, total_one_k(2))

    def test_rejects_non_exact_cover(self):
        inst = X3CInstance(6, ((0, 1, 2), (1, 2, 3)))
        _, meta = build_gadget(inst)
        with pytest.raises(ValueError):
            cover_to_witness(inst, meta, {0, 1})  # overlaps on 1 and 2

    def test_rejects_a_set_index_out_of_range(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5)))
        _, meta = build_gadget(inst)
        with pytest.raises(ValueError) as exc:
            cover_to_witness(inst, meta, {0, 5})
        assert str(exc.value) == "set index 5 out of range"


class TestWitnessToCover:
    def test_round_trip(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5), (1, 2, 3)))
        _, meta = build_gadget(inst)
        witness = cover_to_witness(inst, meta, {0, 1})
        assert witness_to_cover(inst, meta, witness) == {0, 1}

    def test_oracle_minimum_extracts(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        _, meta = build_gadget(inst)
        r = minimum_gadget_witness(inst)
        assert r.gamma == meta.budget
        assert witness_to_cover(inst, meta, frozenset(r.witness)) == {0}

    def test_rejects_invalid_witness(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        _, meta = build_gadget(inst)
        with pytest.raises(ValueError):
            witness_to_cover(inst, meta, frozenset({0}))

    def test_rejects_over_budget(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        graph, meta = build_gadget(inst)
        big = cover_to_witness(inst, meta, {0}) | {meta.cycles[0][2]}
        if satisfies(graph, big, total_one_k(2)) and len(big) > meta.budget:
            with pytest.raises(ValueError):
                witness_to_cover(inst, meta, big)


class TestDecide:
    def test_single_covering_set(self):
        inst = X3CInstance(3, ((0, 1, 2),))
        assert decide_x3c(inst, "brute_force")
        assert decide_x3c(inst, "via_gadget")

    def test_uncovered_element_fast_path(self):
        inst = X3CInstance(6, ((0, 1, 2), (2, 3, 4)))
        assert not decide_x3c(inst, "brute_force")
        assert not decide_x3c(inst, "via_gadget")

    def test_cover_among_three(self):
        inst = X3CInstance(6, ((0, 1, 2), (3, 4, 5), (1, 2, 3)))
        assert decide_x3c(inst, "brute_force")
        assert decide_x3c(inst, "via_gadget")

    def test_covering_union_without_exact_cover(self):
        # pairwise overlapping sets whose union is the whole universe
        inst = X3CInstance(6, ((0, 1, 2), (2, 3, 4), (1, 4, 5)))
        assert not decide_x3c(inst, "brute_force")
        assert not decide_x3c(inst, "via_gadget")

    def test_brute_force_matches_the_exact_cover_count(self):
        uncovered = [X3CInstance(6, ((0, 1, 2),) * t) for t in (2, 5, 9)]
        uncovered += [X3CInstance(9, ((0, 1, 2), (3, 4, 5), (0, 4, 8), (1, 3, 6)))]
        for inst in x3c_catalog() + uncovered:
            assert decide_x3c(inst, "brute_force") is bool(exact_covers(inst)), inst
        # 2^24 subcollections, none tried: element 3 lies in no set
        assert decide_x3c(X3CInstance(6, ((0, 1, 2),) * 24), "brute_force") is False

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            decide_x3c(X3CInstance(3, ((0, 1, 2),)), "guess")

    def test_budget_tightness_on_coverable_instances(self):
        for sets in [((0, 1, 2), (3, 4, 5)), ((0, 1, 2), (3, 4, 5), (1, 2, 3))]:
            inst = X3CInstance(6, sets)
            r = minimum_gadget_witness(inst)
            assert r.gamma == 2 * inst.num_sets + inst.q

    def test_equivalence_sample(self):
        triples = list(combinations(range(6), 3))
        sample = [triples[i] for i in (0, 3, 7, 11, 19)]
        for a, b, c in combinations(range(len(sample)), 3):
            inst = X3CInstance(6, (sample[a], sample[b], sample[c]))
            assert decide_x3c(inst, "via_gadget") == decide_x3c(inst, "brute_force")
