"""Acceptance suite: one test per gate, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate lines.
All expected values are exact; there are no tolerances anywhere.
"""

import math
import random
import time
from itertools import combinations

from conftest import (
    brute_min,
    exact_covers,
    high_max_degree_catalog,
    naive_satisfies,
    nonisomorphic_trees,
    random_graph,
    x3c_catalog,
)

from domkit.domsets import independent_one_k, one_k, total_dominating, total_one_k
from domkit.graphs import Graph, build_standard, complement, is_connected, lex_product
from domkit.lex_theory import corollary_value, verify_membership_against_oracle
from domkit.npc import build_gadget, cover_to_witness, decide_x3c
from domkit.solvers import closed_form, exists_set, min_set

SEED = 0xACCE97


def _report(tag: str, name: str, failures: list) -> None:
    print(f"[{tag}] {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{name}: {len(failures)} failure(s), first: {failures[:3]}"


def _all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def _connected_labeled_graphs(n: int):
    return (g for g in _all_labeled_graphs(n) if is_connected(g))


def test_a1_closed_form_agreement():
    started = time.time()
    failures = []
    for family in ("path", "cycle"):
        for n in range(3, 17):
            graph = build_standard(family, n)
            for k in (2, 3):
                for kind_name, kind in (
                    ("t1k", total_one_k(k)),
                    ("one_k", one_k(k)),
                    ("i1k", independent_one_k(k)),
                ):
                    got = min_set(graph, kind).gamma
                    want = closed_form(family, n, kind_name, k)
                    if got != want:
                        failures.append((family, n, k, kind_name, got, want))
    elapsed = time.time() - started
    print(f"[A1] ran in {elapsed:.2f}s")
    _report("A1", "closed-form agreement on paths and cycles", failures)


def test_a2_path_product_corollaries():
    failures = []
    for n in range(2, 7):
        for m in range(2, 6):
            if n * m > 24:
                continue
            product, _ = lex_product(build_standard("path", n), build_standard("path", m))
            got_12 = min_set(product, one_k(2)).gamma
            want_12 = corollary_value("path", "path", n, m, "one_2")
            if got_12 != want_12:
                failures.append(("one_2", n, m, got_12, want_12))
            got_t12 = min_set(product, total_one_k(2)).gamma
            want_t12 = 2 * math.ceil(n / 4)
            if got_t12 != want_t12:
                failures.append(("total_one_2", n, m, got_t12, want_t12))
            if want_t12 != corollary_value("path", "path", n, m, "total_one_2"):
                failures.append(("corollary-total-row", n, m))
    _report("A2", "path-product values match the corollary table", failures)


def test_a2_gamma_one_2_of_c5_c3_is_15():
    """gamma_[1,2](C5 o C3) is 2, witnessed by {(0,0), (2,0)}.

    The name keeps the value first pinned here, 15 = |V(C5 o C3)|, which came
    from applying the corollary table's n = 5 cycle row (5m, valid for
    m >= 4) to m = 3.  Rows apply top to bottom, so the m in {2,3} row,
    ceil(n/3) = 2, fires first.  The gate checks 2 against the solver, the
    subset-enumeration oracle and the corollary table.
    """
    product, _ = lex_product(build_standard("cycle", 5), build_standard("cycle", 3))
    kind = one_k(2)
    result = min_set(product, kind)
    got = result.gamma
    brute_gamma, _ = brute_min(product, kind)
    print(f"[A2] gamma_[1,2](C5 o C3) expected 2, solver found {got}: "
          f"{'PASS' if got == 2 else 'FAIL'}")
    assert got == 2, f"gamma_[1,2](C5 o C3) is {got}"
    assert got == brute_gamma, f"solver {got} != subset enumeration {brute_gamma}"
    assert naive_satisfies(product, set(result.witness), kind)
    assert got == corollary_value("cycle", "cycle", 5, 3, "one_2")


def test_a2_c5_c3_has_no_total_one_2():
    product, _ = lex_product(build_standard("cycle", 5), build_standard("cycle", 3))
    failures = [] if not exists_set(product, total_one_k(2)) else ["found one"]
    _report("A2", "C5 o C3 admits no total [1,2]-set", failures)


def test_a3_total_domination_product_law():
    failures = []
    g_factors = [g for n in range(2, 5) for g in _connected_labeled_graphs(n)]
    h_factors = [h for m in range(1, 5) for h in _all_labeled_graphs(m)]
    for g in g_factors:
        gamma_g = min_set(g, total_dominating()).gamma
        for h in h_factors:
            if g.n * h.n > 20:
                continue
            product, _ = lex_product(g, h)
            got = min_set(product, total_dominating()).gamma
            if got != gamma_g:
                failures.append((list(g.edges()), list(h.edges()), got, gamma_g))
    _report("A3", "total domination number transfers from the first factor", failures)


def test_a4_layer_cardinality_bound():
    rng = random.Random(SEED)
    failures = []
    checked = 0
    while checked < 200:
        n_g = rng.randint(2, 5)
        n_h = rng.randint(1, 16 // n_g)
        g = random_graph(rng, n_g, p=rng.uniform(0.3, 0.9))
        if not is_connected(g):
            continue
        h = random_graph(rng, n_h, p=rng.uniform(0.0, 0.9))
        product, idx = lex_product(g, h)
        result = min_set(product, total_one_k(2))
        checked += 1
        if not result.exists:
            continue
        profile = idx.layer_profile(result.witness)
        if max(profile) > 2:
            failures.append((list(g.edges()), list(h.edges()), profile))
    print(f"[A4] examined {checked} random factor pairs")
    _report("A4", "minimum total [1,2]-sets use at most 2 vertices per layer", failures)


def test_a5_characterization_matches_oracle():
    failures = []
    g_factors = [g for n in range(2, 5) for g in _connected_labeled_graphs(n)]
    h_factors = [h for m in range(1, 4) for h in _all_labeled_graphs(m)]
    for g in g_factors:
        for h in h_factors:
            if g.n * h.n > 12:
                continue
            report = verify_membership_against_oracle(g, h, "total", 2)
            if not report.agree:
                failures.append(report.to_dict())
    for report_dict in failures:
        print(f"[A5] discrepancy: {report_dict}")
    _report("A5", "total [1,2] membership test agrees with oracle existence", failures)


def test_a6_reduction_equivalence():
    failures = []
    instances = x3c_catalog()
    from test_npc import two_coloring_exists

    examined = 0
    for inst in instances:
        gadget, meta = build_gadget(inst)
        if not two_coloring_exists(gadget):
            failures.append(("not bipartite", inst.sets))
        brute = decide_x3c(inst, "brute_force")
        via = decide_x3c(inst, "via_gadget")
        if brute != via:
            failures.append(("mode mismatch", inst.sets, brute, via))
        if brute:
            bits = exact_covers(inst)[0]
            cover = frozenset(ix for ix in range(inst.num_sets) if bits >> ix & 1)
            witness = cover_to_witness(inst, meta, cover)
            if len(witness) != 2 * inst.num_sets + inst.q:
                failures.append(("bad witness size", inst.sets, len(witness)))
        examined += 1
    print(f"[A6] examined {examined} instances")
    _report("A6", "gadget decision equals direct decision on every instance", failures)


def test_a7_special_graph_lemmas():
    failures = []
    examined = 0
    for graph in high_max_degree_catalog(8):
        if min_set(graph, total_one_k(2), limit=2).gamma != 2:
            failures.append(("max-degree lemma", list(graph.edges())))
        examined += 1
    print(f"[A7] max-degree catalog size {examined}")
    tree_count = 0
    for n in range(2, 9):
        for tree in nonisomorphic_trees(n):
            cg = complement(tree)
            if not is_connected(cg):
                continue
            if min_set(cg, total_one_k(2), limit=2).gamma != 2:
                failures.append(("tree-complement lemma", list(tree.edges())))
            tree_count += 1
    print(f"[A7] tree complements checked: {tree_count}")
    _report("A7", "degree and tree-complement lemmas hold with zero exceptions", failures)


def test_a8_determinism_byte_identical_json():
    corpus = [
        ("cycle", 9, total_one_k(2)),
        ("cycle", 12, one_k(3)),
        ("path", 10, independent_one_k(2)),
        ("star", 7, total_dominating()),
        ("complete", 6, one_k(2)),
        ("cycle", 6, total_one_k(3)),
    ]
    failures = []
    for family, n, kind in corpus:
        first = min_set(build_standard(family, n), kind).to_json()
        second = min_set(build_standard(family, n), kind).to_json()
        if first.encode() != second.encode():
            failures.append((family, n, kind.label()))
    product, _ = lex_product(build_standard("cycle", 4), build_standard("path", 3))
    a = min_set(product, total_one_k(2)).to_json()
    b = min_set(product, total_one_k(2)).to_json()
    if a.encode() != b.encode():
        failures.append(("product", "C4 o P3"))
    _report("A8", "repeated solves emit byte-identical JSON", failures)
