"""Tests of the benchmark itself: tracer arithmetic and a smoke run per workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, run.SRC)

SMOKE_CASES = {"solve": 18, "product": 80, "x3c_cli": 100}


def span(sid, name, start, end, parent=None, **attrs):
    return (sid, name, start, end, parent, attrs)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, 0),
        span(2, "b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        span(3, "c", 7.0, 8.0, 0),
        span(4, "grandchild", 7.2, 7.8, 3),
        span(5, "late", 9.5, 12.0, 0),  # only [9.5, 10] lies inside root
    ]
    self_t = tracing.self_times(spans)
    assert self_t[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert self_t[3] == pytest.approx(1.0 - 0.6)
    assert self_t[4] == pytest.approx(0.6)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        span(0, "lex_theory.product_gamma", 0.0, 10.0, n_g=3, n_h=2),
        span(1, "graphs.lex_product", 0.0, 1.0, 0, n=6, edges=9),
        span(2, "graphs.Graph.__init__", 0.2, 0.8, 1),
        span(3, "solvers.min_set", 1.0, 3.0, 0, n=3, base="dominating", nodes=40),
        span(4, "domsets.satisfies", 3.0, 3.5, 0),
        span(5, "solvers.min_set", 3.5, 7.5, 0, n=6, base="dominating", nodes=60),
        span(6, "lex_theory.characterize_total", 11.0, 12.0, n_g=1, n_h=6),
        span(7, "solvers.min_set", 11.0, 11.5, 6, n=6, base="total_one_k", nodes=5),
        span(8, "npc.decide_x3c", 13.0, 14.0, mode="via_gadget"),
        span(9, "solvers.exists_set", 13.1, 13.9, 8, n=27),
        span(10, "npc.decide_x3c", 14.0, 14.5, mode="via_gadget"),
        span(11, "cli.main", 15.0, 16.0, exit=0),
        span(12, "solvers.min_set", 16.0, 16.1, n=40, base="dominating",
             error="GraphTooLargeError"),
    ]
    m = {name: value for name, (value, _unit) in tracing.layer_metrics(spans).items()}
    assert m["lex_theory.predict_calls"] == 2
    assert m["lex_theory.factor_solves"] == 2  # span 3, and span 7 (first factor trivial)
    assert m["lex_theory.product_solves"] == 1  # span 5: the full 3 x 2 product
    assert m["lex_theory.factor_only_predictions"] == 1
    assert m["lex_theory.factor_only_ratio"] == pytest.approx(0.5)
    assert m["lex_theory.predict_self_s"] == pytest.approx((10.0 - 7.5) + (1.0 - 0.5))
    assert m["lex_theory.witness_check_s"] == pytest.approx(0.5)
    assert m["graphs.lex_product_self_s"] == pytest.approx(0.4)
    assert m["solvers.nodes"] == 105
    assert m["solvers.nodes.dominating"] == 100
    assert m["solvers.min_set_calls"] == 4
    assert m["solvers.cap_refusals"] == 1
    assert m["npc.via_gadget_searches"] == 1
    assert m["npc.search_ratio"] == pytest.approx(0.5)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cli.nonzero_exits"] == 0


def test_scaling_divides_by_the_mean_of_the_surrounding_reference_loops():
    ref = run.REFERENCE_LOOP_S
    assert run.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a host running at half speed: loops of 1.5x and 2.5x average 2x
    assert run.scaled(3.0, 1.5 * ref, 2.5 * ref) == pytest.approx(1.5)
    assert run.reference_loop() > 0


def test_independent_checkers_reject_wrong_sets():
    c6 = checks.adjacency(6, workloads.cycle_edges(6))
    assert checks.set_ok(c6, [0, 3], checks.kind_bounds("efficient"))
    assert not checks.set_ok(c6, [0, 2], checks.kind_bounds("efficient"))
    p2, p3 = checks.adjacency(2, [(0, 1)]), checks.adjacency(3, [(0, 1), (1, 2)])
    product = checks.adjacency(6, checks.lex_product_edges(2, [(0, 1)], 3, [(0, 1), (1, 2)]))
    bounds = checks.kind_bounds("total_one_k", k=2)
    for members in ([0, 3], [1, 4], [0, 1], [0, 1, 2, 3]):
        assert checks.product_set_ok(p2, p3, members, bounds) == \
            checks.set_ok(product, members, bounds)
    assert not checks.exact_cover_exists(6, [(0, 1, 2), (2, 3, 4)])
    assert checks.exact_cover_exists(6, [(3, 4, 5), (2, 3, 4), (0, 1, 2)])


@pytest.fixture
def work_dir():
    path = os.path.join(run.OUT, f"test-{os.getpid()}")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _smoke(workload, seed, work_dir, traced):
    dk = run.import_domkit()
    cases = workloads.build(workload, dk, seed, work_dir)[:SMOKE_CASES[workload]]
    expected = run.load_expected(workload)
    tally = run.Tally(expected)
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    try:
        run.run_pass(cases, range(len(cases)), tally)
    finally:
        tracer.uninstall()
    return tally, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_every_check(workload, work_dir):
    tally, _ = _smoke(workload, 7, work_dir, traced=False)
    assert tally.attempted == SMOKE_CASES[workload]
    assert tally.failed == 0, tally.notes
    assert not tally.disagreeing, tally.notes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, work_dir):
    counts = []
    for _ in range(2):
        tally, tracer = _smoke(workload, 3, work_dir, traced=True)
        assert tally.failed == 0, tally.notes
        metrics = tracing.layer_metrics(tracer.spans)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["graphs.graph_init_calls"] > 0


def test_install_wraps_every_namespace_and_uninstall_restores():
    dk = run.import_domkit()
    original = dk.solvers.min_set
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (dk, dk.solvers, dk.lex_theory, dk.npc, dk.cli):
            assert module.min_set is not original
            assert module.min_set.__wrapped__ is original
        assert dk.npc.exists_set is dk.lex_theory.exists_set is dk.solvers.exists_set
        assert dk.solvers.exists_set.__wrapped__ is not None
        dk.min_set(dk.Graph(3, [(0, 1), (1, 2)]), dk.dominating())
        names = [s[1] for s in tracer.spans]
        assert names == ["graphs.Graph.__init__", "solvers.min_set"]
    finally:
        tracer.uninstall()
    assert dk.lex_theory.min_set is original and dk.cli.min_set is original
