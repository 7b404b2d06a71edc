"""The benchmark's three workloads: seeded inputs, timed calls and checks.

A workload is a list of ``Case`` objects.  ``Case.call`` is the timed part:
one in-process CLI call pair or one library call, on inputs built for that
case alone, so no case reuses another's graphs or caches.  ``Case.check``
turns the call's output into the answer compared with the stored seed-commit
table, plus the problems the independent checks in ``checks.py`` found.

Random graphs come from pools generated with the fixed ``POOL_SEED``.  The
run's ``--seed`` picks the product workload's sample of its pools, writes the
solve workload's edge lists in a seeded order, relabels the X3C catalog and
orders the cases.  Fixed pools keep the stored answer table complete for any
seed, and the seed changes nothing that moves the amount of search by more
than about 1% (measured), so runs on different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import checks

POOL_SEED = 0xD0C417
WORKLOADS = ("solve", "product", "x3c_cli")


class Case:
    __slots__ = ("key", "call", "check")

    def __init__(self, key, call, check):
        self.key = key
        self.call = call
        self.check = check


class Outcome:
    """What the checks of one case found."""

    __slots__ = ("answer", "errors", "disagreements")

    def __init__(self, answer=None):
        self.answer = answer
        self.errors: list[str] = []
        self.disagreements: list[str] = []


# -- graph inputs ----------------------------------------------------------------


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n):
    return path_edges(n) + [(0, n - 1)]


def family_edges(family, n):
    return path_edges(n) if family == "path" else cycle_edges(n)


def random_connected(rng, n, extra):
    """Random spanning tree plus ``extra`` further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def random_graph(rng, n, p):
    """Random graph, possibly disconnected, with isolated vertices allowed."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def edge_list_text(n, edges):
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def digest(n, edges):
    return hashlib.sha1(edge_list_text(n, sorted(edges)).encode()).hexdigest()[:10]


class Factor:
    """A named input graph: the benchmark's own copy of its edges."""

    __slots__ = ("name", "n", "edges", "family", "adj", "tag")

    def __init__(self, name, n, edges, family=None):
        self.name = name
        self.n = n
        self.edges = edges
        self.family = family  # "path" / "cycle" for the closed-form families
        self.adj = checks.adjacency(n, edges)
        self.tag = f"{name}#{digest(n, edges)}"


def standard(family, n):
    return Factor(("P" if family == "path" else "C") + str(n), n, family_edges(family, n), family)


def _pool(name, size, make):
    """``size`` inputs drawn from the stream of ``POOL_SEED`` named ``name``."""
    rng = random.Random(f"{name}-{POOL_SEED}")
    return [make(rng, i) for i in range(size)]


def _sample(rng, pool, count, everything):
    return list(pool) if everything else rng.sample(pool, count)


def _captured(cli, argv_list):
    """Run ``cli.main`` on each argv in turn; (exit codes, stdout of each)."""
    codes, outs = [], []
    for argv in argv_list:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
        outs.append(out.getvalue())
    return codes, outs


# -- solve --------------------------------------------------------------------------

# CLI token, kind base, j, k
SOLVE_KINDS = (
    ("dom", "dominating", None, None),
    ("total", "total_dominating", None, None),
    ("1k", "one_k", None, 2),
    ("t1k", "total_one_k", None, 2),
    ("i1k", "independent_one_k", None, 2),
    ("jd1k", "j_dependent_one_k", 1, 2),
    ("jdt1k", "j_dependent_total_one_k", 1, 2),
    ("eff", "efficient", None, None),
    ("oeff", "open_efficient", None, None),
)
CLOSED_FORM_KINDS = {"t1k": "t1k", "1k": "one_k", "i1k": "i1k"}
SOLVE_SPARSE = 8
SOLVE_DENSE = 4


def _solve_graphs():
    """The graphs solved, the same for every seed.

    Which random graphs a run draws moves the per-case latency quantiles by
    10-13% from seed to seed, so the random graphs are one fixed draw.
    """
    graphs = [standard(f, n) for n in (16, 20, 24, 28) for f in ("path", "cycle")]
    for (fg, n), (fh, m) in ((("cycle", 5), ("cycle", 5)), (("cycle", 8), ("path", 4)),
                             (("cycle", 10), ("path", 3))):
        g, h = standard(fg, n), standard(fh, m)
        graphs.append(Factor(f"{g.name}o{h.name}", n * m,
                             checks.lex_product_edges(n, g.edges, m, h.edges)))
    graphs += _pool("sparse", SOLVE_SPARSE,
                    lambda r, i: _random_factor(r, f"sparse{i}", 16, 21, lambda n: n // 4))
    graphs += _pool("dense", SOLVE_DENSE,
                    lambda r, i: _random_factor(r, f"dense{i}", 16, 24, lambda n: n * n // 6))
    return graphs


def _random_factor(rng, name, lo, hi, extra):
    n = rng.randint(lo, hi)
    return Factor(name, n, random_connected(rng, n, extra(n)))


def _shuffled_edges(rng, edges):
    """The same edges in a seeded order, each written either way round."""
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return out


def solve_cases(dk, rng, work_dir, everything=False):
    cli = dk.cli
    cases = []
    for graph in _solve_graphs():
        path = os.path.join(work_dir, graph.name + ".el")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(edge_list_text(graph.n, _shuffled_edges(rng, graph.edges)))
        for token, base, j, k in SOLVE_KINDS:
            argv = ["solve", path, "--kind", token]
            argv += ["--j", str(j)] if j is not None else []
            argv += ["--k", str(k)] if k is not None else []
            cases.append(Case(f"solve|{graph.tag}|{token}",
                              lambda argv=argv: _captured(cli, [argv]),
                              _solve_check(dk, graph, token, checks.kind_bounds(base, j, k))))
    return cases


def _solve_check(dk, graph, token, bounds):
    def check(out):
        (code,), (text,) = out
        if code != 0:
            result = Outcome()
            result.errors.append(f"exit {code}")
            return result
        row = json.loads(text)
        exists, gamma, witness = row["exists"], row["gamma"], row["witness"]
        result = Outcome([exists, gamma, witness])
        if exists:
            if witness is None or not checks.set_ok(graph.adj, witness, bounds):
                result.errors.append("witness rejected by the independent checker")
            elif len(witness) != gamma:
                result.errors.append("|witness| != gamma")
        elif gamma is not None or witness is not None:
            result.errors.append("nonexistence reported with a value")
        if graph.family and token in CLOSED_FORM_KINDS:
            expected = dk.closed_form(graph.family, graph.n, CLOSED_FORM_KINDS[token], 2)
            if expected != gamma:
                result.disagreements.append(f"closed_form {expected} vs min_set {gamma}")
        return result

    return check


# -- product ------------------------------------------------------------------------

# product kind -> (kind base of the oracle, k)
PRODUCT_KINDS = {
    "plain": ("dominating", None),
    "total": ("total_dominating", None),
    "one_2": ("one_k", 2),
    "total_one_2": ("total_one_k", 2),
    "i_one_2": ("independent_one_k", 2),
    "i_one_k": ("independent_one_k", 3),
}
MEMBERSHIP_KINDS = {"total": "total_one_k", "independent": "independent_one_k"}
ORACLE_MAX_N = 32
PREDICT_G = [("path", 9), ("cycle", 9), ("path", 14), ("cycle", 14), ("path", 20), ("cycle", 20)]
PREDICT_H = [("path", 4), ("cycle", 4), ("cycle", 7), ("path", 16)]
PRODUCT_ORACLE_POOL = 48
PRODUCT_PREDICT_POOL = 24
PRODUCT_ORACLE_PICK = 12
PRODUCT_PREDICT_PICK = 6


def _path_cycle_pairs(limit):
    pairs = []
    for fg in ("path", "cycle"):
        for fh in ("path", "cycle"):
            for n in range(2 if fg == "path" else 3, limit // 2 + 1):
                for m in range(2 if fh == "path" else 3, limit // n + 1):
                    pairs.append((standard(fg, n), standard(fh, m)))
    return pairs


def _random_pair(r, i, g_range, h_range, max_product):
    while True:
        n, m = r.randint(*g_range), r.randint(*h_range)
        if n * m <= max_product:
            break
    g = Factor(f"rg{i}", n, random_connected(r, n, r.randint(0, n)))
    h = Factor(f"rh{i}", m, random_graph(r, m, r.choice((0.3, 0.5, 0.7))))
    return g, h


def product_cases(dk, rng, work_dir, everything=False):
    oracle_pool = _pool("oracle", PRODUCT_ORACLE_POOL,
                        lambda r, i: _random_pair(r, i, (2, 6), (1, 5), ORACLE_MAX_N))
    predict_pool = _pool("predict", PRODUCT_PREDICT_POOL,
                         lambda r, i: _random_pair(r, i, (6, 12), (3, 10), 320))
    oracle_pairs = _path_cycle_pairs(ORACLE_MAX_N)
    oracle_pairs += _sample(rng, oracle_pool, PRODUCT_ORACLE_PICK, everything)
    predict_pairs = [(standard(*g), standard(*h)) for g in PREDICT_G for h in PREDICT_H]
    predict_pairs += _sample(rng, predict_pool, PRODUCT_PREDICT_PICK, everything)

    cases = []
    for g, h in oracle_pairs:
        for kind, (base, k) in PRODUCT_KINDS.items():
            cases.append(_library_case(
                dk, "verify_against_oracle", g, h, (kind, k or 2),
                _verify_check(dk, g, h, kind, checks.kind_bounds(base, None, k))))
        for which, base in MEMBERSHIP_KINDS.items():
            cases.append(_library_case(
                dk, "verify_membership_against_oracle", g, h, (which, 2),
                _membership_check(g, h, checks.kind_bounds(base, None, 2))))
    for g, h in predict_pairs:
        for kind, (base, k) in PRODUCT_KINDS.items():
            cases.append(_library_case(
                dk, "product_gamma", g, h, (kind, k or 2),
                _gamma_check(g, h, checks.kind_bounds(base, None, k))))
        for which, base in MEMBERSHIP_KINDS.items():
            cases.append(_library_case(
                dk, f"characterize_{which}", g, h, (2,),
                _characterize_check(g, h, checks.kind_bounds(base, None, 2))))
    return cases


def _library_case(dk, fn_name, g, h, extra, check):
    """``dk.<fn_name>(G, H, *extra)`` on factor graphs built inside the call.

    The function is looked up on the package at call time, so a traced run
    calls the wrapped version.
    """
    def call():
        return getattr(dk, fn_name)(dk.Graph(g.n, g.edges), dk.Graph(h.n, h.edges), *extra)

    key = "|".join([fn_name, g.tag, h.tag] + [str(x) for x in extra])
    return Case(key, call, check)


def _witness_problems(result, g, h, bounds, witness, claimed, size, label):
    """Record what is wrong with a witness for a claimed membership.

    ``size`` is the value the witness must have, or None when only
    membership was claimed.
    """
    if not claimed:
        return
    if witness is None:
        result.errors.append(f"{label} claims membership but returns no witness")
    elif not checks.product_set_ok(g.adj, h.adj, witness, bounds):
        result.errors.append(f"{label} witness rejected by the independent checker")
    elif size is not None and len(witness) != size:
        result.errors.append(f"|{label} witness| != {label} value")


def _listed(witness):
    return None if witness is None else list(witness)


def _verify_check(dk, g, h, kind, bounds):
    def check(report):
        result = Outcome([report.prediction, report.oracle,
                          _listed(report.witness_pred), _listed(report.witness_oracle)])
        _witness_problems(result, g, h, bounds, report.witness_pred,
                          report.prediction is not None, report.prediction, "prediction")
        _witness_problems(result, g, h, bounds, report.witness_oracle,
                          report.oracle is not None, report.oracle, "oracle")
        if not report.agree:
            result.disagreements.append(
                f"product_gamma {report.prediction} vs oracle {report.oracle}")
        if g.family and h.family and kind in ("one_2", "total_one_2", "i_one_2"):
            value = dk.corollary_value(g.family, h.family, g.n, h.n, kind)
            if value != report.oracle:
                result.disagreements.append(f"corollary_value {value} vs oracle {report.oracle}")
        return result

    return check


def _membership_check(g, h, bounds):
    def check(report):
        result = Outcome([report.prediction, report.oracle, _listed(report.witness_pred)])
        _witness_problems(result, g, h, bounds, report.witness_pred, report.prediction, None,
                          "characterization")
        if not report.agree:
            result.disagreements.append(
                f"characterization {report.prediction} vs exists_set {report.oracle}")
        return result

    return check


def _gamma_check(g, h, bounds):
    def check(analysis):
        result = Outcome([analysis.membership, analysis.predicted_gamma,
                          _listed(analysis.witness)])
        _witness_problems(result, g, h, bounds, analysis.witness, analysis.membership,
                          analysis.predicted_gamma, "prediction")
        return result

    return check


def _characterize_check(g, h, bounds):
    def check(analysis):
        result = Outcome([analysis.membership, _listed(analysis.witness)])
        _witness_problems(result, g, h, bounds, analysis.witness, analysis.membership, None,
                          "characterization")
        return result

    return check


# -- x3c_cli ------------------------------------------------------------------------


def x3c_catalog():
    """Every Exact-3-Cover instance with q <= 2 and t <= 3 (1351 of them)."""
    catalog = [(3, ((0, 1, 2),))]
    triples = list(combinations(range(6), 3))
    for count in (1, 2, 3):
        catalog += [(6, chosen) for chosen in combinations(triples, count)]
    return catalog


def _relabel(rng, universe, sets):
    """The same instance up to renaming elements and reordering sets."""
    names = list(range(universe))
    rng.shuffle(names)
    out = [[names[x] for x in triple] for triple in sets]
    for triple in out:
        rng.shuffle(triple)
    rng.shuffle(out)
    return out


def x3c_cases(dk, rng, work_dir, everything=False):
    cli = dk.cli
    gadget = os.path.join(work_dir, "gadget.el")
    meta = os.path.join(work_dir, "meta.json")
    cases = []
    for index, (universe, sets) in enumerate(x3c_catalog()):
        relabeled = _relabel(rng, universe, sets)
        path = os.path.join(work_dir, f"inst{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"universe": universe, "sets": relabeled}, fh)
        argvs = [["reduce", path, "-o", gadget, "--meta", meta], ["decide-x3c", path]]
        cases.append(Case(f"x3c|{index}", lambda argvs=argvs: _captured(cli, argvs),
                          _x3c_check(universe, relabeled, gadget, meta)))
    return cases


def _x3c_check(universe, sets, gadget_path, meta_path):
    t, q = len(sets), universe // 3

    def check(out):
        codes, (_, text) = out
        if codes != [0, 0]:
            result = Outcome()
            result.errors.append(f"exit codes {codes}")
            return result
        row = json.loads(text)
        result = Outcome([row["brute_force"], row["via_gadget"]])
        with open(gadget_path, encoding="utf-8") as fh:
            n, edges = checks.read_edge_list(fh.read())
        with open(meta_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if (n, len(edges)) != (7 * t + 3 * q, 16 * t):
            result.errors.append(f"gadget has {n} vertices and {len(edges)} edges")
        if sidecar["budget"] != 2 * t + q or len(sidecar["roles"]) != n:
            result.errors.append("sidecar budget or role count is wrong")
        if row["brute_force"] != checks.exact_cover_exists(universe, sets):
            result.errors.append("brute_force answer is wrong")
        if row["brute_force"] != row["via_gadget"] or not row["agree"]:
            result.disagreements.append(
                f"brute_force {row['brute_force']} vs via_gadget {row['via_gadget']}")
        return result

    return check


BUILDERS = {"solve": solve_cases, "product": product_cases, "x3c_cli": x3c_cases}


def build(name, dk, seed, work_dir, everything=False):
    """The workload's cases in their fixed order, inputs written to ``work_dir``.

    With ``everything`` every pool member is used; that is how the stored
    answer table is made.
    """
    os.makedirs(work_dir, exist_ok=True)
    return BUILDERS[name](dk, random.Random(seed), work_dir, everything)
