"""Spans at domkit's module boundaries, recorded from outside the program.

``install`` replaces each traced public function with a wrapper in every
``domkit`` module namespace that holds it (``domkit.lex_theory.min_set``,
``domkit.npc.exists_set``, ``domkit.cli.min_set``, the package namespace, ...)
and wraps ``Graph.__init__`` and ``GadgetMeta.to_sidecar_json`` on their
classes.  Spans stay in memory as ``(id, name, start, end, parent, attrs)``
and are written out once the run ends.  ``layer_metrics`` turns a span list
into the per-layer metrics; it reads nothing but the spans, so it can be
tested on a synthetic tree.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Hooks that record span attributes: ``before`` reads the call's arguments,
# ``after`` its result.  Attributes from ``before`` survive a call that raises.
def _solve_before(args, kwargs):
    return {"n": args[0].n, "base": args[1].base}


def _solve_after(result):
    return {"nodes": result.nodes_explored}


def _size_before(args, kwargs):
    return {"n": args[0].n}


def _prediction_before(args, kwargs):
    return {"n_g": args[0].n, "n_h": args[1].n}


def _product_after(result):
    return {"n": result[0].n, "edges": result[0].num_edges}


def _decide_before(args, kwargs):
    return {"mode": args[1] if len(args) > 1 else kwargs.get("mode", "via_gadget")}


def _exit_after(result):
    return {"exit": result}


# (module, attribute, span name, before hook, after hook)
FUNCTIONS = (
    ("domkit.cli", "main", "cli.main", None, _exit_after),
    ("domkit.graphs", "lex_product", "graphs.lex_product", None, _product_after),
    ("domkit.graphs", "parse_edge_list", "graphs.parse_edge_list", None, None),
    ("domkit.graphs", "format_edge_list", "graphs.format_edge_list", None, None),
    ("domkit.domsets", "satisfies", "domsets.satisfies", None, None),
    ("domkit.solvers", "min_set", "solvers.min_set", _solve_before, _solve_after),
    ("domkit.solvers", "exists_set", "solvers.exists_set", _size_before, None),
    ("domkit.solvers", "enumerate_sets", "solvers.enumerate_sets", _size_before, None),
    ("domkit.lex_theory", "product_gamma", "lex_theory.product_gamma",
     _prediction_before, None),
    ("domkit.lex_theory", "characterize_total", "lex_theory.characterize_total",
     _prediction_before, None),
    ("domkit.lex_theory", "characterize_independent", "lex_theory.characterize_independent",
     _prediction_before, None),
    ("domkit.lex_theory", "verify_against_oracle", "lex_theory.verify_against_oracle",
     None, None),
    ("domkit.lex_theory", "verify_membership_against_oracle",
     "lex_theory.verify_membership_against_oracle", None, None),
    ("domkit.lex_theory", "first_sd_set", "lex_theory.first_sd_set", None, None),
    ("domkit.lex_theory", "min_sd_size_plus_alpha", "lex_theory.min_sd_size_plus_alpha",
     None, None),
    ("domkit.npc", "build_gadget", "npc.build_gadget", None, None),
    ("domkit.npc", "decide_x3c", "npc.decide_x3c", _decide_before, None),
)

# (module, class, method, span name)
METHODS = (
    ("domkit.graphs", "Graph", "__init__", "graphs.Graph.__init__"),
    ("domkit.npc", "GadgetMeta", "to_sidecar_json", "npc.GadgetMeta.to_sidecar_json"),
)


class Tracer:
    """In-memory span recorder for a single thread of calls."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id so children point at it
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                spans[sid] = (sid, name, start, clock(), parent, attrs)
                raise
            finally:
                stack.pop()
            end = clock()
            if after:
                attrs.update(after(result))
            spans[sid] = (sid, name, start, end, parent, attrs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method of the loaded domkit modules."""
        modules = [m for key, m in sys.modules.items()
                   if key == "domkit" or key.startswith("domkit.")]
        for modname, attr, name, before, after in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, before, after)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))
        for modname, clsname, meth, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(original, name))
            self._undo.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _attrs in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _attrs in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


PREDICTIONS = ("lex_theory.product_gamma", "lex_theory.characterize_total",
               "lex_theory.characterize_independent")
VERIFIES = ("lex_theory.verify_against_oracle", "lex_theory.verify_membership_against_oracle")
SD_SCANS = ("lex_theory.first_sd_set", "lex_theory.min_sd_size_plus_alpha")
SOLVERS = ("solvers.min_set", "solvers.exists_set", "solvers.enumerate_sets")
KIND_BASES = ("dominating", "total_dominating", "one_k", "total_one_k", "independent_one_k",
              "j_dependent_one_k", "j_dependent_total_one_k", "efficient", "open_efficient")


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced pass.

    ``<fn>_s`` is the summed duration of that function's spans, children
    included; ``self_s`` excludes children.  A ``min_set`` inside a
    prediction is a product solve when it runs on the full product of two
    factors that both have more than one vertex, and a factor solve
    otherwise.
    """
    by_id = {span[0]: span for span in spans}
    self_t = self_times(spans)

    def dur(span):
        return span[3] - span[2]

    def ancestor(span, names):
        parent = span[4]
        while parent is not None:
            up = by_id[parent]
            if up[1] in names:
                return up
            parent = up[4]
        return None

    named = defaultdict(list)
    for span in spans:
        named[span[1]].append(span)

    def total(name):
        return sum(dur(s) for s in named[name])

    m: dict[str, tuple[float, str]] = {}

    # solvers
    solves = named["solvers.min_set"]
    done = [s for s in solves if "nodes" in s[5]]
    nodes = sum(s[5]["nodes"] for s in done)
    solve_s = total("solvers.min_set")
    m["solvers.min_set_calls"] = (len(solves), "count")
    m["solvers.min_set_s"] = (solve_s, "s")
    m["solvers.nodes"] = (nodes, "count")
    m["solvers.nodes_per_s"] = (nodes / solve_s if solve_s else 0.0, "1/s")
    for base in KIND_BASES:
        m[f"solvers.nodes.{base}"] = (sum(s[5]["nodes"] for s in done if s[5]["base"] == base),
                                      "count")
    m["solvers.exists_set_calls"] = (len(named["solvers.exists_set"]), "count")
    m["solvers.exists_set_s"] = (total("solvers.exists_set"), "s")
    m["solvers.enumerate_sets_calls"] = (len(named["solvers.enumerate_sets"]), "count")
    m["solvers.enumerate_sets_s"] = (total("solvers.enumerate_sets"), "s")
    m["solvers.cap_refusals"] = (
        sum(1 for name in SOLVERS for s in named[name]
            if s[5].get("error") == "GraphTooLargeError"), "count")

    # lex_theory
    predictions = [s for name in PREDICTIONS for s in named[name]]
    factor_solves, product_solves = [], []
    for s in solves:
        owner = ancestor(s, PREDICTIONS)
        if owner is None:
            continue
        n_g, n_h = owner[5]["n_g"], owner[5]["n_h"]
        is_product = n_g > 1 and n_h > 1 and s[5]["n"] == n_g * n_h
        (product_solves if is_product else factor_solves).append(s)
    with_product_solve = {ancestor(s, PREDICTIONS)[0] for s in product_solves}
    factor_only = sum(1 for s in predictions if s[0] not in with_product_solve)
    oracle = [s for name in ("solvers.min_set", "solvers.exists_set") for s in named[name]
              if s[4] is not None and by_id[s[4]][1] in VERIFIES]
    m["lex_theory.predict_calls"] = (len(predictions), "count")
    m["lex_theory.predict_self_s"] = (sum(self_t[s[0]] for s in predictions), "s")
    m["lex_theory.factor_solves"] = (len(factor_solves), "count")
    m["lex_theory.factor_solve_s"] = (sum(dur(s) for s in factor_solves), "s")
    m["lex_theory.sd_scan_s"] = (sum(total(name) for name in SD_SCANS), "s")
    m["lex_theory.witness_check_s"] = (
        sum(dur(s) for s in named["domsets.satisfies"] if ancestor(s, PREDICTIONS)), "s")
    m["lex_theory.product_solves"] = (len(product_solves), "count")
    m["lex_theory.factor_only_predictions"] = (factor_only, "count")
    m["lex_theory.factor_only_ratio"] = (
        factor_only / len(predictions) if predictions else 0.0, "ratio")
    m["lex_theory.oracle_s"] = (sum(dur(s) for s in oracle), "s")
    m["lex_theory.oracle_nodes"] = (
        sum(s[5].get("nodes", 0) for s in oracle), "count")

    # graphs
    products = named["graphs.lex_product"]
    m["graphs.graph_init_calls"] = (len(named["graphs.Graph.__init__"]), "count")
    m["graphs.graph_init_s"] = (total("graphs.Graph.__init__"), "s")
    m["graphs.lex_product_calls"] = (len(products), "count")
    m["graphs.lex_product_self_s"] = (sum(self_t[s[0]] for s in products), "s")
    m["graphs.product_vertices"] = (sum(s[5].get("n", 0) for s in products), "count")
    m["graphs.product_edges"] = (sum(s[5].get("edges", 0) for s in products), "count")
    m["graphs.parse_s"] = (total("graphs.parse_edge_list"), "s")
    m["graphs.format_s"] = (total("graphs.format_edge_list"), "s")

    # domsets
    m["domsets.satisfies_calls"] = (len(named["domsets.satisfies"]), "count")
    m["domsets.satisfies_s"] = (total("domsets.satisfies"), "s")

    # npc
    decides = named["npc.decide_x3c"]
    via = [s for s in decides if s[5]["mode"] == "via_gadget"]
    deciders = (ancestor(s, ("npc.decide_x3c",)) for s in named["solvers.exists_set"])
    searched = {d[0] for d in deciders if d is not None}
    via_searched = sum(1 for s in via if s[0] in searched)
    m["npc.build_gadget_calls"] = (len(named["npc.build_gadget"]), "count")
    m["npc.build_gadget_s"] = (total("npc.build_gadget"), "s")
    m["npc.sidecar_s"] = (total("npc.GadgetMeta.to_sidecar_json"), "s")
    m["npc.decide_calls"] = (len(decides), "count")
    m["npc.decide_s"] = (total("npc.decide_x3c"), "s")
    m["npc.brute_force_s"] = (
        sum(dur(s) for s in decides if s[5]["mode"] == "brute_force"), "s")
    m["npc.via_gadget_decisions"] = (len(via), "count")
    m["npc.via_gadget_searches"] = (via_searched, "count")
    m["npc.search_ratio"] = (via_searched / len(via) if via else 0.0, "ratio")

    # cli
    mains = named["cli.main"]
    m["cli.calls"] = (len(mains), "count")
    m["cli.self_s"] = (sum(self_t[s[0]] for s in mains), "s")
    m["cli.nonzero_exits"] = (sum(1 for s in mains if s[5].get("exit") != 0), "count")
    return m


RATIO_BASES = {
    "lex_theory.factor_only_ratio": ("lex_theory.factor_only_predictions",
                                     "lex_theory.predict_calls"),
    "npc.search_ratio": ("npc.via_gadget_searches", "npc.via_gadget_decisions"),
    "solvers.nodes_per_s": ("solvers.nodes", "solvers.min_set_s"),
}
