"""Membership characterizations and minimum-size formulas for lexicographic products.

Every evaluator answers questions about the product ``G o H`` by solving only
on the factors: total/independent membership via structural conditions, and
minimum sizes via the case analysis over layer shapes.  Each case returns a
layer plan (G-vertices with the H-vertices their layers carry), which
``_finish`` checks from per-layer counts and turns into product ids; no
prediction builds the product.  Predictions can be cross-checked against the
explicit-product oracle, with disagreements returned as data rather than
raised, because a wrong prediction is a finding, not a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Collection, Iterator

from .domsets import (
    SetKind,
    dominating,
    efficient,
    independent_one_k,
    j_dependent_one_k,
    j_dependent_total_one_k,
    near_masks,
    one_k,
    scattered_test,
    total_dominating,
    total_one_k,
)
from .graphs import Graph, is_connected, lex_product, mask_to_ids
from .solvers import GraphTooLargeError, check_cap, enumerate_masks, exists_set, min_set

# product kind -> the set kind its predictions are measured against, given k
_PRODUCT_KINDS = {
    "plain": lambda k: dominating(),
    "total": lambda k: total_dominating(),
    "one_2": lambda k: one_k(2),
    "total_one_2": lambda k: total_one_k(2),
    "i_one_2": lambda k: independent_one_k(2),
    "i_one_k": independent_one_k,
}

PRODUCT_GAMMA_KINDS = tuple(_PRODUCT_KINDS)

COROLLARY_KINDS = ("one_2", "total_one_2", "i_one_2")


class DisconnectedFactorError(ValueError):
    """The first factor must be connected for the product theorems to apply."""


class _Record:
    """JSON form of the report dataclasses: fields in declaration order, tuples
    as lists."""

    def to_dict(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ProductAnalysis(_Record):
    """Outcome of a product-theorem evaluation.

    ``matched_condition`` names the condition or subcase that decided the
    answer; a present witness meets every bound of the set kind on G o H
    (checked from layer counts), and ``layer_profile`` lists its per-layer
    counts |D ∩ H^g|.
    """

    membership: bool
    matched_condition: int | str | None
    predicted_gamma: int | None
    witness: tuple[int, ...] | None
    layer_profile: tuple[int, ...] | None


@dataclass(frozen=True)
class DiscrepancyReport(_Record):
    """Side-by-side record of a theorem prediction and the explicit oracle."""

    kind: str
    k: int | None
    prediction: int | bool | None
    oracle: int | bool | None
    agree: bool
    matched_condition: int | str | None
    witness_pred: tuple[int, ...] | None
    witness_oracle: tuple[int, ...] | None
    layer_profile: tuple[int, ...] | None


# -- scattered-dependent set scans -------------------------------------------

_SD_SCAN_CAP = 20  # subset scans are only ever run on factor graphs


def _sd_scan(graph: Graph, j: int, k: int, weight: int) -> tuple[int, int] | None:
    """Minimum of |S| + (weight - 1) * alpha(S) over scattered j-dependent
    [1,k]-sets S, where ``alpha`` counts members with no in-set neighbor.

    Returns the value and the mask of the first set reaching it, or None when
    no such set exists.  The listing runs with the scattered cut, which skips
    only sets that no extension makes scattered, whatever their size, so the
    answer is that of the full scan.  Sizes only grow along the listing, so it
    stops at the first set of size >= the best value, and at a scattered set
    whose value is its size; with weight 1 that is the first scattered set.
    """
    if graph.n > _SD_SCAN_CAP:
        raise GraphTooLargeError(
            f"scattered-set scan needs n <= {_SD_SCAN_CAP}, got {graph.n}"
            "; --force does not lift this limit"
        )
    adj = graph.neighbor_masks
    near = near_masks(adj)
    scattered = scattered_test(graph, near)
    best: list[int] = []  # [value, mask] of the first set reaching the minimum

    def consider(s: int) -> bool:
        size = s.bit_count()
        if best and size >= best[0]:
            return True
        if not scattered(s):
            return False
        value = size + (weight - 1) * sum(1 for v in mask_to_ids(s) if not adj[v] & s)
        if not best or value < best[0]:
            best[:] = [value, s]
        return value == size

    enumerate_masks(graph, j_dependent_one_k(j, k), 0, graph.n, consider, near=near)
    return (best[0], best[1]) if best else None


def first_sd_set(graph: Graph, j: int, k: int) -> frozenset[int] | None:
    """Smallest (then lexicographically first) scattered j-dependent [1,k]-set."""
    found = _sd_scan(graph, j, k, 1)
    return frozenset(mask_to_ids(found[1])) if found else None


def min_sd_size_plus_alpha(graph: Graph, j: int, k: int) -> tuple[int, frozenset[int]] | None:
    """Minimum of |S| + alpha over scattered j-dependent [1,k]-sets S, with the
    first set achieving it, or None when no such set exists."""
    found = _sd_scan(graph, j, k, 2)
    return (found[0], frozenset(mask_to_ids(found[1]))) if found else None


# -- shared helpers -----------------------------------------------------------


def _require_connected(graph: Graph) -> None:
    if not is_connected(graph):
        raise DisconnectedFactorError("first factor must be connected")


def check_k(k: int, kind: str | None = None) -> None:
    """Raise ``ValueError`` unless the product theorems cover ``k``: k = 2 for
    the ``*_2`` product kinds, k >= 2 for the others and the characterizations."""
    if kind is not None and kind.endswith("_2"):
        if k != 2:
            raise ValueError(f"{kind} is defined for k=2 only")
    elif k < 2:
        raise ValueError(f"product theorems require k >= 2, got {k}")


def _layer_masks(g: Graph, h: Graph, kind: SetKind, members: Collection[int],
                 shared: Collection[int], lonely: Collection[int] = ()) -> list[int] | None:
    """Per-layer H-masks D_g of a layer plan, or None when the plan breaks a
    bound of ``kind`` on G o H.

    Every G-vertex in ``members`` carries the H-vertices ``shared`` in its
    layer, and members with no in-set G-neighbor also carry ``lonely``.
    Vertex (g, x) hears s_g + |N_H(x) ∩ D_g| members, where s_g sums |D_g'|
    over the G-neighbors g' of g, so the check never builds the product.
    """
    adj_g, adj_h = g.neighbor_masks, h.neighbor_masks
    inside = sum(1 << v for v in members)
    paired = sum(1 << u for u in shared)
    alone = paired | sum(1 << u for u in lonely)
    layers = [0] * g.n
    for v in members:
        layers[v] = paired if adj_g[v] & inside else alone
    sizes = [d.bit_count() for d in layers]
    lo_in, hi_in, lo_out, hi_out = kind.bounds()
    for v, d in enumerate(layers):
        heard = sum(sizes[w] for w in mask_to_ids(adj_g[v]))
        for x, nbrs in enumerate(adj_h):
            sn = heard + (nbrs & d).bit_count()
            lo, hi = (lo_in, hi_in) if d >> x & 1 else (lo_out, hi_out)
            if sn < lo or (hi is not None and sn > hi):
                return None
    return layers


def _finish(g: Graph, h: Graph, kind: SetKind, plan: tuple | None, membership: bool,
            matched: int | str | None, gamma: int | None) -> ProductAnalysis:
    """The planned witness as product ids ``g * n_h + x``, if it passes the
    layer-count check.  A plan that fails is reported, not repaired: the
    predicted membership and value stand and the witness is None."""
    layers = None if plan is None else _layer_masks(g, h, kind, *plan)
    if layers is None:
        return ProductAnalysis(membership, matched, gamma, None, None)
    witness = tuple(v * h.n + x for v, d in enumerate(layers) for x in mask_to_ids(d))
    profile = tuple(d.bit_count() for d in layers)
    return ProductAnalysis(membership, matched, gamma, witness, profile)


# -- membership characterizations ---------------------------------------------


def characterize_total(g: Graph, h: Graph, k: int = 2, *, force: bool = False) -> ProductAnalysis:
    """Decide whether G o H has a total [1,k]-set, from factor structure alone.

    Conditions are tried in order: (1) trivial G with H admitting a total
    [1,k]-set; (2) a total [1,k]-set of G whose members stay below bound k
    unless H has an isolated vertex; (3) an efficient dominating set of G
    with a small total [1,k]-set in H; (4) a (k-1)-dependent [1,k]-set of G,
    with the H threshold k for scattered sets and floor(k/2) otherwise.
    """
    check_k(k)
    _require_connected(g)
    t1k_kind = total_one_k(k)

    if g.n == 1:
        r = min_set(h, t1k_kind, force=force)
        plan = ((0,), r.witness) if r.exists else None
        return _finish(g, h, t1k_kind, plan, r.exists, 1 if r.exists else None, None)

    iso = h.isolated_vertices()
    if iso:
        r = min_set(g, t1k_kind, force=force)
    else:
        r = min_set(g, j_dependent_total_one_k(k - 1, k), force=force)
    if r.exists:
        u_star = iso[0] if iso else 0
        return _finish(g, h, t1k_kind, (r.witness, (u_star,)), True, 2, None)

    # The lex-smallest minimum set is the same at every limit >= gamma, so
    # the floor(k/2) threshold reads this one solve.
    h_total = min_set(h, t1k_kind, limit=k, force=force)
    t = h_total.witness
    if h_total.exists:
        r_eff = min_set(g, efficient(), force=force)
        if r_eff.exists:
            return _finish(g, h, t1k_kind, (r_eff.witness, t), True, 3, None)
        sd = first_sd_set(g, k - 1, k)
        if sd is not None:
            return _finish(g, h, t1k_kind, (sd, t[:1], t[1:]), True, 4, None)
    if h_total.exists and h_total.gamma <= k // 2:
        r_dep = min_set(g, j_dependent_one_k(k - 1, k), force=force)
        if r_dep.exists:
            return _finish(g, h, t1k_kind, (r_dep.witness, t[:1], t[1:]), True, 4, None)
    return ProductAnalysis(False, None, None, None, None)


def _independent_plans(g: Graph, h: Graph, k: int,
                       force: bool) -> Iterator[tuple[int, int, tuple]]:
    """Plans (condition, size, plan) of an independent [1,k]-set of G o H, solved
    lazily.  Each member layer carries the first minimum independent
    [1,k]-set D of H: (2) over an efficient dominating set of G; (3) when
    |D| <= floor(k/2), over an independent [1, floor(k/|D|)]-set of G, as a
    non-member layer hears |D| per member G-neighbor."""
    # as in characterize_total, one solve serves both H thresholds
    r_h = min_set(h, independent_one_k(k), limit=k, force=force)
    if not r_h.exists:
        return
    r_eff = min_set(g, efficient(), force=force)
    if r_eff.exists:
        yield 2, r_eff.gamma * r_h.gamma, (r_eff.witness, r_h.witness)
    if r_h.gamma <= k // 2:
        r_g = min_set(g, independent_one_k(k // r_h.gamma), force=force)
        if r_g.exists:
            yield 3, r_g.gamma * r_h.gamma, (r_g.witness, r_h.witness)


def characterize_independent(g: Graph, h: Graph, k: int = 2, *,
                             force: bool = False) -> ProductAnalysis:
    """Decide whether G o H has an independent [1,k]-set, from factor structure.

    Conditions in order: (1) trivial G with H admitting one; then, with an
    independent [1,k]-set D of H of size <= k in every member layer, (2) an
    efficient dominating set of G, or (3) an independent
    [1, floor(k/|D|)]-set of G when |D| <= floor(k/2).
    """
    check_k(k)
    _require_connected(g)
    i1k_kind = independent_one_k(k)

    if g.n == 1:
        r = min_set(h, i1k_kind, force=force)
        plan = ((0,), r.witness) if r.exists else None
        return _finish(g, h, i1k_kind, plan, r.exists, 1 if r.exists else None, None)

    for condition, _, plan in _independent_plans(g, h, k, force):
        return _finish(g, h, i1k_kind, plan, True, condition, None)
    return ProductAnalysis(False, None, None, None, None)


# -- minimum-size formulas ------------------------------------------------------


def oracle_kind(kind: str, k: int = 2) -> SetKind:
    """The set kind a product-gamma prediction is measured against."""
    if kind not in _PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    return _PRODUCT_KINDS[kind](k)


def _identity_analysis(g: Graph, h: Graph, kind: SetKind, force: bool) -> ProductAnalysis:
    # one factor is a single vertex, so the product is a copy of the other
    if g.n == 1:
        r = min_set(h, kind, force=force)
        plan = ((0,), r.witness) if r.exists else None
    else:
        r = min_set(g, kind, force=force)
        plan = (r.witness, (0,)) if r.exists else None
    return _finish(g, h, kind, plan, r.exists,
                   "identity" if r.exists else "identity_nonexistent", r.gamma)


def product_gamma(g: Graph, h: Graph, kind: str, k: int = 2, *,
                  force: bool = False) -> ProductAnalysis:
    """Minimum size of the requested set type on G o H, from factor solves.

    Overlapping subcases are all evaluated and the smallest prediction wins;
    ``matched_condition`` records the winning subcase.  Nonexistence is
    reported with ``membership=False`` and no value.
    """
    if kind not in PRODUCT_GAMMA_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    check_k(k, kind)
    _require_connected(g)
    target = oracle_kind(kind, k)

    if g.n == 1 or h.n == 1:
        return _identity_analysis(g, h, target, force)

    if kind == "plain":
        candidates = []
        one_dominator = min_set(h, dominating(), limit=1, force=force)
        if one_dominator.exists:
            r_g = min_set(g, dominating(), force=force)
            candidates.append((r_g.gamma, "dominated_layer",
                               (r_g.witness, one_dominator.witness)))
        r_gt = min_set(g, total_dominating(), force=force)
        if r_gt.exists:
            candidates.append((r_gt.gamma, "total_set_of_g", (r_gt.witness, (0,))))
        return _pick(g, h, target, candidates, none_label=None)

    if kind == "total":
        r_gt = min_set(g, total_dominating(), force=force)
        candidates = []
        if r_gt.exists:
            candidates.append((r_gt.gamma, "total_set_of_g", (r_gt.witness, (0,))))
        return _pick(g, h, target, candidates, none_label="no_total_set_in_g")

    if kind == "one_2":
        return _one_2_cases(g, h, target, force)
    if kind == "total_one_2":
        return _total_one_2_cases(g, h, target, force)
    return _independent_cases(g, h, target, k, force)


def _pick(g: Graph, h: Graph, target: SetKind, candidates: list[tuple[int, str, tuple]],
          none_label: str | None) -> ProductAnalysis:
    if not candidates:
        return ProductAnalysis(False, none_label, None, None, None)
    value, label, plan = min(candidates, key=lambda item: item[0])
    return _finish(g, h, target, plan, True, label, value)


def _one_2_cases(g: Graph, h: Graph, target: SetKind, force: bool) -> ProductAnalysis:
    # n_h >= 2 here, so every subcase value is at most 2 * n_g <= n_g * n_h
    # and the full vertex set, appended last, wins only when none applies.
    full = (range(g.n), range(h.n))
    candidates: list[tuple[int, str, tuple]] = []
    r_h = min_set(h, one_k(2), limit=2, force=force)  # only gamma 1 or 2 is read
    pair_h = r_h.witness
    iso = h.isolated_vertices()
    if iso:
        r_gt = min_set(g, total_one_k(2), force=force)
        if r_gt.exists:
            candidates.append((r_gt.gamma, "case1a", (r_gt.witness, (iso[0],))))
        if r_h.gamma == 2:
            sd = min_sd_size_plus_alpha(g, 2, 2)
            if sd is not None:
                value, members = sd
                # the isolated vertex sits in every [1,2]-set of H
                u_star = next(u for u in pair_h if u in set(iso))
                u_bullet = next(u for u in pair_h if u != u_star)
                candidates.append((value, "case1b", (members, (u_star,), (u_bullet,))))
        candidates.append((g.n * h.n, "case1c", full))
        return _pick(g, h, target, candidates, None)
    if r_h.gamma == 1:
        r_dep = min_set(g, j_dependent_one_k(1, 2), force=force)
        if r_dep.exists:
            candidates.append((r_dep.gamma, "case2a", (r_dep.witness, pair_h)))
    r_dept = min_set(g, j_dependent_total_one_k(1, 2), force=force)
    if r_dept.exists:
        candidates.append((r_dept.gamma, "case2b", (r_dept.witness, (0,))))
    if r_h.gamma == 2:
        sd = min_sd_size_plus_alpha(g, 1, 2)
        if sd is not None:
            value, members = sd
            candidates.append((value, "case2c", (members, pair_h[:1], pair_h[1:])))
    candidates.append((g.n * h.n, "case2d", full))
    return _pick(g, h, target, candidates, None)


def _total_one_2_cases(g: Graph, h: Graph, target: SetKind, force: bool) -> ProductAnalysis:
    candidates: list[tuple[int, str, tuple]] = []
    iso = h.isolated_vertices()
    if iso:
        r_gt = min_set(g, total_one_k(2), force=force)
        if r_gt.exists:
            candidates.append((r_gt.gamma, "case1a", (r_gt.witness, (iso[0],))))
        return _pick(g, h, target, candidates, "case1b_nonexistent")
    r_dept = min_set(g, j_dependent_total_one_k(1, 2), force=force)
    if r_dept.exists:
        candidates.append((r_dept.gamma, "case2a", (r_dept.witness, (0,))))
    # The layer of a lonely member (no in-set G-neighbor) alone dominates that
    # layer, so it is a total [1,2]-set of H; the two vertices the value counts
    # for it must be an edge of H that dominates H, whatever gamma_[1,2](H) is.
    pair = min_set(h, total_one_k(2), limit=2, force=force)
    if pair.exists:
        sd = min_sd_size_plus_alpha(g, 1, 2)
        if sd is not None:
            value, members = sd
            candidates.append((value, "case2b", (members, pair.witness[:1], pair.witness[1:])))
    return _pick(g, h, target, candidates, "case2c_nonexistent")


def _independent_cases(g: Graph, h: Graph, target: SetKind, k: int,
                       force: bool) -> ProductAnalysis:
    labels = {2: "case_a_efficient", 3: "case_b_independent"}
    candidates = [(value, labels[condition], plan)
                  for condition, value, plan in _independent_plans(g, h, k, force)]
    return _pick(g, h, target, candidates, "case_c_nonexistent")


# -- path/cycle corollaries -----------------------------------------------------


def corollary_value(family_g: str, family_h: str, n: int, m: int, kind: str) -> int | None:
    """Piecewise product values for path/cycle factors; None means nonexistent.

    Case rows apply top to bottom.  The first factor's family selects the
    table, matching the observation that mixed products follow it.  ``m = 2``
    rows for cycle factors are served by the single edge K2.
    """
    if kind not in COROLLARY_KINDS:
        raise ValueError(f"unknown corollary kind {kind!r}")
    if family_g not in ("path", "cycle") or family_h not in ("path", "cycle"):
        raise ValueError("factors must be path or cycle")
    if n < (2 if family_g == "path" else 3):
        raise ValueError(f"n={n} below minimum for {family_g}")
    if m < 2:
        raise ValueError(f"m={m} below minimum for {family_h}")
    ceil = lambda a, b: -(-a // b)  # noqa: E731

    if family_g == "path":
        if kind == "one_2":
            return ceil(n, 3) if m in (2, 3) else 2 * ceil(n, 4)
        if kind == "total_one_2":
            return 2 * ceil(n, 4)
        if m in (2, 3):
            return ceil(n, 3)
        if m in (4, 5, 6):
            return 2 * ceil(n, 3)
        return None
    if kind == "one_2":
        if m in (2, 3):
            return ceil(n, 3)
        if n == 5:
            return 5 * m
        return 2 * ceil(n, 4)
    if kind == "total_one_2":
        return None if n == 5 else 2 * ceil(n, 4)
    if m in (2, 3):
        return ceil(n, 3)
    if m in (4, 5, 6) and n % 3 == 0:
        return 2 * ceil(n, 3)
    return None


# -- oracle cross-checks ---------------------------------------------------------


def verify_against_oracle(g: Graph, h: Graph, kind: str, k: int = 2, *,
                          max_n: int | None = None, force: bool = False) -> DiscrepancyReport:
    """Compare a product-gamma prediction with the explicit-product oracle.

    Never asserts: the report carries both values, both witnesses, and the
    agreement flag for the caller to judge.  An over-cap product is refused
    before the prediction runs.  The oracle takes the predicted value as its
    ``guess`` (n + 1 when no set is predicted), which changes its search
    effort but never its answer.
    """
    check_cap(g.n * h.n, max_n, force)
    analysis = product_gamma(g, h, kind, k, force=force)
    product, idx = lex_product(g, h)
    guess = product.n + 1 if analysis.predicted_gamma is None else analysis.predicted_gamma
    r = min_set(product, oracle_kind(kind, k), guess=guess, max_n=max_n, force=force)
    agree = analysis.predicted_gamma == r.gamma and analysis.membership == r.exists
    profile = analysis.layer_profile
    if profile is None and r.witness is not None:
        profile = idx.layer_profile(r.witness)
    return DiscrepancyReport(
        kind=kind,
        k=k,
        prediction=analysis.predicted_gamma,
        oracle=r.gamma,
        agree=agree,
        matched_condition=analysis.matched_condition,
        witness_pred=analysis.witness,
        witness_oracle=r.witness,
        layer_profile=profile,
    )


def verify_membership_against_oracle(g: Graph, h: Graph, which: str, k: int = 2, *,
                                     max_n: int | None = None,
                                     force: bool = False) -> DiscrepancyReport:
    """Compare a membership characterization with oracle existence on the
    product; an over-cap product is refused before the characterization runs."""
    check_cap(g.n * h.n, max_n, force)
    if which == "total":
        analysis = characterize_total(g, h, k, force=force)
        target = total_one_k(k)
    elif which == "independent":
        analysis = characterize_independent(g, h, k, force=force)
        target = independent_one_k(k)
    else:
        raise ValueError(f"unknown characterization {which!r}")
    product, _ = lex_product(g, h)
    found = exists_set(product, target, max_n=max_n, force=force)
    return DiscrepancyReport(
        kind=f"characterize_{which}",
        k=k,
        prediction=analysis.membership,
        oracle=found,
        agree=analysis.membership == found,
        matched_condition=analysis.matched_condition,
        witness_pred=analysis.witness,
        witness_oracle=None,
        layer_profile=analysis.layer_profile,
    )
