"""Membership characterizations and minimum-size formulas for lexicographic products.

Every evaluator answers questions about the product ``G o H`` by solving only
on the factors: total/independent membership via structural conditions, and
minimum sizes via the case analysis over layer shapes.  A product kind is one
row of ``_PRODUCT_KINDS``: its oracle kind, the k it covers and its subcases.
Each case returns a layer plan (G-vertices with the H-vertices their layers
carry), which ``_finish`` checks from per-layer counts and turns into product
ids; no prediction builds the product.  Predictions can be cross-checked
against the explicit-product oracle, with disagreements returned as data
rather than raised, because a wrong prediction is a finding, not a crash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Collection, Iterator

from . import domsets
from .domsets import SetKind
from .graphs import Graph, is_connected, lex_product, mask_to_ids
from .solvers import check_cap, exists_set, first_sd_set, min_sd_size_plus_alpha, min_set

# The kinds the predictions solve for.  Kinds are immutable, so each is built
# and validated once per parameters; an invalid parameter caches nothing and
# raises on every call.
_shared = lru_cache(maxsize=64, typed=True)
dominating = _shared(domsets.dominating)
efficient = _shared(domsets.efficient)
independent_one_k = _shared(domsets.independent_one_k)
j_dependent_one_k = _shared(domsets.j_dependent_one_k)
j_dependent_total_one_k = _shared(domsets.j_dependent_total_one_k)
one_k = _shared(domsets.one_k)
total_dominating = _shared(domsets.total_dominating)
total_one_k = _shared(domsets.total_one_k)

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


# -- shared helpers -----------------------------------------------------------


def _require_factors(g: Graph, h: Graph) -> None:
    """Raise unless G is connected and H has a vertex for the plans to use."""
    if not is_connected(g):
        raise DisconnectedFactorError("first factor must be connected")
    if h.n < 1:
        raise ValueError("second factor must have at least one vertex")


def check_k(k: int, kind: str | None = None) -> None:
    """Raise ``ValueError`` unless the product theorems cover ``k``: the one k
    of a product kind whose row fixes it, k >= 2 for the other kinds and the
    characterizations (no ``kind``).  A ``kind`` that is not a product kind
    raises too."""
    if kind is not None and kind not in _PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    _, only_k, _ = _PRODUCT_KINDS.get(kind, (None, None, None))
    if only_k is not None:
        if k != only_k:
            raise ValueError(f"{kind} is defined for k={only_k} only")
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
    Each member layer adds its size to the s_g of its G-neighbors.  Every
    vertex of an empty layer hears exactly s_g, so such a layer is checked
    once against the off-set bounds.
    """
    adj_g, adj_h = g.neighbor_masks, h.neighbor_masks
    inside = sum(1 << v for v in members)
    paired = sum(1 << u for u in shared)
    alone = paired | sum(1 << u for u in lonely)
    layers = [0] * g.n
    heard = [0] * g.n
    rest = inside
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        rest ^= low
        nbrs = adj_g[v]
        layers[v] = d = paired if nbrs & inside else alone
        size = d.bit_count()
        while nbrs:
            low = nbrs & -nbrs
            heard[low.bit_length() - 1] += size
            nbrs ^= low
    lo_in, hi_in, lo_out, hi_out = kind.bounds()
    for v, d in enumerate(layers):
        s = heard[v]
        if not d:
            if adj_h and (s < lo_out or hi_out is not None and s > hi_out):
                return None
            continue
        for x, nbrs in enumerate(adj_h):
            sn = s + (nbrs & d).bit_count()
            if d >> x & 1:
                if sn < lo_in or hi_in is not None and sn > hi_in:
                    return None
            elif sn < lo_out or hi_out is not None and sn > hi_out:
                return None
    return layers


def _finish(g: Graph, h: Graph, kind: SetKind, plan: tuple | None,
            matched: int | str | None, gamma: int | None) -> ProductAnalysis:
    """The planned witness as product ids ``g * n_h + x``, if it passes the
    layer-count check; no plan means no set.  A plan that fails is reported,
    not repaired: the predicted membership and value stand and the witness is None."""
    layers = None if plan is None else _layer_masks(g, h, kind, *plan)
    if layers is None:
        return ProductAnalysis(plan is not None, matched, gamma, None, None)
    n_h = h.n
    witness: list[int] = []
    for v, d in enumerate(layers):
        if d:
            witness += [v * n_h + x for x in mask_to_ids(d)]
    profile = tuple([d.bit_count() for d in layers])
    return ProductAnalysis(True, matched, gamma, tuple(witness), profile)


def _identity_plan(g: Graph, h: Graph, kind: SetKind,
                   force: bool) -> tuple[int | None, tuple | None]:
    """Minimum size and layer plan of a ``kind``-set of G o H when a factor is
    a single vertex, so the product is a copy of the other factor."""
    if g.n == 1:
        r = min_set(h, kind, force=force)
        plan = ((0,), r.witness) if r.exists else None
    else:
        r = min_set(g, kind, force=force)
        plan = (r.witness, (0,)) if r.exists else None
    return r.gamma, plan


# -- membership characterizations ---------------------------------------------


def _characterize(g: Graph, h: Graph, k: int, target: Callable[[int], SetKind],
                  plans: Callable[..., Iterator[tuple[int, tuple]]],
                  force: bool) -> ProductAnalysis:
    """Membership of a ``target(k)``-set in G o H: condition 1 is a trivial G
    with H admitting one, and otherwise the first plan ``plans`` yields wins."""
    check_k(k)
    _require_factors(g, h)
    kind = target(k)
    if g.n == 1:
        _, plan = _identity_plan(g, h, kind, force)
        return _finish(g, h, kind, plan, 1 if plan else None, None)
    for condition, plan in plans(g, h, k, force):
        return _finish(g, h, kind, plan, condition, None)
    return ProductAnalysis(False, None, None, None, None)


def _total_plans(g: Graph, h: Graph, k: int, force: bool) -> Iterator[tuple[int, tuple]]:
    """Plans (condition, plan) of a total [1,k]-set of G o H for conditions
    2-4 of ``characterize_total``, solved lazily in that order."""
    iso = h.isolated_vertices()
    g_kind = total_one_k(k) if iso else j_dependent_total_one_k(k - 1, k)
    r = min_set(g, g_kind, force=force)
    if r.exists:
        yield 2, (r.witness, (iso[0] if iso else 0,))
    # The lex-smallest minimum set is the same at every limit >= gamma, so
    # the floor(k/2) threshold reads this one solve.
    h_total = min_set(h, total_one_k(k), limit=k, force=force)
    if not h_total.exists:
        return
    t = h_total.witness
    r_eff = min_set(g, efficient(), force=force)
    if r_eff.exists:
        yield 3, (r_eff.witness, t)
    sd = first_sd_set(g, k - 1, k, force=force)
    if sd is not None:
        yield 4, (sd, t[:1], t[1:])
    if h_total.gamma <= k // 2:
        r_dep = min_set(g, j_dependent_one_k(k - 1, k), force=force)
        if r_dep.exists:
            yield 4, (r_dep.witness, t[:1], t[1:])


def characterize_total(g: Graph, h: Graph, k: int = 2, *, force: bool = False) -> ProductAnalysis:
    """Decide whether G o H has a total [1,k]-set, from factor structure alone.

    Conditions are tried in order: (1) trivial G with H admitting a total
    [1,k]-set; (2) a total [1,k]-set of G whose members stay below bound k
    unless H has an isolated vertex; (3) an efficient dominating set of G
    with a small total [1,k]-set in H; (4) a (k-1)-dependent [1,k]-set of G,
    with the H threshold k for scattered sets and floor(k/2) otherwise.
    """
    return _characterize(g, h, k, total_one_k, _total_plans, force)


def _independent_plans(g: Graph, h: Graph, k: int, force: bool) -> Iterator[tuple[int, tuple]]:
    """Plans (condition, plan) of an independent [1,k]-set of G o H, solved
    lazily.  Each member layer carries the first minimum independent
    [1,k]-set D of H: (2) over an efficient dominating set of G; (3) when
    |D| <= floor(k/2), over an independent [1, floor(k/|D|)]-set of G, as a
    non-member layer hears |D| per member G-neighbor."""
    # as in _total_plans, one solve serves both H thresholds
    r_h = min_set(h, independent_one_k(k), limit=k, force=force)
    if not r_h.exists:
        return
    r_eff = min_set(g, efficient(), force=force)
    if r_eff.exists:
        yield 2, (r_eff.witness, r_h.witness)
    if r_h.gamma <= k // 2:
        r_g = min_set(g, independent_one_k(k // r_h.gamma), force=force)
        if r_g.exists:
            yield 3, (r_g.witness, r_h.witness)


def characterize_independent(g: Graph, h: Graph, k: int = 2, *,
                             force: bool = False) -> ProductAnalysis:
    """Decide whether G o H has an independent [1,k]-set, from factor structure.

    Conditions in order: (1) trivial G with H admitting one; then, with an
    independent [1,k]-set D of H of size <= k in every member layer, (2) an
    efficient dominating set of G, or (3) an independent
    [1, floor(k/|D|)]-set of G when |D| <= floor(k/2).
    """
    return _characterize(g, h, k, independent_one_k, _independent_plans, force)


# characterization -> (its function, the set kind whose existence it decides, given k)
CHARACTERIZATIONS = {
    "total": (characterize_total, total_one_k),
    "independent": (characterize_independent, independent_one_k),
}


# -- minimum-size formulas ------------------------------------------------------


def oracle_kind(kind: str, k: int = 2) -> SetKind:
    """The set kind a product-gamma prediction is measured against."""
    if kind not in _PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    oracle, _, _ = _PRODUCT_KINDS[kind]
    return oracle(k)


def product_gamma(g: Graph, h: Graph, kind: str, k: int = 2, *,
                  force: bool = False) -> ProductAnalysis:
    """Minimum size of the requested set type on G o H, from factor solves.

    Overlapping subcases are all evaluated and the smallest prediction wins;
    ``matched_condition`` records the winning subcase.  Nonexistence is
    reported with ``membership=False`` and no value.
    """
    check_k(k, kind)
    _require_factors(g, h)
    oracle, _, cases = _PRODUCT_KINDS[kind]
    target = oracle(k)

    if g.n == 1 or h.n == 1:
        gamma, plan = _identity_plan(g, h, target, force)
        label = "identity" if plan else "identity_nonexistent"
        return _finish(g, h, target, plan, label, gamma)

    candidates, none_label = cases(g, h, k, force)
    if not candidates:
        return ProductAnalysis(False, none_label, None, None, None)
    value, label, plan = min(candidates, key=lambda item: item[0])
    return _finish(g, h, target, plan, label, value)


def _total_cases(g: Graph, h: Graph, k: int, force: bool) -> tuple[list, str | None]:
    r_gt = min_set(g, total_dominating(), force=force)
    candidates = []
    if r_gt.exists:
        candidates.append((r_gt.gamma, "total_set_of_g", (r_gt.witness, (0,))))
    return candidates, "no_total_set_in_g"


def _plain_cases(g: Graph, h: Graph, k: int, force: bool) -> tuple[list, str | None]:
    # the total-set subcase comes second, so a dominated layer wins a tie
    candidates = []
    one_dominator = min_set(h, dominating(), limit=1, force=force)
    if one_dominator.exists:
        r_g = min_set(g, dominating(), force=force)
        candidates.append((r_g.gamma, "dominated_layer", (r_g.witness, one_dominator.witness)))
    return candidates + _total_cases(g, h, k, force)[0], None


def _one_2_cases(g: Graph, h: Graph, k: int, force: bool) -> tuple[list, str | None]:
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
            sd = min_sd_size_plus_alpha(g, 2, 2, force=force)
            if sd is not None:
                value, members = sd
                # the isolated vertex sits in every [1,2]-set of H
                u_star = next(u for u in pair_h if u in set(iso))
                u_bullet = next(u for u in pair_h if u != u_star)
                candidates.append((value, "case1b", (members, (u_star,), (u_bullet,))))
        candidates.append((g.n * h.n, "case1c", full))
        return candidates, None
    if r_h.gamma == 1:
        r_dep = min_set(g, j_dependent_one_k(1, 2), force=force)
        if r_dep.exists:
            candidates.append((r_dep.gamma, "case2a", (r_dep.witness, pair_h)))
    r_dept = min_set(g, j_dependent_total_one_k(1, 2), force=force)
    if r_dept.exists:
        candidates.append((r_dept.gamma, "case2b", (r_dept.witness, (0,))))
    if r_h.gamma == 2:
        sd = min_sd_size_plus_alpha(g, 1, 2, force=force)
        if sd is not None:
            value, members = sd
            candidates.append((value, "case2c", (members, pair_h[:1], pair_h[1:])))
    candidates.append((g.n * h.n, "case2d", full))
    return candidates, None


def _total_one_2_cases(g: Graph, h: Graph, k: int, force: bool) -> tuple[list, str | None]:
    candidates: list[tuple[int, str, tuple]] = []
    iso = h.isolated_vertices()
    if iso:
        r_gt = min_set(g, total_one_k(2), force=force)
        if r_gt.exists:
            candidates.append((r_gt.gamma, "case1a", (r_gt.witness, (iso[0],))))
        return candidates, "case1b_nonexistent"
    r_dept = min_set(g, j_dependent_total_one_k(1, 2), force=force)
    if r_dept.exists:
        candidates.append((r_dept.gamma, "case2a", (r_dept.witness, (0,))))
    # The layer of a lonely member (no in-set G-neighbor) alone dominates that
    # layer, so it is a total [1,2]-set of H; the two vertices the value counts
    # for it must be an edge of H that dominates H, whatever gamma_[1,2](H) is.
    pair = min_set(h, total_one_k(2), limit=2, force=force)
    if pair.exists:
        sd = min_sd_size_plus_alpha(g, 1, 2, force=force)
        if sd is not None:
            value, members = sd
            candidates.append((value, "case2b", (members, pair.witness[:1], pair.witness[1:])))
    return candidates, "case2c_nonexistent"


def _independent_cases(g: Graph, h: Graph, k: int, force: bool) -> tuple[list, str | None]:
    labels = {2: "case_a_efficient", 3: "case_b_independent"}
    candidates = [(len(members) * len(layer), labels[condition], (members, layer))
                  for condition, (members, layer) in _independent_plans(g, h, k, force)]
    return candidates, "case_c_nonexistent"


# kind -> (oracle kind given k, the one k it is defined for or None for every
# k >= 2, subcases giving the candidates (value, label, layer plan) and the
# label that reports that none applies)
_PRODUCT_KINDS = {
    "plain": (lambda k: dominating(), None, _plain_cases),
    "total": (lambda k: total_dominating(), None, _total_cases),
    "one_2": (lambda k: one_k(2), 2, _one_2_cases),
    "total_one_2": (lambda k: total_one_k(2), 2, _total_one_2_cases),
    "i_one_2": (lambda k: independent_one_k(2), 2, _independent_cases),
    "i_one_k": (independent_one_k, None, _independent_cases),
}

PRODUCT_GAMMA_KINDS = tuple(_PRODUCT_KINDS)


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
                          force: bool = False) -> DiscrepancyReport:
    """Compare a product-gamma prediction with the explicit-product oracle.

    Never asserts: the report carries both values, both witnesses, and the
    agreement flag for the caller to judge.  Unless ``force``, which reaches
    every factor solve, an over-cap product is refused before the prediction
    runs.  The oracle takes the predicted value as its ``guess`` (n + 1 when
    no set is predicted), which changes its search effort but never its answer.
    """
    check_cap(g.n * h.n, force)
    analysis = product_gamma(g, h, kind, k, force=force)
    product, idx = lex_product(g, h)
    guess = product.n + 1 if analysis.predicted_gamma is None else analysis.predicted_gamma
    r = min_set(product, oracle_kind(kind, k), guess=guess, force=force)
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
                                     force: bool = False) -> DiscrepancyReport:
    """Compare a membership characterization with oracle existence on the
    product; the cap and ``force`` act as in ``verify_against_oracle``."""
    check_cap(g.n * h.n, force)
    if which not in CHARACTERIZATIONS:
        raise ValueError(f"unknown characterization {which!r}")
    characterize, target = CHARACTERIZATIONS[which]
    # called by its module name, as every other call here is, so that a
    # wrapper put on the module (a tracer, a test's monkeypatch) sees it
    analysis = globals()[characterize.__name__](g, h, k, force=force)
    product, _ = lex_product(g, h)
    found = exists_set(product, target(k), force=force)
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
