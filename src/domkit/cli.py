"""Command-line front end.

JSON goes to stdout (``--pretty`` switches to a readable table), diagnostics
to stderr.  Exit codes: 0 success, 1 bad input file, 2 oracle disagreement
under ``--compare-oracle``, 3 solver cap exceeded, 64 invalid command line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .domsets import SetKind, base_parameters
from .graphs import (
    build_standard,
    fill_output,
    format_edge_list,
    lex_product,
    load_graph,
    open_output,
)
from .lex_theory import (
    characterize_independent,
    characterize_total,
    check_k,
    product_gamma,
    verify_against_oracle,
    verify_membership_against_oracle,
)
from .npc import build_gadget, check_gadget_cap, decide_x3c, x3c_from_json
from .solvers import (
    GraphTooLargeError,
    check_closed_form_k,
    closed_form,
    min_set,
    resolve_cap,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DISAGREE = 2
EXIT_CAP = 3
EXIT_USAGE = 64

# token -> set-kind base
_KINDS = {
    "dom": "dominating",
    "total": "total_dominating",
    "1k": "one_k",
    "t1k": "total_one_k",
    "i1k": "independent_one_k",
    "jd1k": "j_dependent_one_k",
    "jdt1k": "j_dependent_total_one_k",
    "eff": "efficient",
    "oeff": "open_efficient",
}

KIND_TOKENS = tuple(_KINDS)

PRODUCT_KIND_TOKENS = {
    "plain": "plain",
    "total": "total",
    "one2": "one_2",
    "t-one2": "total_one_2",
    "i-one2": "i_one_2",
    "i-one-k": "i_one_k",
}

CLOSED_FORM_TOKENS = {"t1k": "t1k", "1k": "one_k", "i1k": "i1k"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_kind(token: str, j: int | None, k: int | None) -> SetKind:
    base = _KINDS[token]
    takes = base_parameters(base)
    given = {"j": j, "k": k}
    for flag in ("k", "j"):
        if flag in takes and given[flag] is None:
            raise SystemExit(_usage_error(f"--{flag} is required for kind {token}"))
    return _or_usage_error(SetKind, base, **{p: given[p] for p in takes})


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _or_usage_error(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ``ValueError`` turned into exit 64."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(_usage_error(str(exc))) from None


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        width = max(len(key) for key in payload)
        for key, value in payload.items():
            print(f"{key.ljust(width)}  {value}")
    else:
        print(json.dumps(payload))


def _write_outputs(outputs: list[tuple[str | None, str]]) -> None:
    """Write each text to its path, or to stdout where the path is empty.  All
    paths are opened first, so one that fails to open leaves every output
    unwritten and removes the files the earlier opens created."""
    missing = [path for path, _ in outputs if path and not os.path.lexists(path)]
    fds: list[int | None] = []
    try:
        try:
            for path, _ in outputs:
                fds.append(open_output(path) if path else None)
        except OSError:
            for path in filter(os.path.lexists, missing):  # skips the unopened ones
                os.unlink(path)
            raise
        for fd, (_, text) in zip(fds, outputs):
            if fd is None:
                sys.stdout.write(text)
            else:
                fill_output(fd, text)
    finally:
        for fd in fds:
            if fd is not None:
                os.close(fd)


def _cmd_gen(args) -> int:
    graph = build_standard(args.family, args.n)
    _write_outputs([(args.output, format_edge_list(graph))])
    if args.output:
        print(f"wrote {args.output} ({graph.n} vertices, {graph.num_edges} edges)",
              file=sys.stderr)
    return EXIT_OK


def _cmd_product(args) -> int:
    cap = None if args.force else resolve_cap()
    g = load_graph(args.g, max_n=cap)
    h = load_graph(args.h, max_n=cap)
    product, idx = lex_product(g, h)
    outputs = [(args.output, format_edge_list(product))]
    if args.layer_map:
        layer_map = {
            "n_g": idx.n_g,
            "n_h": idx.n_h,
            "h_layers": {str(gv): list(idx.h_layer(gv)) for gv in range(idx.n_g)},
            "g_layers": {str(hv): list(idx.g_layer(hv)) for hv in range(idx.n_h)},
        }
        outputs.append((args.layer_map, json.dumps(layer_map)))
    _write_outputs(outputs)
    if args.output:
        print(f"wrote {args.output} ({product.n} vertices)", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.limit is not None and args.limit < 0:
        return _usage_error(f"--limit must be non-negative, got {args.limit}")
    # the header is checked against the cap before a graph of its size is built
    graph = load_graph(args.graph, max_n=None if args.force else resolve_cap())
    kind = _build_kind(args.kind, args.j, args.k)
    result = min_set(graph, kind, limit=args.limit, force=args.force)
    _emit(result.to_dict(), args.pretty)
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    _or_usage_error(check_closed_form_k, args.k)
    value = closed_form(args.family, args.n, CLOSED_FORM_TOKENS[args.kind], args.k)
    _emit({"family": args.family, "n": args.n, "kind": args.kind,
           "k": args.k, "value": value}, args.pretty)
    return EXIT_OK


def _cmd_theorem(args) -> int:
    kind = PRODUCT_KIND_TOKENS[args.kind] if args.which == "product-gamma" else None
    _or_usage_error(check_k, args.k, kind)
    cap = None if args.force else resolve_cap()
    g = load_graph(args.g, max_n=cap)
    h = load_graph(args.h, max_n=cap)
    if kind is not None:
        if args.compare_oracle:
            result = verify_against_oracle(g, h, kind, args.k, force=args.force)
        else:
            result = product_gamma(g, h, kind, args.k, force=args.force)
    elif args.compare_oracle:
        result = verify_membership_against_oracle(g, h, args.which, args.k, force=args.force)
    else:
        fn = characterize_total if args.which == "total" else characterize_independent
        result = fn(g, h, args.k, force=args.force)
    _emit(result.to_dict(), args.pretty)
    return EXIT_DISAGREE if args.compare_oracle and not result.agree else EXIT_OK


def _cmd_reduce(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = x3c_from_json(fh.read())
    check_gadget_cap(inst, force=args.force)
    graph, meta = build_gadget(inst)
    outputs = [(args.output, format_edge_list(graph))]
    if args.meta:
        outputs.append((args.meta, meta.to_sidecar_json()))
    _write_outputs(outputs)
    if args.output:
        print(f"wrote {args.output} ({graph.n} vertices, budget {meta.budget})",
              file=sys.stderr)
    return EXIT_OK


def _cmd_decide_x3c(args) -> int:
    with open(args.instance, "r", encoding="utf-8") as fh:
        inst = x3c_from_json(fh.read())
    payload: dict = {"universe": inst.universe_size, "num_sets": inst.num_sets}
    if args.mode != "brute_force":
        # first, so that the gadget's cap check runs before the 2^t brute force
        via = decide_x3c(inst, "via_gadget", force=args.force)
    if args.mode != "via_gadget":
        payload["brute_force"] = decide_x3c(inst, "brute_force")
    if args.mode != "brute_force":
        payload["via_gadget"] = via
    if args.mode == "both":
        payload["agree"] = payload["brute_force"] == payload["via_gadget"]
    _emit(payload, args.pretty)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and reused for every later call.

    Handlers and ``_Parser.error`` look up ``sys.stdout``/``sys.stderr`` when
    they run, so a reused parser writes wherever the streams point now.
    """
    parser = _Parser(prog="domkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a standard graph as an edge list")
    p_gen.add_argument("family", choices=("path", "cycle", "complete", "star", "empty"))
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(fn=_cmd_gen)

    p_prod = sub.add_parser("product", help="lexicographic product of two edge lists")
    p_prod.add_argument("g")
    p_prod.add_argument("h")
    p_prod.add_argument("-o", "--output")
    p_prod.add_argument("--layer-map")
    p_prod.add_argument("--force", action="store_true")
    p_prod.set_defaults(fn=_cmd_product)

    p_solve = sub.add_parser("solve", help="exact minimum set of a kind")
    p_solve.add_argument("graph")
    p_solve.add_argument("--kind", choices=KIND_TOKENS, required=True)
    p_solve.add_argument("--j", type=int)
    p_solve.add_argument("--k", type=int)
    p_solve.add_argument("--limit", type=int)
    p_solve.add_argument("--force", action="store_true")
    p_solve.add_argument("--pretty", action="store_true")
    p_solve.set_defaults(fn=_cmd_solve)

    p_cf = sub.add_parser("closed-form", help="path/cycle closed-form value")
    p_cf.add_argument("family", choices=("path", "cycle"))
    p_cf.add_argument("n", type=int)
    p_cf.add_argument("--kind", choices=tuple(CLOSED_FORM_TOKENS), required=True)
    p_cf.add_argument("--k", type=int, default=2)
    p_cf.add_argument("--pretty", action="store_true")
    p_cf.set_defaults(fn=_cmd_closed_form)

    p_thm = sub.add_parser("theorem", help="product theorems, optionally oracle-checked")
    p_thm.add_argument("which", choices=("total", "independent", "product-gamma"))
    p_thm.add_argument("g")
    p_thm.add_argument("h")
    p_thm.add_argument("--kind", choices=tuple(PRODUCT_KIND_TOKENS), default="one2")
    p_thm.add_argument("--k", type=int, default=2)
    p_thm.add_argument("--compare-oracle", action="store_true")
    p_thm.add_argument("--force", action="store_true")
    p_thm.add_argument("--pretty", action="store_true")
    p_thm.set_defaults(fn=_cmd_theorem)

    p_red = sub.add_parser("reduce", help="build the Exact-3-Cover gadget")
    p_red.add_argument("instance")
    p_red.add_argument("-o", "--output")
    p_red.add_argument("--meta")
    p_red.add_argument("--force", action="store_true")
    p_red.set_defaults(fn=_cmd_reduce)

    p_dec = sub.add_parser("decide-x3c", help="decide Exact-3-Cover both ways")
    p_dec.add_argument("instance")
    p_dec.add_argument("--mode", choices=("both", "via_gadget", "brute_force"),
                       default="both")
    p_dec.add_argument("--force", action="store_true")
    p_dec.add_argument("--pretty", action="store_true")
    p_dec.set_defaults(fn=_cmd_decide_x3c)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except GraphTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
