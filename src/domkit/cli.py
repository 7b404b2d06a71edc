"""Command-line front end.

JSON goes to stdout (``--pretty`` switches to a readable table), diagnostics
to stderr.  Exit codes: 0 success, 1 bad input file, 2 oracle disagreement
under ``--compare-oracle``, 3 solver cap exceeded, 64 invalid command line.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

from .domsets import SetKind, base_parameters
from .graphs import (
    Graph,
    build_standard,
    edge_list_text,
    format_edge_list,
    lex_product,
    load_graph,
    write_outputs,
)
from .lex_theory import (
    CHARACTERIZATIONS,
    check_k,
    product_gamma,
    verify_against_oracle,
    verify_membership_against_oracle,
)
from .npc import X3CInstance, check_gadget_cap, decide_x3c, gadget_layout, x3c_from_json
from .solvers import (
    GraphTooLargeError,
    check_cap,
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


def _load(path: str, force: bool) -> Graph:
    """``load_graph``; unless ``force``, the header meets the cap before any allocation."""
    return load_graph(path, max_n=None if force else resolve_cap())


def _load_instance(path: str) -> X3CInstance:
    """The instance at ``path``, its bytes decoded once; line ends read as in
    text mode, so a JSON error names the same line and column."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return x3c_from_json(text)


def _cmd_gen(args) -> int:
    check_cap(args.n, args.force)  # before build_standard: complete 2000 has 2 million edges
    graph = build_standard(args.family, args.n)
    write_outputs([(args.output, format_edge_list(graph))])
    if args.output:
        print(f"wrote {args.output} ({graph.n} vertices, {graph.num_edges} edges)",
              file=sys.stderr)
    return EXIT_OK


def _cmd_product(args) -> int:
    product, idx = lex_product(_load(args.g, args.force), _load(args.h, args.force))
    outputs = [(args.output, format_edge_list(product))]
    if args.layer_map:
        layer_map = {
            "n_g": idx.n_g,
            "n_h": idx.n_h,
            "h_layers": {str(gv): list(idx.h_layer(gv)) for gv in range(idx.n_g)},
            "g_layers": {str(hv): list(idx.g_layer(hv)) for hv in range(idx.n_h)},
        }
        outputs.append((args.layer_map, json.dumps(layer_map)))
    write_outputs(outputs)
    if args.output:
        print(f"wrote {args.output} ({product.n} vertices)", file=sys.stderr)
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.limit is not None and args.limit < 0:
        return _usage_error(f"--limit must be non-negative, got {args.limit}")
    graph = _load(args.graph, args.force)
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
    g, h = _load(args.g, args.force), _load(args.h, args.force)
    if kind is not None:
        predict = verify_against_oracle if args.compare_oracle else product_gamma
        result = predict(g, h, kind, args.k, force=args.force)
    elif args.compare_oracle:
        result = verify_membership_against_oracle(g, h, args.which, args.k, force=args.force)
    else:
        result = CHARACTERIZATIONS[args.which][0](g, h, args.k, force=args.force)
    _emit(result.to_dict(), args.pretty)
    return EXIT_DISAGREE if args.compare_oracle and not result.agree else EXIT_OK


def _cmd_reduce(args) -> int:
    inst = _load_instance(args.instance)
    check_gadget_cap(inst, force=args.force)
    edges, meta = gadget_layout(inst)
    outputs = [(args.output, edge_list_text(meta.num_vertices, len(edges), edges))]
    if args.meta:
        outputs.append((args.meta, meta.to_sidecar_json()))
    write_outputs(outputs)
    if args.output:
        print(f"wrote {args.output} ({meta.num_vertices} vertices, budget {meta.budget})",
              file=sys.stderr)
    return EXIT_OK


def _cmd_decide_x3c(args) -> int:
    inst = _load_instance(args.instance)
    payload: dict = {"universe": inst.universe_size, "num_sets": inst.num_sets}
    if args.mode != "via_gadget":
        payload["brute_force"] = decide_x3c(inst, "brute_force", force=args.force)
    if args.mode != "brute_force":
        payload["via_gadget"] = decide_x3c(inst, "via_gadget", force=args.force)
    if args.mode == "both":
        payload["agree"] = payload["brute_force"] == payload["via_gadget"]
    _emit(payload, args.pretty)
    return EXIT_OK


# -- the command table and its parser ---------------------------------------------


class _Option(NamedTuple):
    """An option or, when its one name has no leading dash, a positional.

    ``type`` is ``str`` or ``int`` for a value, a tuple of the values allowed,
    or ``bool`` for a flag, which takes no value and sets True.
    """

    names: tuple[str, ...]
    type: object = str
    default: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.names[-1].lstrip("-").replace("-", "_")


class _Command(NamedTuple):
    handler: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[_Option, ...]
    options: tuple[_Option, ...]


class _UsageError(Exception):
    """A command line that the table rejects (exit 64)."""


_HELP = _Option(("-h", "--help"), bool, False)
_OUTPUT = _Option(("-o", "--output"))
_FORCE = _Option(("--force",), bool, False)
_PRETTY = _Option(("--pretty",), bool, False)
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")

# The parser, the usage lines and the help text all read this one table.
COMMANDS = {
    "gen": _Command(
        _cmd_gen, "write a standard graph as an edge list",
        (_Option(("family",), ("path", "cycle", "complete", "star", "empty")),
         _Option(("n",), int)),
        (_OUTPUT, _FORCE)),
    "product": _Command(
        _cmd_product, "lexicographic product of two edge lists",
        (_Option(("g",)), _Option(("h",))),
        (_OUTPUT, _Option(("--layer-map",)), _FORCE)),
    "solve": _Command(
        _cmd_solve, "exact minimum set of a kind",
        (_Option(("graph",)),),
        (_Option(("--kind",), KIND_TOKENS, required=True), _Option(("--j",), int),
         _Option(("--k",), int), _Option(("--limit",), int), _FORCE, _PRETTY)),
    "closed-form": _Command(
        _cmd_closed_form, "path/cycle closed-form value",
        (_Option(("family",), ("path", "cycle")), _Option(("n",), int)),
        (_Option(("--kind",), tuple(CLOSED_FORM_TOKENS), required=True),
         _Option(("--k",), int, 2), _PRETTY)),
    "theorem": _Command(
        _cmd_theorem, "product theorems, optionally oracle-checked",
        (_Option(("which",), (*CHARACTERIZATIONS, "product-gamma")),
         _Option(("g",)), _Option(("h",))),
        (_Option(("--kind",), tuple(PRODUCT_KIND_TOKENS), "one2"), _Option(("--k",), int, 2),
         _Option(("--compare-oracle",), bool, False), _FORCE, _PRETTY)),
    "reduce": _Command(
        _cmd_reduce, "build the Exact-3-Cover gadget",
        (_Option(("instance",)),),
        (_OUTPUT, _Option(("--meta",)), _FORCE)),
    "decide-x3c": _Command(
        _cmd_decide_x3c, "decide Exact-3-Cover both ways",
        (_Option(("instance",)),),
        (_Option(("--mode",), ("both", "via_gadget", "brute_force"), "both"), _FORCE,
         _PRETTY)),
}


def _metavar(opt: _Option) -> str:
    if isinstance(opt.type, tuple):
        return "{" + ",".join(opt.type) + "}"
    return opt.dest.upper() if opt.names[0][0] == "-" else opt.dest


def _spelled(opt: _Option, name: str) -> str:
    return name if opt.type is bool else f"{name} {_metavar(opt)}"


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: domkit [-h] {" + ",".join(COMMANDS) + "} ..."
    command = COMMANDS[name]
    words = []
    for opt in (_HELP, *command.options):
        word = _spelled(opt, opt.names[0])
        words.append(word if opt.required else f"[{word}]")
    words += [_metavar(opt) for opt in command.positionals]
    return f"usage: domkit {name} " + " ".join(words)


def _note(opt: _Option) -> str:
    if opt is _HELP:
        return "show this help message and exit"
    if opt.required:
        return "required"
    return "" if opt.type is bool or opt.default is None else f"default: {opt.default}"


def _column(left: str, right: str) -> str:
    if len(left) >= 22 and right:
        return f"  {left}\n{'':26}{right}"
    return f"  {left:<22}  {right}".rstrip()


def _help(name: str | None) -> str:
    if name is None:
        lines = [__doc__.strip(), "", "commands:"]
        lines += [_column(cmd, spec.help) for cmd, spec in COMMANDS.items()]
        options: tuple[_Option, ...] = (_HELP,)
    else:
        command = COMMANDS[name]
        lines = [command.help, "", "positional arguments:"]
        lines += [_column(_metavar(opt), "") for opt in command.positionals]
        options = (_HELP, *command.options)
    lines += ["", "options:"]
    lines += [_column(", ".join(_spelled(opt, n) for n in opt.names), _note(opt))
              for opt in options]
    return "\n".join([_usage(name), "", *lines])


def _lookup(options: tuple[_Option, ...], word: str) -> tuple[_Option, str | None] | None:
    """The option that ``word`` names and the value given inside it, or None.

    ``--name=value``, ``-ovalue`` and a unique prefix of a long name all name
    an option; a prefix of two long names is a usage error.
    """
    if word[:1] != "-" or word in ("-", "--"):
        return None
    name, eq, value = word.partition("=")
    given = value if eq else None
    for opt in options:
        if name in opt.names:
            return opt, given
    if word[1] != "-":
        for opt in options:
            if word[:2] in opt.names:
                return opt, word[2:]
        return None
    fits = [(opt, n) for opt in options for n in opt.names if n.startswith(name)]
    if len(fits) > 1:
        names = ", ".join(n for _, n in fits)
        raise _UsageError(f"ambiguous option: {name} could match {names}")
    return (fits[0][0], given) if fits else None


def _reads_as_option(word: str) -> bool:
    """Whether a word that names no option still reads as one, not as a value:
    negative numbers, ``-`` and words with a space are values."""
    return (len(word) > 1 and word[0] == "-" and " " not in word
            and not _NEGATIVE_NUMBER.match(word))


def _convert(opt: _Option, word: str) -> object:
    label = "/".join(opt.names)
    if opt.type is int:
        try:
            return int(word)
        except ValueError:
            raise _UsageError(f"argument {label}: invalid int value: {word!r}") from None
    if isinstance(opt.type, tuple) and word not in opt.type:
        choices = ", ".join(map(repr, opt.type))
        raise _UsageError(f"argument {label}: invalid choice: {word!r} (choose from {choices})")
    return word


def _parse_command(name: str, argv: list[str]) -> SimpleNamespace:
    """Read ``argv`` left to right against the command's table entry.  A value
    that fails its type or choices stops the reading at once; unknown words,
    missing arguments and extra positionals are reported once all is read,
    so ``-h`` anywhere before such a word still prints the help."""
    command = COMMANDS[name]
    options = (_HELP, *command.options)
    values = {opt.dest: opt.default for opt in command.options}
    taken = 0  # positionals filled
    unknown = []
    only_positionals = False  # after "--"
    at = 0
    while at < len(argv):
        word = argv[at]
        at += 1
        found = None
        if not only_positionals:
            if word == "--":
                only_positionals = True
                continue
            found = _lookup(options, word)
        if found is None:
            if taken < len(command.positionals) and (only_positionals
                                                     or not _reads_as_option(word)):
                opt = command.positionals[taken]
                values[opt.dest] = _convert(opt, word)
                taken += 1
            else:
                unknown.append(word)
            continue
        opt, value = found
        if opt.type is bool:
            if value is not None:
                raise _UsageError(
                    f"argument {'/'.join(opt.names)}: ignored explicit argument {value!r}")
            if opt is _HELP:
                print(_help(name))
                raise SystemExit(EXIT_OK)
            values[opt.dest] = True
            continue
        if value is None:
            following = argv[at] if at < len(argv) else "--"
            if following == "--" or _lookup(options, following) or _reads_as_option(following):
                raise _UsageError(f"argument {'/'.join(opt.names)}: expected one argument")
            value = argv[at]
            at += 1
        values[opt.dest] = _convert(opt, value)
    missing = [opt.dest for opt in command.positionals[taken:]]
    missing += ["/".join(opt.names) for opt in command.options
                if opt.required and values[opt.dest] is None]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**values)


def _fail(name: str | None, message: object) -> NoReturn:
    print(_usage(name), file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _parse(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler and arguments for ``argv``; after a help text or a usage
    error it raises ``SystemExit`` with the exit code."""
    at = 0  # before the command, only -h/--help means anything
    while at < len(argv) and _reads_as_option(argv[at]):
        if _lookup((_HELP,), argv[at]) == (_HELP, None):
            print(_help(None))
            raise SystemExit(EXIT_OK)
        at += 1
    if at == len(argv):
        _fail(None, "the following arguments are required: command")
    name = argv[at]
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    try:
        args = _parse_command(name, argv[at + 1:])
    except _UsageError as exc:
        _fail(name, exc)
    if at:
        _fail(None, f"unrecognized arguments: {' '.join(argv[:at])}")
    return COMMANDS[name].handler, args


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        return handler(args)
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
