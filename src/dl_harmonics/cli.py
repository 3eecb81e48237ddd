"""Command-line front end.

Exit codes: 0 = success / all checks passed, 1 = a mathematical check failed,
2 = usage or configuration error.  All output is deterministic JSON (keys
sorted); exact values are "NUM/DEN" strings.  A ``--config FILE`` (or
``--config=FILE``, spelled in full) option on every subcommand supplies
defaults for the flags (explicit flags win).  Every JSON flag is read by
``_decode``; the library decoder of each object checks its shape.  A call
parses with the parser of the subcommand it names (the full parser only
reports usage errors and the top-level help); each parser is built on first
use and kept for the process, so repeated ``main`` calls build none again.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from . import dirichlet as dct
from . import dl_graph as dg
from . import kernels as kn
from . import lamplighter as lp
from . import tree as tr
from . import walks as wk
from .serialize import (
    estimate_to_json,
    frac_str,
    harmonic_from_json,
    parse_frac,
    table_to_json,
)

_J = dict(sort_keys=True)


def _emit(obj) -> None:
    print(json.dumps(obj, **_J))


def _params(args) -> dg.DLParams:
    return dg.DLParams(args.q, args.r)


def _parse_object(text: str) -> dict:
    """The JSON object in ``text``; anything else, malformed or too deep to parse, is a ``ValueError``."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _read_object(path: str) -> dict:
    with open(path) as fh:
        return _parse_object(fh.read())


def _decode(text: str, flag: str, decode):
    """``decode`` the JSON object given to ``flag``: inline JSON (always, when it starts
    with ``{`` or ``[``), or an @file or plain path to a JSON file.  Malformed JSON, a missing
    field (``KeyError``) and any other wrong shape or value (``ValueError``) name ``flag``."""
    text = text.strip()
    try:
        try:
            obj = _read_object(text[1:]) if text.startswith("@") else _parse_object(text)
        except json.JSONDecodeError:
            if text.startswith(("{", "[", "@")):
                raise
            obj = _read_object(text)
        return decode(obj)
    except KeyError as exc:
        raise ValueError(f"{flag}: JSON of the wrong shape ({exc!r})") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _picture(operator: str, params: dg.DLParams):
    """(decoder, encoder, origin factory) of the states of ``operator``."""
    if operator in ("p1", "p2"):
        return tr.vertex_from_json, tr.vertex_to_json, lambda: tr.ROOT
    return dg.vertex_from_json_pair, dg.vertex_to_json_pair, lambda: dg.origin(params)


def _cmd_kernel_eval(args) -> int:
    params = _params(args)
    end = _decode(args.end, "--end", tr.end_from_json)
    x = _decode(args.at, "--at", tr.vertex_from_json)
    alpha = parse_frac(args.alpha)
    value = kn.martin_kernel_tree(args.side, x, end, alpha, params)
    _emit({"value": frac_str(value), "side": args.side, "alpha": frac_str(alpha)})
    return 0


def _cmd_harmonic_check(args) -> int:
    h, params = _decode(args.spec, "--spec", harmonic_from_json)
    alpha = parse_frac(args.alpha) if args.alpha is not None else (
        h.alpha if h.terms else Fraction(1, 2)
    )
    op = wk.operator_from_name(args.operator, params, alpha)
    rng = random.Random(args.seed)
    variant = "dls" if args.operator == "qalpha" else "dl"
    # Each sample makes at most radius moves and then checks one row, each
    # building degree vertices that gain at most grow labels a move.
    degree, grow = _moves(params, variant)
    entries = args.samples * (args.radius + 1) * degree * (1 + grow * (args.radius + 1))
    _check_built_entries("harmonic-check", entries)
    values = args.samples * (degree + 1) * max(1, len(h.terms))  # a kernel value a term, degree + 1 a row
    if (total := entries + _ENTRIES_PER_VALUE * values) > _MAX_BUILT_ENTRIES:
        raise ValueError(f"harmonic-check would build vertices of up to {entries} label entries and evaluate "
                         f"up to {wk._shown(values)} kernel values, worth {wk._shown(total)} entries in all "
                         f"(cap {_MAX_BUILT_ENTRIES})")
    failures = []
    for _ in range(args.samples):
        v = dg.random_vertex(params, rng.randrange(args.radius + 1), rng, variant)
        if not wk.is_harmonic_at(op, h, v):
            failures.append(v)
    out = {
        "checked": args.samples,
        "failures": len(failures),
        "operator": args.operator,
        "alpha": frac_str(alpha),
    }
    if failures:
        v = failures[0]
        out["first_counterexample"] = dg.vertex_to_json_pair(v)
        out["value"] = frac_str(h(v))
        out["applied"] = frac_str(wk.apply(op, h, v))
    _emit(out)
    return 1 if failures else 0


def _cmd_dirichlet_solve(args) -> int:
    params = _params(args)
    alpha = parse_frac(args.alpha)
    dct.check_solve_size(args.n, params)  # the GiB refusal before the vertex cap
    chain = dct.build_truncation(args.n, params, alpha, "dl")
    table = dct.hitting_table(chain)  # reads no vertex
    size, boundary_size = table.nums.shape
    out = {
        "n": args.n,
        "size": size,
        "boundary_size": boundary_size,
        "alpha": frac_str(alpha),
        "row_sums_one": True,  # verified exactly inside hitting_table
    }
    if args.check_product:
        # the table's certificate proves the product formula on every entry
        out["product_checked"] = table.nums.size
        out["product_discrepancies"] = 0
    if args.out:
        text = json.dumps(table_to_json(table), **_J)  # json.dump would take the pure-Python encoder
        with open(args.out, "w") as fh:
            fh.write(text)
        out["written"] = args.out
    _emit(out)
    return 0


def _cmd_decompose(args) -> int:
    h, params = _decode(args.spec, "--spec", harmonic_from_json)
    alpha = h.alpha if h.terms else parse_frac(args.alpha or "1/2")
    if h.terms and args.alpha is not None and parse_frac(args.alpha) != alpha:
        # the kernels of the spec are harmonic for its own alpha only
        raise ValueError(f"--alpha {args.alpha} differs from the spec's alpha {frac_str(alpha)}")
    dec = dct.decompose(h, args.n, params, alpha)
    # decompose raises unless the reconstruction is exact
    out = {"n": dec.n, "alpha": frac_str(dec.alpha), "reconstructed_exactly": True}
    for name in ("h1", "h2", "lambda1", "lambda2"):
        # a vertex is the tuple (level, labels), so vertices sort by level, then labels
        out[name] = [[tr.vertex_to_json(x), frac_str(v)] for x, v in sorted(getattr(dec, name).items())]
    _emit(out)
    return 0


# Most label entries (each vertex counting one more) in all the vertices
# that ``simulate``, ``graph-export`` or ``harmonic-check`` builds, estimated
# before the first is built.  At the cap each command works for 5-20 s on one
# core of a 2-core x86_64 host (the worst case: graph-export of DL(3, 3)).
_MAX_BUILT_ENTRIES = 5 * 10**7
# Entries one kernel value of harmonic-check counts for: 6-9 us each, 12-20 s at the cap.
_ENTRIES_PER_VALUE = 25


def _check_built_entries(command: str, entries: int, at_least: bool = False) -> None:
    if entries > _MAX_BUILT_ENTRIES:
        bound = "more than" if at_least else "up to"
        raise ValueError(f"{command} would build vertices of {bound} {wk._shown(entries)} label entries "
                         f"in all (cap {_MAX_BUILT_ENTRIES})")


def _moves(params: dg.DLParams, variant: str) -> tuple[int, int]:
    """The degree of the ``variant`` graph and the most labels a move adds."""
    q, r = params.q, params.r
    return (q + r, 1) if variant == "dl" else (q * q + q * r, 2)


def _cmd_simulate(args) -> int:
    params = _params(args)
    op = wk.operator_from_name(args.operator, params, parse_frac(args.alpha))
    decode, enc, origin = _picture(args.operator, params)
    start = _decode(args.start, "--start", decode) if args.start else origin()
    # Each step builds the row of its state, one vertex per move; a vertex
    # gains at most one label a step, two on a sibling move.
    n, grow = args.steps, 2 if args.operator == "qalpha" else 1
    coords = (start,) if isinstance(start, tr.TreeVertex) else (start.x1, start.x2)
    first = 1 + sum(len(x.labels) for x in coords)
    _check_built_entries("simulate", len(op._weights) * (n * first + grow * n * (n + 1) // 2))
    traj = wk.simulate(op, start, args.steps, args.seed)
    print(json.dumps(enc(traj.start), **_J))
    for v in traj.steps:
        print(json.dumps(enc(v), **_J))
    return 0


def _cmd_estimate_f(args) -> int:
    params = _params(args)
    op = wk.operator_from_name(args.operator, params, parse_frac(args.alpha))
    decode, _, origin = _picture(args.operator, params)
    x = _decode(getattr(args, "from"), "--from", decode) if getattr(args, "from") else origin()
    y = _decode(args.to, "--to", decode)
    res = wk.estimate_f(
        op, x, y, args.trials, args.horizon, args.seed, args.escape_radius
    )
    _emit(estimate_to_json(res))
    return 0


def _cmd_cayley_check(args) -> int:
    out = lp.cayley_check(args.q, args.support, args.position_range)
    _emit(out)
    return 0 if all(out.values()) else 1  # out["elements"] >= q >= 2


def _cmd_defect(args) -> int:
    q = dg.DLParams(args.q, args.q).q  # rejects q < 2
    a = _decode(args.element, "--element", lambda obj: lp.element_from_json(obj, q))
    xi = _decode(args.boundary, "--boundary", lambda obj: lp.config_from_json(obj, q))
    model = lp.GeneratorModel
    out = {"side": xi.side, "q": q, "kernel_walk_switch": frac_str(kn.defect_kernel(model.WALK_SWITCH, a, xi, q))}
    if xi.side == "+":
        out["defect_plus"] = lp.defect_plus(a, xi)
        out["defect_oplus"] = lp.defect_oplus(a, xi)
        out["kernel_switch_walk_switch"] = frac_str(kn.defect_kernel(model.SWITCH_WALK_SWITCH, a, xi, q))
    else:
        out["defect_minus"] = lp.defect_minus(a, xi)
    _emit(out)
    return 0


def _cmd_graph_export(args) -> int:
    params = _params(args)
    # The ball builds every ball vertex's neighbours and the edge scan those
    # inside radius - 1 again, so at most twice; a vertex gains at most one
    # label a move, two in DLS.  Past the capped radius the ball only grows,
    # so its estimate is a floor.
    radius = min(args.radius, _MAX_BUILT_ENTRIES.bit_length())
    degree, grow = _moves(params, args.variant)
    entries = 2 * degree * dg.ball_size(params, radius, args.variant) * (1 + grow * (radius + 1))
    _check_built_entries("graph-export", entries, at_least=radius < args.radius)
    if args.format == "dot":
        text = dg.export_dot(params, args.radius, args.variant)  # ends in a newline
    else:
        text = json.dumps(dg.export_json(params, args.radius, args.variant), **_J)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if args.format == "dot" else text + "\n")
    return 0


def _size(text: str) -> int:
    """argparse type of a size option: a non-negative integer.  Its digits are
    counted before ``int`` reads them, so one past Python's limit is refused
    by its digit count and the limit, which stays as it is."""
    digits, limit = text.strip().removeprefix("+").replace("_", ""), sys.get_int_max_str_digits()
    if 0 < limit < len(digits) and digits.isdecimal():
        raise argparse.ArgumentTypeError(f"got a {len(digits):,}-digit integer, past the {limit:,}-digit limit on reading one")
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {tr._brief(text)}")
    return n


_Q = ("--q", dict(type=int, default=2))
_R = ("--r", dict(type=int, default=2))
_ALPHA = ("--alpha", dict(default="1/2", help='walk parameter, e.g. "2/3"'))
_SEED = ("--seed", dict(type=int, default=0))
_OPERATORS = ("palpha", "p1", "p2", "qalpha")


def _sized(flag: str, default: int | None) -> tuple:
    return flag, dict(type=_size, default=default)


# name -> (help, handler, options), in the order ``dl-harmonics -h`` lists
# them; ``_add_arguments`` puts ``--config`` in front of every option list.
_COMMANDS = {
    "kernel-eval": ("evaluate a Martin kernel exactly", _cmd_kernel_eval, (
        _Q, _R, _ALPHA, ("--side", dict(type=int, choices=(1, 2), default=1)),
        ("--end", dict(required=True, help="end JSON (inline or @file)")),
        ("--at", dict(required=True, help="tree vertex JSON")),
    )),
    "harmonic-check": ("sample vertices and verify Ph = h", _cmd_harmonic_check, (
        ("--spec", dict(required=True, help="harmonic-function JSON (inline or @file)")),
        ("--operator", dict(default="palpha", choices=("palpha", "qalpha"))),
        ("--alpha", dict(default=None, help="override the operator's walk parameter")),
        _sized("--samples", 100), _sized("--radius", 6), _SEED,
    )),
    "dirichlet-solve": ("exact hitting table on a truncation", _cmd_dirichlet_solve, (
        _Q, _R, _ALPHA, _sized("--n", 1), ("--check-product", dict(action="store_true")),
        ("--out", dict(help="write the full table JSON here")),
    )),
    "decompose": ("split a harmonic function across the two trees", _cmd_decompose, (
        ("--spec", dict(required=True, help="harmonic-function JSON")),
        _sized("--n", 2), ("--alpha", dict(default=None)),
    )),
    "simulate": ("sample an exact trajectory (JSON lines)", _cmd_simulate, (
        _Q, _R, _ALPHA, ("--operator", dict(default="palpha", choices=_OPERATORS)),
        _sized("--steps", 10), _SEED, ("--start", dict(help="start vertex JSON (default: origin)")),
    )),
    "estimate-f": ("Monte-Carlo hitting-probability estimate", _cmd_estimate_f, (
        _Q, _R, _ALPHA, ("--operator", dict(default="p1", choices=_OPERATORS)),
        ("--from", dict(help="start vertex JSON (default: origin)")),
        ("--to", dict(required=True, help="target vertex JSON")),
        _sized("--trials", 1000), _sized("--horizon", 1000), _SEED, _sized("--escape-radius", None),
    )),
    "cayley-check": ("group picture vs. graph picture", _cmd_cayley_check, (
        _Q, _sized("--position-range", 2), _sized("--support", 2),
    )),
    "defect": ("lamp-mismatch counts and boundary kernels", _cmd_defect, (
        _Q, ("--element", dict(required=True, help="group element JSON")),
        ("--boundary", dict(required=True, help="boundary configuration JSON")),
    )),
    "graph-export": ("DOT or JSON adjacency export of a ball", _cmd_graph_export, (
        _Q, _R, _sized("--radius", 2), ("--variant", dict(default="dl", choices=("dl", "dls"))),
        ("--format", dict(default="dot", choices=("dot", "json"))), ("--out", {}),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give ``parser`` the options of subcommand ``name``."""
    _, handler, specs = _COMMANDS[name]
    parser.add_argument("--config", help="JSON file of default values for the flags")
    for flag, kwargs in specs:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=handler)
    return parser


@functools.lru_cache(maxsize=len(_COMMANDS) + 1)
def _parser(name: str | None) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, or with ``None`` the full parser of
    every subcommand; each is built on first use and kept for the process.

    Parsing leaves a parser as it was: every default is immutable, each
    parse fills a fresh ``Namespace``, and help and usage text read
    ``COLUMNS`` when they are formatted."""
    if name is not None:
        return _add_arguments(argparse.ArgumentParser(prog=f"dl-harmonics {name}"), name)
    p = argparse.ArgumentParser(
        prog="dl-harmonics",
        description="Exact harmonic analysis on horocyclic products of trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help), command)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with only its subcommand's parser when it names one.

    Every other case (no, an unknown or a help-only command, or tokens the
    subcommand leaves over) goes to the full parser, which reports it with
    the top-level usage, exactly as if it had parsed from the start.
    """
    if argv and argv[0] in _COMMANDS:
        args, rest = _parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return args
    return _parser(None).parse_args(argv)


def _apply_config(argv: list[str]) -> list[str]:
    """Turn ``--config FILE`` or ``--config=FILE`` into injected default
    tokens (flags still win)."""
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                return argv  # let argparse report the missing value
            path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
            break
        if token.startswith("--config="):
            path, rest = token[len("--config=") :], argv[:i] + argv[i + 1 :]
            break
    else:
        return argv
    cfg = _read_object(path)
    injected: list[str] = []
    for key, val in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool):
            if val:
                injected.append(flag)
        else:
            injected.extend([flag, json.dumps(val) if isinstance(val, (dict, list)) else str(val)])
    if not rest:
        return injected
    return [rest[0]] + injected + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, too deep, or not an object
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    args = _parse(argv)
    if args.config is not None:
        # _apply_config took out every full spelling, so argparse matched an
        # abbreviation such as --conf, whose file nothing would read.
        print("error: spell the option in full: --config FILE or --config=FILE", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except AssertionError as exc:
        # an exact verification inside the library failed
        _emit({"error": str(exc)})
        return 1
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
