"""Command-line front end.

Exit codes: 0 = success / all checks passed, 1 = a mathematical check failed,
2 = usage or configuration error.  All output is deterministic JSON (keys
sorted); exact values are "NUM/DEN" strings.  A ``--config FILE`` option on
every subcommand supplies defaults for the flags (explicit flags win).
"""

from __future__ import annotations

import argparse
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


def _frac(s) -> Fraction:
    return parse_frac(s)


def _size(text: str) -> int:
    """argparse type of a size option: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _params(args) -> dg.DLParams:
    return dg.DLParams(args.q, args.r)


def _load_json_arg(text: str):
    """Inline JSON, or @file / plain path to a JSON file."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        with open(text) as fh:
            return json.load(fh)


def _cmd_kernel_eval(args) -> int:
    params = _params(args)
    end = tr.end_from_json(_load_json_arg(args.end))
    x = tr.vertex_from_json(_load_json_arg(args.at))
    branch = params.q if args.side == 1 else params.r
    tr.check_labels(end, branch)
    tr.check_labels(x, branch)
    value = kn.martin_kernel_tree(args.side, x, end, _frac(args.alpha), params)
    _emit({"value": frac_str(value), "side": args.side, "alpha": frac_str(_frac(args.alpha))})
    return 0


def _cmd_harmonic_check(args) -> int:
    spec = _load_json_arg(args.spec)
    h, params = harmonic_from_json(spec)
    alpha = _frac(args.alpha) if args.alpha is not None else (
        h.alpha if h.terms else Fraction(1, 2)
    )
    op = wk.operator_from_name(args.operator, params, alpha)
    rng = random.Random(args.seed)
    variant = "dls" if args.operator == "qalpha" else "dl"
    failures = []
    checked = 0
    for _ in range(args.samples):
        v = dg.random_vertex(params, rng.randrange(args.radius + 1), rng, variant)
        checked += 1
        if not wk.is_harmonic_at(op, h, v):
            failures.append(v)
    out = {
        "checked": checked,
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
    alpha = _frac(args.alpha)
    chain = dct.build_truncation(args.n, params, alpha, "dl")
    out = {
        "n": args.n,
        "size": len(chain.vertices),
        "boundary_size": len(chain.boundary),
        "alpha": frac_str(alpha),
    }
    code = 0
    table = dct.hitting_table(chain)
    out["row_sums_one"] = True  # verified exactly inside hitting_table
    if args.check_product:
        report = dct.verify_product_formula(chain, table=table)
        out["product_checked"] = report.checked
        out["product_discrepancies"] = len(report.discrepancies)
        if report.discrepancies:
            code = 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(table_to_json(table), fh, **_J)
        out["written"] = args.out
    _emit(out)
    return code


def _cmd_decompose(args) -> int:
    spec = _load_json_arg(args.spec)
    h, params = harmonic_from_json(spec)
    alpha = h.alpha if h.terms else _frac(args.alpha or "1/2")
    dec = dct.decompose(h, args.n, params, alpha)
    out = {
        "n": dec.n,
        "alpha": frac_str(dec.alpha),
        "h1": [[tr.vertex_to_json(x), frac_str(v)] for x, v in sorted(dec.h1.items(), key=lambda kv: (kv[0].level, kv[0].labels))],
        "h2": [[tr.vertex_to_json(x), frac_str(v)] for x, v in sorted(dec.h2.items(), key=lambda kv: (kv[0].level, kv[0].labels))],
        "lambda1": [[tr.vertex_to_json(x), frac_str(v)] for x, v in sorted(dec.lambda1.items(), key=lambda kv: (kv[0].level, kv[0].labels))],
        "lambda2": [[tr.vertex_to_json(x), frac_str(v)] for x, v in sorted(dec.lambda2.items(), key=lambda kv: (kv[0].level, kv[0].labels))],
        "reconstructed_exactly": True,  # decompose raises otherwise
    }
    _emit(out)
    return 0


def _cmd_simulate(args) -> int:
    params = _params(args)
    op = wk.operator_from_name(args.operator, params, _frac(args.alpha))
    if args.operator in ("p1", "p2"):
        start = tr.vertex_from_json(_load_json_arg(args.start)) if args.start else tr.ROOT
        enc = tr.vertex_to_json
    else:
        start = (
            dg.vertex_from_json_pair(_load_json_arg(args.start))
            if args.start
            else dg.origin(params)
        )
        enc = dg.vertex_to_json_pair
    traj = wk.simulate(op, start, args.steps, args.seed)
    print(json.dumps(enc(traj.start), **_J))
    for v in traj.steps:
        print(json.dumps(enc(v), **_J))
    return 0


def _cmd_estimate_f(args) -> int:
    params = _params(args)
    op = wk.operator_from_name(args.operator, params, _frac(args.alpha))
    if args.operator in ("p1", "p2"):
        x = tr.vertex_from_json(_load_json_arg(getattr(args, "from"))) if getattr(args, "from") else tr.ROOT
        y = tr.vertex_from_json(_load_json_arg(args.to))
    else:
        x = dg.vertex_from_json_pair(_load_json_arg(getattr(args, "from"))) if getattr(args, "from") else dg.origin(params)
        y = dg.vertex_from_json_pair(_load_json_arg(args.to))
    res = wk.estimate_f(
        op, x, y, args.trials, args.horizon, args.seed, args.escape_radius
    )
    _emit(estimate_to_json(res))
    return 0


def _cmd_cayley_check(args) -> int:
    q = args.q
    params = dg.DLParams(q, q)
    span = range(-args.support, args.support + 1)
    lamp_words = [[]]
    for n in span:
        lamp_words = [w + [(n, v)] for w in lamp_words for v in range(q)]
    elements = [
        lp.GroupElement.make(dict(w), k, q)
        for w in lamp_words
        for k in range(-args.position_range, args.position_range + 1)
    ]
    encoded = [lp.encode(a) for a in elements]
    bijective = len(set(encoded)) == len(elements) and all(
        lp.decode(v) == a for a, v in zip(elements, encoded)
    )
    ws_ok = sws_ok = True
    for a, v in zip(elements, encoded):
        ws = {lp.encode(b) for b in lp.cayley_neighbours(a, lp.GeneratorModel.WALK_SWITCH, q)}
        if ws != set(dg.dl_neighbours(v, params)):
            ws_ok = False
        sws = {
            lp.encode(b)
            for b in lp.cayley_neighbours(a, lp.GeneratorModel.SWITCH_WALK_SWITCH, q)
        }
        if sws != set(dg.dls_neighbours(v, params)):
            sws_ok = False
    out = {
        "elements": len(elements),
        "bijective": bijective,
        "walk_switch_matches_dl": ws_ok,
        "switch_walk_switch_matches_dls": sws_ok,
    }
    _emit(out)
    return 0 if bijective and ws_ok and sws_ok else 1


def _cmd_defect(args) -> int:
    a = lp.element_from_json(_load_json_arg(args.element))
    xi = lp.config_from_json(_load_json_arg(args.boundary))
    q = args.q
    out = {"side": xi.side, "q": q}
    if xi.side == "+":
        out["defect_plus"] = lp.defect_plus(a, xi)
        out["defect_oplus"] = lp.defect_oplus(a, xi)
        out["kernel_walk_switch"] = frac_str(
            kn.defect_kernel(lp.GeneratorModel.WALK_SWITCH, a, xi, q)
        )
        out["kernel_switch_walk_switch"] = frac_str(
            kn.defect_kernel(lp.GeneratorModel.SWITCH_WALK_SWITCH, a, xi, q)
        )
    else:
        out["defect_minus"] = lp.defect_minus(a, xi)
        out["kernel_walk_switch"] = frac_str(
            kn.defect_kernel(lp.GeneratorModel.WALK_SWITCH, a, xi, q)
        )
    _emit(out)
    return 0


def _cmd_graph_export(args) -> int:
    params = _params(args)
    if args.format == "dot":
        text = dg.export_dot(params, args.radius, args.variant)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        obj = dg.export_json(params, args.radius, args.variant)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(obj, fh, **_J)
        else:
            _emit(obj)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dl-harmonics",
        description="Exact harmonic analysis on horocyclic products of trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, q=True, r=True, alpha=True):
        sp.add_argument("--config", help="JSON file of default values for the flags")
        if q:
            sp.add_argument("--q", type=int, default=2)
        if r:
            sp.add_argument("--r", type=int, default=2)
        if alpha:
            sp.add_argument("--alpha", default="1/2", help='walk parameter, e.g. "2/3"')

    sp = sub.add_parser("kernel-eval", help="evaluate a Martin kernel exactly")
    common(sp)
    sp.add_argument("--side", type=int, choices=(1, 2), default=1)
    sp.add_argument("--end", required=True, help="end JSON (inline or @file)")
    sp.add_argument("--at", required=True, help="tree vertex JSON")
    sp.set_defaults(func=_cmd_kernel_eval)

    sp = sub.add_parser("harmonic-check", help="sample vertices and verify Ph = h")
    sp.add_argument("--config", help="JSON file of default values for the flags")
    sp.add_argument("--spec", required=True, help="harmonic-function JSON (inline or @file)")
    sp.add_argument("--operator", default="palpha", choices=("palpha", "qalpha"))
    sp.add_argument("--alpha", default=None, help="override the operator's walk parameter")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--radius", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_harmonic_check)

    sp = sub.add_parser("dirichlet-solve", help="exact hitting table on a truncation")
    common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--check-product", action="store_true")
    sp.add_argument("--out", help="write the full table JSON here")
    sp.set_defaults(func=_cmd_dirichlet_solve)

    sp = sub.add_parser("decompose", help="split a harmonic function across the two trees")
    sp.add_argument("--config", help="JSON file of default values for the flags")
    sp.add_argument("--spec", required=True, help="harmonic-function JSON")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--alpha", default=None)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("simulate", help="sample an exact trajectory (JSON lines)")
    common(sp)
    sp.add_argument("--operator", default="palpha", choices=("palpha", "p1", "p2", "qalpha"))
    sp.add_argument("--steps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--start", help="start vertex JSON (default: origin)")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("estimate-f", help="Monte-Carlo hitting-probability estimate")
    common(sp)
    sp.add_argument("--operator", default="p1", choices=("palpha", "p1", "p2", "qalpha"))
    sp.add_argument("--from", dest="from", help="start vertex JSON (default: origin)")
    sp.add_argument("--to", required=True, help="target vertex JSON")
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--horizon", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--escape-radius", type=int, default=None)
    sp.set_defaults(func=_cmd_estimate_f)

    sp = sub.add_parser("cayley-check", help="group picture vs. graph picture")
    sp.add_argument("--config", help="JSON file of default values for the flags")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--position-range", type=_size, default=2)
    sp.add_argument("--support", type=_size, default=2)
    sp.set_defaults(func=_cmd_cayley_check)

    sp = sub.add_parser("defect", help="lamp-mismatch counts and boundary kernels")
    sp.add_argument("--config", help="JSON file of default values for the flags")
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--element", required=True, help="group element JSON")
    sp.add_argument("--boundary", required=True, help="boundary configuration JSON")
    sp.set_defaults(func=_cmd_defect)

    sp = sub.add_parser("graph-export", help="DOT or JSON adjacency export of a ball")
    common(sp, alpha=False)
    sp.add_argument("--radius", type=_size, default=2)
    sp.add_argument("--variant", default="dl", choices=("dl", "dls"))
    sp.add_argument("--format", default="dot", choices=("dot", "json"))
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_graph_export)

    return p


def _apply_config(argv: list[str]) -> list[str]:
    """Turn ``--config FILE`` into injected default tokens (flags still win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv  # let argparse report the missing value
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    with open(path) as fh:
        cfg = json.load(fh)
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
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
