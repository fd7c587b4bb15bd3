"""Command-line front end.

Exit codes: 0 for success or a passing check, 1 for a failing check or a found
violation, 2 for input errors.  Identical argv and seed give byte-identical
output; --format json wraps every report in {"schema": 1, "command", "ok",
"data"}.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import counterexample as cx
from . import doubleflow as dfmod
from . import laurent as laurmod
from . import matchings as mt
from . import network as nw
from . import relations as rel
from .flows import FlowFunction, enumerate_flag_flows, enumerate_flows, lindstrom_matrix
from .semiring import CARRIERS


class CliError(ValueError):
    pass


def _load_network(spec: str) -> nw.PlanarNetwork:
    if spec.startswith("halfgrid:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad half-grid size in {spec!r}") from None
        return nw.build_half_grid(n)
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read network {spec!r}: {exc}") from None
    net = nw.parse_network(text)
    problems = nw.validate(net)
    if problems:
        raise CliError("invalid network: " + "; ".join(problems))
    return net


def _load_pair(path: str) -> tuple[mt.Collection, mt.Collection]:
    try:
        with open(path, encoding="utf-8") as handle:
            return mt.parse_collection_pair(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None


# The relations without parameters, by name: `verify family:<name>` and
# `gen-family <name>`.
_FIXED_FAMILIES = {
    "triple": rel.family_triple,
    "quadruple": rel.family_quadruple,
    "quintuple": rel.family_quintuple,
}


def _load_relation(spec: str) -> rel.QuadraticRelation:
    prefix, _, name = spec.partition(":")
    if prefix == "family" and name in _FIXED_FAMILIES:
        return _FIXED_FAMILIES[name]()
    lhs, rhs = _load_pair(spec)
    return rel.QuadraticRelation(lhs.p, lhs.q, lhs, rhs)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad integer list {text!r}") from None


def _emit(args, command: str, ok: bool, lines: list[str], data: dict) -> None:
    if args.format == "json":
        payload = {"schema": 1, "command": command, "ok": ok, "data": data}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _arc_text(matching: mt.NestedMatching) -> str:
    return " ".join(f"({i},{j})" for i, j in matching.arcs)


def cmd_check_balance(args) -> int:
    lhs, rhs = _load_pair(args.pair)
    result = mt.is_balanced(lhs, rhs)
    if result.balanced:
        _emit(args, "check-balance", True, ["balanced"], {"balanced": True})
        return 0
    witness = _arc_text(result.witness)
    data = {
        "balanced": False,
        "witness": list(result.witness.arcs),
        "lhs_count": result.lhs_count,
        "rhs_count": result.rhs_count,
    }
    _emit(args, "check-balance", False, [f"unbalanced witness: {witness}"], data)
    return 1


def cmd_enumerate_matchings(args) -> int:
    a_set = _int_list(args.a_set)
    found = mt.enumerate_feasible_matchings(a_set, args.p, args.q)
    lines = [_arc_text(m) for m in found]
    _emit(args, "enumerate-matchings", True, lines, {"matchings": [list(m.arcs) for m in found]})
    return 0


_VERIFY_CARRIERS = {"numeric": ("nat", "int", "posrat"), "tropical": ("tropint", "troprat")}


def _run_verify_task(relation, net, carrier_name, trial, seed):
    carrier = CARRIERS[carrier_name]
    rng = random.Random(f"{seed}:{carrier_name}:{trial}")
    n = len(net.sources)
    size = relation.p + relation.q
    y = tuple(sorted(rng.sample(range(1, n + 1), size)))
    rest = [i for i in range(1, n + 1) if i not in y]
    x = frozenset(i for i in rest if rng.random() < 0.5)
    inst = rel.Instantiation(n=n, x_set=x, y_list=y)
    weighting = rel.random_weighting(net.original_vertices() or net.vertices, carrier, rng)
    f = FlowFunction(net, weighting, carrier)
    lhs, rhs = rel.evaluate_sides(f, relation, inst)
    ok = lhs == rhs
    detail = {
        "carrier": carrier_name,
        "trial": trial,
        "X": sorted(x),
        "Y": list(y),
        "lhs": "undefined" if lhs is None else carrier.render(lhs),
        "rhs": "undefined" if rhs is None else carrier.render(rhs),
    }
    return ok, detail


def cmd_verify(args) -> int:
    relation = _load_relation(args.relation)
    net_spec = args.network or f"halfgrid:{relation.p + relation.q}"
    net = _load_network(net_spec)
    if len(net.sources) < relation.p + relation.q:
        raise CliError("network has too few sources for this relation")

    if args.mode == "symbolic":
        ok = rel.symbolic_check(relation, net)
        lines = [f"symbolic check on {net_spec}: {'pass' if ok else 'FAIL'}"]
        _emit(args, "verify", ok, lines, {"mode": "symbolic", "network": net_spec, "pass": ok})
        return 0 if ok else 1

    # Instances run by carrier name, then trial: the first failure reported
    # is the first in that order.
    results = [
        _run_verify_task(relation, net, name, trial, args.seed)
        for name in sorted(_VERIFY_CARRIERS[args.mode])
        for trial in range(args.trials)
    ]
    failures = [detail for ok, detail in results if not ok]
    checked = len(results)
    if not failures:
        lines = [f"{args.mode} sweep on {net_spec}: {checked} instances pass"]
        _emit(args, "verify", True, lines, {"mode": args.mode, "network": net_spec, "checked": checked})
        return 0
    first = failures[0]
    lines = [
        f"{args.mode} sweep on {net_spec}: {len(failures)} of {checked} instances FAIL",
        f"first failure: carrier={first['carrier']} trial={first['trial']} "
        f"X={first['X']} Y={first['Y']} lhs={first['lhs']} rhs={first['rhs']}",
    ]
    _emit(args, "verify", False, lines, {"mode": args.mode, "checked": checked, "first_failure": first})
    return 1


def cmd_counterexample(args) -> int:
    lhs, rhs = _load_pair(args.pair)
    try:
        report = cx.evaluate_inequality(lhs, rhs)
    except mt.MatchingError as exc:
        raise CliError(str(exc)) from None
    net_text = nw.write_network(report.gadget.network)
    lines = [
        f"witness: {_arc_text(report.witness)}",
        f"augmented: {_arc_text(report.augmented.result)}",
        f"lhs_sum: {report.lhs_sum}",
        f"rhs_sum: {report.rhs_sum}",
        f"P1P2: {'verified' if report.p1_p2_verified else 'FAILED'}",
    ]
    if args.network_out:
        with open(args.network_out, "w", encoding="utf-8") as handle:
            handle.write(net_text)
        lines.append(f"network written to {args.network_out}")
    else:
        lines.append("network:")
        lines.append(net_text.rstrip("\n"))
    data = {
        "witness": list(report.witness.arcs),
        "augmented": list(report.augmented.result.arcs),
        "lhs_sum": report.lhs_sum,
        "rhs_sum": report.rhs_sum,
        "p1_p2": report.p1_p2_verified,
        "network": net_text,
    }
    _emit(args, "counterexample", True, lines, data)
    return 0


def cmd_gen_family(args) -> int:
    name = args.family
    if name in _FIXED_FAMILIES:
        relation = _FIXED_FAMILIES[name]()
    elif name == "interval-exchange":
        base = rel.base_matching(args.p, args.q)
        indices = _int_list(args.pi0)
        if not indices:
            raise CliError("interval-exchange needs --pi0 with arc indices")
        try:
            chosen = [base[i - 1] for i in indices]
        except IndexError:
            raise CliError(f"--pi0 indices must lie in 1..{args.q}") from None
        relation = rel.family_interval_exchange(args.p, args.q, chosen)
    elif name == "tail-fixed":
        relation = rel.family_tail_fixed(args.p, args.q, _int_list(args.tail))
    elif name == "groebner":
        b_set = _int_list(args.b_set)
        relation = rel.family_groebner(args.p, args.q, b_set, args.d)
    else:
        raise CliError(f"unknown family {name!r}")
    text = mt.write_collection_pair(relation.lhs, relation.rhs)
    _emit(
        args,
        "gen-family",
        True,
        [text.rstrip("\n")],
        {"p": relation.p, "q": relation.q, "pair": text},
    )
    return 0


def cmd_laurent(args) -> int:
    expression = laurmod.laurent_expand(args.n, _int_list(args.a_set))
    text = expression.render()
    _emit(
        args,
        "laurent",
        True,
        [text],
        {"monomials": [[list(iv) + [deg] for iv, deg in mono] for mono in expression.monomials]},
    )
    return 0


def cmd_lindstrom(args) -> int:
    net = _load_network(args.network)
    carrier = CARRIERS.get(args.carrier)
    if carrier is None:
        raise CliError(f"unknown carrier {args.carrier!r}")
    if args.weights:
        weighting = _load_weights(args.weights, carrier)
    else:
        weighting = {v: carrier.one for v in net.vertices}
    matrix = lindstrom_matrix(net, weighting, carrier)
    lines = [" ".join(carrier.render(x) for x in row) for row in matrix]
    _emit(args, "lindstrom", True, lines, {"matrix": [[carrier.render(x) for x in row] for row in matrix]})
    return 0


def _load_weights(path: str, carrier):
    weighting = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                vertex, _, value = line.partition(" ")
                if not value:
                    raise CliError(f"bad weight line {line!r}")
                weighting[vertex] = carrier.parse(value.strip())
    except OSError as exc:
        raise CliError(f"cannot read weights {path!r}: {exc}") from None
    return weighting


def cmd_flows(args) -> int:
    net = _load_network(args.network)
    I = _int_list(args.i_set)
    if args.j_set is not None:
        found = enumerate_flows(net, I, _int_list(args.j_set))
    else:
        found = enumerate_flag_flows(net, I)
    lines = [";".join(" ".join(path) for path in flow.paths) for flow in found]
    _emit(args, "flows", True, lines, {"count": len(found), "flows": lines})
    return 0


def cmd_doubleflow_audit(args) -> int:
    net = _load_network(args.network)
    if not net.is_split:
        net = nw.vertex_split(net)
    I = _int_list(args.i_set)
    J = _int_list(args.j_set)
    phis = enumerate_flag_flows(net, I)
    phis_prime = enumerate_flag_flows(net, J)
    if not phis or not phis_prime:
        raise CliError("one of the index sets admits no flag flow")
    if not 0 <= args.phi < len(phis) or not 0 <= args.phi_prime < len(phis_prime):
        raise CliError(
            f"flow indices out of range (|Phi_I| = {len(phis)}, |Phi_J| = {len(phis_prime)})"
        )
    df = dfmod.superpose(phis[args.phi], phis_prime[args.phi_prime])
    dec = dfmod.decompose(df)
    count = dfmod.count_decompositions(df)
    lines = [
        f"d(xi) = {dec.d}",
        f"M(xi) = {_arc_text(dec.matching) or '(empty)'}",
        f"N(xi) = {count}",
    ]
    data = {"d": dec.d, "matching": list(dec.matching.arcs), "count": count}
    _emit(args, "doubleflow-audit", True, lines, data)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqflows",
        description="Flow-generated functions over semirings and their quadratic relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1, help="accepted and ignored; work runs serially")

    p = sub.add_parser("check-balance", help="decide balancedness of a collection pair")
    p.add_argument("pair", help="collection pair file")
    common(p)
    p.set_defaults(func=cmd_check_balance)

    p = sub.add_parser("enumerate-matchings", help="list feasible matchings for a subset")
    p.add_argument("-p", type=int, required=True, dest="p")
    p.add_argument("-q", type=int, required=True, dest="q")
    p.add_argument("-A", required=True, dest="a_set", help="comma separated elements")
    common(p)
    p.set_defaults(func=cmd_enumerate_matchings)

    p = sub.add_parser("verify", help="check a relation on a network")
    p.add_argument("relation", help="family:triple|quadruple|quintuple or a pair file")
    p.add_argument("--mode", choices=("symbolic", "numeric", "tropical"), default="symbolic")
    p.add_argument("--network", default=None, help="halfgrid:N or a network file")
    p.add_argument("--trials", type=int, default=10)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("counterexample", help="build a separating gadget for an unbalanced pair")
    p.add_argument("pair", help="collection pair file")
    p.add_argument("--network-out", default=None)
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("gen-family", help="emit a balanced family as a pair file")
    p.add_argument(
        "family",
        choices=(*_FIXED_FAMILIES, "interval-exchange", "tail-fixed", "groebner"),
    )
    p.add_argument("-p", type=int, default=2, dest="p")
    p.add_argument("-q", type=int, default=1, dest="q")
    p.add_argument("--pi0", default="", help="interval-exchange: indices of exchanged arcs")
    p.add_argument("--tail", default="", help="tail-fixed: the fixed tail Q")
    p.add_argument("--B", default="", dest="b_set", help="groebner: the subset B")
    p.add_argument("--d", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_gen_family)

    p = sub.add_parser("laurent", help="expand f(A) in interval values on the half-grid")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-A", required=True, dest="a_set")
    common(p)
    p.set_defaults(func=cmd_laurent)

    p = sub.add_parser("lindstrom", help="print the path matrix row-major")
    p.add_argument("--network", required=True)
    p.add_argument("--weights", default=None, help="file of 'vertex value' lines")
    p.add_argument("--carrier", default="int")
    common(p)
    p.set_defaults(func=cmd_lindstrom)

    p = sub.add_parser("flows", help="enumerate flag or (I,J)-flows")
    p.add_argument("--network", required=True)
    p.add_argument("-I", required=True, dest="i_set")
    p.add_argument("-J", default=None, dest="j_set")
    common(p)
    p.set_defaults(func=cmd_flows)

    p = sub.add_parser("doubleflow-audit", help="d, M and N for a superposed flow pair")
    p.add_argument("--network", required=True)
    p.add_argument("-I", required=True, dest="i_set")
    p.add_argument("-J", required=True, dest="j_set")
    p.add_argument("--phi", type=int, default=0)
    p.add_argument("--phi-prime", type=int, default=0, dest="phi_prime")
    common(p)
    p.set_defaults(func=cmd_doubleflow_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
