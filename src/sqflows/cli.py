"""Command-line front end.

Exit codes: 0 for success or a passing check (also when the reader closes
stdout early), 1 for a failing check or a found violation, 2 for input errors,
for output that cannot be written and for running out of memory, 3 for an
internal error, with its traceback on stderr.  Every report goes to stdout
through one writer, ``_emit``, a block of lines or items at a time, so a
listing is never held as one string.
Identical argv and seed give byte-identical output; --format json wraps every
report in {"schema": 1, "command", "ok", "data"}.
"""

from __future__ import annotations

import json
import os
import random
import sys
from itertools import islice
from types import SimpleNamespace

from . import counterexample as cx
from . import doubleflow as dfmod
from . import laurent as laurmod
from . import matchings as mt
from . import network as nw
from . import relations as rel
from .flows import Flow, FlowFunction, lindstrom_matrix, list_flows
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


def _load_pair(path: str) -> rel.QuadraticRelation:
    try:
        with open(path, encoding="utf-8") as handle:
            lhs, rhs = mt.parse_collection_pair(handle.read())
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None
    return rel.QuadraticRelation(lhs.p, lhs.q, lhs, rhs)


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
    return _load_pair(spec)


def _int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"bad integer list {text!r}") from None


# Entries per write: a report is written _BLOCK lines or items at a time.
_BLOCK = 4096


def _emit(args, command: str, ok: bool, lines, data: dict, key: str | None = None, items=()) -> None:
    """Write the report of ``command`` to stdout, _BLOCK entries per write, so
    a listing is never held whole.  Text is the ``lines``, each ended by a
    newline.  JSON is {"schema": 1, "command", "ok", "data"}; with ``key``,
    ``data[key]`` is the array of the pre-encoded JSON ``items``."""
    if args.format == "text":
        head, entries, sep, tail = "", lines, "\n", "\n"
    else:
        payload = {"schema": 1, "command": command, "ok": ok, "data": data}
        if key is None:
            head, entries, sep, tail = json.dumps(payload, sort_keys=True) + "\n", (), "", ""
        else:
            # split the envelope around the items: up to the array's "[" and
            # from its "]" on
            payload["data"] = {**data, key: []}
            marker = json.dumps(key) + ": ["
            head, _, tail = json.dumps(payload, sort_keys=True).partition(marker + "]")
            head, entries, sep, tail = head + marker, items, ", ", "]" + tail + "\n"
    write = sys.stdout.write
    write(head)
    lead, block = "", []
    for entry in entries:
        block.append(entry)
        if len(block) == _BLOCK:
            write(lead + sep.join(block))
            lead, block = sep, []
    if block:
        write(lead + sep.join(block))
        lead = sep
    if head or lead:
        write(tail)


class _Parts(dict):
    """(interval, degree) -> its text in ``form``, each rendered once."""

    def __init__(self, form: str):
        super().__init__()
        self.form = form

    def __missing__(self, part):
        (lo, hi), deg = part
        text = self[part] = self.form.format(lo, hi, deg)
        return text


def _arc_text(matching: mt.NestedMatching) -> str:
    return " ".join(f"({i},{j})" for i, j in matching.arcs)


def cmd_check_balance(args) -> int:
    relation = _load_pair(args.pair)
    result = mt.is_balanced(relation.lhs, relation.rhs)
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
    if args.mode != "symbolic" and args.trials < 1:
        raise CliError("--trials must be at least 1")
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
    relation = _load_pair(args.pair)
    report = cx.evaluate_inequality(relation.lhs, relation.rhs)
    net_text = nw.write_network(report.gadget.network)
    lines = [
        f"witness: {_arc_text(report.witness)}",
        f"augmented: {_arc_text(report.augmented.result)}",
        f"lhs_sum: {report.lhs_sum}",
        f"rhs_sum: {report.rhs_sum}",
        f"P1P2: {'verified' if report.p1_p2_verified else 'FAILED'}",
    ]
    if args.network_out:
        try:
            with open(args.network_out, "w", encoding="utf-8") as handle:
                handle.write(net_text)
        except OSError as exc:
            raise CliError(f"cannot write network {args.network_out!r}: {exc}") from None
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
        if not all(1 <= i <= len(base) for i in indices):
            raise CliError(f"--pi0 indices must lie in 1..{args.q}")
        chosen = [base[i - 1] for i in indices]
        relation = rel.family_interval_exchange(args.p, args.q, chosen)
    elif name == "tail-fixed":
        relation = rel.family_tail_fixed(args.p, args.q, _int_list(args.tail))
    else:
        relation = rel.family_groebner(args.p, args.q, _int_list(args.b_set), args.d)
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
    monomials = laurmod.laurent_expand(args.n, _int_list(args.a_set)).monomials
    # only the generator of the chosen format runs
    parts = _Parts("[{}, {}, {}]" if args.format == "json" else "f[{}..{}]^{}")
    lines = (" ".join(map(parts.__getitem__, mono)) or "f[]^0" for mono in monomials)
    items = ("[" + ", ".join(map(parts.__getitem__, mono)) + "]" for mono in monomials)
    _emit(args, "laurent", True, lines, {}, "monomials", items)
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
    matrix = [[carrier.render(x) for x in row] for row in lindstrom_matrix(net, weighting, carrier)]
    _emit(args, "lindstrom", True, [" ".join(row) for row in matrix], {"matrix": matrix})
    return 0


def _load_weights(path: str, carrier):
    weighting = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                vertex, _, value = line.partition(" ")
                if not value:
                    raise CliError(f"bad weight line {line!r}")
                if vertex in weighting:
                    raise CliError(f"weights file repeats vertex {vertex!r}")
                try:
                    weighting[vertex] = carrier.parse(value.strip())
                except ValueError as exc:
                    raise CliError(f"{exc} (vertex {vertex!r} on line {number} of {path!r})") from None
    except OSError as exc:
        raise CliError(f"cannot read weights {path!r}: {exc}") from None
    return weighting


def cmd_flows(args) -> int:
    net = _load_network(args.network)
    I = _int_list(args.i_set)
    J = None if args.j_set is None else _int_list(args.j_set)
    json_out = args.format == "json"
    # A JSON label escapes per character, so the escaped labels join to the
    # escaped line.
    label = (lambda names: json.dumps(" ".join(names))[1:-1]) if json_out else " ".join
    listing = list_flows(net, I, J, label)
    items = ('"' + ";".join(paths) + '"' for paths in listing)
    data = {"count": listing.count()} if json_out else {}
    _emit(args, "flows", True, map(";".join, listing), data, "flows", items)
    return 0


def cmd_doubleflow_audit(args) -> int:
    net = _load_network(args.network)
    if not net.is_split:
        net = nw.vertex_split(net)
    listings = [list_flows(net, _int_list(S), None, tuple) for S in (args.i_set, args.j_set)]
    sizes = [listing.count() for listing in listings]
    if not all(sizes):
        raise CliError("one of the index sets admits no flag flow")
    if not 0 <= args.phi < sizes[0] or not 0 <= args.phi_prime < sizes[1]:
        raise CliError(f"flow indices out of range (|Phi_I| = {sizes[0]}, |Phi_J| = {sizes[1]})")
    # only the two chosen flows are built
    phi, phi_prime = (
        Flow(next(islice(listing, at, None)), listing.sources, listing.sinks, net)
        for listing, at in zip(listings, (args.phi, args.phi_prime))
    )
    df = dfmod.superpose(phi, phi_prime)
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


# Each command: its help and its arguments as (flag, keywords) for
# ``add_argument``; every command also takes --format.  The handler of
# "check-balance" is ``cmd_check_balance``, looked up when the arguments are
# read, so that a wrapper set on this module in the meantime is the one run.
_COMMANDS = {
    "check-balance": (
        "decide balancedness of a collection pair",
        (("pair", {"help": "collection pair file"}),),
    ),
    "enumerate-matchings": (
        "list feasible matchings for a subset",
        (
            ("-p", {"type": int, "required": True, "dest": "p"}),
            ("-q", {"type": int, "required": True, "dest": "q"}),
            ("-A", {"required": True, "dest": "a_set", "help": "comma separated elements"}),
        ),
    ),
    "verify": (
        "check a relation on a network",
        (
            ("relation", {"help": "family:triple|quadruple|quintuple or a pair file"}),
            ("--mode", {"choices": ("symbolic", "numeric", "tropical"), "default": "symbolic"}),
            ("--network", {"default": None, "help": "halfgrid:N or a network file"}),
            ("--trials", {"type": int, "default": 10}),
            ("--seed", {"type": int, "default": 0}),
            ("--jobs", {"type": int, "default": 1, "help": "accepted and ignored; work runs serially"}),
        ),
    ),
    "counterexample": (
        "build a separating gadget for an unbalanced pair",
        (
            ("pair", {"help": "collection pair file"}),
            ("--network-out", {"default": None}),
        ),
    ),
    "gen-family": (
        "emit a balanced family as a pair file",
        (
            ("family", {"choices": (*_FIXED_FAMILIES, "interval-exchange", "tail-fixed", "groebner")}),
            ("-p", {"type": int, "default": 2, "dest": "p"}),
            ("-q", {"type": int, "default": 1, "dest": "q"}),
            ("--pi0", {"default": "", "help": "interval-exchange: indices of exchanged arcs"}),
            ("--tail", {"default": "", "help": "tail-fixed: the fixed tail Q"}),
            ("--B", {"default": "", "dest": "b_set", "help": "groebner: the subset B"}),
            ("--d", {"type": int, "default": None}),
        ),
    ),
    "laurent": (
        "expand f(A) in interval values on the half-grid",
        (
            ("-n", {"type": int, "required": True}),
            ("-A", {"required": True, "dest": "a_set"}),
        ),
    ),
    "lindstrom": (
        "print the path matrix row-major",
        (
            ("--network", {"required": True}),
            ("--weights", {"default": None, "help": "file of 'vertex value' lines"}),
            ("--carrier", {"default": "int"}),
        ),
    ),
    "flows": (
        "enumerate flag or (I,J)-flows",
        (
            ("--network", {"required": True}),
            ("-I", {"required": True, "dest": "i_set"}),
            ("-J", {"default": None, "dest": "j_set"}),
        ),
    ),
    "doubleflow-audit": (
        "d, M and N for a superposed flow pair",
        (
            ("--network", {"required": True}),
            ("-I", {"required": True, "dest": "i_set"}),
            ("-J", {"required": True, "dest": "j_set"}),
            ("--phi", {"type": int, "default": 0}),
            ("--phi-prime", {"type": int, "default": 0, "dest": "phi_prime"}),
        ),
    ),
}


_FORMAT = ("--format", {"choices": ("text", "json"), "default": "text"})


def _handler(name: str):
    return globals()["cmd_" + name.replace("-", "_")]


def _read(argv):
    """The arguments of a plain call, as argparse would parse them, read from
    ``_COMMANDS``; None for anything else, which is left to argparse.

    A plain call is the exact name of a command, then its positionals and
    options.  Each option is given at most once, by its exact flag, with its
    value as the next token.  No other token starts with "-", and every value
    passes its type and choices.  So help, errors, abbreviations,
    ``--opt=value``, attached short values, ``--`` and negative values all
    reach argparse, and every help and error text is its own."""
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        return None
    arguments = (*_COMMANDS[name][1], _FORMAT)
    options = {flag for flag, _ in arguments if flag.startswith("-")}
    given, values = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            value = next(tokens, "-")
            if token in given or value.startswith("-"):
                return None
            given[token] = value
        elif token.startswith("-"):
            return None
        else:
            values.append(token)
    values = iter(values)
    args = {"command": name, "func": _handler(name)}
    for flag, keywords in arguments:
        # argparse's dest: the given one, else the flag without its dashes
        dest = keywords.get("dest") or flag.lstrip("-").replace("-", "_")
        value = given.get(flag) if flag in options else next(values, None)
        if value is None:
            if flag not in options or keywords.get("required"):
                return None
            args[dest] = keywords.get("default")
            continue
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[dest] = value
    if next(values, None) is not None:
        return None
    return SimpleNamespace(**args)


def build_parser():
    """The argparse parser of every command, built from ``_COMMANDS``: only
    help and errors need it, so argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="sqflows",
        description="Flow-generated functions over semirings and their quadratic relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in (*arguments, _FORMAT):
            p.add_argument(flag, **keywords)
        p.set_defaults(func=_handler(name))
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Files the commands open raise CliError, so this is stdout failing: a
        # normal end if the reader closed it early (``| head``), else an error
        # (``> /dev/full``).  Devnull lets the flush at interpreter exit pass.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return 0
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass
    except Exception:
        # A fault of the program, not of its input: never exit 1, which
        # means a failing check.  traceback is loaded only here, off the
        # start-up path of every call.
        import traceback

        traceback.print_exc()
        return 3
    # Reported only here, after the except clause has let go of the frames
    # that ran out of memory.
    print("error: out of memory", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
