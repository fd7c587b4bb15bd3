"""Answer checks for benchmark operations, independent of the code under test
where the mathematics allows it.

Flow sums on the half-grid come from the Lindström-Gessel-Viennot lemma: a
dynamic program over the grid gives the path-weight matrix and an exact
Gaussian elimination gives the minor.  On a planar network whose terminals sit
on the boundary in order, only the order-preserving pairing admits disjoint
paths, so the minor equals the flow sum.  Tropical values, which have no
determinant, are checked against the interval reconstruction of the library.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction


class CheckFailed(Exception):
    """The program's answer disagrees with the oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def half_grid_vertices(n: int):
    return [f"{i},{j}" for i in range(1, n + 1) for j in range(1, i + 1)]


def path_matrix(n: int, weights=None):
    """matrix[t][s]: sum over paths from source s to sink t (0-based) of the
    product of vertex weights; unit weights count paths."""
    rows = [[0] * n for _ in range(n)]
    for s in range(1, n + 1):
        val = {}
        for i in range(n, 0, -1):
            for j in range(1, i + 1):
                if (i, j) == (s, 1):
                    inflow = 1
                else:
                    inflow = val.get((i + 1, j), 0) + val.get((i, j - 1), 0)
                w = 1 if weights is None else weights[f"{i},{j}"]
                val[(i, j)] = inflow * w if inflow else 0
        for t in range(1, n + 1):
            rows[t - 1][s - 1] = val.get((t, t), 0)
    return rows


def det(matrix) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in matrix]
    size = len(a)
    result = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            if factor:
                for c in range(col, size):
                    a[r][c] -= factor * a[col][c]
    return result


def flow_sum(matrix, sources, sinks=None) -> Fraction:
    """Sum over (I, J)-flows of the weight product; J defaults to the first
    |I| sinks (flag flows)."""
    sources = sorted(sources)
    sinks = list(range(1, len(sources) + 1)) if sinks is None else sorted(sinks)
    return det([[matrix[t - 1][s - 1] for s in sources] for t in sinks])


def feasible(arcs, a_set) -> bool:
    """Whether the nested matching ``arcs`` on [p+q] is feasible for A: each
    arc has exactly one end in A and no element strictly inside an arc is
    left unmatched."""
    ends = {x for arc in arcs for x in arc}
    for i, j in arcs:
        if (i in a_set) == (j in a_set):
            return False
        if any(k not in ends for k in range(i + 1, j)):
            return False
    return True


def parse_pair(text: str):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    p, q = (int(x) for x in lines[0].split())
    split = lines.index("--")
    side = lambda block: [frozenset(int(x) for x in ln.split()) for ln in block]  # noqa: E731
    return p, q, side(lines[1:split]), side(lines[split + 1 :])


def _text_lines(result) -> list[str]:
    return result["stdout"].splitlines()


def check_flows(op, result, sqflows) -> None:
    expect(result["rc"] == 0, f"exit code {result['rc']}")
    matrix = path_matrix(op["n"])
    want = flow_sum(matrix, op["I"], op.get("J"))
    if op["format"] == "json":
        payload = json.loads(result["stdout"])
        listed = payload["data"]["flows"]
        expect(payload["data"]["count"] == len(listed), "count disagrees with the list")
    else:
        listed = _text_lines(result)
    expect(len(listed) == want, f"{len(listed)} flows listed, LGV gives {want}")
    expect(len(set(listed)) == len(listed), "a flow is listed twice")


def check_laurent(op, result, sqflows) -> None:
    expect(result["rc"] == 0, f"exit code {result['rc']}")
    monomials = json.loads(result["stdout"])["data"]["monomials"]
    weights = {v: Fraction(x) for v, x in op["check_weights"].items()}
    matrix = path_matrix(op["n"], weights)
    interval = {}
    total = Fraction(0)
    for mono in monomials:
        term = Fraction(1)
        for lo, hi, deg in mono:
            if (lo, hi) not in interval:
                interval[(lo, hi)] = flow_sum(matrix, range(lo, hi + 1))
            term *= interval[(lo, hi)] ** deg
        total += term
    expect(total == flow_sum(matrix, op["A"]), "expansion disagrees with f(A)")


def check_doubleflow(op, result, sqflows) -> None:
    expect(result["rc"] == 0, f"exit code {result['rc']}")
    fields = dict(re.match(r"(\w)\(xi\) = (.*)", ln).groups() for ln in _text_lines(result))
    expect(int(fields["N"]) == 2 ** int(fields["d"]), f"N = {fields['N']} but d = {fields['d']}")


def check_verify(op, result, sqflows) -> None:
    expect(result["rc"] == 0, f"exit code {result['rc']}")
    want = f"{op['mode']} sweep on {op['network']}: {op['checked']} instances pass"
    expect(_text_lines(result) == [want], f"unexpected report {result['stdout']!r}")


def check_balance(op, result, sqflows) -> None:
    lines = _text_lines(result)
    if op["balanced"]:
        expect(result["rc"] == 0 and lines == ["balanced"], f"balanced pair reported {lines!r}")
        return
    expect(result["rc"] == 1, f"exit code {result['rc']} on an unbalanced pair")
    match = re.fullmatch(r"unbalanced witness: (.*)", lines[0]) if len(lines) == 1 else None
    expect(match is not None, f"unexpected report {lines!r}")
    arcs = [tuple(map(int, a)) for a in re.findall(r"\((\d+),(\d+)\)", match.group(1))]
    _, _, lhs, rhs = parse_pair(op["pair_text"])
    left = sum(feasible(arcs, a) for a in lhs)
    right = sum(feasible(arcs, a) for a in rhs)
    expect(left != right, f"witness {arcs} is feasible for {left} members on both sides")


def check_counterexample(op, result, sqflows) -> None:
    expect(result["rc"] == 0, f"exit code {result['rc']}")
    lines = _text_lines(result)
    fields = dict(ln.split(": ", 1) for ln in lines[: lines.index("network:")])
    expect(fields["lhs_sum"] != fields["rhs_sum"], "gadget does not separate the sides")
    expect(fields["P1P2"] == "verified", "P1P2 not verified")
    text = "\n".join(lines[lines.index("network:") + 1 :]) + "\n"
    net = sqflows.parse_network(text)
    problems = sqflows.validate(net)
    expect(not problems, f"gadget fails validation: {problems}")


def check_symbolic(op, result, sqflows) -> None:
    expect(result["value"] == "True", f"symbolic check returned {result['value']}")


def check_fgf(op, result, sqflows) -> None:
    n, I = op["n"], op["I"]
    if op["carrier"] == "int":
        weights = {v: int(x) for v, x in op["weights"].items()}
        want = flow_sum(path_matrix(n, weights), I)
        got = Fraction(int(result["value"]))
    else:
        carrier = sqflows.CARRIERS[op["carrier"]]
        weights = {v: carrier.parse(x) for v, x in op["weights"].items()}
        vals = sqflows.intervals_of(weights, n, carrier)
        want = sqflows.reconstruct_from_intervals(vals, I, n, carrier)
        got = Fraction(result["value"])
    expect(got == want, f"f(I) = {result['value']}, oracle gives {want}")


CHECKS = {
    "flows": check_flows,
    "laurent": check_laurent,
    "doubleflow-audit": check_doubleflow,
    "verify": check_verify,
    "check-balance": check_balance,
    "counterexample": check_counterexample,
    "symbolic": check_symbolic,
    "fgf": check_fgf,
}


def check(op, result, sqflows) -> None:
    """Raise CheckFailed unless ``result`` is a correct answer to ``op``;
    ``sqflows`` is the package under test, for the checks that parse or
    reconstruct with it."""
    expect(not result.get("error"), f"operation raised: {result.get('error')}")
    CHECKS[op["kind"]](op, result, sqflows)
