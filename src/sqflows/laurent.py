"""The interval (standard) basis on the half-grid for division semirings.

Every nonempty interval [lo..hi] of [n] admits exactly one flag flow in the
half-grid, covering the rectangle i <= hi, j <= hi - lo + 1, i >= j; the
interval values of a weighting are the rectangle products, the weights are
recovered from them by a two-case quotient, and every f(A) is a Laurent
monomial sum in the interval values with exponents in {-1, 0, 1, 2}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .flows import Flow, enumerate_flag_flows
from .network import build_half_grid, half_grid_vertex
from .semiring import Carrier, SemiringError

Interval = tuple[int, int]


class LaurentError(ValueError):
    pass


def intervals(n: int) -> tuple[Interval, ...]:
    return tuple((lo, hi) for hi in range(1, n + 1) for lo in range(1, hi + 1))


def _rectangle(lo: int, hi: int):
    width = hi - lo + 1
    return [(i, j) for i in range(1, hi + 1) for j in range(1, min(i, width) + 1)]


def interval_flow(n: int, lo: int, hi: int) -> Flow:
    """The unique flag flow for [lo..hi]: path k climbs column lo + k - 1 to
    height k and runs west to the diagonal."""
    if not 1 <= lo <= hi <= n:
        raise LaurentError(f"[{lo}..{hi}] is not a nonempty interval of [{n}]")
    net = build_half_grid(n)
    paths = []
    for k in range(1, hi - lo + 2):
        col = lo + k - 1
        path = [half_grid_vertex(col, j) for j in range(1, k + 1)]
        path += [half_grid_vertex(i, k) for i in range(col - 1, k - 1, -1)]
        paths.append(tuple(path))
    return Flow(
        paths=tuple(paths),
        source_indices=tuple(range(lo, hi + 1)),
        sink_indices=tuple(range(1, hi - lo + 2)),
        network=net,
    )


def intervals_of(weighting: Mapping, n: int, carrier: Carrier) -> dict[Interval, object]:
    """Value of the flow function on every nonempty interval: the product of
    the weights over the interval's rectangle."""
    out = {}
    for lo, hi in intervals(n):
        values = [weighting[half_grid_vertex(i, j)] for i, j in _rectangle(lo, hi)]
        out[(lo, hi)] = carrier.product(values)
    return out


def weights_from_intervals(vals: Mapping[Interval, object], n: int, carrier: Carrier) -> dict[str, object]:
    """Invert the interval map: w(i, i) = f(I_ii) / f(I_i,i-1) on the diagonal
    and w(i, j) = (f(I_ij) f(I_i-1,j-1)) / (f(I_i-1,j) f(I_i,j-1)) below it,
    where I_ij = [(i-j+1)..i] and the j = 0 value is the unit."""
    if not carrier.has_div:
        raise SemiringError(f"{carrier.name} has no division")

    def fval(i: int, j: int):
        if j == 0:
            return carrier.one
        return vals[(i - j + 1, i)]

    out = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if i == j:
                w = carrier.div(fval(i, j), fval(i, j - 1))
            else:
                num = carrier.mul(fval(i, j), fval(i - 1, j - 1))
                den = carrier.mul(fval(i - 1, j), fval(i, j - 1))
                w = carrier.div(num, den)
            out[half_grid_vertex(i, j)] = w
    return out


def _weight_ratio(i: int, j: int):
    """Intervals appearing in the numerator and denominator of w(i, j)."""

    def iv(ip, jp):
        return None if jp == 0 else (ip - jp + 1, ip)

    if i == j:
        num, den = [iv(i, j)], [iv(i, j - 1)]
    else:
        num = [iv(i, j), iv(i - 1, j - 1)]
        den = [iv(i - 1, j), iv(i, j - 1)]
    return [x for x in num if x], [x for x in den if x]


Monomial = tuple[tuple[Interval, int], ...]


@dataclass(frozen=True)
class LaurentExpression:
    """Sum of monomials; each monomial maps intervals to integer degrees."""

    monomials: tuple[Monomial, ...]

    def evaluate(self, vals: Mapping[Interval, object], carrier: Carrier):
        if not carrier.has_div:
            raise SemiringError(f"{carrier.name} has no division")
        total = None
        for mono in self.monomials:
            num = carrier.one
            den = carrier.one
            for interval, deg in mono:
                for _ in range(abs(deg)):
                    if deg > 0:
                        num = carrier.mul(num, vals[interval])
                    else:
                        den = carrier.mul(den, vals[interval])
            value = carrier.div(num, den)
            total = value if total is None else carrier.add(total, value)
        if total is None:
            raise LaurentError("empty expression")
        return total

    def degrees(self) -> set[int]:
        return {deg for mono in self.monomials for _, deg in mono}

    def render(self) -> str:
        lines = []
        for mono in self.monomials:
            parts = [f"f[{lo}..{hi}]^{deg}" for (lo, hi), deg in mono] or ["f[]^0"]
            lines.append(" ".join(parts))
        return "\n".join(lines)


def laurent_expand(n: int, a_set: Iterable[int]) -> LaurentExpression:
    """Expand f(A) on the half-grid as a sum of interval Laurent monomials:
    one monomial per flag flow, obtained by substituting the weight quotients
    and cancelling exponents exactly."""
    if n > 12:
        raise LaurentError("expansion capped at n = 12")
    A = frozenset(a_set)
    if not A:
        raise LaurentError("A must be nonempty")
    net = build_half_grid(n)
    flows = enumerate_flag_flows(net, A)
    monos = []
    for flow in flows:
        degree: Counter = Counter()
        for path in flow.paths:
            for name in path:
                i, j = (int(x) for x in name.split(","))
                num, den = _weight_ratio(i, j)
                for interval in num:
                    degree[interval] += 1
                for interval in den:
                    degree[interval] -= 1
        monos.append(tuple(sorted((iv, d) for iv, d in degree.items() if d)))
    return LaurentExpression(monomials=tuple(sorted(monos)))


def reconstruct_from_intervals(
    vals: Mapping[Interval, object],
    a_set: Iterable[int],
    n: int,
    carrier: Carrier,
    j_choice: int | None = None,
) -> object:
    """Recover f(A) from the interval values by repeated triple elimination:
    with i = min A, k = max A, X = A - {i,k} and a gap j, f(A) equals
    (f(Xij) f(Xk) + f(Xjk) f(Xi)) / f(Xj); induction on max - min.

    ``j_choice`` pins the gap used at the top level (any admissible gap gives
    the same value); recursive levels always take the smallest gap."""
    if not carrier.has_div:
        raise SemiringError(f"{carrier.name} has no division")
    A = frozenset(a_set)
    if not A or not A <= set(range(1, n + 1)):
        raise LaurentError(f"A must be a nonempty subset of [{n}]")
    memo: dict[frozenset[int], object] = {}

    def value(s: frozenset[int], forced_gap: int | None = None):
        if s in memo and forced_gap is None:
            return memo[s]
        lo, hi = min(s), max(s)
        if len(s) == hi - lo + 1:
            result = vals[(lo, hi)]
        else:
            gaps = [j for j in range(lo + 1, hi) if j not in s]
            gap = forced_gap if forced_gap is not None else gaps[0]
            if gap not in gaps:
                raise LaurentError(f"{gap} is not a gap of {sorted(s)}")
            x = s - {lo, hi}
            num = carrier.add(
                carrier.mul(value(x | {lo, gap}), value(x | {hi})),
                carrier.mul(value(x | {gap, hi}), value(x | {lo})),
            )
            result = carrier.div(num, value(x | {gap}))
        if forced_gap is None:
            memo[s] = result
        return result

    return value(A, j_choice)
