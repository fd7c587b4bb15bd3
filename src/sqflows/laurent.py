"""The interval (standard) basis on the half-grid for division semirings.

Every nonempty interval [lo..hi] of [n] admits exactly one flag flow in the
half-grid, covering the rectangle i <= hi, j <= hi - lo + 1, i >= j; the
interval values of a weighting are the rectangle products, the weights are
recovered from them by a two-case quotient, and every f(A) is a Laurent
monomial sum in the interval values with exponents in {-1, 0, 1, 2}.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import reduce

from ._record import Record
from .flows import Flow, list_flows
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
        if lo == 1:  # [1..hi] reads row hi first, as its last hi weights
            carrier.check(*values[-hi:])
        out[(lo, hi)] = reduce(carrier._mul, values)
    return out


def _weight_ratio(i: int, j: int):
    """Intervals in the numerator and denominator of w(i, j); None marks the
    unit I_i0."""

    def iv(ip, jp):
        return None if jp == 0 else (ip - jp + 1, ip)

    if i == j:
        return [iv(i, j)], [iv(i, j - 1)]
    return [iv(i, j), iv(i - 1, j - 1)], [iv(i - 1, j), iv(i, j - 1)]


def weights_from_intervals(vals: Mapping[Interval, object], n: int, carrier: Carrier) -> dict[str, object]:
    """Invert the interval map: w(i, i) = f(I_ii) / f(I_i,i-1) on the diagonal
    and w(i, j) = (f(I_ij) f(I_i-1,j-1)) / (f(I_i-1,j) f(I_i,j-1)) below it,
    where I_ij = [(i-j+1)..i] and the j = 0 value is the unit."""
    if not carrier.has_div:
        raise SemiringError(f"{carrier.name} has no division")
    carrier.check(*(vals[iv] for iv in intervals(n)))  # each value once: every one is read below

    def product(ivs):
        return reduce(carrier._mul, [carrier.one if iv is None else vals[iv] for iv in ivs])

    out = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            num, den = _weight_ratio(i, j)
            out[half_grid_vertex(i, j)] = carrier._div(product(num), product(den))
    return out


Monomial = tuple[tuple[Interval, int], ...]


class LaurentExpression(Record):
    """Sum of monomials; each monomial maps intervals to integer degrees."""

    _fields = ("monomials",)

    def __init__(self, monomials: tuple[Monomial, ...]):
        self.__dict__.update(monomials=monomials)

    def evaluate(self, vals: Mapping[Interval, object], carrier: Carrier):
        if not carrier.has_div:
            raise SemiringError(f"{carrier.name} has no division")
        total = None
        for mono in self.monomials:
            num = carrier.one
            den = carrier.one
            for interval, deg in mono:
                for _ in range(abs(deg)):
                    factor = vals[interval]
                    carrier.check(factor)
                    if deg > 0:
                        num = carrier._mul(num, factor)
                    else:
                        den = carrier._mul(den, factor)
            value = carrier._div(num, den)
            total = value if total is None else carrier._add(total, value)
        if total is None:
            raise LaurentError("empty expression")
        return total

    def degrees(self) -> set[int]:
        return {deg for mono in self.monomials for _, deg in mono}


# Swaps bytes 128 and 255: a field's byte is 128 + its degree, and a zero
# degree must sort after every nonzero one.
_ORDER = bytes(range(128)) + b"\xff" + bytes(range(129, 255)) + b"\x80"


def _sorted_monomials(packed: Iterable[int], fields: list[Interval]) -> tuple[Monomial, ...]:
    """The monomials of packed degrees, sorted: field k of an int is its
    byte k, 128 + the degree of ``fields[k]``, and degrees lie in [-4, 4].

    Each int is kept as a key: its fields as bytes, the trailing zero degrees
    stripped, and a zero degree mapped to byte 255.  Sorting the keys sorts
    the monomials, the tuples of their nonzero (interval, degree) pairs.  At
    the first field where two keys differ, either both degrees are nonzero,
    and compare as the monomials' pairs there do; or one is zero, and that
    monomial's next pair has a later interval, so it sorts after the other,
    as its byte 255 does; or one key ends, and that monomial is a prefix of
    the other and sorts first, as its key does.  A key decodes through one
    shared (interval, degree) pair per field and degree."""
    size = len(fields)
    offset = int.from_bytes(bytes([128]) * size, "little")
    keys = [(offset + degrees).to_bytes(size, "little").rstrip(b"\x80").translate(_ORDER) for degrees in packed]
    keys.sort()
    # tables[k][b]: the pair of field k at byte b, None for a zero degree
    tables = [[None] * 124 + [(iv, d) if d else None for d in range(-4, 5)] + [None] * 123 for iv in fields]
    return tuple(tuple(filter(None, map(list.__getitem__, tables, key))) for key in keys)


def laurent_expand(n: int, a_set: Iterable[int]) -> LaurentExpression:
    """Expand f(A) on the half-grid as a sum of interval Laurent monomials:
    one monomial per flag flow, obtained by substituting the weight quotients
    and cancelling exponents exactly.

    Degrees are packed into one int per monomial, one 8-bit field per
    interval in sorted order, offset by 128.  An interval appears in the
    weight quotients of at most four vertices, with degree +1 or -1 in each,
    and a flow visits a vertex at most once, so every degree of a flow lies
    in [-4, 4] and no field carries into the next: a flow's packed degree is
    the sum of its vertices' packed quotients, and its monomial is read off
    the bytes once."""
    if n > 12:
        raise LaurentError("expansion capped at n = 12")
    A = tuple(a_set)
    if not A:
        raise LaurentError("A must be nonempty")
    fields = sorted(intervals(n))
    shift = {iv: 8 * k for k, iv in enumerate(fields)}
    packed = {}  # vertex -> the packed interval degrees of its weight quotient
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            num, den = _weight_ratio(i, j)
            packed[half_grid_vertex(i, j)] = sum(1 << shift[iv] for iv in num if iv) - sum(
                1 << shift[iv] for iv in den if iv
            )
    flows = list_flows(build_half_grid(n), A, None, lambda path: sum([packed[v] for v in path]))
    return LaurentExpression(monomials=_sorted_monomials(map(sum, flows), fields))


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

    ``j_choice`` pins the gap used for A itself (any admissible gap gives the
    same value); every other set takes its smallest gap.  The five sets a step
    reads all have smaller span, so a post-order walk on an explicit stack
    computes each set once, after its parts."""
    if not carrier.has_div:
        raise SemiringError(f"{carrier.name} has no division")
    A = frozenset(a_set)
    if not A or not A <= set(range(1, n + 1)):
        raise LaurentError(f"A must be a nonempty subset of [{n}]")
    if j_choice is not None and (j_choice not in range(min(A) + 1, max(A)) or j_choice in A):
        raise LaurentError(f"{j_choice} is not a gap of {sorted(A)}")
    memo: dict[frozenset[int], object] = {}
    stack = [A]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        lo, hi = min(s), max(s)
        if len(s) == hi - lo + 1:
            memo[s] = vals[(lo, hi)]
            carrier.check(memo[s])
            continue
        pinned = s == A and j_choice is not None
        gap = j_choice if pinned else next(j for j in range(lo + 1, hi) if j not in s)
        x = s - {lo, hi}
        parts = (x | {lo, gap}, x | {hi}, x | {gap, hi}, x | {lo}, x | {gap})
        missing = [t for t in parts if t not in memo]
        if missing:
            stack.extend(missing)
        else:
            a, b, c, d, e = (memo[t] for t in parts)
            memo[s] = carrier._div(carrier._add(carrier._mul(a, b), carrier._mul(c, d)), e)
    return memo[A]
