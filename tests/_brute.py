"""Independent brute-force oracles for the tests.

These deliberately avoid the production algorithms: path systems come from a
plain all-simple-paths DFS over every sink pairing, matchings from endpoint
subsets times all pairings, determinants from cofactor or Leibniz expansion,
Laurent monomials from a Counter of interval degrees per flow.  One oracle,
``tuple_laurent``, shares the flow listing with production and checks only
the decoding and sorting of the expansion.  The ``checked_*`` references
evaluate the interval formulas and polynomials one operation at a time
through the checked ``Carrier.add``/``mul``/``div``/``neg``.
"""

from collections import Counter
from functools import cache, reduce
from itertools import combinations, permutations

from sqflows.flows import list_flows
from sqflows.laurent import _weight_ratio, intervals
from sqflows.matchings import NestedMatching, is_feasible
from sqflows.network import build_half_grid, half_grid_vertex


def all_simple_paths(net, start, goal):
    paths = []

    def walk(v, seen, acc):
        if v == goal:
            paths.append(tuple(acc))
            return
        for u in net.out(v):
            if u not in seen:
                walk(u, seen | {u}, acc + [u])

    walk(start, {start}, [start])
    return paths


def naive_disjoint_systems(net, srcs, dsts):
    """All pairwise vertex-disjoint systems srcs[k] -> dsts[k]."""
    choices = [all_simple_paths(net, s, t) for s, t in zip(srcs, dsts)]
    systems = []

    def build(k, acc, used):
        if k == len(choices):
            systems.append(tuple(acc))
            return
        for path in choices[k]:
            if used & set(path):
                continue
            build(k + 1, acc + [path], used | set(path))

    build(0, [], set())
    return systems


def naive_flag_flows(net, I):
    """Disjoint systems from S_I to the first |I| sinks over EVERY pairing;
    planarity should leave only the order-preserving one."""
    I = sorted(I)
    srcs = [net.sources[i - 1] for i in I]
    dsts = list(net.sinks[: len(I)])
    out = []
    for perm in permutations(range(len(I))):
        shuffled = [dsts[perm[k]] for k in range(len(I))]
        for system in naive_disjoint_systems(net, srcs, shuffled):
            out.append((perm, system))
    return out


def _interval_degrees(i, j):
    """The interval degrees of the half-grid weight w(i, j) = f(I_ij) f(I_i-1,j-1)
    / (f(I_i-1,j) f(I_i,j-1)), w(i, i) = f(I_ii) / f(I_i,i-1), where I_ij is
    [(i-j+1)..i] and I_i0 is the unit."""
    num = [(i, j)] if i == j else [(i, j), (i - 1, j - 1)]
    den = [(i, j - 1)] if i == j else [(i - 1, j), (i, j - 1)]
    degrees = Counter()
    for (a, b), d in [(iv, 1) for iv in num] + [(iv, -1) for iv in den]:
        if b:
            degrees[(a - b + 1, a)] += d
    return degrees


def naive_laurent(net, A):
    """Sorted monomials of f(A) on the half-grid ``net``: one per
    order-preserving disjoint system, its vertices' interval degrees summed."""
    A = sorted(A)
    srcs = [net.sources[i - 1] for i in A]
    monos = []
    for system in naive_disjoint_systems(net, srcs, net.sinks[: len(A)]):
        total = Counter()
        for path in system:
            for name in path:
                total.update(_interval_degrees(*map(int, name.split(","))))
        monos.append(tuple(sorted((iv, d) for iv, d in total.items() if d)))
    return sorted(monos)


def tuple_laurent(n, A):
    """The monomials of f(A) on the half-grid of size n, each flow's packed
    degrees (as ``laurent_expand`` packs them) decoded one field at a time
    into its tuple of nonzero (interval, degree) pairs, the tuples sorted."""
    fields = sorted(intervals(n))
    shift = {iv: 8 * k for k, iv in enumerate(fields)}
    packed = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            num, den = _weight_ratio(i, j)
            packed[half_grid_vertex(i, j)] = sum(1 << shift[iv] for iv in num if iv) - sum(
                1 << shift[iv] for iv in den if iv
            )
    size = len(fields)
    offset = int.from_bytes(bytes([128]) * size, "little")
    monos = []
    for degrees in list_flows(build_half_grid(n), A, None, lambda path: sum(packed[v] for v in path)):
        raw = (offset + sum(degrees)).to_bytes(size, "little")
        monos.append(tuple((iv, b - 128) for iv, b in zip(fields, raw) if b != 128))
    return sorted(monos)


def coinciding_terminals(sources, sinks):
    """The network check's messages for a source that is also a sink, by
    comparing every source with every sink: all but s1 = t1 and the last
    source as the last sink, source index first, then sink index."""
    out = []
    for i, s in enumerate(sources, start=1):
        for j, t in enumerate(sinks, start=1):
            if s == t and (i, j) not in ((1, 1), (len(sources), len(sinks))):
                out.append(f"source s{i} coincides with sink t{j}: {s}")
    return out


def naive_feasible_matchings(a_set, p, q):
    """Filter every set of q disjoint arcs on [p+q] through is_feasible."""
    n = p + q
    found = []
    for ends in combinations(range(1, n + 1), 2 * q):
        for pairing in _pairings(list(ends)):
            m = NestedMatching(tuple(pairing), n)
            if is_feasible(m, a_set) and m not in found:
                found.append(m)
    return sorted(found, key=lambda m: m.arcs)


def _pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1 :]
        for tail in _pairings(rest):
            yield [(first, items[k])] + tail


def det_cofactor(matrix):
    """Integer determinant by first-row cofactor expansion."""
    k = len(matrix)
    if k == 0:
        return 1
    if k == 1:
        return matrix[0][0]
    total = 0
    for c in range(k):
        sub = [row[:c] + row[c + 1 :] for row in [list(r) for r in matrix[1:]]]
        term = matrix[0][c] * det_cofactor(sub)
        total += term if c % 2 == 0 else -term
    return total


def det_leibniz(matrix, carrier):
    """Determinant over a ring carrier by the signed Leibniz expansion, the
    sign of a permutation taken from its inversion count."""
    k = len(matrix)
    total = carrier.zero
    for perm in permutations(range(k)):
        term = carrier.one
        for r in range(k):
            term = carrier.mul(term, matrix[r][perm[r]])
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        total = carrier.add(total, carrier.neg(term) if inversions & 1 else term)
    return total


def checked_intervals_of(weighting, n, carrier):
    """f([lo..hi]) as the product of the weights w(i, j), i <= hi,
    j <= min(i, hi - lo + 1), in that order."""
    out = {}
    for lo, hi in intervals(n):
        rectangle = [(i, j) for i in range(1, hi + 1) for j in range(1, min(i, hi - lo + 1) + 1)]
        out[(lo, hi)] = reduce(carrier.mul, [weighting[half_grid_vertex(i, j)] for i, j in rectangle])
    return out


def checked_weights_from_intervals(vals, n, carrier):
    """w(i, i) = f(I_ii) / f(I_i,i-1) and w(i, j) = f(I_ij) f(I_i-1,j-1) /
    (f(I_i-1,j) f(I_i,j-1)), where I_ij = [(i-j+1)..i] and I_i0 is the unit."""

    def f(i, j):
        return carrier.one if j == 0 else vals[(i - j + 1, i)]

    out = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if i == j:
                w = carrier.div(f(i, i), f(i, i - 1))
            else:
                w = carrier.div(carrier.mul(f(i, j), f(i - 1, j - 1)), carrier.mul(f(i - 1, j), f(i, j - 1)))
            out[half_grid_vertex(i, j)] = w
    return out


def checked_reconstruct(vals, a_set, carrier):
    """f(A) by recursive triple elimination at the smallest gap j:
    (f(Xij) f(Xk) + f(Xjk) f(Xi)) / f(Xj), with i = min A, k = max A and
    X = A - {i, k}; an interval is its own value."""

    @cache
    def f(s):
        lo, hi = min(s), max(s)
        gaps = [j for j in range(lo + 1, hi) if j not in s]
        if not gaps:
            return vals[(lo, hi)]
        j = gaps[0]
        x = s - {lo, hi}
        left = carrier.mul(f(x | {lo, j}), f(x | {hi}))
        right = carrier.mul(f(x | {j, hi}), f(x | {lo}))
        return carrier.div(carrier.add(left, right), f(x | {j}))

    return f(frozenset(a_set))


def checked_laurent_evaluate(expr, vals, carrier):
    """The sum over the monomials of (product of the positive powers) /
    (product of the negative powers), one factor at a time."""
    total = None
    for mono in expr.monomials:
        num = den = carrier.one
        for iv, deg in mono:
            for _ in range(abs(deg)):
                if deg > 0:
                    num = carrier.mul(num, vals[iv])
                else:
                    den = carrier.mul(den, vals[iv])
        value = carrier.div(num, den)
        total = value if total is None else carrier.add(total, value)
    return total


def checked_poly_evaluate(poly, env, carrier):
    """A nonzero polynomial's image: each monomial's powers as repeated
    products from the unit, its coefficient as a repeated sum (negated when
    negative), the terms summed in monomial order."""
    total = None
    for mono in sorted(poly.terms):
        coeff = poly.terms[mono]
        value = carrier.one
        for var, exp in mono:
            for _ in range(exp):
                value = carrier.mul(value, env[var])
        term = value
        for _ in range(abs(coeff) - 1):
            term = carrier.add(term, value)
        if coeff < 0:
            term = carrier.neg(term)
        total = term if total is None else carrier.add(total, term)
    return total
