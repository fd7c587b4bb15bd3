"""Quadratic relations between collection pairs: instantiation into a ground
set, evaluation against flow-generated functions, the balancedness test, and
the generators for the known balanced families.

A relation states that the sum over the left collection of
f(X u gamma(A)) * f(X u gamma(complement of A)) equals the same sum over the
right collection, for every network, weighting, semiring, and every admissible
choice of X and Y.  By the main equivalence this holds exactly when the two
collections are balanced.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from fractions import Fraction
from itertools import combinations

from ._record import Record
from .flows import FlowFunction, undefined_value
from .matchings import Collection, collection, is_balanced
from .network import PlanarNetwork
from .semiring import (
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POLY_NAT,
    POSITIVE_RATIONAL,
    TROPICAL_INT,
    TROPICAL_RATIONAL,
    Carrier,
    PackedPoly,
    Poly,
    Starred,
)


class RelationError(ValueError):
    pass


class QuadraticRelation(Record):
    _fields = ("p", "q", "lhs", "rhs")

    def __init__(self, p: int, q: int, lhs: Collection, rhs: Collection):
        if p < q or q < 1:
            raise RelationError("relations need p >= q >= 1")
        for side in (lhs, rhs):
            if (side.p, side.q) != (p, q):
                raise RelationError("collection parameters disagree with the relation")
        self.__dict__.update(p=p, q=q, lhs=lhs, rhs=rhs)


class Instantiation(Record):
    """Ground set [n], a spectator set X, and the window Y receiving [p+q]."""

    _fields = ("n", "x_set", "y_list")

    def __init__(self, n: int, x_set: frozenset[int], y_list: tuple[int, ...]):
        x_set = frozenset(x_set)
        y_list = tuple(sorted(y_list))
        y = set(y_list)
        if len(y) != len(y_list):
            raise RelationError("Y must not repeat elements")
        if x_set & y:
            raise RelationError("X and Y must be disjoint")
        universe = set(range(1, n + 1))
        if not (x_set <= universe and y <= universe):
            raise RelationError(f"X and Y must lie inside [{n}]")
        self.__dict__.update(n=n, x_set=x_set, y_list=y_list)

    def index_sets(self, a_set: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
        """I(A) = X u gamma(A) and J(A) = X u gamma([|Y|] - A), gamma the
        order isomorphism from [|Y|] onto Y."""
        A = frozenset(a_set)
        if not A <= frozenset(range(1, len(self.y_list) + 1)):
            raise RelationError(f"A must lie inside [{len(self.y_list)}]")
        I = [y for k, y in enumerate(self.y_list, start=1) if k in A]
        J = [y for k, y in enumerate(self.y_list, start=1) if k not in A]
        return self.x_set.union(I), self.x_set.union(J)


def default_instantiation(rel: QuadraticRelation, n: int | None = None) -> Instantiation:
    n = rel.p + rel.q if n is None else n
    return Instantiation(n=n, x_set=frozenset(), y_list=tuple(range(1, rel.p + rel.q + 1)))


def instantiate(rel: QuadraticRelation, inst: Instantiation):
    """Summand index-set pairs (I(A), J(A)) for both sides, in the canonical
    member order of each collection."""
    if len(inst.y_list) != rel.p + rel.q:
        raise RelationError("|Y| must equal p + q")
    return tuple(map(inst.index_sets, rel.lhs.members)), tuple(map(inst.index_sets, rel.rhs.members))


def _sum_side(f: FlowFunction, pairs):
    """Sum of f(I) * f(J) over the index-set pairs, as in :func:`evaluate_sides`.
    The raw carrier operations suffice: every f-value, whether a sweep or a
    path-matrix minor gives it, is made of weights checked once, when
    ``f`` charged them."""
    carrier = f.carrier
    mul, add = carrier._mul, carrier._add
    total = None
    for I, J in pairs:
        a = f(I)
        b = f(J)
        if a is None or b is None:
            continue
        term = mul(a, b)
        total = term if total is None else add(total, term)
    return undefined_value(carrier) if total is None else total


def evaluate_sides(f: FlowFunction, rel: QuadraticRelation, inst: Instantiation):
    """Both sums.  A summand with an undefined factor vanishes; under a
    Starred carrier the star propagates instead.  An all-undefined side is
    None (or the carrier zero / star when those exist)."""
    lhs_pairs, rhs_pairs = instantiate(rel, inst)
    return _sum_side(f, lhs_pairs), _sum_side(f, rhs_pairs)


def sides_equal(sides) -> bool:
    lhs, rhs = sides
    return lhs == rhs


def verify_stable(rel: QuadraticRelation) -> bool:
    """The main criterion: the relation is stable iff the pair is balanced."""
    return is_balanced(rel.lhs, rel.rhs).balanced


def symbolic_check(rel: QuadraticRelation, net: PlanarNetwork, inst: Instantiation | None = None) -> bool:
    """Evaluate both sides over polynomials with natural coefficients and one
    variable per vertex (per original vertex on a split network, whose
    weights sit on the split-edges); equality here means equality for every
    weighting over every commutative semiring on this network.

    The polynomials are :class:`PackedPoly` values over the network's vertex
    order.  An undefined f-value is the zero polynomial, which does the work
    of STAR: a summand with an undefined factor adds nothing, an
    all-undefined side is zero, and a defined product never is."""
    packed = PackedPoly(net.original_vertices() or net.vertices)
    weighting = {v: packed.pack(Poly.variable(v)) for v in packed.names}
    f = FlowFunction(net, weighting, packed)
    if inst is None:
        inst = default_instantiation(rel, n=len(net.sources))
    return sides_equal(evaluate_sides(f, rel, inst))


def family_triple() -> QuadraticRelation:
    """f(Xik) f(Xj) = f(Xij) f(Xk) + f(Xjk) f(Xi) for i < j < k."""
    return QuadraticRelation(2, 1, collection(2, 1, [(1, 3)]), collection(2, 1, [(1, 2), (2, 3)]))


def family_quadruple() -> QuadraticRelation:
    """f(Xik) f(Xjl) = f(Xij) f(Xkl) + f(Xil) f(Xjk) for i < j < k < l."""
    return QuadraticRelation(2, 2, collection(2, 2, [(1, 3)]), collection(2, 2, [(1, 2), (1, 4)]))


def family_quintuple() -> QuadraticRelation:
    """The quintuple relation on p = 3, q = 2."""
    return QuadraticRelation(
        3, 2, collection(3, 2, [(1, 3, 5)]), collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)])
    )


def base_matching(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """The unique feasible matching for [p]: arcs (p - i + 1, p + i)."""
    return tuple((p - i + 1, p + i) for i in range(1, q + 1))


def _split_by_parity(p: int, q: int, fixed, free, shift: int = 0, extra=()) -> QuadraticRelation:
    """The members fixed u z, z running over the (p - |fixed|)-subsets of free
    (disjoint from fixed): those whose element sum differs from ``shift`` by
    an odd number go left, after ``extra``, and the others right."""
    pool = [(*fixed, *z) for z in combinations(free, p - len(fixed))]
    odd = [a for a in pool if (sum(a) - shift) % 2]
    even = [a for a in pool if not (sum(a) - shift) % 2]
    return QuadraticRelation(p, q, collection(p, q, [*extra, *odd]), collection(p, q, even))


def family_interval_exchange(p: int, q: int, pi0: Iterable[tuple[int, int]]) -> QuadraticRelation:
    """Balanced family built from the base set [p] and an exchange over a
    nonempty subset of its matching: members share the exchanged tail R and
    split by the parity of their element sums relative to the exchanged set."""
    if p < q or q < 1:
        raise RelationError("family needs p >= q >= 1")
    m0 = base_matching(p, q)
    pi0 = [tuple(a) for a in pi0]
    chosen = set(pi0)
    if len(chosen) < len(pi0):
        raise RelationError("the exchanged arcs must be distinct")
    if not chosen:
        raise RelationError("the exchanged subset must be nonempty")
    if not chosen <= set(m0):
        raise RelationError("exchanged arcs must come from the base matching")
    b0 = tuple(range(1, p + 1))
    left = set(range(1, p - q + 1))
    right = set()
    for i in range(1, q + 1):
        if m0[i - 1] in chosen:
            right.add(p + i)
        else:
            left.add(p - i + 1)
    return _split_by_parity(p, q, right, b0, shift=sum(left | right), extra=(b0,))


def family_tail_fixed(p: int, q: int, q_tail: Iterable[int]) -> QuadraticRelation:
    """Members fixing A intersect [p+2 .. p+q] = Q, split by parity of the
    element sum."""
    if p < q or q < 1:
        raise RelationError("family needs p >= q >= 1")
    tail_range = set(range(p + 2, p + q + 1))
    q_tail = tuple(q_tail)
    q_set = frozenset(q_tail)
    if len(q_set) < len(q_tail):
        raise RelationError("Q must not repeat an element")
    if not q_set <= tail_range:
        raise RelationError(f"Q must lie inside [{p + 2}..{p + q}]")
    head_range = [x for x in range(1, p + q + 1) if x not in tail_range]
    return _split_by_parity(p, q, q_set, head_range)


def dominance_leq(a: Iterable[int], b: Iterable[int]) -> bool:
    """a precedes b when a is at least as long and elementwise <= on the
    common prefix length |b|."""
    a = tuple(sorted(a))
    b = tuple(sorted(b))
    if len(a) < len(b):
        return False
    return all(a[i] <= b[i] for i in range(len(b)))


def family_groebner(p: int, q: int, b_set: Iterable[int], d: int | None = None) -> QuadraticRelation:
    """Balanced family from a p-subset B incomparable with its complement:
    split B and its complement at position d (where b_d exceeds the d-th
    complement element), pool the straddling segment, and partition the
    resulting members by parity of the element sum."""
    if p < q or q < 1:
        raise RelationError("family needs p >= q >= 1")
    b = tuple(sorted(b_set))
    n = p + q
    if len(b) != p or len(set(b)) != p or not set(b) <= set(range(1, n + 1)):
        raise RelationError(f"B must be a {p}-subset of [{n}]")
    bbar = tuple(x for x in range(1, n + 1) if x not in set(b))
    if dominance_leq(b, bbar) or dominance_leq(bbar, b):
        raise RelationError("B must be incomparable with its complement")
    candidates = [k for k in range(1, q + 1) if b[k - 1] > bbar[k - 1]]
    if d is None:
        d = candidates[0]
    if d not in candidates:
        raise RelationError(f"d = {d} does not satisfy b_d > complement_d")
    return _split_by_parity(p, q, b[: d - 1], bbar[:d] + b[d - 1 :])


def grassmann_summands(
    p: int,
    q: int,
    n: int,
    x_set: Iterable[int],
    i_list: Iterable[int],
    j_list: Iterable[int],
    r_set: Iterable[int],
):
    """Summand pairs of the concrete exchange relation on I, J, R.

    The left side carries the f(X u I) * f(X u J) term plus the odd-parity
    exchanges; the right side the even-parity ones.  A subset of I of size |R|
    is even when the index sum of R inside J and the reversed index sum of the
    subset inside I share their parity."""
    X, I, J, R = (tuple(sorted(s)) for s in (x_set, i_list, j_list, r_set))
    if any(len(set(s)) != len(s) for s in (X, I, J, R)):
        raise RelationError("X, I, J and R must not repeat elements")
    X, R = frozenset(X), frozenset(R)
    if len(I) != p or len(J) != q:
        raise RelationError("need |I| = p and |J| = q")
    universe = set(range(1, n + 1))
    pieces = [set(X), set(I), set(J)]
    if any(a & b for a, b in combinations(pieces, 2)):
        raise RelationError("X, I, J must be pairwise disjoint")
    if not (set(X) | set(I) | set(J)) <= universe:
        raise RelationError(f"index sets must lie in [{n}]")
    if not R <= set(J):
        raise RelationError("R must be a subset of J")
    r_parity = sum(k for k, j in enumerate(J, start=1) if j in R) % 2
    lhs = [(frozenset(X | set(I)), frozenset(X | set(J)))]
    rhs = []
    for tilde in combinations(I, len(R)):
        t_parity = sum(p + 1 - k for k, i in enumerate(I, start=1) if i in tilde) % 2
        first = frozenset(X | (set(I) - set(tilde)) | R)
        second = frozenset(X | set(tilde) | (set(J) - R))
        if t_parity == r_parity:
            rhs.append((first, second))
        else:
            lhs.append((first, second))
    return tuple(lhs), tuple(rhs)


def random_weighting(vertices: Iterable[str], carrier: Carrier, rng: random.Random):
    """Seeded random weighting suited to the carrier; polynomial carriers get
    random monomials in the vertex's own variable so products stay small."""
    out = {}
    for v in vertices:
        if carrier is COUNTING_NAT:
            out[v] = rng.randint(0, 4)
        elif carrier is EXACT_INT:
            out[v] = rng.randint(-3, 3)
        elif carrier is POSITIVE_RATIONAL:
            out[v] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        elif carrier is TROPICAL_INT:
            out[v] = rng.randint(-5, 5)
        elif carrier is TROPICAL_RATIONAL:
            out[v] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        elif carrier is POLY_NAT:
            out[v] = Poly.const(rng.randint(1, 3)) * Poly.variable(v, rng.randint(0, 2))
        elif carrier is POLY_INT:
            sign = rng.choice((-1, 1))
            out[v] = Poly.const(sign * rng.randint(1, 3)) * Poly.variable(v, rng.randint(0, 2))
        elif isinstance(carrier, Starred):
            out = random_weighting(vertices, carrier.inner, rng)
            break
        else:
            raise RelationError(f"no weighting generator for {carrier.name}")
    return out
