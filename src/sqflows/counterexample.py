"""Gadget networks witnessing that non-balanced pairs break the relation.

For a witness matching M the gadget has one half-circumference subgraph per
arc: arc (i, j) with span Delta = (j - i + 1)/2 becomes the fan
s_i = v_0 -> u_1 <- v_1 -> u_2 <- ... -> u_Delta <- v_Delta = s_j, successors
hook their u-vertices into the enclosing arc's interior v-vertices left to
right, and the sinks are the u-vertices of the maximal arcs.  The gadget has a
unique A-flow and a unique complement-flow exactly when M is feasible for A,
and no such pair otherwise; with unit integer weights the two sides of the
relation then count members, which differ on a witness.  Both side sums and
the P1/P2 check read f(A) * f(A-hat) off one table of the unit-weight f over
every p-subset of the 2p sources (:func:`sqflows.flows.flag_table`), built
once per gadget.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import cached_property

from ._record import Record
from .flows import flag_table
from .matchings import (
    Collection,
    MatchingError,
    NestedMatching,
    is_balanced,
)
from .network import PlanarNetwork
from .semiring import EXACT_INT


class GadgetError(ValueError):
    pass


class AugmentedMatching(Record):
    """M padded to a complete nested matching on [2p]: each free element i_l
    gains the arc (i_l, 2p - l + 1)."""

    _fields = ("original", "result", "p", "q")

    def __init__(self, original: NestedMatching, result: NestedMatching, p: int, q: int):
        self.__dict__.update(original=original, result=result, p=p, q=q)


def augment_matching(matching: NestedMatching, p: int, q: int) -> AugmentedMatching:
    if p < q:
        raise GadgetError("augmentation needs p >= q")
    if matching.ambient != p + q or len(matching.arcs) != q:
        raise GadgetError("matching must have q arcs on [p+q]")
    if not (matching.pairwise_disjoint() and matching.is_nested() and matching.free_uncovered()):
        raise GadgetError("not a nested matching")
    free = matching.free_elements()
    new_arcs = tuple((free[l - 1], 2 * p - l + 1) for l in range(1, p - q + 1))
    result = NestedMatching(matching.arcs + new_arcs, 2 * p)
    return AugmentedMatching(original=matching, result=result, p=p, q=q)


class GadgetNetwork(Record):
    _fields = ("network", "matching", "p")

    def __init__(self, network: PlanarNetwork, matching: NestedMatching, p: int):
        self.__dict__.update(network=network, matching=matching, p=p)

    @cached_property
    def table(self) -> dict[int, int]:
        """Unit-weight f(A), the number of flag flows for A, for every
        p-subset A of the 2p sources that has one, keyed by the bitmask of A
        (bit i - 1 for i); built in one pass for the life of the gadget."""
        net = self.network
        return flag_table(net, dict.fromkeys(net.vertices, 1), EXACT_INT, self.p)

    def pair_count(self, a_set: Iterable[int]) -> int:
        """f(A) * f(A-hat) under unit weights, A a p-subset of [2p] and A-hat
        its complement there."""
        a_set = set(a_set)
        if len(a_set) != self.p or not a_set <= set(range(1, 2 * self.p + 1)):
            raise self._subset_error()
        return self._pair_counts([sum(1 << i - 1 for i in a_set)])

    def _subset_error(self) -> GadgetError:
        return GadgetError(f"pair count needs a {self.p}-subset of [{2 * self.p}]")

    def _pair_counts(self, masks) -> int:
        """The sum of f(A) * f(A-hat) over the bitmasks of checked p-subsets
        A of [2p]."""
        table = self.table
        full = (1 << 2 * self.p) - 1
        return sum(table.get(mask, 0) * table.get(mask ^ full, 0) for mask in masks)


def _u_name(arc, l):
    return f"pi({arc[0]},{arc[1]}):u{l}"


def _v_name(arc, l):
    return f"pi({arc[0]},{arc[1]}):v{l}"


def build_gadget_network(m_hat: NestedMatching, connect: bool = False) -> GadgetNetwork:
    """Gadget for a complete nested matching on [2p].

    With ``connect`` the weak-connectivity vertices z_i (edges into s_i and
    s_{i+1}) are added; they carry no flow, so all flow counts are unchanged.
    """
    two_p = m_hat.ambient
    if two_p % 2 or len(m_hat.arcs) * 2 != two_p:
        raise GadgetError("gadget needs a complete matching on [2p]")
    if m_hat.free_elements():
        raise GadgetError("gadget needs a matching without free elements")
    if not (m_hat.pairwise_disjoint() and m_hat.is_nested()):
        raise GadgetError("not a nested matching")
    p = two_p // 2

    # Every arc encloses only whole arcs, so each has odd length and the
    # maximal arcs tile [2p].  The arcs come sorted by left end; an arc's
    # parent is the innermost still-open arc on a stack of enclosing arcs.
    vertices = []
    coords = []
    edges = []
    links = []
    sinks = []
    source_vertex: dict[int, str] = {}
    enclosing: list[tuple[int, int]] = []
    for arc in m_hat.arcs:
        i, j = arc
        delta = (j - i + 1) // 2
        radius = (j - i) / 2
        center = (i + j) / 2
        names = []
        for step in range(2 * delta + 1):
            name = _v_name(arc, step // 2) if step % 2 == 0 else _u_name(arc, (step + 1) // 2)
            names.append(name)
            x = i + step * (j - i) / (2 * delta)
            y = math.sqrt(max(radius * radius - (x - center) ** 2, 0.0))
            vertices.append(name)
            coords.append((name, x, y))
        source_vertex[i] = names[0]
        source_vertex[j] = names[-1]
        for l in range(1, delta + 1):
            edges.append((_v_name(arc, l - 1), _u_name(arc, l)))
            edges.append((_v_name(arc, l), _u_name(arc, l)))
        while enclosing and enclosing[-1][1] < i:
            enclosing.pop()
        if enclosing:
            parent = enclosing[-1]
            offset = (i - parent[0] - 1) // 2
            links.extend((_u_name(arc, l), _v_name(parent, offset + l)) for l in range(1, delta + 1))
        else:
            sinks.extend(_u_name(arc, l) for l in range(1, delta + 1))
        enclosing.append(arc)
    edges += links

    sources = tuple(source_vertex[k] for k in range(1, two_p + 1))
    if connect:
        for k in range(1, two_p):
            z = f"z{k}"
            vertices.append(z)
            coords.append((z, k + 0.5, -0.5))
            edges.append((z, sources[k - 1]))
            edges.append((z, sources[k]))

    net = PlanarNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=sources,
        sinks=tuple(sinks),
        planarity="constructed",
        coords=tuple(coords),
    )
    return GadgetNetwork(network=net, matching=m_hat, p=p)


def verify_P1_P2(gadget: GadgetNetwork, matching: NestedMatching, p: int, q: int) -> bool:
    """Exhaustively check P1/P2 by counts: f(A) * f(A-hat) is 1 when M is
    feasible for A (exactly one A-flow and one complement-flow) and 0
    otherwise (one side has no flow).  A product, so a count of 2 fails.

    Only the table's nonzero entries inside [p+q] are read: each A with a
    nonzero product must have product 1 and be feasible, and there must be
    2^q of them, as many as the p-subsets a nested q-arc matching on [p+q]
    is feasible for.  A p-subset holding one end of each arc is feasible:
    its other p - q members are then the free elements."""
    augment_matching(matching, p, q)  # rejects what is not a nested matching on [p+q]
    table = gadget.table
    full = (1 << 2 * gadget.p) - 1
    outside = full ^ ((1 << p + q) - 1)
    arcs = [1 << i - 1 | 1 << j - 1 for i, j in matching.arcs]
    paired = 0
    for a_mask, count in table.items():
        if a_mask & outside:
            continue
        product = count * table.get(full ^ a_mask, 0)
        if not product:
            continue
        if product != 1 or any((a_mask & arc).bit_count() != 1 for arc in arcs):
            return False
        paired += 1
    return paired == 1 << q


class InequalityReport(Record):
    _fields = ("witness", "augmented", "gadget", "lhs_sum", "rhs_sum", "p1_p2_verified")

    def __init__(
        self,
        witness: NestedMatching,
        augmented: AugmentedMatching,
        gadget: GadgetNetwork,
        lhs_sum: int,
        rhs_sum: int,
        p1_p2_verified: bool,
    ):
        self.__dict__.update(
            witness=witness,
            augmented=augmented,
            gadget=gadget,
            lhs_sum=lhs_sum,
            rhs_sum=rhs_sum,
            p1_p2_verified=p1_p2_verified,
        )


def side_sums(lhs: Collection, rhs: Collection, gadget: GadgetNetwork) -> tuple[int, int]:
    """Both sides of the relation on ``gadget`` under unit weights: the sums
    of f(A) * f(A-hat) over each collection, A-hat the complement in [2p].

    A collection's members are p-subsets of [p+q], so one test of p and of
    the largest member bitmask checks them all against the gadget."""
    sums = []
    for coll in (lhs, rhs):
        masks = [sum(1 << i - 1 for i in m) for m in coll.members]
        if masks and (coll.p != gadget.p or max(masks) >> 2 * gadget.p):
            raise gadget._subset_error()
        sums.append(gadget._pair_counts(masks))
    return sums[0], sums[1]


def evaluate_inequality(lhs: Collection, rhs: Collection) -> InequalityReport:
    """For a non-balanced pair, build the witness gadget and exhibit the two
    differing side sums (unit weights over the integers)."""
    result = is_balanced(lhs, rhs)
    if result.balanced:
        raise MatchingError("pair is balanced; no counterexample exists")
    witness = result.witness
    aug = augment_matching(witness, lhs.p, lhs.q)
    gadget = build_gadget_network(aug.result)
    lhs_sum, rhs_sum = side_sums(lhs, rhs, gadget)
    if lhs_sum == rhs_sum:
        raise GadgetError("witness gadget failed to separate the sides")
    return InequalityReport(
        witness=witness,
        augmented=aug,
        gadget=gadget,
        lhs_sum=lhs_sum,
        rhs_sum=rhs_sum,
        p1_p2_verified=verify_P1_P2(gadget, witness, lhs.p, lhs.q),
    )
