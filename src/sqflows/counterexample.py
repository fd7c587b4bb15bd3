"""Gadget networks witnessing that non-balanced pairs break the relation.

For a witness matching M the gadget has one half-circumference subgraph per
arc: arc (i, j) with span Delta = (j - i + 1)/2 becomes the fan
s_i = v_0 -> u_1 <- v_1 -> u_2 <- ... -> u_Delta <- v_Delta = s_j, successors
hook their u-vertices into the enclosing arc's interior v-vertices left to
right, and the sinks are the u-vertices of the maximal arcs.  The gadget has a
unique A-flow and a unique complement-flow exactly when M is feasible for A,
and no such pair otherwise; with unit integer weights the two sides of the
relation then count members, which differ on a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .flows import FlowFunction, enumerate_flag_flows
from .matchings import (
    Collection,
    MatchingError,
    NestedMatching,
    is_balanced,
    is_feasible,
)
from .network import PlanarNetwork
from .relations import _sum_side
from .semiring import EXACT_INT, Carrier


class GadgetError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentedMatching:
    """M padded to a complete nested matching on [2p]: each free element i_l
    gains the arc (i_l, 2p - l + 1); the complement of A is taken in [2p]."""

    original: NestedMatching
    result: NestedMatching
    p: int
    q: int

    def complement(self, a_set: Iterable[int]) -> frozenset[int]:
        full = set(range(1, self.p + self.q + 1))
        extra = set(range(self.p + self.q + 1, 2 * self.p + 1))
        return frozenset((full - set(a_set)) | extra)


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
    if not (result.pairwise_disjoint() and result.is_nested() and result.free_uncovered()):
        raise GadgetError("augmentation produced an invalid matching")
    return AugmentedMatching(original=matching, result=result, p=p, q=q)


@dataclass(frozen=True)
class GadgetNetwork:
    network: PlanarNetwork
    matching: NestedMatching
    p: int


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

    spans = {arc: (arc[1] - arc[0] + 1) // 2 for arc in m_hat.arcs}
    for (i, j), delta in spans.items():
        if (j - i) % 2 == 0:
            raise GadgetError(f"arc ({i},{j}) has even length")

    def predecessor(arc):
        best = None
        for other in m_hat.arcs:
            if other == arc:
                continue
            if other[0] < arc[0] and arc[1] < other[1]:
                if best is None or best[0] < other[0]:
                    best = other
        return best

    vertices = []
    coords = []
    edges = []
    source_vertex: dict[int, str] = {}
    for arc in m_hat.arcs:
        i, j = arc
        delta = spans[arc]
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

    for arc in m_hat.arcs:
        pred = predecessor(arc)
        if pred is None:
            continue
        i_alpha = arc[0]
        offset = (i_alpha - pred[0] - 1) // 2
        for l in range(1, spans[arc] + 1):
            edges.append((_u_name(arc, l), _v_name(pred, offset + l)))

    maximal = sorted(arc for arc in m_hat.arcs if predecessor(arc) is None)
    sinks = []
    for arc in maximal:
        sinks.extend(_u_name(arc, l) for l in range(1, spans[arc] + 1))
    if len(sinks) != p:
        raise GadgetError("sink count mismatch")

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
        coords=tuple(coords),
    )
    return GadgetNetwork(network=net, matching=m_hat, p=p)


def verify_P1_P2(gadget: GadgetNetwork, matching: NestedMatching, p: int, q: int) -> bool:
    """Exhaustively check: feasible A gives exactly one A-flow and one
    complement-flow; infeasible A leaves at least one side without flows."""
    aug = augment_matching(matching, p, q)
    n = p + q
    for a_tuple in combinations(range(1, n + 1), p):
        a_set = frozenset(a_tuple)
        count_a = len(enumerate_flag_flows(gadget.network, a_set))
        count_hat = len(enumerate_flag_flows(gadget.network, aug.complement(a_set)))
        if is_feasible(matching, a_set):
            if count_a != 1 or count_hat != 1:
                return False
        else:
            if count_a != 0 and count_hat != 0:
                return False
    return True


@dataclass(frozen=True)
class InequalityReport:
    witness: NestedMatching
    augmented: AugmentedMatching
    gadget: GadgetNetwork
    lhs_sum: int
    rhs_sum: int
    p1_p2_verified: bool


def side_sums(
    lhs: Collection,
    rhs: Collection,
    matching: NestedMatching,
    carrier: Carrier,
    weighting=None,
):
    """Both sides of the relation on the gadget of ``matching``: the sums of
    f(A) * f(A-hat) over each collection, A-hat the complement in [2p]."""
    aug = augment_matching(matching, lhs.p, lhs.q)
    gadget = build_gadget_network(aug.result)
    if weighting is None:
        weighting = {v: 1 for v in gadget.network.vertices}
    f = FlowFunction(gadget.network, weighting, carrier)

    def one_side(coll: Collection):
        return _sum_side(f, [(member, aug.complement(member)) for member in coll.members])

    return one_side(lhs), one_side(rhs), gadget


def evaluate_inequality(lhs: Collection, rhs: Collection) -> InequalityReport:
    """For a non-balanced pair, build the witness gadget and exhibit the two
    differing side sums (unit weights over the integers)."""
    result = is_balanced(lhs, rhs)
    if result.balanced:
        raise MatchingError("pair is balanced; no counterexample exists")
    witness = result.witness
    aug = augment_matching(witness, lhs.p, lhs.q)
    lhs_sum, rhs_sum, gadget = side_sums(lhs, rhs, witness, EXACT_INT)
    ok = verify_P1_P2(gadget, witness, lhs.p, lhs.q)
    if lhs_sum == rhs_sum:
        raise GadgetError("witness gadget failed to separate the sides")
    return InequalityReport(
        witness=witness,
        augmented=aug,
        gadget=gadget,
        lhs_sum=lhs_sum,
        rhs_sum=rhs_sum,
        p1_p2_verified=ok,
    )
