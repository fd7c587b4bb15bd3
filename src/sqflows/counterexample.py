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
from functools import cached_property
from itertools import combinations
from typing import Iterable

from .flows import FlowFunction
from .matchings import (
    Collection,
    MatchingError,
    NestedMatching,
    is_balanced,
    is_feasible,
)
from .network import PlanarNetwork
from .semiring import EXACT_INT


class GadgetError(ValueError):
    pass


@dataclass(frozen=True)
class AugmentedMatching:
    """M padded to a complete nested matching on [2p]: each free element i_l
    gains the arc (i_l, 2p - l + 1)."""

    original: NestedMatching
    result: NestedMatching
    p: int
    q: int


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


@dataclass(frozen=True)
class GadgetNetwork:
    network: PlanarNetwork
    matching: NestedMatching
    p: int

    @cached_property
    def flow_count(self) -> FlowFunction:
        """Unit-weight f(I), the number of flag flows for I, memoized for the
        life of the gadget."""
        return FlowFunction(self.network, dict.fromkeys(self.network.vertices, 1), EXACT_INT)

    def pair_count(self, a_set: Iterable[int]) -> int:
        """f(A) * f(A-hat) under unit weights, A-hat the complement of A in
        [2p]; A-hat is not counted when A has no flow."""
        count = self.flow_count(a_set)
        if count:
            count *= self.flow_count(set(range(1, 2 * self.p + 1)).difference(a_set))
        return count


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
        coords=tuple(coords),
    )
    return GadgetNetwork(network=net, matching=m_hat, p=p)


def verify_P1_P2(gadget: GadgetNetwork, matching: NestedMatching, p: int, q: int) -> bool:
    """Exhaustively check P1/P2 by counts: f(A) * f(A-hat) is 1 when M is
    feasible for A (exactly one A-flow and one complement-flow) and 0
    otherwise (one side has no flow).  A product, so a count of 2 fails."""
    augment_matching(matching, p, q)  # rejects what is not a nested matching on [p+q]
    return all(
        gadget.pair_count(a_set) == is_feasible(matching, a_set)
        for a_set in combinations(range(1, p + q + 1), p)
    )


@dataclass(frozen=True)
class InequalityReport:
    witness: NestedMatching
    augmented: AugmentedMatching
    gadget: GadgetNetwork
    lhs_sum: int
    rhs_sum: int
    p1_p2_verified: bool


def side_sums(lhs: Collection, rhs: Collection, gadget: GadgetNetwork) -> tuple[int, int]:
    """Both sides of the relation on ``gadget`` under unit weights: the sums
    of f(A) * f(A-hat) over each collection, A-hat the complement in [2p]."""
    return sum(map(gadget.pair_count, lhs.members)), sum(map(gadget.pair_count, rhs.members))


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
