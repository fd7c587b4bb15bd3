"""Superposition of two flag flows, its circuit/path decomposition, the
decomposition count, and the exchange operation along essential paths.

Everything here works in the split network only: the alternation argument
behind the decomposition needs every non-terminal vertex to carry exactly one
split-edge.  So the multiplicity-one subgraph has maximum degree two, and
each of its components, a circuit or a simple path, is walked once.  The
instance (X, Y) and the set A are recovered from the two flows' source index
sets: X is the shared part, Y the symmetric difference, and A marks the
positions of the first flow inside Y.
"""

from __future__ import annotations

from collections import Counter

from ._record import Record
from .flows import Flow, list_flows
from .matchings import NestedMatching, exchange, is_feasible
from .network import SPLIT, PlanarNetwork
from .relations import Instantiation


class DoubleFlowError(ValueError):
    pass


class DoubleFlow(Record):
    """Edge multiplicity function xi in {0,1,2}, stored sparsely and sorted,
    with the instance (X, Y) and the set A whose I(A) and J(A) are the two
    flows' source index sets.  Equality, hashing and repr leave out the
    network."""

    _fields = ("multiplicities", "instance", "a_set", "network")
    _uncompared = _hidden = ("network",)

    def __init__(
        self,
        multiplicities: tuple[tuple[tuple[str, str], int], ...],
        instance: Instantiation,
        a_set: frozenset[int],
        network: PlanarNetwork,
    ):
        self.__dict__.update(multiplicities=multiplicities, instance=instance, a_set=a_set, network=network)

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(self.multiplicities)

    def level_edges(self, level: int) -> tuple[tuple[str, str], ...]:
        return tuple(e for e, m in self.multiplicities if m == level)


def superpose(phi: Flow, phi_prime: Flow) -> DoubleFlow:
    """xi = indicator(edges of phi) + indicator(edges of phi_prime)."""
    if phi.network != phi_prime.network:
        raise DoubleFlowError("flows live in different networks")
    net = phi.network
    if not net.is_split:
        raise DoubleFlowError("double flows need the split network")
    for f in (phi, phi_prime):
        if f.sink_indices != tuple(range(1, len(f.source_indices) + 1)):
            raise DoubleFlowError("double flows are built from flag flows")
    I = frozenset(phi.source_indices)
    J = frozenset(phi_prime.source_indices)
    if len(I - J) < len(J - I):
        raise DoubleFlowError("first flow must carry the larger side (p >= q)")
    instance = Instantiation(n=len(net.sources), x_set=I & J, y_list=tuple(I ^ J))
    counts = Counter(phi.edges()) + Counter(phi_prime.edges())
    return DoubleFlow(
        multiplicities=tuple(sorted(counts.items())),
        instance=instance,
        a_set=frozenset(k for k, y in enumerate(instance.y_list, start=1) if y in I),
        network=net,
    )


class Decomposition(Record):
    """Connected components of the multiplicity-one subgraph: circuits plus
    simple paths whose ends sit among the gamma(A)/gamma(complement) sources
    and the sinks in the window (|J(A)|, |I(A)|].

    ``essential_arcs`` is aligned with ``essential_paths``; the matching holds
    the same arcs in canonical sorted order."""

    _fields = ("circuits", "paths", "essential_arcs", "essential_paths", "matching")

    def __init__(
        self,
        circuits: tuple[tuple[tuple[str, str], ...], ...],
        paths: tuple[tuple[tuple[str, str], ...], ...],
        essential_arcs: tuple[tuple[int, int], ...],
        essential_paths: tuple[tuple[tuple[str, str], ...], ...],
        matching: NestedMatching,
    ):
        self.__dict__.update(
            circuits=circuits,
            paths=paths,
            essential_arcs=essential_arcs,
            essential_paths=essential_paths,
            matching=matching,
        )

    @property
    def d(self) -> int:
        return len(self.circuits)


def _walk(adjacency, start):
    """Follow multiplicity-one edges from start, never straight back, until
    the walk is stuck or closes at start; returns the edges plus the vertex
    met before each one and the last."""
    edges, stops = [], [start]
    while not edges or stops[-1] != start:
        step = [(e, other) for e, other in adjacency[stops[-1]] if not edges or e != edges[-1]]
        if not step:
            break
        edges.append(step[0][0])
        stops.append(step[0][1])
    return edges, stops


def _audit_alternation(ordered, stops, split_of, table, circuit: bool) -> None:
    """Where consecutive component edges meet head-to-head or tail-to-tail the
    two flows switch, which forces the vertex's split-edge to be shared: its
    multiplicity in xi must be two."""
    steps = list(zip(ordered, ordered[1:]))
    if circuit and len(ordered) > 1:
        steps.append((ordered[-1], ordered[0]))
    meeting = stops[1:-1] + ([stops[0]] if circuit else [])
    for (prev, nxt), v in zip(steps, meeting):
        both_enter = prev[1] == v and nxt[1] == v
        both_leave = prev[0] == v and nxt[0] == v
        if both_enter or both_leave:
            shared = split_of.get(v)
            if shared is None or table.get(shared) != 2:
                raise DoubleFlowError(
                    f"flow switch at {v!r} without a doubly used split-edge"
                )


def decompose(df: DoubleFlow) -> Decomposition:
    """Split the multiplicity-one subgraph into circuits and paths.

    Each vertex of the split network carries one split-edge, so no vertex of
    a superposition meets more than two multiplicity-one edges; a vertex that
    does is rejected up front.  Every component is then walked once, in order
    of its smallest vertex: a circuit from that vertex, a path from its
    gamma(A) end.  A path without admissible endpoints is rejected."""
    net = df.network
    adjacency: dict[str, list[tuple[tuple[str, str], str]]] = {}
    for e in df.level_edges(1):
        adjacency.setdefault(e[0], []).append((e, e[1]))
        adjacency.setdefault(e[1], []).append((e, e[0]))
    if any(len(around) > 2 for around in adjacency.values()):
        raise DoubleFlowError("component is neither a circuit nor a simple path")
    split_of = {v: e for e in net.edges if net.kind(e) == SPLIT for v in e}
    table = df.as_dict()

    source_pos = {v: i + 1 for i, v in enumerate(net.sources)}
    sink_pos = {v: j + 1 for j, v in enumerate(net.sinks)}
    I, J = df.instance.index_sets(df.a_set)
    ga, comp_a = I - df.instance.x_set, J - df.instance.x_set
    lo, hi = len(J), len(I)

    def end_kind(v):
        if source_pos.get(v) in ga:
            return "A"
        if source_pos.get(v) in comp_a:
            return "B"
        if lo < sink_pos.get(v, 0) <= hi:
            return "T"
        raise DoubleFlowError(f"path endpoint {v!r} is not an admissible terminal")

    circuits = []
    paths = []
    essential = []
    arcs = []
    touched = set()
    for v in sorted(adjacency):
        if v in touched:
            continue
        walked, stops = _walk(adjacency, v)
        if stops[-1] == v:
            touched.update(stops)
            _audit_alternation(walked, stops, split_of, table, circuit=True)
            circuits.append(tuple(walked))
            continue
        walked, stops = _walk(adjacency, stops[-1])
        touched.update(stops)
        ends = sorted((stops[0], stops[-1]))
        kinds = sorted(end_kind(end) for end in ends)
        if kinds.count("A") != 1:
            raise DoubleFlowError("path must have exactly one end on the gamma(A) side")
        if end_kind(stops[0]) != "A":
            walked.reverse()
            stops.reverse()
        _audit_alternation(walked, stops, split_of, table, circuit=False)
        ordered = tuple(walked)
        paths.append(ordered)
        if kinds == ["A", "B"]:
            essential.append(ordered)
            arcs.append(tuple(sorted(df.instance.y_list.index(source_pos[end]) + 1 for end in ends)))

    matching = NestedMatching(tuple(arcs), len(df.instance.y_list))
    if len(paths) != len(ga) or len(essential) != len(comp_a):
        raise DoubleFlowError("component counts do not match (p, q)")
    if not is_feasible(matching, df.a_set):
        raise DoubleFlowError("essential-path matching is not feasible for A")
    return Decomposition(
        circuits=tuple(circuits),
        paths=tuple(paths),
        essential_arcs=tuple(arcs),
        essential_paths=tuple(essential),
        matching=matching,
    )


def _edge_set(path: tuple[str, ...]) -> frozenset[tuple[str, str]]:
    return frozenset(zip(path, path[1:]))


def count_decompositions(df: DoubleFlow, a_set=None) -> int:
    """Number of flag-flow pairs for (I(A), J(A)) whose superposition is xi.

    Such a pair uses only edges of xi, so both index sets are listed in the
    subnetwork of xi's edges.  A listed I-flow psi is matched when xi - psi
    is a 0/1 edge set, which is then looked up among the J-flows' edge sets;
    no two J-flows share an edge set."""
    I, J = df.instance.index_sets(df.a_set if a_set is None else a_set)
    net, xi = df.network, df.as_dict()
    edges = tuple(e for e in net.edges if e in xi)
    sub = PlanarNetwork(net.vertices, edges, net.sources, net.sinks, net.origins, net.planarity, net.coords)
    singles, doubles = frozenset(df.level_edges(1)), frozenset(df.level_edges(2))
    seconds = {frozenset().union(*psi_prime) for psi_prime in list_flows(sub, J, None, _edge_set)}
    count = 0
    for psi in list_flows(sub, I, None, _edge_set):
        used = frozenset().union(*psi)
        if doubles <= used and (singles - used) | doubles in seconds:
            count += 1
    return count


def exchange_flows(phi: Flow, phi_prime: Flow, chosen) -> tuple[Flow, Flow]:
    """Swap the two flows' alternating pieces along the essential paths of the
    selected arcs; the superposition is unchanged and the new pair realizes
    the exchanged set A' of :func:`matchings.exchange`.

    The new index sets I(A'), J(A') are known up front, so each new flow is
    walked through its exchanged edge set from the sources of its own index
    set, in index order.  One check follows: the walked paths are
    vertex-disjoint, end at the first sinks in order and use every edge."""
    df = superpose(phi, phi_prime)
    dec = decompose(df)
    net = df.network
    chosen = {tuple(arc) for arc in chosen}
    available = dict(zip(dec.essential_arcs, dec.essential_paths))
    if not chosen <= set(available):
        raise DoubleFlowError("chosen arcs are not essential arcs of this double flow")
    swap = {e for arc in chosen for e in available[arc]}
    I, J = df.instance.index_sets(exchange(df.a_set, dec.matching, chosen))

    def walk(edges: frozenset[tuple[str, str]], index_set: frozenset[int]) -> Flow:
        indices = tuple(sorted(index_set))
        out = dict(edges)
        paths = []
        for i in indices:
            path = [net.sources[i - 1]]
            while path[-1] in out:
                path.append(out[path[-1]])
            paths.append(tuple(path))
        visited = [v for path in paths for v in path]
        if (
            len(set(visited)) != len(visited)
            or tuple(path[-1] for path in paths) != net.sinks[: len(paths)]
            or len(visited) - len(paths) != len(edges)
        ):
            raise DoubleFlowError("exchanged edges do not form a flag flow for the new index sets")
        return Flow(
            paths=tuple(paths),
            source_indices=indices,
            sink_indices=tuple(range(1, len(paths) + 1)),
            network=net,
        )

    return walk(frozenset(phi.edges()) ^ swap, I), walk(frozenset(phi_prime.edges()) ^ swap, J)
