"""Superposition of two flag flows, its circuit/path decomposition, the
decomposition count, and the exchange operation along essential paths.

Everything here works in the split network only: the alternation argument
behind the decomposition needs every non-terminal vertex to carry exactly one
split-edge.  The pairing context (X, Y, A) is recovered from the two flows'
source index sets: X is the shared part, Y the symmetric difference, and A
marks the positions of the first flow inside Y.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .flows import Flow, enumerate_flag_flows
from .matchings import NestedMatching, is_feasible
from .network import SPLIT, PlanarNetwork


class DoubleFlowError(ValueError):
    pass


@dataclass(frozen=True)
class DoubleFlowContext:
    """Index bookkeeping for a pair of flag flows: I(A) = X u gamma(A) and
    J(A) = X u gamma(complement of A), gamma the order isomorphism onto Y."""

    x_set: frozenset[int]
    y_list: tuple[int, ...]
    a_set: frozenset[int]

    @property
    def p(self) -> int:
        return len(self.a_set)

    @property
    def q(self) -> int:
        return len(self.y_list) - len(self.a_set)

    def gamma(self, k: int) -> int:
        return self.y_list[k - 1]

    def gamma_inv(self, y: int) -> int:
        return self.y_list.index(y) + 1

    def index_sets(self, a_set: frozenset[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        comp = frozenset(range(1, len(self.y_list) + 1)) - a_set
        I = tuple(sorted(self.x_set | {self.gamma(a) for a in a_set}))
        J = tuple(sorted(self.x_set | {self.gamma(b) for b in comp}))
        return I, J


@dataclass(frozen=True)
class DoubleFlow:
    """Edge multiplicity function xi in {0,1,2}, stored sparsely and sorted."""

    multiplicities: tuple[tuple[tuple[str, str], int], ...]
    context: DoubleFlowContext
    network: PlanarNetwork = field(compare=False, repr=False)

    def as_dict(self) -> dict[tuple[str, str], int]:
        return dict(self.multiplicities)

    def level_edges(self, level: int) -> tuple[tuple[str, str], ...]:
        return tuple(e for e, m in self.multiplicities if m == level)


def _derive_context(phi: Flow, phi_prime: Flow) -> DoubleFlowContext:
    I = frozenset(phi.source_indices)
    J = frozenset(phi_prime.source_indices)
    X = I & J
    Y = tuple(sorted(I ^ J))
    p = len(I - X)
    q = len(J - X)
    if p < q:
        raise DoubleFlowError("first flow must carry the larger side (p >= q)")
    A = frozenset(k for k, y in enumerate(Y, start=1) if y in I)
    return DoubleFlowContext(x_set=X, y_list=Y, a_set=A)


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
    ctx = _derive_context(phi, phi_prime)
    counts = Counter(phi.edges()) + Counter(phi_prime.edges())
    return DoubleFlow(
        multiplicities=tuple(sorted(counts.items())),
        context=ctx,
        network=net,
    )


@dataclass(frozen=True)
class Decomposition:
    """Connected components of the multiplicity-one subgraph: circuits plus
    simple paths whose ends sit among the gamma(A)/gamma(complement) sources
    and the sinks strictly between |X|+q and |X|+p.

    ``essential_arcs`` is aligned with ``essential_paths``; the matching holds
    the same arcs in canonical sorted order."""

    circuits: tuple[tuple[tuple[str, str], ...], ...]
    paths: tuple[tuple[tuple[str, str], ...], ...]
    essential_arcs: tuple[tuple[int, int], ...]
    essential_paths: tuple[tuple[tuple[str, str], ...], ...]
    matching: NestedMatching

    @property
    def d(self) -> int:
        return len(self.circuits)

    def essential_path_of(self, arc: tuple[int, int]):
        return self.essential_paths[self.essential_arcs.index(tuple(arc))]


def _components(edges):
    adjacency: dict[str, list[tuple[tuple[str, str], str]]] = {}
    for e in edges:
        u, v = e
        adjacency.setdefault(u, []).append((e, v))
        adjacency.setdefault(v, []).append((e, u))
    seen_edges = set()
    comps = []
    for start in sorted(adjacency):
        if all(e in seen_edges for e, _ in adjacency[start]):
            continue
        stack = [start]
        verts = set()
        comp_edges = []
        while stack:
            v = stack.pop()
            if v in verts:
                continue
            verts.add(v)
            for e, other in adjacency[v]:
                if e not in seen_edges:
                    seen_edges.add(e)
                    comp_edges.append(e)
                if other not in verts:
                    stack.append(other)
        comps.append((verts, comp_edges))
    return adjacency, comps


def _walk(adjacency, comp_edges, start):
    """Order a path/circuit component's edges by walking from start; returns
    the edges plus the vertex met before each one."""
    edge_set = set(comp_edges)
    used = set()
    ordered = []
    stops = []
    current = start
    while len(ordered) < len(comp_edges):
        for e, other in adjacency[current]:
            if e in edge_set and e not in used:
                used.add(e)
                ordered.append(e)
                stops.append(current)
                current = other
                break
        else:
            break
    return ordered, stops + [current]


def _audit_alternation(df: DoubleFlow, ordered, stops, circuit: bool) -> None:
    """Where consecutive component edges meet head-to-head or tail-to-tail the
    two flows switch, which forces the vertex's split-edge to be shared: its
    multiplicity in xi must be two."""
    net = df.network
    split_of = {}
    for edge, kind in zip(net.edges, net.edge_kinds):
        if kind == SPLIT:
            split_of[edge[0]] = edge
            split_of[edge[1]] = edge
    table = df.as_dict()
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
    """Classify the multiplicity-one subgraph; reject any component that is
    neither a circuit nor a path with admissible endpoints."""
    net = df.network
    ctx = df.context
    ones = df.level_edges(1)
    adjacency, comps = _components(ones)

    source_pos = {v: i + 1 for i, v in enumerate(net.sources)}
    sink_pos = {v: j + 1 for j, v in enumerate(net.sinks)}
    ga = {ctx.gamma(a) for a in ctx.a_set}
    comp_a = {ctx.gamma(b) for b in range(1, len(ctx.y_list) + 1) if b not in ctx.a_set}
    lo, hi = len(ctx.x_set) + ctx.q, len(ctx.x_set) + ctx.p

    circuits = []
    paths = []
    essential = []
    arcs = []
    for verts, comp_edges in comps:
        degree = Counter()
        for u, v in comp_edges:
            degree[u] += 1
            degree[v] += 1
        odd = sorted(v for v in verts if degree[v] == 1)
        if not odd and all(degree[v] == 2 for v in verts):
            ordered, stops = _walk(adjacency, comp_edges, min(verts))
            _audit_alternation(df, ordered, stops, circuit=True)
            circuits.append(tuple(ordered))
            continue
        if len(odd) != 2 or any(degree[v] > 2 for v in verts):
            raise DoubleFlowError("component is neither a circuit nor a simple path")
        ends = []
        for v in odd:
            if v in source_pos and source_pos[v] in ga:
                ends.append(("A", source_pos[v]))
            elif v in source_pos and source_pos[v] in comp_a:
                ends.append(("B", source_pos[v]))
            elif v in sink_pos and lo < sink_pos[v] <= hi:
                ends.append(("T", sink_pos[v]))
            else:
                raise DoubleFlowError(f"path endpoint {v!r} is not an admissible terminal")
        kinds = sorted(kind for kind, _ in ends)
        if kinds.count("A") != 1:
            raise DoubleFlowError("path must have exactly one end on the gamma(A) side")
        start = next(v for v in odd if source_pos.get(v) in ga)
        walked, stops = _walk(adjacency, comp_edges, start)
        _audit_alternation(df, walked, stops, circuit=False)
        ordered = tuple(walked)
        paths.append(ordered)
        if kinds == ["A", "B"]:
            essential.append(ordered)
            pair = sorted(ctx.gamma_inv(source_pos[v]) for v in odd)
            arcs.append((pair[0], pair[1]))

    matching = NestedMatching(tuple(arcs), len(ctx.y_list))
    if len(paths) != ctx.p or len(essential) != ctx.q:
        raise DoubleFlowError("component counts do not match (p, q)")
    if not is_feasible(matching, ctx.a_set):
        raise DoubleFlowError("essential-path matching is not feasible for A")
    return Decomposition(
        circuits=tuple(circuits),
        paths=tuple(paths),
        essential_arcs=tuple(arcs),
        essential_paths=tuple(essential),
        matching=matching,
    )


def count_decompositions(df: DoubleFlow, a_set=None) -> int:
    """Number of flag-flow pairs for (I(A), J(A)) whose superposition is xi,
    by brute force over both enumerations."""
    ctx = df.context
    A = ctx.a_set if a_set is None else frozenset(a_set)
    I, J = ctx.index_sets(A)
    target = df.as_dict()
    seconds = [Counter(psi_prime.edges()) for psi_prime in enumerate_flag_flows(df.network, J)]
    count = 0
    for psi in enumerate_flag_flows(df.network, I):
        c1 = Counter(psi.edges())
        for c2 in seconds:
            if c1 + c2 == target:
                count += 1
    return count


def _flow_from_edges(net: PlanarNetwork, edges: frozenset[tuple[str, str]]) -> Flow:
    out = {}
    for u, v in edges:
        if u in out:
            raise DoubleFlowError("edge set does not define disjoint paths")
        out[u] = v
    heads = {v for _, v in edges}
    source_pos = {v: i + 1 for i, v in enumerate(net.sources)}
    sink_pos = {v: j + 1 for j, v in enumerate(net.sinks)}
    found = []
    for s in net.sources:
        if s in out and s not in heads:
            path = [s]
            while path[-1] in out:
                path.append(out[path[-1]])
            last = path[-1]
            if last not in sink_pos:
                raise DoubleFlowError(f"path from {s!r} does not end in a sink")
            found.append((sink_pos[last], source_pos[s], tuple(path)))
    found.sort()
    sink_ids = tuple(k for k, _, _ in found)
    if sink_ids != tuple(range(1, len(found) + 1)):
        raise DoubleFlowError("paths do not reach the first sinks")
    sources = tuple(i for _, i, _ in found)
    if sources != tuple(sorted(sources)):
        raise DoubleFlowError("path system is not order preserving")
    used = sum(len(p) - 1 for _, _, p in found)
    if used != len(edges):
        raise DoubleFlowError("edge set contains stray edges")
    return Flow(
        paths=tuple(p for _, _, p in found),
        source_indices=sources,
        sink_indices=sink_ids,
        network=net,
    )


def exchange_flows(phi: Flow, phi_prime: Flow, chosen) -> tuple[Flow, Flow]:
    """Swap the two flows' alternating pieces along the essential paths of the
    selected arcs; the superposition is unchanged and the new pair realizes
    A xor (union of the chosen arcs)."""
    df = superpose(phi, phi_prime)
    dec = decompose(df)
    ctx = df.context
    chosen = {tuple(arc) for arc in chosen}
    available = dict(zip(dec.essential_arcs, dec.essential_paths))
    if not chosen <= set(available):
        raise DoubleFlowError("chosen arcs are not essential arcs of this double flow")
    swap: set[tuple[str, str]] = set()
    for arc in chosen:
        swap.update(available[arc])
    new_a = frozenset(ctx.a_set) ^ {x for arc in chosen for x in arc}
    e1 = frozenset(phi.edges()) ^ swap
    e2 = frozenset(phi_prime.edges()) ^ swap
    psi = _flow_from_edges(df.network, e1)
    psi_prime = _flow_from_edges(df.network, e2)
    I, J = ctx.index_sets(new_a)
    if psi.source_indices != I or psi_prime.source_indices != J:
        raise DoubleFlowError("exchange produced unexpected index sets")
    return psi, psi_prime
