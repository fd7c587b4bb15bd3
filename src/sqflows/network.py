"""Planar acyclic networks: data model, compiled form, half-grid builder,
vertex split.

Vertex ids are opaque strings (no whitespace).  A network's ``planarity``
is "declared" (the default), never verified, or "constructed" for what the
library builders make, planar and valid by construction; the flow engines
admit a declared network only once :attr:`PlanarNetwork.problems` is empty.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property

from ._record import Record


class NetworkError(ValueError):
    pass


ORDINARY = "ordinary"
SPLIT = "split"
EXTRA = "extra"


NetworkForm = namedtuple("NetworkForm", "index succ reach to_sink charge breaches")
NetworkForm.__doc__ = """An acyclic network compiled for the flow engines and the network check.

    Positions number the vertices in :attr:`PlanarNetwork.order`; ``index``
    maps a vertex to its position, ``succ`` holds each position's successors
    in ``out()`` order.  One table says what each position reaches: bit
    j - 1 of ``reach[p]`` is set when p lies on a path from a source to sink
    j, and ``to_sink[j - 1]`` is the column of sink j, a bit per position.
    ``charge`` is the weighting key a path pays at each position, or None:
    every vertex of an unsplit network pays its own weight; on a split
    network the weight of an original vertex v is paid at v', the tail of
    v's split-edge.  :func:`vertex_split` gives v' one out-edge and never
    makes it a sink, so every path through v' crosses that split-edge.
    ``breaches`` lists where ``charge`` breaks :func:`_charge_breaches`' rule."""


class PlanarNetwork(Record):
    """Acyclic digraph with ordered source and sink lists.

    ``origins`` is nonempty exactly for networks produced by
    :func:`vertex_split`, and maps each split vertex back to the vertex it
    came from; the kind of every edge follows from it (:meth:`kind`).
    Coordinates are rendering metadata only: equality and hashing ignore
    them.
    """

    _fields = ("vertices", "edges", "sources", "sinks", "origins", "planarity", "coords")
    _uncompared = ("coords",)

    def __init__(
        self,
        vertices: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        sources: tuple[str, ...],
        sinks: tuple[str, ...],
        origins: tuple[tuple[str, str], ...] = (),
        planarity: str = "declared",
        coords: tuple[tuple[str, float, float], ...] = (),
    ):
        out = {v: [] for v in vertices}
        inc = {v: [] for v in vertices}
        for tail, head in edges:
            if tail in out and head in inc:
                out[tail].append(head)
                inc[head].append(tail)
        self.__dict__.update(
            vertices=vertices,
            edges=edges,
            sources=sources,
            sinks=sinks,
            origins=origins,
            planarity=planarity,
            coords=coords,
            _out={v: tuple(sorted(ns)) for v, ns in out.items()},
            _in={v: tuple(sorted(ns)) for v, ns in inc.items()},
            _origin=dict(origins),
        )

    @property
    def is_split(self) -> bool:
        return bool(self.origins)

    def out(self, v: str) -> tuple[str, ...]:
        return self._out.get(v, ())

    def into(self, v: str) -> tuple[str, ...]:
        return self._in.get(v, ())

    def kind(self, edge: tuple[str, str]) -> str:
        """SPLIT: both ends from one vertex; EXTRA: on a split network, an end
        from none (a fresh terminal); ORDINARY otherwise."""
        tail, head = map(self._origin.get, edge)
        if tail is not None and tail == head:
            return SPLIT
        if self.is_split and (tail is None or head is None):
            return EXTRA
        return ORDINARY

    def origin_of(self, v: str) -> str | None:
        return self._origin.get(v)

    @cached_property
    def order(self) -> tuple[str, ...]:
        """The distinct vertices in Kahn order (Kahn 1962), each after all of
        its predecessors.  Kahn's sweep never places a vertex on a directed
        cycle or downstream of one, so the order is shorter than the vertex
        set exactly when the network has a cycle."""
        indeg = {v: len(preds) for v, preds in self._in.items()}
        order = [v for v, d in indeg.items() if d == 0]
        for v in order:  # the list grows while it is walked: a FIFO Kahn order
            for u in self.out(v):
                indeg[u] -= 1
                if indeg[u] == 0:
                    order.append(u)
        return tuple(order)

    @cached_property
    def form(self) -> NetworkForm | None:
        """The compiled form, built on first use and kept for the life of the
        network; None when the network has a directed cycle."""
        order = self.order
        if len(order) < len(self._in):  # _in has one key per distinct vertex
            return None
        index = {v: p for p, v in enumerate(order)}
        succ, reached = [], {index[s] for s in self.sources if s in index}
        for p, v in enumerate(order):  # the successors, and what a source reaches
            succ.append(tuple(map(index.__getitem__, self.out(v))))
            reached.update(succ[p] if p in reached else ())
        reach = [0] * len(order)
        for j, t in enumerate(self.sinks):
            if index.get(t) in reached:
                reach[index[t]] |= 1 << j
        for p in sorted(reached, reverse=True):  # the one backward pass
            for u in succ[p]:
                reach[p] |= reach[u]
        # the columns: reach in binary, k digits a position from the last, read back a sink at a time
        k = len(self.sinks)
        rows = "".join([bin(r | 1 << k)[3:] for r in reversed(reach)])
        to_sink = tuple(int("0" + rows[k - 1 - j :: k], 2) for j in range(k))
        if self.is_split:
            charge = tuple(
                self.origin_of(v) if any(self.kind((v, u)) == SPLIT for u in self.out(v)) else None
                for v in order
            )
            breaches = _charge_breaches(self, index, succ, reach, charge)
        else:
            charge, breaches = order, ()
        return NetworkForm(index, tuple(succ), tuple(reach), to_sink, charge, breaches)

    @cached_property
    def crossed_pairing(self) -> str | None:
        """A description of source indices i < i2 and sink indices j < j2 with
        vertex-disjoint paths s_i -> t_j2 and s_i2 -> t_j, or None when there
        are none (or the network has a cycle); computed on first use.

        Such a pair exists exactly when some disjoint path system pairs its
        sources with its sinks other than in boundary order, since every
        other pairing has an inverted pair of paths; the flow engines pair
        the k-th source with the k-th sink.  One reachability pass over pairs
        of path heads (Perl and Shiloach, JACM 1978), from every pair of
        sources at once: the live head earlier in topological order moves,
        never onto the other head, so neither path can reach a position the
        other has left.  A head at a sink may stop there for good, written
        ~p; it then lies before the live head.  A pair is dropped, or never
        seeded, when the largest sink index the first head can still end at
        (``form.reach``; for a stopped head, its own sinks') is no larger
        than the smallest the second can: those sets only shrink along a
        path, so no pair after it crosses either.  O(V^2 * degree) steps at
        most."""
        form = self.form
        if form is None:
            return None
        index, succ = form.index, form.succ
        # ends[p]: the sink indices a live head at p can still end at, as
        # ``form.reach`` bits; ends[~p]: those of a head stopped at p
        ends = [*form.reach, *[0] * len(succ)]
        for j, t in enumerate(self.sinks):
            if t in index:
                ends[~index[t]] |= 1 << j

        def crossable(a, b):  # path a can still end at a later sink than path b
            low = ends[b] & -ends[b]
            return 0 < low <= ends[a] >> 1

        # the seeds: each pair of sources i < i2 whose heads are crossable, in
        # the order of i, then i2.  Walking the sources backwards keeps those
        # after i sorted by the lowest sink they reach, so the ones a head at
        # s_i can cross are a prefix, found by bisection.
        origin = {}  # state -> the source indices it was first reached from
        seeds, lows, later = [], [], []
        for i in range(len(self.sources), 0, -1):
            a = index.get(self.sources[i - 1])
            if a is None or not ends[a]:
                continue
            seeds.append((i, a, sorted(later[: bisect_right(lows, ends[a] >> 1)])))
            low = ends[a] & -ends[a]
            at = bisect_right(lows, low)
            lows.insert(at, low)
            later.insert(at, (i, a))
        for i, a, pairs in reversed(seeds):
            for i2, b in pairs:
                if a != b:
                    origin.setdefault((a, b), (i, i2))
        stack = list(origin)
        while stack:
            state = stack.pop()
            a, b = state
            if a < 0 and b < 0:
                j, j2 = (ends[b] & -ends[b]).bit_length(), ends[a].bit_length()
                i, i2 = origin[state]
                s, s2, t, t2 = self.sources[i - 1], self.sources[i2 - 1], self.sinks[j - 1], self.sinks[j2 - 1]
                return (
                    f"crossed pairing: s{i} -> t{j2} and s{i2} -> t{j} have vertex-disjoint "
                    f"paths ({s} -> {t2}, {s2} -> {t})"
                )
            lower = b < 0 or 0 <= a < b  # the head that moves is a
            head, other = (a, b) if lower else (b, a)
            moves = [u for u in succ[head] if u != other]
            if ends[~head]:
                moves.append(~head)
            for u in moves:
                after = (u, other) if lower else (other, u)
                if after not in origin and crossable(*after):
                    origin[after] = origin[state]
                    stack.append(after)
        return None

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """Structural violations as human-readable strings, computed on first
        use; empty means accepted.  Planarity is not checked, but a crossed
        pairing (:attr:`crossed_pairing`), which the flow engines' k-th
        source to k-th sink rule cannot see, is listed."""
        problems = []
        seen = set()
        for v in self.vertices:
            if v in seen:
                problems.append(f"duplicate vertex: {v}")
            seen.add(v)
        for label, group in (("source", self.sources), ("sink", self.sinks)):
            met = set()
            for v in group:
                if v in met:
                    problems.append(f"duplicate {label}: {v}")
                met.add(v)
                if v not in seen:
                    problems.append(f"{label} not a vertex: {v}")
        for i, s in enumerate(self.sources):
            for j, t in enumerate(self.sinks):
                if s == t:
                    first = i == 0 and j == 0
                    last = i == len(self.sources) - 1 and j == len(self.sinks) - 1
                    if not (first or last):
                        problems.append(f"source s{i + 1} coincides with sink t{j + 1}: {s}")
        edge_seen = set()
        for tail, head in self.edges:
            if tail not in seen:
                problems.append(f"dangling edge ({tail}, {head}): unknown tail")
            if head not in seen:
                problems.append(f"dangling edge ({tail}, {head}): unknown head")
            if tail == head:
                problems.append(f"self-loop at {tail}")
            if (tail, head) in edge_seen:
                problems.append(f"duplicate edge ({tail}, {head})")
            edge_seen.add((tail, head))
        problems.extend(self.form.breaches if self.form else ())
        if self.crossed_pairing:
            problems.append(self.crossed_pairing)
        placed = set(self.order)
        left = [v for v in dict.fromkeys(self.vertices) if v not in placed]
        if left:
            # Each vertex Kahn's order left out has a left-out predecessor, so
            # walking back from one must repeat a vertex; the walk from there on,
            # reversed, is a cycle, reported from its first vertex in `vertices`.
            rank = {v: r for r, v in enumerate(left)}
            walk, visited = [left[0]], set()
            while walk[-1] not in visited:
                visited.add(walk[-1])
                walk.append(next(u for u in self.into(walk[-1]) if u in rank))
            cycle = walk[walk.index(walk[-1]) : -1][::-1]
            first = cycle.index(min(cycle, key=rank.get))
            cycle = cycle[first:] + cycle[: first + 1]
            problems.append("cycle: " + " -> ".join(cycle))
        return tuple(problems)

    def original_vertices(self) -> tuple[str, ...]:
        """Pre-split vertex ids, in their original order, for split networks."""
        return tuple(dict.fromkeys(orig for _, orig in self.origins))


def _charge_breaches(net: PlanarNetwork, index, succ, reach, charge) -> tuple[str, ...]:
    """Breaches of the charge rule that the sweep and the symbolic check
    assume of a split network's charge table: no weight key is charged at two
    positions, a source that pays nothing is no sink, and every successor of
    such a source that can reach a sink pays.  (Unsplit networks keep it.)"""
    at = {}
    for v, key in zip(net.order, charge):
        at.setdefault(key, []).append(v)
    at.pop(None, None)
    breaches = [
        f"weight {k} charged at {len(vs)} vertices: {', '.join(vs)}" for k, vs in at.items() if len(vs) > 1
    ]
    sinks = {index[t] for t in net.sinks if t in index}
    for s in dict.fromkeys(net.sources):
        p = index.get(s)
        if p is None or charge[p] is not None:
            continue
        if p in sinks:
            breaches.append(f"source {s} pays no weight and is a sink")
        breaches += [
            f"source {s} pays no weight and neither does its successor {net.order[u]}"
            for u in succ[p]
            if charge[u] is None and reach[u]
        ]
    return tuple(breaches)


def build_half_grid(n: int) -> PlanarNetwork:
    """Triangular grid with sources on the bottom row and sinks on the diagonal.

    Vertices are the points (i, j) with 1 <= j <= i <= n, named "i,j"; edges
    run west from (i, j) to (i-1, j) and north to (i, j+1); the i-th source is
    (i, 1) and the i-th sink is (i, i).
    """
    if n < 1:
        raise NetworkError("half-grid needs n >= 1")
    vertices = []
    coords = []
    edges = []
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            vertices.append(half_grid_vertex(i, j))
            coords.append((half_grid_vertex(i, j), float(i), float(j)))
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            if i - 1 >= j:
                edges.append((half_grid_vertex(i, j), half_grid_vertex(i - 1, j)))
            if j + 1 <= i:
                edges.append((half_grid_vertex(i, j), half_grid_vertex(i, j + 1)))
    sources = tuple(half_grid_vertex(i, 1) for i in range(1, n + 1))
    sinks = tuple(half_grid_vertex(i, i) for i in range(1, n + 1))
    return PlanarNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=sources,
        sinks=sinks,
        planarity="constructed",
        coords=tuple(coords),
    )


def half_grid_vertex(i: int, j: int) -> str:
    return f"{i},{j}"


def random_grid_network(n: int, rows: int, rng: random.Random) -> PlanarNetwork:
    """Random planar acyclic network on an n-wide, (rows+1)-high grid.

    All upward edges and the complete bottom row are kept (weak connectivity);
    every other westward edge is kept with probability 1/2.  Sources are the
    bottom row, sinks the top row, so the boundary carries the terminals in
    the required cyclic order.
    """
    if n < 1 or rows < 1:
        raise NetworkError("grid needs n >= 1 and rows >= 1")

    def name(i, r):
        return f"{i}:{r}"

    vertices = [name(i, r) for r in range(rows + 1) for i in range(1, n + 1)]
    coords = [(name(i, r), float(i), float(r)) for r in range(rows + 1) for i in range(1, n + 1)]
    edges = []
    for r in range(rows + 1):
        for i in range(1, n + 1):
            if r < rows:
                edges.append((name(i, r), name(i, r + 1)))
            if i > 1 and (r == 0 or rng.random() < 0.5):
                edges.append((name(i, r), name(i - 1, r)))
    return PlanarNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=tuple(name(i, 0) for i in range(1, n + 1)),
        sinks=tuple(name(i, rows) for i in range(1, n + 1)),
        planarity="constructed",
        coords=tuple(coords),
    )


def vertex_split(net: PlanarNetwork) -> PlanarNetwork:
    """Split every vertex v into (v', v'') joined by a split-edge.

    Each original edge (u, v) becomes the ordinary edge (u'', v'); fresh
    terminals s^i and t^j are attached by extra edges.  Every non-terminal
    vertex of the result is incident with exactly one split-edge, and a
    split-edge entering (leaving) a vertex forces in-degree (out-degree) one
    there; corresponding flows in both networks have equal weights once the
    vertex weighting is transferred to the split-edges.
    """
    if net.is_split:
        raise NetworkError("network is already split")
    prime = {v: v + "'" for v in net.vertices}
    second = {v: v + "''" for v in net.vertices}
    src_terms = tuple(f"s^{i}" for i in range(1, len(net.sources) + 1))
    snk_terms = tuple(f"t^{j}" for j in range(1, len(net.sinks) + 1))
    fresh = [*prime.values(), *second.values(), *src_terms, *snk_terms]
    if len(set(fresh)) != len(fresh) or set(fresh) & set(net.vertices):
        raise NetworkError("vertex ids collide with split names")

    halves = [(name[v], v) for v in net.vertices for name in (prime, second)]
    vertices = [*src_terms, *(half for half, _ in halves), *snk_terms]
    edges = [(src_terms[i], prime[s]) for i, s in enumerate(net.sources)]
    edges += [(prime[v], second[v]) for v in net.vertices]
    edges += [(second[u], prime[v]) for u, v in net.edges]
    edges += [(second[t], snk_terms[j]) for j, t in enumerate(net.sinks)]
    return PlanarNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=src_terms,
        sinks=snk_terms,
        origins=tuple(halves),
        planarity=net.planarity,
    )


def validate(net: PlanarNetwork) -> list[str]:
    """:attr:`PlanarNetwork.problems` as a list: the CLI's check of every
    network file, and the flow engines' of every "declared" network."""
    return list(net.problems)


def write_network(net: PlanarNetwork) -> str:
    """Text form: vertex lines (with coordinates when known), edges, terminals."""
    coord = {v: (x, y) for v, x, y in net.coords}
    lines = []
    for v in net.vertices:
        if v in coord:
            x, y = coord[v]
            lines.append(f"vertex {v} {x} {y}")
        else:
            lines.append(f"vertex {v}")
    for tail, head in net.edges:
        lines.append(f"edge {tail} {head}")
    lines.append("sources " + " ".join(net.sources))
    lines.append("sinks " + " ".join(net.sinks))
    return "\n".join(lines) + "\n"


def parse_network(text: str) -> PlanarNetwork:
    """Inverse of :func:`write_network`; directives may come in any order."""
    vertices = []
    coords = []
    edges = []
    sources = []
    sinks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        directive, args = parts[0], parts[1:]
        if directive == "vertex":
            if len(args) not in (1, 3):
                raise NetworkError(f"line {lineno}: vertex takes id or id x y")
            vertices.append(args[0])
            if len(args) == 3:
                try:
                    coords.append((args[0], float(args[1]), float(args[2])))
                except ValueError:
                    raise NetworkError(f"line {lineno}: bad coordinates") from None
        elif directive == "edge":
            if len(args) != 2:
                raise NetworkError(f"line {lineno}: edge takes tail and head")
            edges.append((args[0], args[1]))
        elif directive == "sources":
            sources.extend(args)
        elif directive == "sinks":
            sinks.extend(args)
        else:
            raise NetworkError(f"line {lineno}: unknown directive {directive!r}")
    if not sources or not sinks:
        raise NetworkError("network text needs sources and sinks lines")
    return PlanarNetwork(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=tuple(sources),
        sinks=tuple(sinks),
        planarity="declared",
        coords=tuple(coords),
    )
