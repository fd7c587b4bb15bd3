"""Flag flows, (I,J)-flows, flow-generated functions, and the path matrix.

f(I) and the path matrix come from a frontier sweep over the vertices in
topological order (the transfer-matrix method): it sums weight products over
labelled partial path systems without listing them, using only the carrier's
addition and multiplication.  Enumeration lists the flows themselves, for the
commands and modules that need every flow (``flows``, double flows, Laurent
expansion, gadget checks); it is backtracking over sink-ordered path
extension with reachability pruning.  Both run on one compiled form of the
network (topological positions, successor tuples, reachability bitmasks)
that is built on first use and kept on the network.  Planarity plus the
boundary order of the terminals force the k-th smallest chosen source to
feed the k-th chosen sink, so both engines use only that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Mapping, NamedTuple

from .network import SPLIT, PlanarNetwork
from .semiring import STAR, Carrier, CarrierMismatch, SemiringError, Starred


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class Flow:
    """Vertex-disjoint directed path system; path k runs from the k-th
    smallest selected source to the k-th selected sink."""

    paths: tuple[tuple[str, ...], ...]
    source_indices: tuple[int, ...]
    sink_indices: tuple[int, ...]
    network: PlanarNetwork = field(compare=False, repr=False)

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for path in self.paths:
            out.extend(zip(path, path[1:]))
        return tuple(out)

    def vertex_set(self) -> frozenset[str]:
        return frozenset(v for path in self.paths for v in path)


class _Form(NamedTuple):
    """A network compiled for the sweep and the enumerator.

    Positions number the vertices in a topological order; ``index`` maps a
    vertex to its position, which is also its bit in the ``ancestors`` masks.
    ``charge`` is the weighting key a path pays at each position and
    ``edge_charge`` the key it pays along each successor edge: vertex weights
    on an unsplit network, split-edge weights keyed by the original vertex on
    a split one; None where nothing is paid."""

    index: dict[str, int]
    succ: tuple[tuple[int, ...], ...]  # successor positions, in net.out order
    ancestors: tuple[int, ...]  # positions each position is reachable from, itself included
    charge: tuple
    edge_charge: tuple
    keys: frozenset  # every weighting key the network charges


def _compile(net: PlanarNetwork) -> _Form:
    vertices = tuple(dict.fromkeys(net.vertices))
    indeg = {v: 0 for v in vertices}
    for v in vertices:
        for u in net.out(v):
            indeg[u] += 1
    order = [v for v in vertices if indeg[v] == 0]
    for v in order:  # the list grows while it is walked: a FIFO Kahn order
        for u in net.out(v):
            indeg[u] -= 1
            if indeg[u] == 0:
                order.append(u)
    if len(order) != len(vertices):
        raise FlowError("network contains a directed cycle")
    index = {v: p for p, v in enumerate(order)}
    succ = tuple(tuple(index[u] for u in net.out(v)) for v in order)
    ancestors = [1 << p for p in range(len(order))]
    for p, after in enumerate(succ):
        for u in after:
            ancestors[u] |= ancestors[p]
    if net.is_split:
        charge = (None,) * len(order)
        edge_charge = tuple(
            tuple(net.origin_of(v) if net.kind((v, u)) == SPLIT else None for u in net.out(v))
            for v in order
        )
    else:
        charge = tuple(order)
        edge_charge = tuple((None,) * len(after) for after in succ)
    keys = {k for k in charge if k is not None}
    keys.update(k for ks in edge_charge for k in ks if k is not None)
    return _Form(index, succ, tuple(ancestors), charge, edge_charge, frozenset(keys))


def _compiled(net: PlanarNetwork) -> _Form:
    """The compiled form of ``net``, built on first use and kept on the
    (frozen) instance, so that it lives exactly as long as the network."""
    form = net.__dict__.get("_form")
    if form is None:
        form = _compile(net)
        object.__setattr__(net, "_form", form)
    return form


def _systems(net: PlanarNetwork, srcs: tuple[str, ...], dsts: tuple[str, ...]):
    """All disjoint path systems pairing srcs[k] -> dsts[k], in lexicographic
    order of the vertex sequences."""
    form = _compiled(net)
    index, ancestors = form.index, form.ancestors
    for v in srcs + dsts:
        if v not in index:
            raise FlowError(f"terminal {v!r} is not a vertex")
    m = len(srcs)
    future = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        future[k] = future[k + 1] | (1 << index[srcs[k]]) | (1 << index[dsts[k]])

    def go(k: int, used: int):
        if k == m:
            yield ()
            return
        s, t = srcs[k], dsts[k]
        sbit, tbit = 1 << index[s], 1 << index[t]
        reaches_t = ancestors[index[t]]
        blocked = used | future[k + 1]
        if blocked & sbit or blocked & tbit or not reaches_t & sbit:
            return
        path = [s]

        def extend(v: str, taken: int):
            if v == t:
                frozen = tuple(path)
                for rest in go(k + 1, taken):
                    yield (frozen,) + rest
                return
            for u in net.out(v):
                ubit = 1 << index[u]
                if (taken | blocked) & ubit or not reaches_t & ubit:
                    continue
                path.append(u)
                yield from extend(u, taken | ubit)
                path.pop()

        yield from extend(s, used | sbit)

    yield from go(0, 0)


def _check_indices(label: str, ids: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(sorted(ids))
    if len(set(out)) != len(out):
        raise FlowError(f"repeated {label} index")
    for i in out:
        if not 1 <= i <= n:
            raise FlowError(f"{label} index {i} outside 1..{n}")
    return out


@lru_cache(maxsize=None)
def _flag_flows(net: PlanarNetwork, I: tuple[int, ...]) -> tuple[Flow, ...]:
    if len(I) > len(net.sinks):
        return ()
    srcs = tuple(net.sources[i - 1] for i in I)
    dsts = tuple(net.sinks[: len(I)])
    sink_ids = tuple(range(1, len(I) + 1))
    return tuple(
        Flow(paths=paths, source_indices=I, sink_indices=sink_ids, network=net)
        for paths in _systems(net, srcs, dsts)
    )


def enumerate_flag_flows(net: PlanarNetwork, I: Iterable[int]) -> tuple[Flow, ...]:
    """All flag flows for I: disjoint paths from the sources indexed by I to
    the first |I| sinks.  Empty tuple when none exist; the empty index set has
    exactly one (empty) flow."""
    return _flag_flows(net, _check_indices("source", I, len(net.sources)))


@lru_cache(maxsize=None)
def _ij_flows(net: PlanarNetwork, I: tuple[int, ...], J: tuple[int, ...]) -> tuple[Flow, ...]:
    srcs = tuple(net.sources[i - 1] for i in I)
    dsts = tuple(net.sinks[j - 1] for j in J)
    return tuple(
        Flow(paths=paths, source_indices=I, sink_indices=J, network=net)
        for paths in _systems(net, srcs, dsts)
    )


def enumerate_flows(net: PlanarNetwork, I: Iterable[int], J: Iterable[int]) -> tuple[Flow, ...]:
    """All (I, J)-flows: disjoint paths from sources S_I to sinks T_J."""
    I = _check_indices("source", I, len(net.sources))
    J = _check_indices("sink", J, len(net.sinks))
    if len(I) != len(J):
        raise FlowError("index sets must have equal size")
    return _ij_flows(net, I, J)


def flow_weight(net: PlanarNetwork, weighting: Mapping, flow: Flow, carrier: Carrier):
    """Product of vertex weights along the flow.

    On a split network the weight sits on the split-edges, keyed by the
    original vertex; on an unsplit network it is the product over all path
    vertices."""
    values = []
    if net.is_split:
        for path in flow.paths:
            for edge in zip(path, path[1:]):
                if net.kind(edge) == SPLIT:
                    values.append(_weight_of(weighting, net.origin_of(edge[0])))
    else:
        for path in flow.paths:
            for v in path:
                values.append(_weight_of(weighting, v))
    return carrier.product(values)


def _weight_of(weighting: Mapping, v):
    try:
        return weighting[v]
    except KeyError:
        raise FlowError(f"weighting is missing vertex {v!r}") from None


def undefined_value(carrier: Carrier):
    """What an empty flow sum evaluates to: the carrier zero when there is
    one, STAR under the adapter, otherwise None (undefined)."""
    if isinstance(carrier, Starred):
        return STAR
    if carrier.has_zero:
        return carrier.zero
    return None


class _Fault:
    """A weight that could not be charged (missing, or not a carrier element).

    The sweep carries it through the semiring operations like an absorbing
    element and raises it only if it reaches the final state, so a bad weight
    on a vertex that no flow uses stays harmless, as under enumeration."""

    __slots__ = ("error",)

    def __init__(self, error: Exception):
        self.error = error


def _charge_value(weighting: Mapping, key, carrier: Carrier):
    try:
        value = _weight_of(weighting, key)
        carrier.check(value)
    except (FlowError, CarrierMismatch) as exc:
        return _Fault(exc)
    return value


def _guarded(op):
    """``op`` passing faults through."""

    def guarded(a, b):
        if type(a) is _Fault:
            return a
        if type(b) is _Fault:
            return b
        return op(a, b)

    return guarded


_ABSENT = object()


def _flow_sum(net: PlanarNetwork, weighting: Mapping, srcs, dsts, carrier: Carrier):
    """Sum over the disjoint path systems srcs[k] -> dsts[k] of their weight
    products, or None when there is no such system.

    A frontier sweep over the vertices in topological order (the
    transfer-matrix method).  A state holds, for each path label k, the
    position that path k has claimed as its next step, or -1 while path k is
    not active.  A selected source opens its path; a claimed vertex is paid
    for and either closes its path at the path's own sink or claims an
    unclaimed successor that reaches that sink and is not a selected terminal
    of another path.  So no path ever claims a selected source or another
    path's sink, and when the sweep reaches a selected sink every live state
    has claimed it: nothing needs dropping.  Only reachable states are kept:
    "no system" is the absence of the final state, not a zero, which carriers
    without zero and ``Starred`` need.  Labels keep the k-th source paired
    with the k-th sink, as in enumeration.  Only the raw carrier operations
    run inside; every weight is checked once, on the way in."""
    form = _compiled(net)
    index = form.index
    for v in srcs + dsts:
        if v not in index:
            raise FlowError(f"terminal {v!r} is not a vertex")
    m = len(srcs)
    if m == 0:
        return carrier.product(())
    starts = [index[v] for v in srcs]
    ends = [index[v] for v in dsts]
    ancestors = form.ancestors
    own = sum(s == t for s, t in zip(starts, ends))  # paths that are a single vertex
    if len(set(starts + ends)) < 2 * m - own or any(
        not ancestors[t] >> s & 1 for s, t in zip(starts, ends)
    ):
        return None  # a terminal shared by two paths, or a sink out of reach
    terminals = 0
    for p in starts + ends:
        terminals |= 1 << p
    # the positions path k may claim: they reach its sink and are no other
    # path's terminal
    allowed = [ancestors[t] & ~(terminals & ~(1 << t)) for t in ends]

    values = {key: _charge_value(weighting, key, carrier) for key in form.keys}
    values[None] = None
    mul, add = carrier._mul, carrier._add
    if any(type(v) is _Fault for v in values.values()):
        mul, add = _guarded(mul), _guarded(add)
    succ, charge, edge_charge = form.succ, form.charge, form.edge_charge
    opens = dict(zip(starts, range(m)))

    # A value is None, the empty product, only until its first payment.  Two
    # unpaid partial systems never meet: on an unsplit network a path pays at
    # its source, and on a split one its only way on from the source crosses
    # a split-edge.
    states = {(-1,) * m: None}
    for p in range(min(starts), max(ends) + 1):
        opened = opens.get(p)
        if opened is not None:
            hit = states.items()
            states = {}
        else:
            claimed = [s for s in states if p in s]
            if not claimed:
                continue
            hit = [(s, states.pop(s)) for s in claimed]
        w = values[charge[p]]
        for state, val in hit:
            k = state.index(p) if opened is None else opened
            if w is not None:
                val = w if val is None else mul(val, w)
            if p == ends[k]:
                key = state[:k] + (-1,) + state[k + 1 :]
                old = states.get(key, _ABSENT)
                states[key] = val if old is _ABSENT else add(old, val)
                continue
            mask = allowed[k]
            for u, c in zip(succ[p], edge_charge[p]):
                if not mask >> u & 1 or u in state:
                    continue
                c = values[c]
                nv = val if c is None else c if val is None else mul(val, c)
                key = state[:k] + (u,) + state[k + 1 :]
                old = states.get(key, _ABSENT)
                states[key] = nv if old is _ABSENT else add(old, nv)

    total = states.get((-1,) * m)
    if type(total) is _Fault:
        raise total.error
    return total


def evaluate_fgf(net: PlanarNetwork, weighting: Mapping, I: Iterable[int], carrier: Carrier):
    """The flow-generated function: sum over flag flows of the weight product,
    computed by the frontier sweep without listing the flows.

    Returns the undefined marker of the carrier when no flow exists."""
    I = _check_indices("source", I, len(net.sources))
    if len(I) > len(net.sinks):
        return undefined_value(carrier)
    srcs = tuple(net.sources[i - 1] for i in I)
    total = _flow_sum(net, weighting, srcs, net.sinks[: len(I)], carrier)
    return undefined_value(carrier) if total is None else total


class FlowFunction:
    """Memoized f(I) for one (network, weighting, carrier) triple."""

    def __init__(self, net: PlanarNetwork, weighting: Mapping, carrier: Carrier):
        self.network = net
        self.weighting = dict(weighting)
        self.carrier = carrier
        self._memo = {}

    def __call__(self, I: Iterable[int]):
        key = frozenset(I)
        if key not in self._memo:
            self._memo[key] = evaluate_fgf(self.network, self.weighting, key, self.carrier)
        return self._memo[key]


def lindstrom_matrix(net: PlanarNetwork, weighting: Mapping, carrier: Carrier):
    """n x n matrix whose (j, i) entry is the path-weight sum from source i to
    sink j; its minors equal the (I, J)-flow sums."""
    if not carrier.is_ring:
        raise SemiringError(f"{carrier.name} is not a ring")
    n = len(net.sources)
    if len(net.sinks) != n:
        raise FlowError("path matrix needs equally many sources and sinks")
    rows = []
    for j in range(1, n + 1):
        row = []
        for i in range(1, n + 1):
            total = _flow_sum(net, weighting, (net.sources[i - 1],), (net.sinks[j - 1],), carrier)
            row.append(carrier.zero if total is None else total)
        rows.append(tuple(row))
    return tuple(rows)


def _parity(perm: tuple[int, ...]) -> int:
    inv = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                inv += 1
    return inv & 1


def minor(matrix, I: Iterable[int], J: Iterable[int], carrier: Carrier):
    """Determinant of the submatrix with column set I and row set J, by the
    signed Leibniz expansion.  The empty minor is one."""
    if not carrier.is_ring:
        raise SemiringError(f"{carrier.name} is not a ring")
    cols = sorted(I)
    rows = sorted(J)
    if len(cols) != len(rows):
        raise FlowError("minor needs |I| = |J|")
    k = len(cols)
    if k == 0:
        return carrier.one
    sub = [[matrix[j - 1][i - 1] for i in cols] for j in rows]
    total = carrier.zero
    for perm in permutations(range(k)):
        term = carrier.one
        for r in range(k):
            term = carrier.mul(term, sub[r][perm[r]])
        if _parity(perm):
            term = carrier.neg(term)
        total = carrier.add(total, term)
    return total
