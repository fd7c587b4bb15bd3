"""Flag flows, (I,J)-flows, flow-generated functions, and the path matrix.

f(I) has two engines.  Over ``nat``, ``int`` and ``posrat`` it is a minor
of the path matrix (Lindström–Gessel–Viennot), computed exactly over the
integers by fraction-free elimination (:class:`FlowFunction`).  Over every
other carrier, and over a ``posrat`` weighting that mixes ``int`` and
``Fraction`` weights, it comes from a frontier sweep over the vertices in
topological order (the transfer-matrix method): it sums weight products over
labelled partial path systems without listing them, using only the
carrier's addition and multiplication.  Enumeration lists the flows
themselves, for the commands and modules that output every flow (``flows``,
double flows, Laurent expansion).  It builds a DAG of path choices once per
listing: node (k, key) holds the ways path k can continue a system whose
first k paths took the positions ``key``, counted only where paths k, k+1,
... may still go.  The DAG grows a level at a time: one walk of path k's
paths serves every node of level k, so a path is found once per level and
labelled once per listing, however many nodes and flows share it; then the
DAG is counted or walked in order.  Every phase keeps its own stack, so
neither path length nor path count is bounded by the recursion limit.  The
engines read the network's compiled form (``PlanarNetwork.form``), whose one
table of the sinks each position reaches is all the reachability they use;
the sweep and the enumerator share one terminal rule (:func:`_plan`).
Planarity plus the boundary order of the terminals force the k-th smallest
chosen source to feed the k-th chosen sink, so every engine uses only that
pairing, and a path-matrix minor has no other disjoint systems to cancel.
Every engine admits a network through :func:`_form`, which refuses one no
builder made when ``network.validate`` lists a problem.

A weighting is checked once, where it enters (:func:`_charged`): the weight
of every vertex on some source -> sink path must be there and be a carrier
element.  Past that check every engine runs the raw carrier operations.

Over a ring, three helpers carry the Lindström–Gessel–Viennot lemma: one
backward pass per sink over its column of the table gives the path-matrix
columns (:func:`_columns`), a sparse exterior product wedges vectors
(:func:`_wedge`), and :func:`_determinant` takes an integer determinant.
They serve :class:`FlowFunction`, :func:`lindstrom_matrix`, :func:`minor`
and :func:`flag_table`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._record import Record
from .network import NetworkForm, PlanarNetwork
from .semiring import COUNTING_NAT, EXACT_INT, POSITIVE_RATIONAL, STAR, Carrier, SemiringError, Starred


class FlowError(ValueError):
    pass


_ABSENT = object()


class Flow(Record):
    """Vertex-disjoint directed path system; path k runs from the k-th
    smallest selected source to the k-th selected sink.  Equality, hashing
    and repr leave out the network."""

    _fields = ("paths", "source_indices", "sink_indices", "network")
    _uncompared = _hidden = ("network",)

    def __init__(
        self,
        paths: tuple[tuple[str, ...], ...],
        source_indices: tuple[int, ...],
        sink_indices: tuple[int, ...],
        network: PlanarNetwork,
    ):
        self.__dict__.update(
            paths=paths, source_indices=source_indices, sink_indices=sink_indices, network=network
        )

    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for path in self.paths:
            out.extend(zip(path, path[1:]))
        return tuple(out)


def _form(net: PlanarNetwork) -> NetworkForm:
    """The compiled form of a builder's network, or of another one once
    ``validate`` lists no problem; else FlowError with the CLI's text."""
    if net.planarity != "constructed" and net.problems:
        raise FlowError("invalid network: " + "; ".join(net.problems))
    return net.form


def _plan(net: PlanarNetwork, I: tuple[int, ...], J: tuple[int, ...]):
    """The terminal rule of the sweep and the enumerator, for paths from the
    k-th source of I to the k-th sink of J: None when a sink is out of its
    source's reach; otherwise the source and sink positions and, per path,
    the positions it may use: its sink's column of ``form.to_sink`` less
    the other paths' terminals.  No two paths share a terminal in a network
    :func:`_form` admits: sources are distinct, so are sinks, and a source
    is a sink only as s1 = t1 or as the last of both, which the one path
    with the smallest (or largest) index in both sets then holds."""
    form = _form(net)
    starts = [form.index[net.sources[i - 1]] for i in I]
    ends = [form.index[net.sinks[j - 1]] for j in J]
    columns = [form.to_sink[j - 1] for j in J]
    if any(not column >> s & 1 for s, column in zip(starts, columns)):
        return None
    bits = sum(1 << p for p in set(starts + ends))
    return starts, ends, [column & ~(bits & ~(1 << t)) for t, column in zip(ends, columns)]


def _dag(net: PlanarNetwork, I: tuple[int, ...], J: tuple[int, ...], label):
    """The DAG of the disjoint path systems that :func:`_plan` pairs, or
    None when there is none: a list whose k-th dict maps ``key`` to the live
    choices of path k at node (k, key), as (label, next key), and whose last
    level is the finished system {0: True}.

    ``later[k]`` holds every position that paths k, k+1, ... may visit,
    their sources included, so the ways to finish a system whose first k
    paths took the positions ``taken`` depend only on k and
    ``key = taken & later[k]``; no planarity is assumed.  A forward pass
    expands one level at a time: a depth-first walk of path k's paths, in
    ``succ`` order, carries the level's keys that the prefix so far avoids,
    and at path k's sink gives each of them the path as a choice.  The next
    keys make the next level.  A backward pass keeps the choices that lead
    to a complete system and labels each path on its first live one (the
    frontier-based search of SIMPATH, Knuth, TAOCP 4A, 7.1.4).  Every node
    of the last level is live, so its paths are labelled as they are found,
    one (label, 0) per path shared by all its nodes.  Everything runs on
    explicit stacks and lives only for the call."""
    plan = _plan(net, I, J)
    if plan is None:
        return None
    starts, ends, allowed = plan
    m = len(starts)
    order, succ = net.order, net.form.succ
    later = [0] * (m + 1)
    for k in reversed(range(m)):
        later[k] = later[k + 1] | allowed[k] | 1 << starts[k]

    # levels[k]: path k's paths, as positions, and the choices each key of
    # level k found, as (path number, next key); on the last level, as the
    # finished (label, 0).
    levels = []
    choices = {0: []}
    for k in range(m):
        end, may, keep, last = ends[k], allowed[k], later[k + 1], k == m - 1
        held = 0  # a step off every key's positions keeps the alive keys
        for key in choices:
            held |= key
        paths, next_level, path = [], {}, []
        stack = [(0, starts[k], list(choices))] if choices else []
        while stack:
            depth, p, alive = stack.pop()
            del path[depth:]
            path.append(p)
            if p != end:
                for u in reversed(succ[p]):
                    if may >> u & 1:
                        left = [key for key in alive if not key >> u & 1] if held >> u & 1 else alive
                        if left:
                            stack.append((depth + 1, u, left))
            elif last:
                choice = (label(tuple(map(order.__getitem__, path))), 0)
                for key in alive:
                    choices[key].append(choice)
            else:
                mask = 0
                for q in path:
                    mask |= 1 << q
                number = len(paths)
                paths.append(tuple(path))
                for key in alive:
                    after = (key | mask) & keep
                    choices[key].append((number, after))
                    if after not in next_level:
                        next_level[after] = []
        levels.append((paths, choices))
        choices = next_level

    # nodes[k][key]: the live choices of path k at (k, key); a node with none
    # is dead.
    nodes = [{0: True}]
    if m:
        nodes.append({key: tuple(found) for key, found in levels.pop()[1].items()})
    for paths, level in reversed(levels):
        live, labels, node = nodes[-1], {}, {}
        for key, found in level.items():
            kept = []
            for number, after in found:
                if live[after]:
                    if number not in labels:
                        labels[number] = label(tuple(map(order.__getitem__, paths[number])))
                    kept.append((labels[number], after))
            node[key] = tuple(kept)
        nodes.append(node)
    nodes.reverse()
    return nodes


def _systems(nodes):
    """The systems of a :func:`_dag`, in lexicographic order of the vertex
    sequences, each as the tuple of its paths' labels: a walk on an explicit
    stack."""
    if nodes is None:
        return
    m = len(nodes) - 1
    if not m:
        yield ()
        return
    walk = [(iter(nodes[0][0]), ())]
    while walk:
        choices, done = walk[-1]
        k = len(walk)
        if k == m:
            for last, _ in choices:
                yield done + (last,)
            walk.pop()
            continue
        choice = next(choices, None)
        if choice is None:
            walk.pop()
        else:
            walk.append((iter(nodes[k][choice[1]]), done + (choice[0],)))


class FlowListing:
    """The flows of one listing, from the DAG built when it was made:
    iterating walks the DAG in order, and :meth:`count` sums it without a
    walk."""

    __slots__ = ("_nodes",)

    def __init__(self, nodes):
        self._nodes = nodes

    def __iter__(self):
        return _systems(self._nodes)

    def count(self) -> int:
        """The number of flows: one pass over the levels, last to first, that
        sums the counts of each node's successors."""
        if self._nodes is None:
            return 0
        counts = {0: 1}
        for level in reversed(self._nodes[:-1]):
            counts = {key: sum(counts[after] for _, after in choices) for key, choices in level.items()}
        return counts[0]


def _check_indices(label: str, ids: Iterable[int], n: int) -> tuple[int, ...]:
    out = tuple(sorted(ids))
    if len(set(out)) != len(out):
        raise FlowError(f"repeated {label} index")
    for i in out:
        if not 1 <= i <= n:
            raise FlowError(f"{label} index {i} outside 1..{n}")
    return out


def _listing(net: PlanarNetwork, I: Iterable[int], J: Iterable[int] | None, label):
    """Checked (I, J) and the listing of their flows, as :func:`list_flows`
    gives it; J None stands for the first |I| sinks, the flag flows, of
    which there are none when I outnumbers the sinks."""
    I = _check_indices("source", I, len(net.sources))
    if J is None:
        J = tuple(range(1, len(I) + 1))
        if len(I) > len(net.sinks):
            return I, J, FlowListing(None)
    else:
        J = _check_indices("sink", J, len(net.sinks))
        if len(I) != len(J):
            raise FlowError("index sets must have equal size")
    return I, J, FlowListing(_dag(net, I, J, label))


def list_flows(net: PlanarNetwork, I: Iterable[int], J: Iterable[int] | None, label) -> FlowListing:
    """The (I, J)-flows, or the flag flows for I when J is None, in the order
    of :func:`enumerate_flows`; each flow is the tuple of ``label(names)``
    over its paths, ``names`` the tuple of a path's vertex names.  ``label``
    runs once per distinct path of the listing, not once per flow, so it may
    be a costly map (a rendered line, a packed degree vector).  Index sets are
    checked and the DAG is built at the call; iterating the listing walks it,
    and its ``count()`` needs no walk."""
    return _listing(net, I, J, label)[2]


def _listed(net: PlanarNetwork, I, J) -> tuple[Flow, ...]:
    """The flows as :class:`Flow` objects, listed afresh on each call."""
    I, J, systems = _listing(net, I, J, tuple)
    return tuple(Flow(paths=paths, source_indices=I, sink_indices=J, network=net) for paths in systems)


def enumerate_flag_flows(net: PlanarNetwork, I: Iterable[int]) -> tuple[Flow, ...]:
    """All flag flows for I: disjoint paths from the sources indexed by I to
    the first |I| sinks.  Empty tuple when none exist; the empty index set has
    exactly one (empty) flow."""
    return _listed(net, I, None)


def enumerate_flows(net: PlanarNetwork, I: Iterable[int], J: Iterable[int]) -> tuple[Flow, ...]:
    """All (I, J)-flows: disjoint paths from sources S_I to sinks T_J."""
    return _listed(net, I, J)


def flow_weight(net: PlanarNetwork, weighting: Mapping, flow: Flow, carrier: Carrier):
    """Product of vertex weights along the flow, each paid where the compiled
    form charges it (on a split network, the original vertex's weight at the
    tail of its split-edge)."""
    form = _form(net)
    keys = [form.charge[form.index[v]] for path in flow.paths for v in path]
    return carrier.product([_weight_of(weighting, key) for key in keys if key is not None])


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


def _charged(net: PlanarNetwork, weighting: Mapping, carrier: Carrier) -> tuple:
    """Per position of the compiled form, the weight a path pays there, or
    None where nothing is paid or no source -> sink path passes.  The weight
    of every position on such a path (``form.reach`` not 0) is read and
    checked, in position order; the first that is missing or not a carrier
    element raises.  Dead ends and vertices with no way in need no weight."""

    def pay(key):
        value = _weight_of(weighting, key)
        carrier.check(value)
        return value

    form = _form(net)
    return tuple(None if key is None or not reach else pay(key) for key, reach in zip(form.charge, form.reach))


def _flow_sum(net: PlanarNetwork, paid: tuple, I, J, carrier: Carrier):
    """Sum over the disjoint path systems that :func:`_plan` pairs of their
    weight products, for nonempty I and J, or None when there is none;
    ``paid`` comes from :func:`_charged`.

    A frontier sweep over the vertices in topological order (the
    transfer-matrix method).  A state holds, for each path label k, the
    position that path k has claimed as its next step, or -1 once path k is
    done; the first state claims every source.  A claimed position is paid
    for (vertex weights on an unsplit network, the weight of v at v' on a
    split one) and then either closes its path at the path's own sink or
    claims an unclaimed successor that the terminal rule of :func:`_plan`
    allows.  So no path ever claims another path's terminal, and when the
    sweep reaches a selected sink every live state has claimed it: nothing
    needs dropping.  Only reachable states are kept: "no system" is the
    absence of the final state, not a zero, which carriers without zero and
    ``Starred`` need.  Labels keep the k-th source paired with the k-th sink,
    as in enumeration.  Only the raw carrier operations run inside."""
    plan = _plan(net, I, J)
    if plan is None:
        return None
    starts, ends, allowed = plan
    m = len(starts)
    mul, add = carrier._mul, carrier._add
    succ = net.form.succ

    # A value is None, the empty product, only until its first payment.  Two
    # unpaid partial systems never meet, and no system ends unpaid: by the
    # charge rule, which every network _form admits keeps, a path pays at
    # its source or at its first step.
    states = {tuple(starts): None}
    for p in range(min(starts), max(ends) + 1):
        w = paid[p]
        for state in [s for s in states if p in s]:
            val = states.pop(state)
            if w is not None:
                val = w if val is None else mul(val, w)
            k = state.index(p)
            if p == ends[k]:
                moves = (-1,)
            else:
                mask = allowed[k]
                moves = [u for u in succ[p] if mask >> u & 1 and u not in state]
            for u in moves:
                key = state[:k] + (u,) + state[k + 1 :]
                old = states.get(key, _ABSENT)
                states[key] = val if old is _ABSENT else add(old, val)

    return states.get((-1,) * m)


def evaluate_fgf(net: PlanarNetwork, weighting: Mapping, I: Iterable[int], carrier: Carrier):
    """The flow-generated function: sum over flag flows of the weight product,
    computed without listing the flows (:class:`FlowFunction`).

    Returns the undefined marker of the carrier when no flow exists."""
    return FlowFunction(net, weighting, carrier)(I)


class FlowFunction:
    """Memoized f(I) for one (network, weighting, carrier) triple.  The
    weighting is checked once (:func:`_charged`), on the first call that
    reaches an engine; a bad weight on any source -> sink path raises there,
    whether or not a flag flow of that call pays it.

    Over ``nat``, ``int`` and ``posrat``, when every charged weight is an
    ``int`` (or, over ``posrat``, every one a ``Fraction``), f(I) is the
    minor of the path matrix on I's source rows and the columns of sinks
    1..|I| (Lindström–Gessel–Viennot: the terminals of an admitted network
    lie in boundary order, so only the identity pairing has disjoint
    systems).  The columns (:func:`_columns`) are made once, the first |I|
    of them on the first call and more only when a larger |I| needs them,
    each scaled to integers by the lcm of its denominators; a
    :func:`_determinant` over ``int`` then gives each minor.  Over
    ``posrat`` every weight is positive, so a zero minor means no flow.
    Every other case keeps the sweep (:func:`_flow_sum`), whose result type
    the ring engine matches: ``int`` from ``int`` weights, ``Fraction`` from
    ``Fraction`` ones; a ``posrat`` weighting that mixes the two gives
    whichever type its flows pay."""

    def __init__(self, net: PlanarNetwork, weighting: Mapping, carrier: Carrier):
        self.network = net
        self.weighting = dict(weighting)
        self.carrier = carrier
        self._memo = {}
        self._paid = None
        # the ring engine's integer columns of sinks 1, 2, ..., as dicts from
        # source row to entry, and _scales[k], the product of the first k
        # columns' scales; None for the sweep.  _ratio is Fraction where the
        # engine answers in Fractions, else None.
        self._columns = self._scales = self._ratio = None

    def __call__(self, I: Iterable[int]):
        I = tuple(I)
        key = frozenset(I)
        if len(key) != len(I):
            raise FlowError("repeated source index")
        if key not in self._memo:
            net, carrier = self.network, self.carrier
            I = _check_indices("source", key, len(net.sources))
            total = None
            if len(I) <= len(net.sinks):
                if self._paid is None:
                    self._paid = _charged(net, self.weighting, carrier)
                    self._choose_engine()
                if not I:
                    total = carrier.product(())
                elif self._columns is not None:
                    total = self._minor(I)
                else:
                    total = _flow_sum(net, self._paid, I, range(1, len(I) + 1), carrier)
            self._memo[key] = undefined_value(carrier) if total is None else total
        return self._memo[key]

    def _choose_engine(self):
        """Start the ring engine's columns where it serves the carrier and the
        charged weights.  ``fractions`` and ``math`` come in with the package
        already, so the imports here cost no start-up."""
        from fractions import Fraction

        carrier = self.carrier
        kinds = {type(w) for w in self._paid if w is not None}
        if carrier in (COUNTING_NAT, EXACT_INT, POSITIVE_RATIONAL) and kinds <= {int}:
            self._columns, self._scales = [], [1]
        elif carrier is POSITIVE_RATIONAL and kinds == {Fraction}:
            self._columns, self._scales, self._ratio = [], [1], Fraction

    def _minor(self, I: tuple[int, ...]):
        """f(I) by the ring engine, or None for a zero minor."""
        k, columns, scales = len(I), self._columns, self._scales
        if len(columns) < k:
            from math import lcm

            for column in _columns(self.network, self._paid, self.carrier, range(len(columns) + 1, k + 1)):
                scale = lcm(*(x.denominator for x in column.values()))
                columns.append({r: x.numerator * (scale // x.denominator) for r, x in column.items()})
                scales.append(scales[-1] * scale)
        det = _determinant([[column.get(i - 1, 0) for column in columns[:k]] for i in I])
        if not det:
            return None
        return det if self._ratio is None else self._ratio(det, scales[k])


def _determinant(rows: list) -> int:
    """The determinant of a square integer matrix, given as a list of row
    lists that it overwrites: fraction-free Gaussian elimination (Bareiss
    1968), in which every division is exact; a zero pivot takes the first
    lower row with a nonzero entry in its column, and the sign flips."""
    n, sign, last = len(rows), 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        top = rows[k]
        pivot = top[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // last
        last = pivot
    return sign * rows[-1][-1] if n else 1


def _columns(net: PlanarNetwork, paid: tuple, carrier: Carrier, sinks: Iterable[int]) -> list:
    """The path-matrix columns of ``sinks``, sink j's as a dict from source
    row r (source r + 1) to the weight sum of the paths s_{r+1} -> t_j, each
    paying :func:`_charged`, for the sources with such a path.  One backward
    pass over sink j's column of ``form.to_sink``, from the sink, its last
    position, sums the paths p -> t_j at every position p of the column."""
    form = net.form
    succ, rows = form.succ, [form.index[s] for s in net.sources]
    one, mul, add = carrier.one, carrier._mul, carrier._add
    out = []
    for j in sinks:
        reach = form.to_sink[j - 1]
        end = reach.bit_length() - 1
        sums = {end: one if paid[end] is None else paid[end]} if reach else {}
        for p in range(end - 1, -1, -1):
            if reach >> p & 1:
                total = None
                for u in succ[p]:
                    if u in sums:
                        total = sums[u] if total is None else add(total, sums[u])
                w = paid[p]
                sums[p] = total if w is None else mul(total, w)
        out.append({r: sums[p] for r, p in enumerate(rows) if p in sums})
    return out


def _wedge(vectors, one, mul, add, neg, zero) -> dict:
    """The exterior product of ``vectors``, lists of (r, coordinate on e_r),
    as a dict from the bitmask of S to the coordinate of e_S; the sign of
    e_S ^ e_r is the parity of the members of S above r.  Coordinates equal
    to ``zero`` are dropped after each factor."""
    table = {0: one}
    for vector in vectors:
        column = [(r, 1 << r, (x, neg(x))) for r, x in vector]
        wedge = {}
        for members, x in table.items():
            for r, bit, signed in column:
                if members & bit:
                    continue
                term = mul(x, signed[(members >> r).bit_count() & 1])
                key = members | bit
                old = wedge.get(key)
                wedge[key] = term if old is None else add(old, term)
        for key in [key for key, v in wedge.items() if v == zero]:
            del wedge[key]
        table = wedge
    return table


def lindstrom_matrix(net: PlanarNetwork, weighting: Mapping, carrier: Carrier):
    """n x n matrix whose (j, i) entry is the path-weight sum from source i to
    sink j, row j the :func:`_columns` column of sink j.  On an admitted
    network (:func:`_form`) the terminals lie in boundary order, so its
    minors are the (I, J)-flow sums.  A network not admitted raises
    FlowError before any weight is read, and so does a weighting that misses
    a vertex on some source -> sink path."""
    if not carrier.is_ring:
        raise SemiringError(f"{carrier.name} is not a ring")
    if len(net.sinks) != len(net.sources):
        raise FlowError("path matrix needs equally many sources and sinks")
    paid = _charged(net, weighting, carrier)
    n, zero = len(net.sources), carrier.zero
    columns = _columns(net, paid, carrier, range(1, n + 1))
    return tuple(tuple(column.get(r, zero) for r in range(n)) for column in columns)


def flag_table(net: PlanarNetwork, weighting: Mapping, carrier: Carrier, k: int) -> dict:
    """f(A) for every k-subset A of the sources where it is nonzero, over a
    ring carrier, keyed by the bitmask of A (bit i - 1 for source i).

    With the terminals in boundary order, Lindström–Gessel–Viennot and
    Cauchy–Binet make the :func:`_wedge` of the :func:`_columns` of sinks
    1..k the sum of f(A) e_A over the k-subsets A; a network that
    :func:`_form` does not admit raises FlowError before any weight is
    read."""
    if not carrier.is_ring:
        raise SemiringError(f"{carrier.name} is not a ring")
    if k < 0:
        raise FlowError("flag table needs k >= 0")
    if k > min(len(net.sources), len(net.sinks)):
        return {}
    paid = _charged(net, weighting, carrier)
    columns = [list(column.items()) for column in _columns(net, paid, carrier, range(1, k + 1))]
    return _wedge(columns, carrier.one, carrier._mul, carrier._add, carrier._neg, carrier.zero)


def minor(matrix, I: Iterable[int], J: Iterable[int], carrier: Carrier):
    """Determinant of the submatrix with column set I and row set J over a
    ring carrier: the coordinate of e_1 ^ ... ^ e_k in the wedge of its rows
    (:func:`_wedge`).  The index sets are checked against the matrix and its
    entries against the carrier.  The empty minor is one."""
    if not carrier.is_ring:
        raise SemiringError(f"{carrier.name} is not a ring")
    cols = _check_indices("column", I, min(map(len, matrix), default=0))
    rows = _check_indices("row", J, len(matrix))
    if len(cols) != len(rows):
        raise FlowError("minor needs |I| = |J|")
    sub = [[matrix[j - 1][i - 1] for i in cols] for j in rows]
    carrier.check(*(x for row in sub for x in row))
    zero = carrier.zero
    vectors = [[(c, x) for c, x in enumerate(row) if x != zero] for row in sub]
    table = _wedge(vectors, carrier.one, carrier._mul, carrier._add, carrier._neg, zero)
    return table.get((1 << len(cols)) - 1, zero)
