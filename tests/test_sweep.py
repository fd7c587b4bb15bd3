"""The frontier sweep behind f(I) and the path matrix, checked against
enumeration (``enumerate_flag_flows`` + ``flow_weight``) and the brute-force
oracle, value and type, and for the same errors; the exterior-product table
(``flag_table``) checked against the sweep and the oracle; the ring engine of
``FlowFunction`` (path-matrix minors over nat, int and posrat) checked
against the sweep, the flag table and the interval reconstruction; and the
``troprat`` sweep on integer multiples of the weights checked against the
sweep in ``Fraction`` arithmetic."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _brute import naive_disjoint_systems, naive_flag_flows
from sqflows import cli, flows
from sqflows.counterexample import build_gadget_network
from sqflows.flows import (
    Flow,
    FlowError,
    FlowFunction,
    enumerate_flag_flows,
    enumerate_flows,
    evaluate_fgf,
    flag_table,
    flow_weight,
    lindstrom_matrix,
    list_flows,
    undefined_value,
)
from sqflows.laurent import intervals_of, reconstruct_from_intervals
from sqflows.matchings import collection, enumerate_nested_matchings
from sqflows.network import PlanarNetwork, build_half_grid, random_grid_network, vertex_split
from sqflows.relations import QuadraticRelation, random_weighting, symbolic_check
from sqflows.semiring import (
    CARRIERS,
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POLY_NAT,
    POSITIVE_RATIONAL,
    STAR,
    TROPICAL_RATIONAL,
    CarrierMismatch,
    Poly,
    SemiringError,
    Starred,
)

PLAIN = tuple(CARRIERS.values())
ALL_CARRIERS = PLAIN + tuple(Starred(c) for c in PLAIN)

# sources a, b and sinks c, d with the disjoint system a -> d, b -> c only:
# a crossed pairing, which the k-th source to k-th sink rule cannot see
CROSSED = PlanarNetwork(
    vertices=("a", "b", "c", "d"),
    edges=(("a", "d"), ("b", "c")),
    sources=("a", "b"),
    sinks=("c", "d"),
    planarity="declared",
)
CROSSED_TEXT = (
    "invalid network: crossed pairing: s1 -> t2 and s2 -> t1 have vertex-disjoint paths (a -> d, b -> c)"
)
# the second source and the second sink are no vertices
STRAY = PlanarNetwork(vertices=("a", "b"), edges=(("a", "b"),), sources=("a", "x"), sinks=("b", "y"))
STRAY_TEXT = "invalid network: source not a vertex: x; sink not a vertex: y"


def refused(call, text):
    """``call()`` raises FlowError with exactly ``text``."""
    with pytest.raises(FlowError) as raised:
        call()
    assert str(raised.value) == text


def _gadgets():
    out = []
    for p in (1, 2, 3):
        for m in enumerate_nested_matchings(2 * p, p):
            if all((j - i) % 2 for i, j in m.arcs):
                out.append(build_gadget_network(m).network)
    return out


GADGETS = _gadgets()


def enumerated(net, weighting, I, carrier):
    """f(I) the way enumeration computes it: a fold of add over the flow
    weights."""
    total = None
    for flow in enumerate_flag_flows(net, I):
        w = flow_weight(net, weighting, flow, carrier)
        total = w if total is None else carrier.add(total, w)
    return undefined_value(carrier) if total is None else total


def brute(net, weighting, I, carrier):
    """f(I) from the brute-force systems of every sink pairing, keeping the
    order-preserving ones."""
    I = tuple(sorted(I))
    if len(I) > len(net.sinks):
        return undefined_value(carrier)
    sinks = tuple(range(1, len(I) + 1))
    total = None
    for perm, system in naive_flag_flows(net, I):
        if perm != tuple(range(len(I))):
            continue
        flow = Flow(paths=tuple(system), source_indices=I, sink_indices=sinks, network=net)
        w = flow_weight(net, weighting, flow, carrier)
        total = w if total is None else carrier.add(total, w)
    return undefined_value(carrier) if total is None else total


def same(a, b):
    return type(a) is type(b) and a == b


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(("halfgrid", "grid", "split", "gadget")))
    if kind == "halfgrid":
        return build_half_grid(draw(st.integers(1, 5)))
    if kind == "gadget":
        return draw(st.sampled_from(GADGETS))
    grid = random_grid_network(
        draw(st.integers(1, 4)), draw(st.integers(1, 3)), random.Random(draw(st.integers(0, 999)))
    )
    if kind == "grid":
        return grid
    return vertex_split(draw(st.sampled_from((grid, build_half_grid(draw(st.integers(1, 4)))))))


@st.composite
def cases(draw, carriers=ALL_CARRIERS):
    net = draw(networks())
    carrier = draw(st.sampled_from(carriers))
    rng = random.Random(draw(st.integers(0, 2**32)))
    weighting = random_weighting(net.original_vertices() or net.vertices, carrier, rng)
    for v, x in weighting.items():
        if isinstance(carrier, Starred) and rng.random() < 0.15:
            weighting[v] = STAR
        elif type(x) is Fraction and x.denominator == 1 and rng.random() < 0.5:
            weighting[v] = int(x)  # rational carriers take ints too
    I = draw(st.sets(st.integers(1, len(net.sources))))
    return net, weighting, I, carrier


SETTINGS = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(cases())
def test_sweep_matches_enumeration(case):
    net, weighting, I, carrier = case
    assert same(evaluate_fgf(net, weighting, I, carrier), enumerated(net, weighting, I, carrier))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_sweep_matches_brute_force(case):
    net, weighting, I, carrier = case
    assert evaluate_fgf(net, weighting, I, carrier) == brute(net, weighting, I, carrier)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(networks(), st.data())
def test_listing_order(net, data):
    # flows come out strictly increasing in their paths, and they are exactly
    # the order-preserving systems of the brute-force oracle
    I = data.draw(st.sets(st.integers(1, len(net.sources))))
    flag = [flow.paths for flow in enumerate_flag_flows(net, I)]
    if len(I) > len(net.sinks):
        assert flag == []
        return
    identity = tuple(range(len(I)))
    assert flag == sorted(system for perm, system in naive_flag_flows(net, I) if perm == identity)
    J = data.draw(st.sets(st.integers(1, len(net.sinks)), min_size=len(I), max_size=len(I)))
    srcs = [net.sources[i - 1] for i in sorted(I)]
    dsts = [net.sinks[j - 1] for j in sorted(J)]
    listed = [flow.paths for flow in enumerate_flows(net, I, J)]
    assert listed == sorted(naive_disjoint_systems(net, srcs, dsts))
    for paths in (flag, listed):
        assert all(a < b for a, b in zip(paths, paths[1:]))


@st.composite
def listings(draw):
    """A network and a flag listing (J None) or an (I, J) listing of it."""
    net = draw(networks())
    size = draw(st.integers(0, len(net.sources)))
    I = draw(st.sets(st.integers(1, len(net.sources)), min_size=size, max_size=size))
    J = None
    if len(I) <= len(net.sinks) and draw(st.booleans()):
        J = draw(st.sets(st.integers(1, len(net.sinks)), min_size=len(I), max_size=len(I)))
    return net, I, J


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(listings())
@example((build_half_grid(6), {1, 3, 5}, None))
@example((build_half_grid(7), {2, 4, 5, 7}, {1, 2, 4, 6}))
def test_listing_blocks_flatten_to_the_listing(case):
    # I = () and flowless listings included: the blocks hold the flows in
    # listing order, each block at least one, and all the flows that share
    # their first m - 1 paths; their sizes add up to count()
    net, I, J = case
    listing = list_flows(net, I, J, tuple)
    blocks = list(listing.blocks())
    if not I:
        # one empty flow, which has no last path
        assert blocks == [((), ())] and list(listing) == [()] and listing.count() == 1
        return
    assert all(lasts and len(prefix) == len(I) - 1 for prefix, lasts in blocks)
    assert len({prefix for prefix, _ in blocks}) == len(blocks)
    assert [prefix + (last,) for prefix, lasts in blocks for last in lasts] == list(listing)
    assert sum(len(lasts) for _, lasts in blocks) == listing.count()


@settings(max_examples=60, deadline=None)
@given(cases(carriers=(EXACT_INT, POLY_INT)))
def test_path_matrix_matches_enumeration(case):
    net, weighting, _, carrier = case
    n = len(net.sources)
    if len(net.sinks) != n:
        return
    matrix = lindstrom_matrix(net, weighting, carrier)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            total = carrier.zero
            for flow in enumerate_flows(net, (i,), (j,)):
                total = carrier.add(total, flow_weight(net, weighting, flow, carrier))
            assert matrix[j - 1][i - 1] == total


def test_split_network_gives_the_same_polynomial():
    # what symbolic_check relies on: one variable per original vertex gives
    # the same polynomial on the network and on its split
    for net in (build_half_grid(4), random_grid_network(4, 2, random.Random(5))):
        split = vertex_split(net)
        weighting = {v: Poly.variable(v) for v in net.vertices}
        for size in range(len(net.sources) + 1):
            for I in combinations(range(1, len(net.sources) + 1), size):
                assert evaluate_fgf(net, weighting, I, POLY_NAT) == evaluate_fgf(
                    split, weighting, I, POLY_NAT
                )


@pytest.mark.parametrize("carrier", ALL_CARRIERS, ids=lambda c: c.name)
def test_edge_cases(carrier):
    g = build_half_grid(4)
    weighting = random_weighting(g.vertices, carrier, random.Random(carrier.name))
    # the empty index set has one empty flow, worth the empty product; one
    # flow through one vertex is worth that vertex's weight, as given
    assert same(evaluate_fgf(g, weighting, (), carrier), carrier.one)
    if isinstance(weighting["1,1"], Fraction):
        weighting["1,1"] = 3
    assert same(evaluate_fgf(g, weighting, {1}, carrier), weighting["1,1"])
    # more sources than sinks, and a set without flows, are undefined
    gadget = GADGETS[-1]
    w = random_weighting(gadget.vertices, carrier, random.Random(1))
    big = range(1, len(gadget.sinks) + 2)
    assert same(evaluate_fgf(gadget, w, big, carrier), undefined_value(carrier))
    grid = random_grid_network(3, 1, random.Random(0))
    w = random_weighting(grid.vertices, carrier, random.Random(2))
    assert not enumerate_flag_flows(grid, {2, 3})
    assert same(evaluate_fgf(grid, w, {2, 3}, carrier), undefined_value(carrier))
    # a crossed pairing: neither engine answers, on any I
    w = random_weighting(CROSSED.vertices, carrier, random.Random(3))
    for I in ({1}, {2}, {1, 2}):
        refused(lambda: evaluate_fgf(CROSSED, w, I, carrier), CROSSED_TEXT)
        refused(lambda: enumerate_flag_flows(CROSSED, I), CROSSED_TEXT)


def test_crossed_network_path_matrix():
    # its 2 x 2 minor would be -1, though the crossed system exists
    ones = {v: 1 for v in CROSSED.vertices}
    refused(lambda: lindstrom_matrix(CROSSED, ones, EXACT_INT), CROSSED_TEXT)


def test_terminal_that_is_not_a_vertex():
    # the whole network is checked, not only the terminals of the call
    ones = {"a": 1, "b": 1}
    for I in ({1}, {2}, {1, 2}):
        refused(lambda: enumerate_flag_flows(STRAY, I), STRAY_TEXT)
        refused(lambda: evaluate_fgf(STRAY, ones, I, COUNTING_NAT), STRAY_TEXT)
    refused(lambda: lindstrom_matrix(STRAY, ones, EXACT_INT), STRAY_TEXT)


@pytest.mark.parametrize("net, text", [(CROSSED, CROSSED_TEXT), (STRAY, STRAY_TEXT)], ids=["crossed", "stray"])
def test_every_engine_refuses_before_reading_weights(net, text):
    # the weighting is empty, so any weight read would raise another error
    relation = QuadraticRelation(1, 1, collection(1, 1, [(1,)]), collection(1, 1, [(2,)]))
    for call in (
        lambda: evaluate_fgf(net, {}, {1}, EXACT_INT),
        lambda: FlowFunction(net, {}, EXACT_INT)({1, 2}),
        lambda: list_flows(net, {1}, None, tuple),
        lambda: enumerate_flag_flows(net, {1, 2}),
        lambda: enumerate_flows(net, {1}, {2}),
        lambda: lindstrom_matrix(net, {}, EXACT_INT),
        lambda: flag_table(net, {}, EXACT_INT, 1),
        lambda: symbolic_check(relation, net),
    ):
        refused(call, text)


def test_cycle_and_bad_indices():
    cyclic = PlanarNetwork(
        vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c"), ("c", "b")), sources=("a",), sinks=("c",)
    )
    ones = {v: 1 for v in cyclic.vertices}
    for call in (
        lambda: evaluate_fgf(cyclic, ones, {1}, COUNTING_NAT),
        lambda: evaluate_fgf(cyclic, ones, (), COUNTING_NAT),
        lambda: enumerate_flag_flows(cyclic, {1}),
        lambda: lindstrom_matrix(cyclic, ones, EXACT_INT),
    ):
        with pytest.raises(FlowError, match="cycle"):
            call()
    g = build_half_grid(3)
    ones = {v: 1 for v in g.vertices}
    f = FlowFunction(g, ones, COUNTING_NAT)
    f({2})  # memoized under {2}, which must not answer f((2, 2))
    for I, message in (((0,), "outside"), ((4,), "outside"), ((2, 2), "repeated")):
        with pytest.raises(FlowError, match=message):
            evaluate_fgf(g, ones, I, COUNTING_NAT)
        with pytest.raises(FlowError, match=message):
            f(I)


def _on_some_flow(net, flows):
    return {net.origin_of(v) or v for flow in flows for path in flow.paths for v in path}


def _with_dead_ends(net):
    """``net`` plus a dead end after source 2 and a vertex with no way in
    before sink 1: no path from a source to a sink uses either."""
    head, tail = net.sources[1], net.sinks[0]
    return PlanarNetwork(
        vertices=net.vertices + ("x", "y"),
        edges=net.edges + ((head, "x"), ("y", tail)),
        sources=net.sources,
        sinks=net.sinks,
        planarity="declared",
    )


@pytest.mark.parametrize(
    "net",
    [build_half_grid(5), vertex_split(build_half_grid(4))]
    + [random_grid_network(4, 2, random.Random(s)) for s in range(3)]
    + GADGETS[-3:]
    + [_with_dead_ends(build_half_grid(3))],
    ids=lambda net: f"{len(net.vertices)}v",
)
def test_bad_weight_raises_only_on_a_flow(net):
    # a missing or foreign weight raises exactly when its vertex lies on some
    # source -> sink path, a one-path (I, J)-flow: f(I) then raises on every
    # I that reaches the sweep, even where no flag flow of I pays it, and so
    # does the path matrix; dead ends and vertices with no way in need no
    # weight
    keys = net.original_vertices() or net.vertices
    ones = {v: 1 for v in keys}
    n, m = len(net.sources), len(net.sinks)
    pairs = [((i,), (j,)) for i in range(1, n + 1) for j in range(1, m + 1)]
    used = _on_some_flow(net, [flow for I, J in pairs for flow in enumerate_flows(net, I, J)])
    assert not {"x", "y"} & used
    for size in range(n + 1):
        for I in combinations(range(1, n + 1), size):
            expected = evaluate_fgf(net, ones, I, COUNTING_NAT)
            for v in keys:
                missing = {u: 1 for u in keys if u != v}
                foreign = dict(ones, **{v: -1})
                if v in used and size <= m:
                    with pytest.raises(FlowError, match=f"^weighting is missing vertex {re.escape(repr(v))}$"):
                        evaluate_fgf(net, missing, I, COUNTING_NAT)
                    with pytest.raises(CarrierMismatch):
                        evaluate_fgf(net, foreign, I, COUNTING_NAT)
                else:
                    assert evaluate_fgf(net, missing, I, COUNTING_NAT) == expected
                    assert evaluate_fgf(net, foreign, I, COUNTING_NAT) == expected
    # the path matrix raises the same error exactly when some source -> sink
    # path pays the bad weight
    if m != n:
        return
    matrix = lindstrom_matrix(net, ones, EXACT_INT)
    for v in keys:
        missing = {u: 1 for u in keys if u != v}
        foreign = dict(ones, **{v: "1"})
        if v in used:
            with pytest.raises(FlowError, match=f"^weighting is missing vertex {v!r}$"):
                lindstrom_matrix(net, missing, EXACT_INT)
            with pytest.raises(CarrierMismatch, match="^'1' is not an element of int$"):
                lindstrom_matrix(net, foreign, EXACT_INT)
        else:
            assert lindstrom_matrix(net, missing, EXACT_INT) == matrix
            assert lindstrom_matrix(net, foreign, EXACT_INT) == matrix


def test_several_bad_weights_raise_at_the_first_in_topological_order():
    # halfgrid:3 without the weights of 2,1 and 3,1: the weighting is
    # checked in topological order, where 3,1 comes before 2,1
    g = build_half_grid(3)
    assert g.order.index("3,1") < g.order.index("2,1")
    weights = {"1,1": 1, "2,2": 1, "3,3": 1, "3,2": 1}
    for call in (
        lambda: lindstrom_matrix(g, weights, EXACT_INT),
        lambda: evaluate_fgf(g, weights, {1}, EXACT_INT),
        lambda: flag_table(g, weights, EXACT_INT, 1),
    ):
        with pytest.raises(FlowError, match="^weighting is missing vertex '3,1'$"):
            call()


def test_terminals_shared_between_paths():
    # a vertex that could be a terminal of two paths makes the network
    # invalid: s2 = t1 (which here also crosses), or a repeated source
    chain = PlanarNetwork(
        vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c"), ("a", "c")), sources=("a", "b"), sinks=("b", "c")
    )
    twice = PlanarNetwork(
        vertices=("a", "b", "c"), edges=(("a", "b"), ("a", "c")), sources=("a", "a"), sinks=("b", "c")
    )
    texts = (
        "invalid network: source s2 coincides with sink t1: b; crossed pairing: s1 -> t2 and s2 -> t1 have "
        "vertex-disjoint paths (a -> c, b -> b)",
        "invalid network: duplicate source: a",
    )
    for net, text in zip((chain, twice), texts):
        ones = {v: 1 for v in net.vertices}
        for I in ({1}, {2}, {1, 2}):
            refused(lambda: evaluate_fgf(net, ones, I, COUNTING_NAT), text)
            refused(lambda: enumerate_flag_flows(net, I), text)
    # the last source may be the last sink: one path then holds both
    ends = PlanarNetwork(
        vertices=("a", "b", "c"), edges=(("a", "b"), ("a", "c")), sources=("a", "b"), sinks=("c", "b")
    )
    weights = {"a": 2, "b": 3, "c": 5}
    for I, value in (({1}, 10), ({2}, 0), ({1, 2}, 30)):
        assert evaluate_fgf(ends, weights, I, EXACT_INT) == value == enumerated(ends, weights, I, EXACT_INT)


def test_weights_are_checked_once(monkeypatch):
    # a FlowFunction checks its weighting on its first call only, and the path
    # matrix checks it once for all its entries
    g = build_half_grid(4)
    weights = {v: k + 2 for k, v in enumerate(g.vertices)}
    sets = ({1}, {1, 3}, {2, 4}, {1, 2, 3, 4})
    expected = [evaluate_fgf(g, weights, I, EXACT_INT) for I in sets]
    matrix = lindstrom_matrix(g, weights, EXACT_INT)
    checked = []
    check = EXACT_INT.check
    monkeypatch.setattr(EXACT_INT, "check", lambda *values: checked.extend(values) or check(*values))
    f = FlowFunction(g, weights, EXACT_INT)
    assert [f(I) for I in sets] == expected
    assert sorted(checked) == sorted(weights.values())
    checked.clear()
    assert lindstrom_matrix(g, weights, EXACT_INT) == matrix
    assert sorted(checked) == sorted(weights.values())


def _mask(A) -> int:
    return sum(1 << i - 1 for i in A)


def swept_table(net, weighting, carrier, k):
    """The flag table as the sweep gives it: f(A) on every k-subset, zeros
    left out."""
    f = FlowFunction(net, weighting, carrier)
    values = {_mask(A): f(A) for A in combinations(range(1, len(net.sources) + 1), k)}
    return {key: v for key, v in values.items() if v != carrier.zero}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases(carriers=(EXACT_INT, POLY_INT)))
def test_flag_table_matches_sweep_and_brute_force(case):
    # signed weights, every k: the wedge of the path-matrix columns is the
    # sweep's f on every k-subset, and the brute-force oracle's where small
    net, weighting, _, carrier = case
    n = len(net.sources)
    for k in range(n + 2):
        table = flag_table(net, weighting, carrier, k)
        assert table == swept_table(net, weighting, carrier, k)
        assert all(type(v) is type(carrier.one) for v in table.values())
        if len(net.vertices) <= 12:
            for A in combinations(range(1, n + 1), k):
                assert table.get(_mask(A), carrier.zero) == brute(net, weighting, A, carrier)


def test_flag_table_refusals():
    ones = {v: 1 for v in CROSSED.vertices}
    for k in (0, 1, 2):
        refused(lambda: flag_table(CROSSED, ones, EXACT_INT, k), CROSSED_TEXT)
    g = build_half_grid(3)
    for carrier in PLAIN:
        if not carrier.is_ring:
            with pytest.raises(SemiringError, match="is not a ring"):
                flag_table(g, dict.fromkeys(g.vertices, carrier.one), carrier, 2)
    with pytest.raises(FlowError, match="k >= 0"):
        flag_table(g, dict.fromkeys(g.vertices, 1), EXACT_INT, -1)
    cyclic = PlanarNetwork(
        vertices=("a", "b", "c"), edges=(("a", "b"), ("b", "c"), ("c", "b")), sources=("a",), sinks=("c",)
    )
    with pytest.raises(FlowError, match="cycle"):
        flag_table(cyclic, dict.fromkeys(cyclic.vertices, 1), EXACT_INT, 1)
    refused(lambda: flag_table(STRAY, {"a": 1, "b": 1}, EXACT_INT, 1), STRAY_TEXT)
    # no k-subset, or more sources than sinks: nothing to list
    assert flag_table(g, dict.fromkeys(g.vertices, 1), EXACT_INT, 4) == {}
    assert flag_table(g, dict.fromkeys(g.vertices, 1), EXACT_INT, 0) == {0: 1}


@pytest.mark.parametrize(
    "net",
    [build_half_grid(5), vertex_split(build_half_grid(4))]
    + [random_grid_network(4, 2, random.Random(s)) for s in range(3)]
    + GADGETS[-3:],
    ids=lambda net: f"{len(net.vertices)}v",
)
def test_flag_table_raises_a_bad_weight_as_the_sweep_does(net):
    # the table raises exactly when the sweep raises on some k-subset, with
    # the same error, and otherwise lists the sweep's values
    keys = net.original_vertices() or net.vertices
    weights = dict.fromkeys(keys, 1)
    weights[keys[0]], weights[keys[-1]] = 0, -1  # a zero weight must not hide a fault
    for v in keys:
        for bad in ({u: x for u, x in weights.items() if u != v}, dict(weights, **{v: "1"})):
            for k in range(len(net.sources) + 1):
                try:
                    expected = swept_table(net, bad, EXACT_INT, k)
                except (FlowError, CarrierMismatch) as exc:
                    with pytest.raises(type(exc)) as raised:
                        flag_table(net, bad, EXACT_INT, k)
                    assert str(raised.value) == str(exc)
                else:
                    assert flag_table(net, bad, EXACT_INT, k) == expected


def test_a_bad_weight_raises_though_no_flow_pays():
    # v3 lies on source -> sink paths of both sources, so its missing weight
    # raises on every call that reads the weighting, even where no flow pays
    # it: {1, 2} has no disjoint system, since v0's paths pass the source v1
    net = PlanarNetwork(
        vertices=("v0", "v1", "v3", "v4", "v5"),
        edges=(("v0", "v1"), ("v1", "v3"), ("v1", "v5"), ("v3", "v4"), ("v3", "v5")),
        sources=("v0", "v1"),
        sinks=("v4", "v5"),
    )
    weights = {"v0": 1, "v1": 2, "v4": 1, "v5": 1}
    assert not enumerate_flag_flows(net, {1, 2})
    for call in (
        lambda: evaluate_fgf(net, weights, {1, 2}, EXACT_INT),
        lambda: flag_table(net, weights, EXACT_INT, 1),
        lambda: flag_table(net, weights, EXACT_INT, 2),
    ):
        with pytest.raises(FlowError, match="missing vertex 'v3'"):
            call()


RING_ENGINE = (COUNTING_NAT, EXACT_INT, POSITIVE_RATIONAL)


def swept(net, weighting, I, carrier):
    """f(I) by the frontier sweep alone; f of the empty set is the empty
    product."""
    I = tuple(sorted(I))
    if not I:
        return carrier.product(())
    if len(I) > len(net.sinks):
        return undefined_value(carrier)
    paid = flows._charged(net, weighting, carrier)
    total = flows._flow_sum(net, paid, I, range(1, len(I) + 1), carrier)
    return undefined_value(carrier) if total is None else total


@st.composite
def ring_cases(draw):
    """A network, a nat, int or posrat weighting (over posrat: all ints, all
    Fractions, or a mix), and index sets to ask in turn."""
    net = draw(networks())
    carrier = draw(st.sampled_from(RING_ENGINE))
    rng = random.Random(draw(st.integers(0, 2**32)))
    weighting = random_weighting(net.original_vertices() or net.vertices, carrier, rng)
    if carrier is POSITIVE_RATIONAL:
        kind = draw(st.sampled_from(("int", "Fraction", "mixed")))
        for v, x in weighting.items():
            if kind == "int":
                weighting[v] = rng.randint(1, 9)
            elif kind == "mixed" and rng.random() < 0.5:
                weighting[v] = rng.randint(1, 9)
    sets = draw(st.lists(st.sets(st.integers(1, len(net.sources))), min_size=1, max_size=6))
    return net, weighting, sets, carrier


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring_cases())
def test_ring_engine_matches_the_sweep(case):
    # one FlowFunction asks its sets in turn, so its columns grow as |I|
    # does; every answer has the sweep's value and type
    net, weighting, sets, carrier = case
    f = FlowFunction(net, weighting, carrier)
    for I in sets:
        assert same(f(I), swept(net, weighting, I, carrier))


def test_ring_engine_on_every_set_of_small_grids():
    # thin random grids leave many sets without a flow: a zero minor is 0
    # over nat and int, and undefined (None) over posrat
    for seed in range(12):
        net = random_grid_network(4, 1 + seed % 2, random.Random(seed))
        for carrier in RING_ENGINE:
            weighting = random_weighting(net.vertices, carrier, random.Random(seed))
            f = FlowFunction(net, weighting, carrier)
            for size in range(len(net.sources) + 1):
                for I in combinations(range(1, len(net.sources) + 1), size):
                    assert same(f(I), swept(net, weighting, I, carrier))


def test_determinant_matches_the_wedge():
    # sparse integer matrices, so that pivots are often zero and rows swap;
    # the wedge of the rows is called directly, since minor over int is the
    # determinant itself
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(0, 6)
        matrix = [[rng.choice((0, 0, 0, 1, -1, 2, 5)) for _ in range(n)] for _ in range(n)]
        rows = [[(c, x) for c, x in enumerate(row) if x] for row in matrix]
        expected = flows._wedge(rows, EXACT_INT).get((1 << n) - 1, 0)
        assert flows._determinant([row[:] for row in matrix]) == expected


def test_ring_engine_runs_without_the_sweep(monkeypatch, capsys, tmp_path):
    # f(I) over nat, int and posrat on halfgrid:12, and the numeric verify,
    # are the sweep's with the sweep made to raise
    g = build_half_grid(12)
    rng = random.Random(12)
    sets = [rng.sample(range(1, 13), rng.randint(0, 12)) for _ in range(40)]
    weightings = {c: random_weighting(g.vertices, c, random.Random(c.name)) for c in RING_ENGINE}
    expected = {c: [swept(g, weightings[c], I, c) for I in sets] for c in RING_ENGINE}

    def refuse(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(flows, "_flow_sum", refuse)
    for carrier in RING_ENGINE:
        f = FlowFunction(g, weightings[carrier], carrier)
        got = [f(I) for I in sets]
        assert list(map(type, got)) == list(map(type, expected[carrier]))
        assert got == expected[carrier]
    pair = tmp_path / "pair.txt"
    pair.write_text("2 1\n1 2\n--\n1 3\n")
    argv = ["verify", "--mode", "numeric", "--network", "halfgrid:12", "--trials", "4", "--seed", "5"]
    assert cli.main([*argv, "family:quintuple"]) == 0
    assert capsys.readouterr().out == "numeric sweep on halfgrid:12: 12 instances pass\n"
    assert cli.main([*argv, str(pair)]) == 1
    assert capsys.readouterr().out == (
        "numeric sweep on halfgrid:12: 4 of 12 instances FAIL\n"
        "first failure: carrier=posrat trial=0 X=[1, 2, 3, 5, 10] Y=[7, 8, 12] "
        "lhs=56659778034900704620621894031/4464104400000000000000 "
        "rhs=316386712152359698726824063045553/12959473637376000000000000\n"
    )


def test_ring_engine_matches_the_flag_table_and_intervals_on_halfgrid_30():
    # every 4-subset over int against the wedge of four columns, and a few
    # sets over posrat against reconstruction from the interval values
    g = build_half_grid(30)
    rng = random.Random(30)
    weighting = {v: rng.choice((-2, -1, 1, 2, 3)) for v in g.vertices}
    f = FlowFunction(g, weighting, EXACT_INT)
    table = flag_table(g, weighting, EXACT_INT, 4)
    assert all(f(A) == table.get(_mask(A), 0) for A in combinations(range(1, 31), 4))
    weighting = random_weighting(g.vertices, POSITIVE_RATIONAL, rng)
    f = FlowFunction(g, weighting, POSITIVE_RATIONAL)
    vals = intervals_of(weighting, 30, POSITIVE_RATIONAL)
    for size in (2, 3, 5, 8, 13):
        A = rng.sample(range(1, 31), size)
        assert f(A) == reconstruct_from_intervals(vals, A, 30, POSITIVE_RATIONAL)
        assert type(f(A)) is Fraction


# distinct primes, so that the lcm of a weighting's denominators grows with
# every prime it draws, up to about 140 bits
PRIMES = (2, 3, 7, 101, 65537, 999983, 2**31 - 1, 2**61 - 1)


@st.composite
def tropical_cases(draw):
    """A network, a troprat weighting whose weights are all Fractions (signed
    and zero ones, or over large coprime denominators), all ints, or a mix,
    and index sets to ask in turn."""
    net = draw(networks())
    rng = random.Random(draw(st.integers(0, 2**32)))
    weighting = random_weighting(net.original_vertices() or net.vertices, TROPICAL_RATIONAL, rng)
    kind = draw(st.sampled_from(("Fraction", "coprime", "int", "mixed")))
    for v in weighting:
        if kind == "coprime":
            weighting[v] = Fraction(rng.randint(-(10**9), 10**9), rng.choice(PRIMES))
        elif kind == "int" or kind == "mixed" and rng.random() < 0.5:
            weighting[v] = rng.randint(-9, 9)
    sets = draw(st.lists(st.sets(st.integers(1, len(net.sources))), min_size=1, max_size=6))
    return net, weighting, sets


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tropical_cases())
def test_troprat_sweep_in_integers_matches_the_sweep(case):
    # max and + commute with x -> L x for L > 0, so sweeping L w in tropint
    # and dividing by L is the Fraction sweep exactly: one FlowFunction asks
    # its sets in turn, and every answer, f of the empty set and undefined
    # for no flow included, has the sweep's value and type
    net, weighting, sets = case
    f = FlowFunction(net, weighting, TROPICAL_RATIONAL)
    for I in sets:
        assert same(f(I), swept(net, weighting, I, TROPICAL_RATIONAL))


def test_troprat_sweep_runs_without_fraction_arithmetic(monkeypatch):
    # f(I) over troprat on halfgrid:12 with every weight a Fraction is the
    # sweep's with troprat's own max and + made to raise
    g = build_half_grid(12)
    rng = random.Random(12)
    sets = [rng.sample(range(1, 13), rng.randint(0, 12)) for _ in range(40)]
    weighting = random_weighting(g.vertices, TROPICAL_RATIONAL, rng)
    assert {type(x) for x in weighting.values()} == {Fraction}
    expected = [swept(g, weighting, I, TROPICAL_RATIONAL) for I in sets]

    def refuse(*args):
        raise AssertionError("troprat arithmetic ran")

    monkeypatch.setattr(TROPICAL_RATIONAL, "_add", refuse)
    monkeypatch.setattr(TROPICAL_RATIONAL, "_mul", refuse)
    f = FlowFunction(g, weighting, TROPICAL_RATIONAL)
    got = [f(I) for I in sets]
    assert list(map(type, got)) == list(map(type, expected))
    assert got == expected
    assert same(f(()), Fraction(0))


class SweptFunction:
    """A stand-in for FlowFunction that takes every f(I) by the sweep in the
    carrier's own arithmetic."""

    def __init__(self, net, weighting, carrier):
        self.network, self.weighting, self.carrier = net, weighting, carrier

    def __call__(self, I):
        return swept(self.network, self.weighting, I, self.carrier)


def test_troprat_failures_render_the_sweeps_sums(monkeypatch, tmp_path):
    # a failing troprat instance of verify reports the sides as the Fraction
    # sweep gives them: integral ones without a denominator, the others in
    # lowest terms
    pair = tmp_path / "pair.txt"
    pair.write_text("2 1\n1 2\n--\n1 3\n")
    relation = cli._load_relation(str(pair))
    sums = {
        ("halfgrid:3", 1): ("2", "5/2"),
        ("halfgrid:3", 3): ("23/18", "1007/126"),
        ("halfgrid:9", 2): ("41/10", "149/30"),
    }
    reports = {}
    for spec, trial in sums:
        ok, detail = cli._run_verify_task(relation, cli._load_network(spec), "troprat", trial, 5)
        assert not ok
        assert (detail["lhs"], detail["rhs"]) == sums[spec, trial]
        reports[spec, trial] = detail
    monkeypatch.setattr(cli, "FlowFunction", SweptFunction)
    for spec, trial in sums:
        assert cli._run_verify_task(relation, cli._load_network(spec), "troprat", trial, 5) == (
            False,
            reports[spec, trial],
        )
