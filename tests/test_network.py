import cProfile
import pstats
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import all_simple_paths

import sqflows.doubleflow as dfmod
from sqflows.cli import main
from sqflows.counterexample import augment_matching, build_gadget_network
from sqflows.flows import (
    FlowError,
    FlowFunction,
    enumerate_flag_flows,
    flag_table,
    lindstrom_matrix,
    list_flows,
)
from sqflows.matchings import NestedMatching, enumerate_nested_matchings
from sqflows.network import (
    EXTRA,
    ORDINARY,
    SPLIT,
    NetworkError,
    PlanarNetwork,
    build_half_grid,
    parse_network,
    random_grid_network,
    validate,
    vertex_split,
    write_network,
)
from sqflows.relations import family_triple, symbolic_check
from sqflows.semiring import EXACT_INT


def test_half_grid_n1():
    g = build_half_grid(1)
    assert g.vertices == ("1,1",)
    assert g.edges == ()
    assert g.sources == g.sinks == ("1,1",)


def test_half_grid_n3_vertex_set():
    g = build_half_grid(3)
    assert set(g.vertices) == {"1,1", "2,1", "3,1", "2,2", "3,2", "3,3"}


def test_half_grid_n5_counts():
    g = build_half_grid(5)
    assert len(g.vertices) == 15
    assert len(g.edges) == 20
    assert g.sinks == tuple(f"{i},{i}" for i in range(1, 6))
    assert g.sources == tuple(f"{i},1" for i in range(1, 6))


@pytest.mark.parametrize("n", range(1, 13))
def test_half_grid_validates(n):
    assert validate(build_half_grid(n)) == []


def test_validate_cycle_witness():
    net = PlanarNetwork(
        vertices=("u", "v"),
        edges=(("u", "v"), ("v", "u")),
        sources=("u",),
        sinks=("v",),
    )
    problems = validate(net)
    assert any(p.startswith("cycle:") and "u" in p and "v" in p for p in problems)


def test_validate_duplicates_and_dangling():
    net = PlanarNetwork(
        vertices=("a", "b"),
        edges=(("a", "c"),),
        sources=("a", "a"),
        sinks=("b", "b"),
    )
    problems = validate(net)
    assert any("duplicate source" in p for p in problems)
    assert any("duplicate sink" in p for p in problems)
    assert any("dangling edge" in p for p in problems)



def _problems(make):
    """validate() of the network make() builds, or the NetworkError it raises."""
    try:
        net = make()
    except NetworkError as exc:
        return [str(exc)]
    return validate(net)


def _ab(edges=(("a", "b"),), sources=("a",), sinks=("b",), vertices=("a", "b"), origins=()):
    return PlanarNetwork(vertices=vertices, edges=edges, sources=sources, sinks=sinks, origins=origins)


@pytest.mark.parametrize(
    "make, problems",
    [
        (lambda: _ab(vertices=("a", "a", "b")), ["duplicate vertex: a"]),
        (lambda: _ab(sources=("x",)), ["source not a vertex: x"]),
        (lambda: _ab(sinks=("y",)), ["sink not a vertex: y"]),
        (lambda: _ab(edges=(("a", "b"), ("c", "b"))), ["dangling edge (c, b): unknown tail"]),
        (lambda: _ab(edges=(("a", "b"), ("b", "b"))), ["self-loop at b", "cycle: b -> b"]),
        (lambda: _ab(edges=(("a", "b"), ("a", "b"))), ["duplicate edge (a, b)"]),
        (
            lambda: _ab(edges=(("a", "b"), ("c", "d")), vertices="abcd", origins=tuple(zip("abcd", "xxxx"))),
            ["weight x charged at 2 vertices: a, c"],
        ),
        (lambda: _ab(sinks=("a",), origins=(("b", "x"),)), ["source a pays no weight and is a sink"]),
        (
            lambda: _ab(edges=(("a", "b"), ("b", "c")), vertices="abc", sinks=("c",), origins=(("c", "x"),)),
            ["source a pays no weight and neither does its successor b"],
        ),
        (
            # b pays nothing either, but no path to a sink goes through it
            lambda: _ab(edges=(("a", "b"), ("a", "c"), ("c", "d")), vertices="abcd", sinks=("d",),
                        origins=(("c", "x"), ("d", "x"))),
            [],
        ),
        (lambda: parse_network("vertex a 1\nsources a\nsinks a\n"), ["line 1: vertex takes id or id x y"]),
        (lambda: parse_network("vertex a 1 y\nsources a\nsinks a\n"), ["line 1: bad coordinates"]),
        (lambda: build_half_grid(0), ["half-grid needs n >= 1"]),
        (
            lambda: _ab(edges=(("a", "d"), ("b", "c")), vertices="abcd", sources=("a", "b"), sinks=("c", "d")),
            ["crossed pairing: s1 -> t2 and s2 -> t1 have vertex-disjoint paths (a -> d, b -> c)"],
        ),
    ],
    ids=["duplicate-vertex", "source-not-vertex", "sink-not-vertex", "unknown-tail", "self-loop",
         "duplicate-edge", "charged-twice", "unpaid-sink", "unpaid-successor", "unpaid-dead-end",
         "vertex-arity",
         "bad-coordinates", "half-grid-zero", "crossed-pairing"],
)
def test_network_check_messages(make, problems):
    assert _problems(make) == problems

def test_validate_allows_end_coincidence():
    # s_1 = t_1 is legal (single-vertex half-grid) but an interior clash is not
    assert validate(build_half_grid(1)) == []
    net = PlanarNetwork(
        vertices=("a", "b", "c"),
        edges=(("a", "b"), ("b", "c")),
        sources=("a", "b"),
        sinks=("b", "c"),
    )
    assert any("coincides" in p for p in validate(net))


def test_vertex_split_counts_on_gamma3():
    split = vertex_split(build_half_grid(3))
    kinds = {}
    for e in split.edges:
        kinds[split.kind(e)] = kinds.get(split.kind(e), 0) + 1
    assert kinds == {SPLIT: 6, ORDINARY: 6, EXTRA: 6}
    assert len(split.vertices) == 12 + 6
    assert validate(split) == []


def test_vertex_split_gamma1_path():
    split = vertex_split(build_half_grid(1))
    assert split.sources == ("s^1",)
    assert split.sinks == ("t^1",)
    assert set(split.edges) == {("s^1", "1,1'"), ("1,1'", "1,1''"), ("1,1''", "t^1")}


def test_split_structure_invariant():
    # every non-terminal vertex carries exactly one split-edge; a split-edge
    # into (out of) a vertex forces in-degree (out-degree) one; terminals have
    # exactly one incident edge
    split = vertex_split(build_half_grid(4))
    terminals = set(split.sources) | set(split.sinks)
    incident_split = {v: 0 for v in split.vertices}
    for edge in split.edges:
        if split.kind(edge) == SPLIT:
            tail, head = edge
            incident_split[tail] += 1
            incident_split[head] += 1
            assert len(split.out(tail)) == 1
            assert len(split.into(head)) == 1
    for v in split.vertices:
        degree = len(split.out(v)) + len(split.into(v))
        if v in terminals:
            assert degree == 1
        else:
            assert incident_split[v] == 1


def test_split_flow_counts_match():
    g = build_half_grid(3)
    split = vertex_split(g)
    from itertools import combinations

    for size in range(0, 4):
        for I in combinations(range(1, 4), size):
            assert len(enumerate_flag_flows(g, I)) == len(enumerate_flag_flows(split, I))


def test_split_rejects_split_input():
    split = vertex_split(build_half_grid(2))
    with pytest.raises(NetworkError):
        vertex_split(split)


def test_interval_flows_unique():
    for n in range(1, 7):
        g = build_half_grid(n)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                assert len(enumerate_flag_flows(g, range(lo, hi + 1))) == 1


def test_random_grid_network_valid():
    import random

    for seed in range(5):
        net = random_grid_network(5, 2, random.Random(seed))
        assert validate(net) == []
        assert len(net.sources) == len(net.sinks) == 5


def test_text_roundtrip():
    g = build_half_grid(3)
    text = write_network(g)
    back = parse_network(text)
    assert back.vertices == g.vertices
    assert back.edges == g.edges
    assert back.sources == g.sources
    assert back.sinks == g.sinks
    assert back.planarity == "declared"


def test_text_reader_any_order_and_comments():
    text = """
# terminals first
sinks b
sources a
edge a b
vertex a 0 0
vertex b 1 1
"""
    net = parse_network(text)
    assert net.vertices == ("a", "b")
    assert net.edges == (("a", "b"),)
    assert validate(net) == []


def test_text_reader_errors():
    with pytest.raises(NetworkError):
        parse_network("vertex a\nedge a\nsources a\nsinks a\n")
    with pytest.raises(NetworkError):
        parse_network("vertex a\nwobble a\nsources a\nsinks a\n")
    with pytest.raises(NetworkError):
        parse_network("vertex a\n")


# (vertices, edges, sources, sinks) of cyclic networks
CYCLIC = {
    "two-cycle": (("u", "v"), (("u", "v"), ("v", "u")), ("u",), ("v",)),
    "three-cycle entered from a tail": (
        ("s", "a", "b", "c", "t"),
        (("s", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "t")),
        ("s",),
        ("t",),
    ),
    "first vertex downstream of a cycle": (
        ("z", "s", "a", "b"),
        (("s", "a"), ("a", "b"), ("b", "a"), ("b", "z")),
        ("s",),
        ("z",),
    ),
    "two cycles": (
        ("t", "d", "c", "s", "a", "b"),
        (("s", "a"), ("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"), ("d", "t")),
        ("s",),
        ("t",),
    ),
}


@pytest.mark.parametrize("name", CYCLIC)
def test_cycle_witness_is_a_cycle(name, tmp_path, capsys):
    vertices, edges, sources, sinks = CYCLIC[name]
    net = PlanarNetwork(vertices=vertices, edges=edges, sources=sources, sinks=sinks)
    lines = [p for p in validate(net) if p.startswith("cycle: ")]
    assert len(lines) == 1
    cycle = lines[0][len("cycle: ") :].split(" -> ")
    assert len(cycle) >= 3 and cycle[0] == cycle[-1]
    assert len(set(cycle)) == len(cycle) - 1
    assert all(edge in edges for edge in zip(cycle, cycle[1:]))
    assert cycle[0] == min(cycle, key=vertices.index)

    path = tmp_path / "cyclic.txt"
    path.write_text(write_network(net))
    assert main(["flows", "--network", str(path), "-I", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid network: ") and lines[0] in err


def _builder_networks():
    """Every half-grid up to n = 6, a few random grids, and the gadget of
    every augmented nested matching with p + q <= 5, with and without
    ``connect``."""
    nets = [build_half_grid(n) for n in range(1, 7)]
    for n, rows, seed in ((2, 1, 0), (4, 2, 1), (5, 3, 2)):
        nets.append(random_grid_network(n, rows, random.Random(seed)))
    for p in range(1, 5):
        for q in range(1, min(p, 5 - p) + 1):
            for m in enumerate_nested_matchings(p + q, q):
                m_hat = augment_matching(m, p, q).result
                nets += [build_gadget_network(m_hat, connect).network for connect in (False, True)]
    return nets


def _split_kinds(net):
    """The kinds :func:`vertex_split` gives the edges of its output: SPLIT on
    (v', v''), EXTRA on the terminal edges, ORDINARY on the rest."""
    kinds = {(f"s^{i}", s + "'"): EXTRA for i, s in enumerate(net.sources, start=1)}
    kinds.update({(v + "'", v + "''"): SPLIT for v in net.vertices})
    kinds.update({(u + "''", v + "'"): ORDINARY for u, v in net.edges})
    kinds.update({(t + "''", f"t^{j}"): EXTRA for j, t in enumerate(net.sinks, start=1)})
    return kinds


def test_builders_splits_and_subnetworks_keep_the_charge_rule(monkeypatch):
    subnetworks = []

    def listing(net, I, J, label):
        subnetworks.append(net)
        return list_flows(net, I, J, label)

    monkeypatch.setattr(dfmod, "list_flows", listing)
    nets = _builder_networks()
    assert len(nets) == 43
    for net in nets:
        split = vertex_split(net)
        assert net.planarity == split.planarity == "constructed"
        assert validate(net) == validate(split) == []
        assert net.form.breaches == split.form.breaches == ()
        assert {e: net.kind(e) for e in net.edges} == dict.fromkeys(net.edges, ORDINARY)
        assert {e: split.kind(e) for e in split.edges} == _split_kinds(net)
        if len(split.sources) > 4:
            continue
        # one double flow per pair of index sets, built by count_decompositions
        # into the subnetwork of its edges
        for I in map(frozenset, combinations(range(1, len(split.sources) + 1), 2)):
            for J in map(frozenset, combinations(range(1, len(split.sources) + 1), 1)):
                phis, phis_prime = enumerate_flag_flows(split, I), enumerate_flag_flows(split, J)
                if phis and phis_prime:
                    dfmod.count_decompositions(dfmod.superpose(phis[0], phis_prime[-1]))
    assert len(subnetworks) == 306
    for sub in subnetworks:
        assert sub.planarity == "constructed"
        assert sub.form.breaches == ()
        assert sub.crossed_pairing is None


def _unpaid_path_network():
    """A hand-built split network whose flag flow for {1} is the bare edge
    s1 -> t1, which crosses no split-edge and so pays nothing."""
    edges = [("s1", "t1"), ("s2", "x'"), ("x'", "x''"), ("x''", "t2")]
    edges += [("s3", "y'"), ("y'", "y''"), ("y''", "t2")]
    return PlanarNetwork(
        vertices=tuple(dict.fromkeys(v for edge in edges for v in edge)),
        edges=tuple(edges),
        sources=("s1", "s2", "s3"),
        sinks=("t1", "t2"),
        origins=(("x'", "x"), ("x''", "x"), ("y'", "y"), ("y''", "y")),
        planarity="declared",
    )


def test_unpaid_path_is_rejected():
    net = _unpaid_path_network()
    assert validate(net) == ["source s1 pays no weight and neither does its successor t1"]
    f = FlowFunction(net, {"x": 2, "y": 3}, EXACT_INT)
    runs = (lambda: f({1}), lambda: enumerate_flag_flows(net, {1}), lambda: symbolic_check(family_triple(), net))
    for run in runs:
        with pytest.raises(FlowError, match="^invalid network: source s1 pays no weight"):
            run()


def _brute_crossing(net):
    """Whether some source indices i < i2 and sink indices j < j2 have
    vertex-disjoint paths s_i -> t_j2 and s_i2 -> t_j, by listing paths."""
    pairs = combinations(range(len(net.sources)), 2)
    for (i, i2), (j, j2) in product(pairs, list(combinations(range(len(net.sinks)), 2))):
        for first in all_simple_paths(net, net.sources[i], net.sinks[j2]):
            for second in all_simple_paths(net, net.sources[i2], net.sinks[j]):
                if not set(first) & set(second):
                    return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7), st.data())
def test_crossed_pairing_matches_brute_force(size, data):
    # random DAGs, not planar, with terminals anywhere, repeated or shared
    names = [f"v{k}" for k in range(size)]
    edges = data.draw(st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                              .filter(lambda e: e[0] < e[1])))
    terminals = st.lists(st.sampled_from(names), min_size=1, max_size=4)
    net = PlanarNetwork(
        vertices=tuple(names),
        edges=tuple((names[a], names[b]) for a, b in sorted(edges)),
        sources=tuple(data.draw(terminals)),
        sinks=tuple(data.draw(terminals)),
    )
    assert (net.crossed_pairing is not None) == _brute_crossing(net)
    split = vertex_split(net)
    assert (split.crossed_pairing is not None) == _brute_crossing(split)


_WITNESS = re.compile(
    r"crossed pairing: s(\d+) -> t(\d+) and s(\d+) -> t(\d+) have vertex-disjoint paths \((\S+) -> (\S+), (\S+) -> (\S+)\)"
)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9), st.data())
def test_crossed_pairing_names_a_crossing(size, data):
    # the check's witness is a real one: its indices i < i2 and j < j2 have
    # vertex-disjoint paths s_i -> t_j2 and s_i2 -> t_j, and the names given
    # are those terminals'
    names = [f"v{k}" for k in range(size)]
    edges = data.draw(st.sets(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                              .filter(lambda e: e[0] < e[1])))
    terminals = st.lists(st.sampled_from(names), min_size=2, max_size=6)
    net = PlanarNetwork(
        vertices=tuple(names),
        edges=tuple((names[a], names[b]) for a, b in sorted(edges)),
        sources=tuple(data.draw(terminals)),
        sinks=tuple(data.draw(terminals)),
    )
    for each in (net, vertex_split(net)):
        text = each.crossed_pairing
        if text is None:
            continue
        found = _WITNESS.fullmatch(text)
        i, j2, i2, j = map(int, found.group(1, 2, 3, 4))
        assert i < i2 and j < j2
        s, s2, t, t2 = each.sources[i - 1], each.sources[i2 - 1], each.sinks[j - 1], each.sinks[j2 - 1]
        assert found.group(5, 6, 7, 8) == (s, t2, s2, t)
        firsts, seconds = all_simple_paths(each, s, t2), all_simple_paths(each, s2, t)
        assert any(not set(first) & set(second) for first in firsts for second in seconds)


def test_ladder_check_seeds_no_source_pair():
    # on a ladder of disjoint rungs s_i -> t_i no pair of sources can cross,
    # so the check seeds none and never asks whether two heads are crossable
    # (the unseeded loop asked 79 800 times for these 400 rungs)
    rungs = tuple((f"s{i}", f"t{i}") for i in range(400))
    ladder = PlanarNetwork(
        vertices=tuple(v for rung in rungs for v in rung),
        edges=rungs,
        sources=tuple(s for s, _ in rungs),
        sinks=tuple(t for _, t in rungs),
    )
    ladder.form
    profile = cProfile.Profile()
    profile.runcall(lambda: ladder.crossed_pairing)
    calls = {code[2]: stats[1] for code, stats in pstats.Stats(profile).stats.items()}
    assert ladder.crossed_pairing is None
    assert calls.get("crossable", 0) == 0


def _reach_by_search(net):
    """Per vertex, the sink indices j with a path from some source through
    the vertex to t_j, by a depth-first search from every vertex."""

    def below(v):
        seen, stack = {v}, [v]
        while stack:
            for u in net.out(stack.pop()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    reached = set().union(*map(below, net.sources))
    return {v: {j for j, t in enumerate(net.sinks, 1) if v in reached and t in below(v)} for v in net.vertices}


def _assert_reach_table(net):
    form, found = net.form, _reach_by_search(net)
    for v, js in found.items():
        assert form.reach[form.index[v]] == sum(1 << j - 1 for j in js)
    assert len(form.to_sink) == len(net.sinks)
    for j, column in enumerate(form.to_sink, 1):
        assert column == sum(1 << form.index[v] for v, js in found.items() if j in js)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.data())
def test_reach_table_matches_search(size, data):
    # random DAGs, with terminals repeated, shared, or no vertex at all
    names = [f"v{k}" for k in range(size)]
    edges = data.draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
                               .filter(lambda e: e[0] < e[1]), unique=True))
    terminals = st.lists(st.sampled_from(names + ["ghost"]), min_size=1, max_size=4)
    net = PlanarNetwork(
        vertices=tuple(names),
        edges=tuple((names[a], names[b]) for a, b in edges),
        sources=tuple(data.draw(terminals)),
        sinks=tuple(data.draw(terminals)),
    )
    _assert_reach_table(net)
    if "ghost" not in net.sources + net.sinks:
        _assert_reach_table(vertex_split(net))


def test_reach_table_and_crossings_of_builder_networks():
    # half-grids, random grids and gadgets, and their splits: the table is
    # the searched one, and the pruned check finds no crossing, as a listing
    # of every path pair finds none
    for net in _builder_networks():
        for each in (net, vertex_split(net)):
            _assert_reach_table(each)
            assert each.crossed_pairing is None and not _brute_crossing(each)


def test_crossed_pairing_is_computed_on_demand():
    # the engines admit a builder's network unchecked: no flow call computes
    # its problems or the verdict, which validate then computes
    gadget = build_gadget_network(NestedMatching(((1, 4), (2, 3)), 4)).network
    grid = random_grid_network(5, 3, random.Random(2))
    for net in (build_half_grid(6), gadget, grid, vertex_split(build_half_grid(4))):
        ones = dict.fromkeys(net.original_vertices() or net.vertices, 1)
        FlowFunction(net, ones, EXACT_INT)({1, 3})
        assert list_flows(net, {1, 2}, None, tuple).count() > 0
        assert flag_table(net, ones, EXACT_INT, 2)
        if len(net.sources) == len(net.sinks):
            lindstrom_matrix(net, ones, EXACT_INT)
        assert net.form is not None and not {"problems", "crossed_pairing"} & set(vars(net))
        assert validate(net) == [] and vars(net)["crossed_pairing"] is None
