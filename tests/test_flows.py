import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import det_cofactor, det_leibniz, naive_disjoint_systems, naive_flag_flows
from sqflows import flows
from sqflows.flows import (
    FlowError,
    FlowFunction,
    enumerate_flag_flows,
    enumerate_flows,
    evaluate_fgf,
    lindstrom_matrix,
    list_flows,
    minor,
)
from sqflows.laurent import intervals_of, reconstruct_from_intervals
from sqflows.network import PlanarNetwork, build_half_grid, random_grid_network, vertex_split
from sqflows.semiring import (
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POLY_NAT,
    POSITIVE_RATIONAL,
    STAR,
    CarrierMismatch,
    SemiringError,
    Poly,
    Starred,
)

G3 = build_half_grid(3)

# the half-grid vertex letters used in the worked examples
LETTERS = {"1,1": "a", "2,1": "b", "3,1": "c", "2,2": "d", "3,2": "e", "3,3": "f"}


def poly_weights(net):
    return {v: Poly.variable(LETTERS.get(v, v)) for v in net.vertices}


def test_flag_flow_examples():
    assert len(enumerate_flag_flows(G3, {1})) == 1
    only = enumerate_flag_flows(G3, {2, 3})
    assert len(only) == 1
    assert only[0].paths == (("2,1", "1,1"), ("3,1", "3,2", "2,2"))
    two = enumerate_flag_flows(G3, {1, 3})
    assert len(two) == 2
    assert {f.paths[1] for f in two} == {("3,1", "3,2", "2,2"), ("3,1", "2,1", "2,2")}


def test_flow_examples_ij():
    assert len(enumerate_flows(G3, {3}, {1})) == 1
    assert enumerate_flows(G3, {3}, {1})[0].paths == (("3,1", "2,1", "1,1"),)
    assert enumerate_flows(G3, {1}, {2}) == ()
    assert len(enumerate_flows(G3, (), ())) == 1
    assert enumerate_flows(G3, (), ())[0].paths == ()


def test_flow_size_mismatch():
    with pytest.raises(FlowError):
        enumerate_flows(G3, {1, 2}, {1})
    with pytest.raises(FlowError):
        enumerate_flag_flows(G3, {0})
    with pytest.raises(FlowError):
        enumerate_flag_flows(G3, {4})


def test_flows_are_disjoint_and_ordered():
    for n in range(1, 6):
        g = build_half_grid(n)
        for size in range(0, n + 1):
            for I in combinations(range(1, n + 1), size):
                for flow in enumerate_flag_flows(g, I):
                    seen = set()
                    for path in flow.paths:
                        assert not (seen & set(path))
                        seen.update(path)
                    for k, path in enumerate(flow.paths):
                        assert path[0] == g.sources[sorted(I)[k] - 1]
                        assert path[-1] == g.sinks[k]


def test_counting_consistency_half_grids():
    for n in range(1, 6):
        g = build_half_grid(n)
        ones = {v: 1 for v in g.vertices}
        for size in range(0, n + 1):
            for I in combinations(range(1, n + 1), size):
                count = len(enumerate_flag_flows(g, I))
                value = evaluate_fgf(g, ones, I, COUNTING_NAT)
                assert value == count


def test_counting_consistency_random_dags():
    for seed in range(20):
        net = random_grid_network(4, 2, random.Random(seed))
        ones = {v: 1 for v in net.vertices}
        for size in range(0, 5):
            for I in combinations(range(1, 5), size):
                assert evaluate_fgf(net, ones, I, COUNTING_NAT) == len(enumerate_flag_flows(net, I))


def test_against_naive_enumeration_all_pairings():
    # the naive oracle tries every sink pairing: planarity must leave exactly
    # the order-preserving systems the production enumerator returns
    for n in (2, 3, 4):
        g = build_half_grid(n)
        for size in range(1, n + 1):
            for I in combinations(range(1, n + 1), size):
                naive = naive_flag_flows(g, I)
                assert all(perm == tuple(range(size)) for perm, _ in naive)
                ours = {f.paths for f in enumerate_flag_flows(g, I)}
                assert ours == {tuple(system) for _, system in naive}


def test_evaluate_examples():
    ones = {v: 1 for v in G3.vertices}
    assert evaluate_fgf(G3, ones, {1, 3}, COUNTING_NAT) == 2

    w = poly_weights(G3)
    value = evaluate_fgf(G3, w, {1, 2}, POLY_NAT)
    expected = Poly.variable("a") * Poly.variable("b") * Poly.variable("d")
    assert value == expected


def test_evaluate_empty_phi():
    # edges in this grid run west and north only, so some flag sets admit no
    # disjoint system; find one by scanning
    net = random_grid_network(3, 1, random.Random(0))
    w1 = {v: 1 for v in net.vertices}
    empty = None
    for size in range(1, 4):
        for I in combinations(range(1, 4), size):
            if not enumerate_flag_flows(net, I):
                empty = I
                break
        if empty:
            break
    if empty is None:
        pytest.skip("this grid admits every flag flow")
    assert evaluate_fgf(net, w1, empty, COUNTING_NAT) == 0
    assert evaluate_fgf(net, w1, empty, Starred(POSITIVE_RATIONAL)) is STAR
    assert evaluate_fgf(net, {v: Fraction(1) for v in net.vertices}, empty, POSITIVE_RATIONAL) is None


def test_evaluate_empty_index_set_is_one():
    ones = {v: 2 for v in G3.vertices}
    assert evaluate_fgf(G3, ones, (), COUNTING_NAT) == 1
    assert evaluate_fgf(G3, ones, (), EXACT_INT) == 1


def test_flow_function_memoizes():
    ones = {v: 1 for v in G3.vertices}
    f = FlowFunction(G3, ones, COUNTING_NAT)
    assert f({1, 3}) == 2
    assert f((3, 1)) == 2
    assert len(f._memo) == 1


def test_lindstrom_matrix_gamma2_symbolic():
    from sqflows.semiring import POLY_INT

    g2 = build_half_grid(2)
    w = {v: Poly.variable(LETTERS[v]) for v in g2.vertices}
    m = lindstrom_matrix(g2, w, POLY_INT)
    a, b, d = (Poly.variable(x) for x in "abd")
    assert m[0][0] == a
    assert m[0][1] == a * b
    assert m[1][0] == Poly()
    assert m[1][1] == b * d
    assert minor(m, {1, 2}, {1, 2}, POLY_INT) == a * b * d


def test_lindstrom_matrix_gamma1_and_counts():
    g1 = build_half_grid(1)
    m = lindstrom_matrix(g1, {"1,1": 5}, EXACT_INT)
    assert m == ((5,),)
    g3 = build_half_grid(3)
    ones = {v: 1 for v in g3.vertices}
    m = lindstrom_matrix(g3, ones, EXACT_INT)
    for i in range(1, 4):
        for j in range(1, 4):
            assert m[j - 1][i - 1] == len(enumerate_flows(g3, {i}, {j}))


def test_lindstrom_requires_ring():
    ones = {v: 1 for v in G3.vertices}
    with pytest.raises(SemiringError):
        lindstrom_matrix(G3, ones, COUNTING_NAT)
    with pytest.raises(SemiringError):
        minor(((1,),), {1}, {1}, POSITIVE_RATIONAL)


def test_minor_trivia():
    ident = ((1, 0), (0, 1))
    assert minor(ident, {1, 2}, {1, 2}, EXACT_INT) == 1
    assert minor(ident, {1}, {2}, EXACT_INT) == 0
    assert minor(ident, (), (), EXACT_INT) == 1
    with pytest.raises(FlowError):
        minor(ident, {1}, {1, 2}, EXACT_INT)
    # I indexes the columns and J the rows, each checked against its count
    wide = ((1, 2, 3),)
    assert minor(wide, {3}, {1}, EXACT_INT) == 3
    for I, J, message in (
        ({0}, {1}, "column index 0 outside 1..3"),
        ({4}, {1}, "column index 4 outside 1..3"),
        ({1}, {2}, "row index 2 outside 1..1"),
        ((1, 1), (1, 1), "repeated column index"),
    ):
        with pytest.raises(FlowError, match=message):
            minor(wide, I, J, EXACT_INT)
    with pytest.raises(FlowError, match="column index 1 outside 1..0"):
        minor((), {1}, {1}, EXACT_INT)
    with pytest.raises(FlowError, match="column index 2 outside 1..1"):
        minor(((1, 2), (3,)), {2}, {1}, EXACT_INT)
    with pytest.raises(CarrierMismatch):
        minor(((1, "2"), (3, 4)), {1, 2}, {1, 2}, EXACT_INT)


def test_minor_against_cofactor_oracle():
    rng = random.Random("minor")
    for _ in range(50):
        k = rng.randint(1, 4)
        mat = tuple(tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(k))
        ours = minor(mat, range(1, k + 1), range(1, k + 1), EXACT_INT)
        assert ours == det_cofactor([list(r) for r in mat])


def _poly_entries():
    x, y = Poly.variable("x"), Poly.variable("y")
    monomials = (Poly.const(1), x, y, x * y, x * x)
    return st.lists(st.tuples(st.integers(-3, 3), st.sampled_from(monomials)), max_size=3).map(
        lambda terms: sum((Poly.const(c) * m for c, m in terms), Poly())
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_minor_matches_leibniz(data):
    # random submatrices, non-contiguous index sets and k = 0 included, over
    # a ring of numbers and one of polynomials
    carrier = data.draw(st.sampled_from((EXACT_INT, POLY_INT)))
    entries = st.integers(-4, 4) if carrier is EXACT_INT else _poly_entries()
    k = data.draw(st.integers(0, 6))
    n_rows, n_cols = data.draw(st.integers(max(k, 1), 8)), data.draw(st.integers(max(k, 1), 8))
    matrix = tuple(tuple(data.draw(entries) for _ in range(n_cols)) for _ in range(n_rows))
    I = data.draw(st.sets(st.integers(1, n_cols), min_size=k, max_size=k))
    J = data.draw(st.sets(st.integers(1, n_rows), min_size=k, max_size=k))
    sub = [[matrix[j - 1][i - 1] for i in sorted(I)] for j in sorted(J)]
    ours = minor(matrix, I, J, carrier)
    assert ours == det_leibniz(sub, carrier)
    assert type(ours) is type(carrier.one)


def test_minor_takes_the_wedge_only_over_polynomials(monkeypatch):
    # over int the minor is the elimination's; over polyint, the wedge's
    calls = []
    wedge = flows._wedge

    def refuse(vectors, carrier):
        if carrier is EXACT_INT:
            raise AssertionError("the wedge ran over int")
        calls.append(carrier)
        return wedge(vectors, carrier)

    monkeypatch.setattr(flows, "_wedge", refuse)
    assert minor(((2, 1), (1, 1)), {1, 2}, {1, 2}, EXACT_INT) == 1
    assert minor(((2, 1), (4, 2)), {1, 2}, {1, 2}, EXACT_INT) == 0
    assert minor(((1, 2, 3),), (), (), EXACT_INT) == 1
    x = Poly.variable("x")
    assert minor(((x, Poly.const(1)), (Poly.const(1), x)), {1, 2}, {1, 2}, POLY_INT) == x * x + Poly.const(-1)
    assert calls == [POLY_INT]


def test_minor_of_halfgrid_30_path_matrix():
    # unit weights: the matrix of binomial path counts is unitriangular, and
    # its 30 x 30 leading minor (2^30 wedge coordinates) is 1
    g = build_half_grid(30)
    matrix = lindstrom_matrix(g, dict.fromkeys(g.vertices, 1), EXACT_INT)
    assert minor(matrix, range(1, 31), range(1, 31), EXACT_INT) == 1
    # positive weights: a minor on A's columns and the first |A| sink rows is
    # f(A), which the interval reconstruction gives by division over posrat
    rng = random.Random(30)
    weighting = {v: rng.randint(1, 5) for v in g.vertices}
    matrix = lindstrom_matrix(g, weighting, EXACT_INT)
    vals = intervals_of(weighting, 30, POSITIVE_RATIONAL)
    for size in (5, 12, 20):
        A = sorted(rng.sample(range(1, 31), size))
        expected = reconstruct_from_intervals(vals, A, 30, POSITIVE_RATIONAL)
        assert minor(matrix, A, range(1, size + 1), EXACT_INT) == expected


def test_lindstrom_equivalence():
    # minor of the path matrix = (I, J)-flow sum, for all equal-size I, J
    rng = random.Random("lind")
    for n in (2, 3, 4):
        g = build_half_grid(n)
        for _ in range(3):
            w = {v: rng.randint(-3, 3) for v in g.vertices}
            mat = lindstrom_matrix(g, w, EXACT_INT)
            for size in range(0, n + 1):
                for I in combinations(range(1, n + 1), size):
                    for J in combinations(range(1, n + 1), size):
                        direct = 0
                        for flow in enumerate_flows(g, I, J):
                            term = 1
                            for path in flow.paths:
                                for v in path:
                                    term *= w[v]
                            direct += term
                        assert minor(mat, I, J, EXACT_INT) == direct


def test_split_invariance():
    rng = random.Random("splitw")
    for n in (2, 3, 4):
        g = build_half_grid(n)
        split = vertex_split(g)
        w = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in g.vertices}
        for size in range(0, n + 1):
            for I in combinations(range(1, n + 1), size):
                a = evaluate_fgf(g, w, I, POSITIVE_RATIONAL)
                b = evaluate_fgf(split, w, I, POSITIVE_RATIONAL)
                assert a == b


def test_weighting_must_be_total():
    with pytest.raises(FlowError):
        evaluate_fgf(G3, {"1,1": 1}, {1, 2}, COUNTING_NAT)


def test_naive_systems_agree_on_random_grids():
    for seed in range(6):
        net = random_grid_network(4, 2, random.Random(100 + seed))
        for size in (1, 2, 3):
            for I in combinations(range(1, 5), size):
                srcs = [net.sources[i - 1] for i in I]
                dsts = list(net.sinks[:size])
                naive = {tuple(s) for s in naive_disjoint_systems(net, srcs, dsts)}
                ours = {f.paths for f in enumerate_flag_flows(net, I)}
                assert ours == naive


def test_ij_flows_complete_over_all_pairings_on_grids():
    # on a planar network disjoint systems are forced order-preserving, so
    # enumerating the identity pairing alone must miss nothing
    from itertools import permutations as perms

    for seed in range(4):
        net = random_grid_network(4, 2, random.Random(300 + seed))
        for size in (1, 2, 3):
            for I in combinations(range(1, 5), size):
                for J in combinations(range(1, 5), size):
                    srcs = [net.sources[i - 1] for i in I]
                    dsts = [net.sinks[j - 1] for j in J]
                    every = set()
                    for perm in perms(range(size)):
                        shuffled = [dsts[perm[k]] for k in range(size)]
                        for system in naive_disjoint_systems(net, srcs, shuffled):
                            every.add(tuple(sorted(system)))
                    ours = {tuple(sorted(f.paths)) for f in enumerate_flows(net, I, J)}
                    assert ours == every


def test_long_path_is_listed():
    # one path longer than the recursion limit
    names = tuple(f"v{i}" for i in range(1500))
    chain = PlanarNetwork(names, tuple(zip(names, names[1:])), names[:1], names[-1:])
    assert [flow.paths for flow in enumerate_flag_flows(chain, {1})] == [(names,)]


def test_list_flows_labels_each_path_choice_once():
    # labels agree with the listed Flow objects, the count agrees with the
    # walk, and each path of a listing reaches the label once, however many
    # flows share it
    rng = random.Random(16)
    for net in [build_half_grid(8)] + [random_grid_network(5, 4, rng) for _ in range(6)]:
        n = len(net.sources)
        for I in [(1, 3, 5, 7)[: (n + 1) // 2], tuple(range(1, n + 1, 3))]:
            flows = enumerate_flag_flows(net, I)
            calls = []
            listing = list_flows(net, I, None, lambda names: calls.append(names) or " ".join(names))
            assert list(listing) == [tuple(" ".join(path) for path in flow.paths) for flow in flows]
            assert listing.count() == len(flows)
            assert sorted(calls) == sorted({path for flow in flows for path in flow.paths})
            J = tuple(range(2, len(I) + 2)) if len(I) < len(net.sinks) else tuple(range(1, len(I) + 1))
            listing = list_flows(net, I, J, tuple)
            assert list(listing) == [flow.paths for flow in enumerate_flows(net, I, J)]
            assert listing.count() == len(list(listing))
    g = build_half_grid(8)
    calls = []
    flows = list(list_flows(g, (1, 3, 5, 7), None, calls.append))
    # 64 flows of four paths each, from fewer paths than flows
    assert len(flows) == 64 and len(calls) == len(set(calls)) < len(flows)
    for I, J, count in [((), None, 1), ((1,), (1,), 1), ((1, 2), (2, 3), 0)]:
        listing = list_flows(g, I, J, tuple)
        assert listing.count() == len(list(listing)) == count


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 999), st.booleans(), st.data())
def test_listing_is_the_sorted_brute_force_systems(width, rows, seed, split, data):
    # on random grids and their splits, for any (I, J), empty and flowless
    # ones included: the listing is the oracle's systems in sorted order, its
    # count is their number, and the label runs once on each path of a listed
    # flow and on no other path
    net = random_grid_network(width, rows, random.Random(seed))
    if split:
        net = vertex_split(net)
    I = data.draw(st.lists(st.integers(1, width), unique=True, max_size=width))
    J = data.draw(st.lists(st.integers(1, width), unique=True, min_size=len(I), max_size=len(I)))
    srcs = [net.sources[i - 1] for i in sorted(I)]
    dsts = [net.sinks[j - 1] for j in sorted(J)]
    systems = sorted(naive_disjoint_systems(net, srcs, dsts))
    calls = []
    listing = list_flows(net, I, J, lambda names: calls.append(names) or names)
    assert list(listing) == systems
    assert listing.count() == len(systems)
    assert sorted(calls) == sorted({path for system in systems for path in system})


def test_chain_of_24000_vertices_lists_its_flow():
    # a step of the path search copies nothing of the path so far: the
    # path's mask and names are built once, at its sink
    names = tuple(f"v{i}" for i in range(24000))
    chain = PlanarNetwork(names, tuple(zip(names, names[1:])), names[:1], names[-1:])
    assert [flow.paths for flow in enumerate_flag_flows(chain, {1})] == [(names,)]
    assert list(list_flows(chain, {1}, {1}, len)) == [(24000,)]


def test_chain_form_holds_no_quadratic_table():
    # the reachability table holds V * k bits: beside the index and the
    # successor tuples, which it needs to run at all, the form of a
    # 24000-vertex chain retains under 2 MB (an ancestor mask per vertex held
    # about 40 MB)
    names = tuple(f"v{i}" for i in range(24000))
    chain = PlanarNetwork(names, tuple(zip(names, names[1:])), names[:1], names[-1:])
    chain.order
    tracemalloc.start()
    try:
        form = chain.form
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    needed = sys.getsizeof(form.index) + sys.getsizeof(form.succ)
    needed += sum(map(sys.getsizeof, form.succ)) + sum(map(sys.getsizeof, form.index.values()))
    assert held - needed < 2_000_000


def test_many_paths_are_listed():
    # more paths than the recursion limit: a ladder of disjoint edges s_i -> t_i
    n = 1200
    rungs = tuple((f"s{i}", f"t{i}") for i in range(n))
    ladder = PlanarNetwork(
        vertices=tuple(v for rung in rungs for v in rung),
        edges=rungs,
        sources=tuple(s for s, _ in rungs),
        sinks=tuple(t for _, t in rungs),
    )
    assert [flow.paths for flow in enumerate_flag_flows(ladder, range(1, n + 1))] == [rungs]
