import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sqflows.counterexample import augment_matching, build_gadget_network
from sqflows.flows import FlowError, FlowFunction, enumerate_flag_flows
from sqflows.matchings import NestedMatching, collection, enumerate_nested_matchings
from sqflows.network import PlanarNetwork, build_half_grid, random_grid_network, validate, vertex_split
from sqflows.relations import (
    Instantiation,
    QuadraticRelation,
    RelationError,
    base_matching,
    default_instantiation,
    dominance_leq,
    evaluate_sides,
    family_groebner,
    family_interval_exchange,
    family_quadruple,
    family_quintuple,
    family_tail_fixed,
    family_triple,
    grassmann_summands,
    instantiate,
    random_weighting,
    sides_equal,
    symbolic_check,
    verify_stable,
)
from sqflows.semiring import (
    CARRIERS,
    COUNTING_NAT,
    POLY_NAT,
    STAR,
    TROPICAL_INT,
    PackedPoly,
    Poly,
    Starred,
)

LETTERS = {"1,1": "a", "2,1": "b", "3,1": "c", "2,2": "d", "3,2": "e", "3,3": "f"}


def test_relation_preconditions():
    with pytest.raises(RelationError):
        QuadraticRelation(1, 2, collection(1, 2, [(1,)]), collection(1, 2, [(2,)]))
    with pytest.raises(RelationError):
        QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 2, [(1, 2)]))


def test_family_shapes():
    sp3 = family_triple()
    assert sp3.lhs.members == ((1, 3),)
    assert sp3.rhs.members == ((1, 2), (2, 3))
    sp4 = family_quadruple()
    assert sp4.lhs.members == ((1, 3),)
    assert sp4.rhs.members == ((1, 2), (1, 4))
    sp5 = family_quintuple()
    assert sp5.lhs.members == ((1, 3, 5),)
    assert sp5.rhs.members == ((1, 2, 5), (1, 4, 5), (2, 3, 4))


def test_instantiate_sp3():
    sp3 = family_triple()
    inst = Instantiation(n=3, x_set=frozenset(), y_list=(1, 2, 3))
    lhs, rhs = instantiate(sp3, inst)
    assert lhs == ((frozenset({1, 3}), frozenset({2})),)
    assert rhs == (
        (frozenset({1, 2}), frozenset({3})),
        (frozenset({2, 3}), frozenset({1})),
    )
    inst = Instantiation(n=4, x_set=frozenset({4}), y_list=(1, 2, 3))
    lhs, _ = instantiate(sp3, inst)
    assert lhs == ((frozenset({1, 3, 4}), frozenset({2, 4})),)


def test_instantiate_sp4_gamma():
    sp4 = family_quadruple()
    inst = Instantiation(n=7, x_set=frozenset(), y_list=(2, 3, 5, 7))
    lhs, _ = instantiate(sp4, inst)
    assert lhs == ((frozenset({2, 5}), frozenset({3, 7})),)


def test_instantiate_validation():
    sp3 = family_triple()
    with pytest.raises(RelationError):
        instantiate(sp3, Instantiation(n=4, x_set=frozenset(), y_list=(1, 2, 3, 4)))
    with pytest.raises(RelationError):
        Instantiation(n=4, x_set=frozenset({1}), y_list=(1, 2, 3))
    with pytest.raises(RelationError):
        Instantiation(n=2, x_set=frozenset(), y_list=(1, 2, 3))


def test_instantiation_rejects_repeated_y():
    with pytest.raises(RelationError, match="must not repeat elements"):
        Instantiation(n=4, x_set=frozenset(), y_list=(1, 1, 2))


@st.composite
def instances(draw, size=None):
    """(n, X, Y, A) with X and Y disjoint inside [n] and A inside [|Y|]; Y is
    drawn unsorted and has ``size`` elements when given."""
    n = draw(st.integers(0 if size is None else size, 8))
    y_list = draw(st.lists(st.integers(1, max(n, 1)), unique=True, min_size=size or 0, max_size=size or n))
    x_set = draw(st.sets(st.integers(1, max(n, 1)), max_size=n)) - set(y_list)
    a_set = draw(st.sets(st.integers(1, max(len(y_list), 1)), max_size=len(y_list)))
    return n, frozenset(x_set), tuple(y_list), frozenset(a_set)


@given(instances())
def test_index_sets_match_definition(case):
    n, x_set, y_list, a_set = case
    I, J = Instantiation(n=n, x_set=x_set, y_list=y_list).index_sets(a_set)
    y = sorted(y_list)  # y_a is the a-th smallest element of Y
    assert x_set <= I & J
    assert I | J == x_set | set(y_list)
    assert I - x_set == {y[a - 1] for a in a_set}
    assert J - x_set == {y[b - 1] for b in range(1, len(y) + 1) if b not in a_set}


@given(st.data())
def test_instantiate_maps_members_through_index_sets(data):
    relation = data.draw(st.sampled_from((family_triple(), family_quadruple(), family_quintuple())))
    n, x_set, y_list, _ = data.draw(instances(size=relation.p + relation.q))
    inst = Instantiation(n=n, x_set=x_set, y_list=y_list)
    lhs, rhs = instantiate(relation, inst)
    assert lhs == tuple(inst.index_sets(member) for member in relation.lhs.members)
    assert rhs == tuple(inst.index_sets(member) for member in relation.rhs.members)


def test_index_sets_rejects_a_outside_positions():
    inst = Instantiation(n=4, x_set=frozenset({4}), y_list=(1, 2, 3))
    for a_set in ({4}, {0}, {1, 9}):
        with pytest.raises(RelationError):
            inst.index_sets(a_set)


def test_evaluate_sides_sp3_polynomial():
    g3 = build_half_grid(3)
    w = {v: Poly.variable(LETTERS[v]) for v in g3.vertices}
    f = FlowFunction(g3, w, POLY_NAT)
    lhs, rhs = evaluate_sides(f, family_triple(), default_instantiation(family_triple()))
    a, b, c, d, e = (Poly.variable(x) for x in "abcde")
    expected = a * a * b * c * d * e + a * a * b * b * c * d
    assert lhs == expected and rhs == expected


def test_evaluate_sides_sp4_tropical():
    g4 = build_half_grid(4)
    rng = random.Random("sp4")
    for _ in range(10):
        w = random_weighting(g4.vertices, TROPICAL_INT, rng)
        f = FlowFunction(g4, w, TROPICAL_INT)
        assert sides_equal(evaluate_sides(f, family_quadruple(), default_instantiation(family_quadruple())))


def test_evaluate_sides_on_gadget():
    # the unbalanced pair {12} vs {13} evaluates to (0, 1) on its witness gadget
    bad = QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    aug = augment_matching(NestedMatching(((1, 2),), 3), 2, 1)
    g = build_gadget_network(aug.result)
    from sqflows.semiring import EXACT_INT

    ones = {v: 1 for v in g.network.vertices}
    f = FlowFunction(g.network, ones, EXACT_INT)
    lhs, rhs = evaluate_sides(f, bad, Instantiation(n=4, x_set=frozenset(), y_list=(1, 2, 3)))
    assert (lhs, rhs) == (0, 1)


def test_verify_stable_examples():
    assert verify_stable(family_triple())
    assert verify_stable(family_quadruple())
    assert verify_stable(family_quintuple())
    assert not verify_stable(
        QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    )


def test_symbolic_check_examples():
    assert symbolic_check(family_triple(), build_half_grid(3))
    assert symbolic_check(family_triple(), vertex_split(build_half_grid(3)))
    bad = QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    g = build_gadget_network(augment_matching(NestedMatching(((1, 2),), 3), 2, 1).result)
    assert not symbolic_check(bad, g.network)


@st.composite
def symbolic_cases(draw):
    """A random relation (p + q <= 6, one to three members a side) on a
    half-grid with n <= 8 or on the split gadget of a random nested matching,
    with X and Y drawn from the sources."""
    q = draw(st.integers(1, 3))
    p = draw(st.integers(q, 6 - q))
    pool = list(combinations(range(1, p + q + 1), p))
    side = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    rel = QuadraticRelation(p, q, collection(p, q, draw(side)), collection(p, q, draw(side)))
    if draw(st.booleans()):
        net = build_half_grid(draw(st.integers(p + q, 8)))
    else:
        m = draw(st.sampled_from(enumerate_nested_matchings(p + q, q)))
        net = vertex_split(build_gadget_network(augment_matching(m, p, q).result).network)
    n = len(net.sources)
    y = draw(st.lists(st.integers(1, n), min_size=p + q, max_size=p + q, unique=True))
    rest = [i for i in range(1, n + 1) if i not in y]
    x = draw(st.permutations(rest))[: draw(st.integers(0, len(rest)))]
    return rel, net, Instantiation(n=n, x_set=frozenset(x), y_list=tuple(y))


# The gadget of a matching on [4] has four sources and two sinks: with X =
# {4}, every I(A) has three elements, so every summand of both sides is
# undefined.
ALL_UNDEFINED = (
    family_triple(),
    vertex_split(build_gadget_network(augment_matching(NestedMatching(((2, 3),), 3), 2, 1).result).network),
    Instantiation(n=4, x_set=frozenset({4}), y_list=(1, 2, 3)),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(symbolic_cases())
@example(ALL_UNDEFINED)
def test_packed_sides_equal_poly_sides(case):
    # the full sides on the bare packed carrier, unpacked through the vertex
    # order and with the zero polynomial read as STAR, are the
    # Starred(POLY_NAT) sides; so the verdict is the same too
    rel, net, inst = case
    names = net.original_vertices() or net.vertices
    packed = PackedPoly(names)
    f = FlowFunction(net, {v: packed.pack(Poly.variable(v)) for v in names}, packed)
    g = FlowFunction(net, {v: Poly.variable(v) for v in names}, Starred(POLY_NAT))
    reference = evaluate_sides(g, rel, inst)
    sides = evaluate_sides(f, rel, inst)
    assert [STAR if s == {} else packed.unpack(s) for s in sides] == list(reference)
    assert symbolic_check(rel, net, inst) == sides_equal(reference)
    for s in reference:
        if s is not STAR:
            # the exponent bound of the packed form: a spectator source lies
            # on both flows of every summand, so X nonempty reaches it
            top = max(e for mono in s.terms for _, e in mono)
            assert top == 2 if inst.x_set else top <= 2


@pytest.mark.parametrize(
    "rhs", [[(2, 3, 4), (1, 2, 5), (1, 4, 5)], [(2, 3, 4), (1, 2, 5)]], ids=["quintuple", "dropped"]
)
def test_symbolic_check_quintuple_halfgrid9(rhs):
    # sides of about a thousand terms a factor; the relation holds, and fails
    # once a right-hand member is dropped
    rel = QuadraticRelation(3, 2, collection(3, 2, [(1, 3, 5)]), collection(3, 2, rhs))
    inst = Instantiation(n=9, x_set=frozenset({1, 4, 8}), y_list=(2, 3, 5, 6, 7))
    assert symbolic_check(rel, build_half_grid(9), inst) == (len(rhs) == 3)


def test_symbolic_check_rejects_repeated_charges():
    # a hand-built split network whose paths pay a's weight more than once,
    # so a side would have exponents outside the two-bit fields of the
    # packed carrier: a is the origin of both ends of x1'' -> x2 and
    # z1'' -> z2 too, so six vertices charge it
    split = [("x1", "x1''"), ("x2", "x2''"), ("z1", "z1''"), ("z2", "z2''"), ("y", "y''"), ("E", "E''")]
    ordinary = [("s1", "E"), ("s2", "E"), ("z2''", "E"), ("E''", "t1"), ("s2", "x1"), ("x1''", "x2"),
                ("x2''", "t2"), ("s3", "y"), ("y''", "t2"), ("s3", "z1"), ("z1''", "z2")]
    edges = split + ordinary
    net = PlanarNetwork(
        vertices=tuple(dict.fromkeys(v for edge in edges for v in edge)),
        edges=tuple(edges),
        sources=("s1", "s2", "s3"),
        sinks=("t1", "t2"),
        origins=tuple((v, origin) for edge, origin in zip(split, "aaaabe") for v in edge),
        planarity="declared",
    )
    # its terminals are out of boundary order too: s2 -> x1 .. -> t2 misses s3 -> z1 .. -> t1
    charged, crossed = validate(net)
    assert charged.startswith("weight a charged at 6 vertices: ")
    assert crossed == "crossed pairing: s2 -> t2 and s3 -> t1 have vertex-disjoint paths (s2 -> t2, s3 -> t1)"
    rel = QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    g = FlowFunction(net, {v: Poly.variable(v) for v in "abe"}, Starred(POLY_NAT))
    with pytest.raises(FlowError, match="weight a charged at 6 vertices"):
        evaluate_sides(g, rel, default_instantiation(rel, 3))
    with pytest.raises(FlowError, match="weight a charged at 6 vertices"):
        symbolic_check(rel, net)


def test_symbolic_check_runs_no_poly_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("Poly arithmetic in symbolic_check")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Poly, name, refuse)
    bad = QuadraticRelation(3, 2, collection(3, 2, [(1, 3, 5)]), collection(3, 2, [(2, 3, 4), (1, 2, 5)]))
    net = build_half_grid(6)
    inst = Instantiation(n=6, x_set=frozenset({1}), y_list=(2, 3, 4, 5, 6))
    assert symbolic_check(family_quintuple(), net, inst)
    assert not symbolic_check(bad, net, inst)
    assert symbolic_check(family_triple(), vertex_split(build_half_grid(4)))


def test_symbolic_check_all_star_sides():
    # a network where every relevant flow set is empty: both sides are star
    net = random_grid_network(3, 1, random.Random(0))
    # {2,3} has no flows here; craft a relation whose summands all involve it
    rel = QuadraticRelation(2, 1, collection(2, 1, [(2, 3)]), collection(2, 1, [(2, 3)]))
    assert symbolic_check(rel, net)


def test_family_interval_exchange_remark_cases():
    # p=2, q=1, full exchange: the triple relation with sides swapped
    rel = family_interval_exchange(2, 1, base_matching(2, 1))
    assert rel.lhs.members == ((1, 2), (2, 3))
    assert rel.rhs.members == ((1, 3),)
    # p=q=2, exchanging only (2,3)
    rel = family_interval_exchange(2, 2, [(2, 3)])
    assert rel.lhs.members == ((1, 2), (2, 3))
    assert rel.rhs.members == ((1, 3),)


def test_family_interval_exchange_validation():
    with pytest.raises(RelationError):
        family_interval_exchange(2, 1, [])
    with pytest.raises(RelationError):
        family_interval_exchange(2, 1, [(1, 2)])


def test_family_interval_exchange_balanced_sweep():
    for p in range(1, 6):
        for q in range(1, p + 1):
            if p + q > 7:
                continue
            m0 = base_matching(p, q)
            for r in range(1, q + 1):
                for chosen in combinations(m0, r):
                    rel = family_interval_exchange(p, q, chosen)
                    assert verify_stable(rel), (p, q, chosen)


def test_family_tail_fixed_p2q1():
    rel = family_tail_fixed(2, 1, ())
    assert rel.lhs.members == ((1, 2), (2, 3))
    assert rel.rhs.members == ((1, 3),)


def test_family_tail_fixed_q1_forces_empty_tail():
    # the fixed-tail window [p+2 .. p+q] is empty when q = 1
    with pytest.raises(RelationError):
        family_tail_fixed(2, 1, (3,))
    with pytest.raises(RelationError):
        family_tail_fixed(3, 2, (4,))


def test_family_tail_fixed_balanced_sweep():
    for p in range(1, 6):
        for q in range(1, p + 1):
            if p + q > 7:
                continue
            tail = list(range(p + 2, p + q + 1))
            for r in range(len(tail) + 1):
                for q_tail in combinations(tail, r):
                    rel = family_tail_fixed(p, q, q_tail)
                    assert verify_stable(rel), (p, q, q_tail)


def test_family_groebner_p2q1():
    # B = {2,3} is incomparable with its complement {1}; B = {1,3} is not
    rel = family_groebner(2, 1, (2, 3))
    assert verify_stable(rel)
    assert {rel.lhs.members, rel.rhs.members} == {((1, 2), (2, 3)), ((1, 3),)}
    with pytest.raises(RelationError):
        family_groebner(2, 1, (1, 3))


def test_family_groebner_balanced_sweep():
    for p in range(1, 6):
        for q in range(1, p + 1):
            if p + q > 7:
                continue
            n = p + q
            for b in combinations(range(1, n + 1), p):
                bbar = tuple(x for x in range(1, n + 1) if x not in b)
                if dominance_leq(b, bbar) or dominance_leq(bbar, b):
                    continue
                candidates = [k for k in range(1, q + 1) if b[k - 1] > bbar[k - 1]]
                for d in candidates:
                    rel = family_groebner(p, q, b, d)
                    assert verify_stable(rel), (p, q, b, d)


def test_grassmann_summands_reduce_to_sp3():
    # p=2, q=1, R=J: matches the triple relation instance on i < j < k
    lhs, rhs = grassmann_summands(2, 1, 3, (), (1, 2), (3,), (3,))
    # left: f(Xik... here the base term f(I)f(J) plus the odd exchange
    assert set(lhs) == {
        (frozenset({1, 2}), frozenset({3})),
        (frozenset({2, 3}), frozenset({1})),
    }
    assert set(rhs) == {(frozenset({1, 3}), frozenset({2}))}


def test_grassmann_summands_degenerate():
    lhs, rhs = grassmann_summands(2, 1, 5, (5,), (1, 2), (3,), ())
    assert lhs == ((frozenset({1, 2, 5}), frozenset({3, 5})),)
    assert rhs == ((frozenset({1, 2, 5}), frozenset({3, 5})),)


def test_grassmann_summands_evaluate_equal():
    g5 = build_half_grid(5)
    rng = random.Random("gr")
    for _ in range(5):
        w = random_weighting(g5.vertices, TROPICAL_INT, rng)
        f = FlowFunction(g5, w, TROPICAL_INT)
        for r_size in (1, 2):
            lhs, rhs = grassmann_summands(2, 2, 5, (5,), (1, 2), (3, 4), tuple((3, 4)[:r_size]))
            def total(pairs):
                vals = [TROPICAL_INT.mul(f(i), f(j)) for i, j in pairs]
                acc = vals[0]
                for v in vals[1:]:
                    acc = TROPICAL_INT.add(acc, v)
                return acc
            assert total(lhs) == total(rhs)


def test_grassmann_summands_match_interval_exchange_family():
    # the concrete relation is exactly the instantiation of the
    # interval-exchange family under R = {j_i : arc i exchanged}
    cases = [
        (2, 1, (1,), 3, (), (1, 2), (3,)),
        (2, 2, (1,), 4, (), (1, 2), (3, 4)),
        (2, 2, (1, 2), 4, (), (1, 2), (3, 4)),
        (3, 2, (2,), 5, (), (1, 2, 3), (4, 5)),
        (3, 2, (1, 2), 6, (6,), (1, 2, 3), (4, 5)),
        (4, 3, (1, 3), 7, (), (1, 2, 3, 4), (5, 6, 7)),
        (4, 2, (2,), 8, (7, 8), (1, 2, 3, 4), (5, 6)),
    ]
    for p, q, pi0_indices, n, x, i_list, j_list in cases:
        m0 = base_matching(p, q)
        rel = family_interval_exchange(p, q, [m0[i - 1] for i in pi0_indices])
        inst = Instantiation(n=n, x_set=frozenset(x), y_list=tuple(sorted(set(i_list) | set(j_list))))
        lhs_f, rhs_f = instantiate(rel, inst)
        r_set = frozenset(j_list[i - 1] for i in pi0_indices)
        lhs_g, rhs_g = grassmann_summands(p, q, n, x, i_list, j_list, r_set)
        assert set(lhs_f) == set(lhs_g) and set(rhs_f) == set(rhs_g)


def test_grassmann_summands_validation():
    with pytest.raises(RelationError):
        grassmann_summands(2, 1, 3, (1,), (1, 2), (3,), (3,))
    with pytest.raises(RelationError):
        grassmann_summands(2, 1, 3, (), (1, 2), (3,), (2,))


@pytest.mark.parametrize(
    "x_set, i_list, j_list, r_set",
    [((), (1, 1), (3,), ()), ((4, 4), (1, 2), (3,), ()), ((), (1, 2), (3, 3), (3,)), ((), (1, 2), (3,), (3, 3))],
    ids=["I", "X", "J", "R"],
)
def test_grassmann_summands_reject_repeated_elements(x_set, i_list, j_list, r_set):
    with pytest.raises(RelationError, match="must not repeat elements"):
        grassmann_summands(2, len(j_list), 4, x_set, i_list, j_list, r_set)


def test_x_independence_small():
    # equality status of the sides is the same for every (X, Y) on a fixed network
    relations = [
        family_triple(),
        QuadraticRelation(2, 1, collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)])),
    ]
    for n in (3, 4, 5, 6):
        net = build_half_grid(n)
        for rel in relations:
            size = rel.p + rel.q
            statuses = set()
            for y in combinations(range(1, n + 1), size):
                rest = [i for i in range(1, n + 1) if i not in y]
                for r in range(len(rest) + 1):
                    for x in combinations(rest, r):
                        inst = Instantiation(n=n, x_set=frozenset(x), y_list=y)
                        statuses.add(symbolic_check(rel, net, inst))
            assert len(statuses) == 1, (rel, n, statuses)


def test_remark1_conventions_can_disagree():
    # with zero weights the vanish-via-zero reading can call the sides equal
    # while the star adapter keeps an all-undefined side distinct; both
    # conventions are exposed, callers pick one deliberately
    net = random_grid_network(3, 1, random.Random(0))
    assert not enumerate_flag_flows(net, {2, 3})
    rel = QuadraticRelation(2, 1, collection(2, 1, [(2, 3)]), collection(2, 1, [(1, 2)]))
    zeros = {v: 0 for v in net.vertices}
    inst = default_instantiation(rel)
    plain = FlowFunction(net, zeros, COUNTING_NAT)
    assert sides_equal(evaluate_sides(plain, rel, inst))
    starred = FlowFunction(net, zeros, Starred(COUNTING_NAT))
    assert not sides_equal(evaluate_sides(starred, rel, inst))


def test_prop1_mini_sweep():
    # generated family members hold on split half-grids and random grids over
    # several carriers and random weightings
    rng = random.Random("prop1")
    relations = [
        family_triple(),
        family_quadruple(),
        family_interval_exchange(3, 2, [(3, 4)]),
        family_tail_fixed(2, 2, (4,)),
        family_groebner(3, 2, (2, 4, 5)),
    ]
    networks = [vertex_split(build_half_grid(4)), build_half_grid(5)]
    networks += [random_grid_network(5, 2, random.Random(s)) for s in range(2)]
    carriers = [COUNTING_NAT, TROPICAL_INT, CARRIERS["posrat"], Starred(CARRIERS["posrat"])]
    for rel in relations:
        size = rel.p + rel.q
        for net in networks:
            n = len(net.sources)
            if n < size:
                continue
            for carrier in carriers:
                for _ in range(5):
                    y = tuple(sorted(rng.sample(range(1, n + 1), size)))
                    rest = [i for i in range(1, n + 1) if i not in y]
                    x = frozenset(i for i in rest if rng.random() < 0.5)
                    verts = net.original_vertices() or net.vertices
                    w = random_weighting(verts, carrier, rng)
                    f = FlowFunction(net, w, carrier)
                    inst = Instantiation(n=n, x_set=x, y_list=y)
                    assert sides_equal(evaluate_sides(f, rel, inst)), (rel, carrier.name)
