import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from sqflows.doubleflow import (
    DoubleFlowError,
    count_decompositions,
    decompose,
    exchange_flows,
    superpose,
)
from sqflows.flows import enumerate_flag_flows
from sqflows.matchings import is_feasible
from sqflows.network import (
    PlanarNetwork,
    build_half_grid,
    random_grid_network,
    validate,
    vertex_split,
)
from sqflows.relations import Instantiation, RelationError


def diamond_network():
    """One merge vertex feeding a diamond, then a shared exit with s1 = t1.

    Mirrors the worked double-flow picture: superposing the {1,3}-flow that
    takes one diamond arm with the {2}-flow taking the other produces one
    circuit, one essential path joining sources 2 and 3, and one path from
    source 1 to the free sink."""
    return PlanarNetwork(
        vertices=("g", "h2", "h3", "m", "x", "y", "e", "z"),
        edges=(
            ("h2", "m"),
            ("h3", "m"),
            ("m", "x"),
            ("m", "y"),
            ("x", "e"),
            ("y", "e"),
            ("e", "g"),
            ("e", "z"),
        ),
        sources=("g", "h2", "h3"),
        sinks=("g", "e", "z"),
    )


def double_diamond_network():
    """Two diamonds in series behind a merge: the opposed flow pair has d = 2."""
    return PlanarNetwork(
        vertices=("g", "h2", "m", "x1", "y1", "c", "x2", "y2", "e"),
        edges=(
            ("g", "m"),
            ("h2", "m"),
            ("m", "x1"),
            ("m", "y1"),
            ("x1", "c"),
            ("y1", "c"),
            ("c", "x2"),
            ("c", "y2"),
            ("x2", "e"),
            ("y2", "e"),
        ),
        sources=("g", "h2"),
        sinks=("e",),
    )


def flows_by_arm(net, I, arm):
    return [f for f in enumerate_flag_flows(net, I) if any(arm in p for path in f.paths for p in path)]


def test_superpose_requires_split():
    g3 = build_half_grid(3)
    f = enumerate_flag_flows(g3, {1, 3})
    with pytest.raises(DoubleFlowError):
        superpose(f[0], f[1])


def test_superpose_requires_same_network():
    a = enumerate_flag_flows(vertex_split(build_half_grid(3)), {1, 3})
    b = enumerate_flag_flows(vertex_split(build_half_grid(4)), {2})
    with pytest.raises(DoubleFlowError):
        superpose(a[0], b[0])


def test_superpose_doubles_shared_flow():
    # X-only pair: both flows identical, every multiplicity even, no paths
    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {1, 3})[0]
    df = superpose(phi, phi)
    assert all(mult == 2 for _, mult in df.multiplicities)
    dec = decompose(df)
    assert dec.d == 0
    assert dec.paths == ()
    assert count_decompositions(df) == 1


def test_diamond_matches_worked_picture():
    net = vertex_split(diamond_network())
    assert validate(net) == []
    phis = enumerate_flag_flows(net, {1, 3})
    phis_prime = enumerate_flag_flows(net, {2})
    assert len(phis) == 2 and len(phis_prime) == 2
    # pick opposite diamond arms
    phi = next(f for f in phis if any("x'" in v for path in f.paths for v in path))
    phi_prime = next(f for f in phis_prime if any("y'" in v for path in f.paths for v in path))
    df = superpose(phi, phi_prime)
    dec = decompose(df)
    assert dec.d == 1
    assert dec.matching.arcs == ((2, 3),)
    assert len(dec.paths) == 2
    assert len(dec.essential_paths) == 1
    assert count_decompositions(df) == 2
    # same arms: no circuit
    phi_same = next(f for f in phis_prime if any("x'" in v for path in f.paths for v in path))
    dec2 = decompose(superpose(phi, phi_same))
    assert dec2.d == 0
    assert count_decompositions(superpose(phi, phi_same)) == 1


def test_double_diamond_d2():
    net = vertex_split(double_diamond_network())
    phis = enumerate_flag_flows(net, {1})
    phis_prime = enumerate_flag_flows(net, {2})
    assert len(phis) == len(phis_prime) == 4
    best = None
    for a in phis:
        for b in phis_prime:
            dec = decompose(superpose(a, b))
            if dec.d == 2:
                best = (a, b)
    assert best is not None
    df = superpose(*best)
    assert count_decompositions(df) == 4
    assert decompose(df).matching.arcs == ((1, 2),)


def test_disjoint_flows_give_01_multiplicities():
    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {2})[0]
    # J(A)-flow sharing nothing: X = {}, Y = (2, 3), A = {1} -> I = {2}, J = {3}
    phi_prime = [f for f in enumerate_flag_flows(net, {3}) if not set(f.edges()) & set(phi.edges())]
    for other in phi_prime:
        df = superpose(phi, other)
        assert all(mult == 1 for _, mult in df.multiplicities)


def gamma4_instances():
    net = vertex_split(build_half_grid(4))
    for p, q in ((1, 1), (2, 1), (2, 2), (3, 1)):
        size = p + q
        for y in combinations(range(1, 5), size):
            rest = [i for i in range(1, 5) if i not in y]
            for r in range(len(rest) + 1):
                for x in combinations(rest, r):
                    for a in combinations(range(1, size + 1), p):
                        yield net, frozenset(x), y, frozenset(a), p, q


def index_sets(x, y, a, size):
    comp = set(range(1, size + 1)) - set(a)
    I = tuple(sorted(set(x) | {y[k - 1] for k in a}))
    J = tuple(sorted(set(x) | {y[k - 1] for k in comp}))
    return I, J


def test_endpoint_classification_random_sample():
    rng = random.Random("endpoints")
    usable = []
    for net, x, y, a, p, q in gamma4_instances():
        I, J = index_sets(x, y, a, p + q)
        if enumerate_flag_flows(net, I) and enumerate_flag_flows(net, J):
            usable.append((net, x, y, a, p, q, I, J))
    for _ in range(100):
        net, x, y, a, p, q, I, J = rng.choice(usable)
        phi = rng.choice(enumerate_flag_flows(net, I))
        phi_prime = rng.choice(enumerate_flag_flows(net, J))
        dec = decompose(superpose(phi, phi_prime))
        assert len(dec.paths) == p
        assert len(dec.essential_paths) == q
        assert is_feasible(dec.matching, a)


def test_lemma_laws_on_gamma3_exhaustive():
    net = vertex_split(build_half_grid(3))
    for p, q in ((1, 1), (2, 1)):
        size = p + q
        for y in combinations(range(1, 4), size):
            rest = [i for i in range(1, 4) if i not in y]
            for r in range(len(rest) + 1):
                for x in combinations(rest, r):
                    for a in combinations(range(1, size + 1), p):
                        I, J = index_sets(x, y, a, size)
                        phis = enumerate_flag_flows(net, I)
                        phis_prime = enumerate_flag_flows(net, J)
                        groups = {}
                        for f1 in phis:
                            for f2 in phis_prime:
                                df = superpose(f1, f2)
                                groups.setdefault(df.multiplicities, []).append((f1, f2))
                        for pairs in groups.values():
                            df = superpose(*pairs[0])
                            dec = decompose(df)
                            assert len(pairs) == 2 ** dec.d
                            assert count_decompositions(df) == len(pairs)
                            # exchange invariance for every subset of M(xi)
                            for k in range(len(dec.matching.arcs) + 1):
                                for chosen in combinations(dec.matching.arcs, k):
                                    a_new = frozenset(a) ^ {e for arc in chosen for e in arc}
                                    assert count_decompositions(df, a_new) == len(pairs)


def test_exchange_involution_and_preservation():
    net = vertex_split(build_half_grid(4))
    rng = random.Random("exch")
    cases = list(gamma4_instances())
    rng.shuffle(cases)
    done = 0
    for netw, x, y, a, p, q in cases:
        I, J = index_sets(x, y, a, p + q)
        phis = enumerate_flag_flows(netw, I)
        phis_prime = enumerate_flag_flows(netw, J)
        if not phis or not phis_prime:
            continue
        phi = rng.choice(phis)
        phi_prime = rng.choice(phis_prime)
        df = superpose(phi, phi_prime)
        dec = decompose(df)
        arcs = dec.matching.arcs
        chosen = tuple(arc for arc in arcs if rng.random() < 0.6)
        psi, psi_prime = exchange_flows(phi, phi_prime, chosen)
        assert superpose(psi, psi_prime).multiplicities == df.multiplicities
        back, back_prime = exchange_flows(psi, psi_prime, chosen)
        assert back.source_indices == phi.source_indices
        assert back_prime.source_indices == phi_prime.source_indices
        if chosen:
            swapped = {e for arc in chosen for e in arc}
            expect_a = a ^ swapped
            expected_I = tuple(sorted(set(x) | {y[k - 1] for k in expect_a}))
            assert psi.source_indices == expected_I
        done += 1
        if done >= 60:
            break
    assert done == 60


def test_exchange_empty_subset_is_identity():
    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {1, 3})[0]
    phi_prime = enumerate_flag_flows(net, {2})[0]
    psi, psi_prime = exchange_flows(phi, phi_prime, ())
    assert psi.paths == phi.paths
    assert psi_prime.paths == phi_prime.paths


def test_exchange_rejects_foreign_arc():
    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {1, 3})[0]
    phi_prime = enumerate_flag_flows(net, {2})[0]
    with pytest.raises(DoubleFlowError):
        exchange_flows(phi, phi_prime, ((1, 3),))


def test_p_less_than_q_rejected():
    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {2})[0]
    phi_prime = enumerate_flag_flows(net, {1, 3})[0]
    with pytest.raises(DoubleFlowError):
        superpose(phi, phi_prime)


def test_count_decompositions_rejects_a_outside_positions():
    net = vertex_split(build_half_grid(3))
    df = superpose(enumerate_flag_flows(net, {1, 3})[0], enumerate_flag_flows(net, {2})[0])
    with pytest.raises(RelationError):
        count_decompositions(df, {9})


def test_decompose_rejects_branching_component():
    # hand-made xi whose multiplicity-one subgraph has a degree-3 vertex
    from sqflows.doubleflow import DoubleFlow

    net = vertex_split(build_half_grid(3))
    inst = Instantiation(n=3, x_set=frozenset(), y_list=(1, 2))
    star_edges = (
        (("2,1'", "2,1''"), 1),
        (("2,1''", "1,1'"), 1),
        (("2,1''", "2,2'"), 1),
    )
    df = DoubleFlow(multiplicities=star_edges, instance=inst, a_set=frozenset({1}), network=net)
    with pytest.raises(DoubleFlowError):
        decompose(df)


def test_decompose_rejects_wrong_context():
    # a valid superposition reinterpreted with the wrong A has misclassified
    # path endpoints
    from sqflows.doubleflow import DoubleFlow

    net = vertex_split(build_half_grid(3))
    phi = enumerate_flag_flows(net, {1, 3})[0]
    phi_prime = enumerate_flag_flows(net, {2})[0]
    df = superpose(phi, phi_prime)
    wrong = DoubleFlow(
        multiplicities=df.multiplicities,
        instance=Instantiation(n=3, x_set=frozenset({3}), y_list=(1, 2)),
        a_set=frozenset({1}),
        network=net,
    )
    with pytest.raises(DoubleFlowError):
        decompose(wrong)


def test_decompose_alternation_audit():
    # dropping a doubly used split-edge from xi leaves the multiplicity-one
    # subgraph intact but breaks the flow-switch invariant
    from sqflows.doubleflow import DoubleFlow

    net = vertex_split(diamond_network())
    phis = enumerate_flag_flows(net, {1, 3})
    phi = next(f for f in phis if any("x'" in v for path in f.paths for v in path))
    phi_prime = next(
        f for f in enumerate_flag_flows(net, {2}) if any("y'" in v for path in f.paths for v in path)
    )
    df = superpose(phi, phi_prime)
    decompose(df)
    switch_vertices = {"m'", "e'", "g'"}
    pruned = tuple(
        (edge, mult)
        for edge, mult in df.multiplicities
        if not (mult == 2 and net.kind(edge) == "split" and edge[0] in switch_vertices)
    )
    assert pruned != df.multiplicities
    broken = DoubleFlow(multiplicities=pruned, instance=df.instance, a_set=df.a_set, network=net)
    with pytest.raises(DoubleFlowError):
        decompose(broken)


def test_exchange_with_adversarial_vertex_names():
    # two separate fans whose ids sort against the arc order: the component
    # for arc (3,4) is discovered before the one for arc (1,2), so the
    # arc-to-path association must not rely on sorted order
    net = PlanarNetwork(
        vertices=("w1", "w2", "zz", "m3", "m4", "bb"),
        edges=(("w1", "zz"), ("w2", "zz"), ("m3", "bb"), ("m4", "bb")),
        sources=("w1", "w2", "m3", "m4"),
        sinks=("zz", "bb"),
        planarity="declared",
    )
    split = vertex_split(net)
    phi = enumerate_flag_flows(split, {1, 3})[0]
    phi_prime = enumerate_flag_flows(split, {2, 4})[0]
    df = superpose(phi, phi_prime)
    dec = decompose(df)
    assert dec.matching.arcs == ((1, 2), (3, 4))
    assert set(dec.essential_arcs) == {(1, 2), (3, 4)}
    # the path recorded for (1, 2) must really end at sources 1 and 2
    path_12 = dec.essential_paths[dec.essential_arcs.index((1, 2))]
    verts = {v for e in path_12 for v in e}
    assert "s^1" in verts and "s^2" in verts
    for chosen, expected_i in ((((1, 2),), (2, 3)), (((3, 4),), (1, 4))):
        psi, psi_prime = exchange_flows(phi, phi_prime, chosen)
        assert psi.source_indices == expected_i
        assert superpose(psi, psi_prime).multiplicities == df.multiplicities


def test_lemma_laws_sampled_gamma5():
    # 200 sampled double flows on the split half-grid of size five
    net = vertex_split(build_half_grid(5))
    rng = random.Random("gamma5")
    checked = 0
    while checked < 200:
        p = rng.randint(1, 3)
        q = rng.randint(1, p)
        size = p + q
        if size > 5:
            continue
        y = tuple(sorted(rng.sample(range(1, 6), size)))
        rest = [i for i in range(1, 6) if i not in y]
        x = frozenset(i for i in rest if rng.random() < 0.4)
        a = frozenset(rng.sample(range(1, size + 1), p))
        I, J = index_sets(x, y, a, size)
        phis = enumerate_flag_flows(net, I)
        phis_prime = enumerate_flag_flows(net, J)
        if not phis or not phis_prime:
            continue
        groups = Counter()
        for f1 in phis:
            for f2 in phis_prime:
                groups[superpose(f1, f2).multiplicities] += 1
        df = superpose(rng.choice(phis), rng.choice(phis_prime))
        dec = decompose(df)
        assert groups[df.multiplicities] == 2 ** dec.d
        assert is_feasible(dec.matching, a)
        checked += 1


def decompose_corpus():
    """Every flow pair of every (I, J) with |I - J| >= |J - I| on six split
    networks, in a fixed order."""
    nets = (
        build_half_grid(3),
        build_half_grid(4),
        diamond_network(),
        double_diamond_network(),
        random_grid_network(4, 2, random.Random(5)),
        random_grid_network(4, 3, random.Random(8)),
    )
    for net in nets:
        split = vertex_split(net)
        n = len(split.sources)
        subsets = [I for r in range(n + 1) for I in combinations(range(1, n + 1), r)]
        flows = {I: enumerate_flag_flows(split, I) for I in subsets}
        for I in subsets:
            for J in subsets:
                if len(set(I) - set(J)) >= len(set(J) - set(I)):
                    for phi in flows[I]:
                        for phi_prime in flows[J]:
                            yield superpose(phi, phi_prime)


def decompose_outcome(df):
    try:
        dec = decompose(df)
    except ValueError as exc:
        return type(exc).__name__
    return (dec.circuits, dec.paths, dec.essential_arcs, dec.essential_paths, dec.matching.arcs)


def test_decompose_pinned_digest():
    # order, direction and alignment of every field, plus the exception type
    # on a copy of each double flow with one multiplicity flipped between 1 and 2
    from sqflows.doubleflow import DoubleFlow

    rng = random.Random("flip")
    genuine = hashlib.sha256()
    flipped = hashlib.sha256()
    count = 0
    for df in decompose_corpus():
        genuine.update(repr(decompose_outcome(df)).encode())
        mults = list(df.multiplicities)
        if mults:
            k = rng.randrange(len(mults))
            mults[k] = (mults[k][0], 3 - mults[k][1])
        broken = DoubleFlow(
            multiplicities=tuple(mults), instance=df.instance, a_set=df.a_set, network=df.network
        )
        flipped.update(repr(decompose_outcome(broken)).encode())
        count += 1
    assert count == 2559
    assert genuine.hexdigest() == "21cbc85663001857c3595842ac4dae854fe9d996425d36412e15238dc4186e24"
    assert flipped.hexdigest() == "5648bfa5c56605d8f46dcd6a02e459b8f834ae3a4ce511d613d61b389c7b08ba"


def test_exchange_pinned_digest():
    # paths, source and sink indices of both exchanged flows, for every
    # subset of essential arcs of the first three flows per index set
    nets = (
        build_half_grid(3),
        build_half_grid(4),
        build_half_grid(5),
        random_grid_network(4, 2, random.Random(1)),
        random_grid_network(4, 2, random.Random(2)),
        random_grid_network(4, 2, random.Random(3)),
    )
    digest = hashlib.sha256()
    count = 0
    for net in nets:
        split = vertex_split(net)
        n = len(split.sources)
        subsets = [I for r in range(n + 1) for I in combinations(range(1, n + 1), r)]
        flows = {I: enumerate_flag_flows(split, I)[:3] for I in subsets}
        for I in subsets:
            for J in subsets:
                if len(set(I) - set(J)) < len(set(J) - set(I)):
                    continue
                for phi in flows[I]:
                    for phi_prime in flows[J]:
                        arcs = decompose(superpose(phi, phi_prime)).essential_arcs
                        for k in range(len(arcs) + 1):
                            for chosen in combinations(arcs, k):
                                psi, psi_prime = exchange_flows(phi, phi_prime, chosen)
                                assert psi.network is split and psi_prime.network is split
                                for f in (psi, psi_prime):
                                    digest.update(repr((f.paths, f.source_indices, f.sink_indices)).encode())
                                count += 1
    assert count == 6821
    assert digest.hexdigest() == "dbc2f92b4d5734c7c0d9f0f8f747cca276d930d6d5a3f362dd47eb22ff6de788"
