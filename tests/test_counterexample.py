import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflows.counterexample import (
    GadgetError,
    augment_matching,
    build_gadget_network,
    evaluate_inequality,
    side_sums,
    verify_P1_P2,
)
from sqflows.flows import FlowFunction, enumerate_flag_flows, flag_table
from sqflows.matchings import (
    MatchingError,
    NestedMatching,
    collection,
    enumerate_nested_matchings,
    is_balanced,
    is_feasible,
)
from sqflows.network import PlanarNetwork, validate
from sqflows.relations import family_tail_fixed
from sqflows.semiring import EXACT_INT


def test_augment_identity_when_p_equals_q():
    m = NestedMatching(((1, 4), (2, 3)), 4)
    aug = augment_matching(m, 2, 2)
    assert aug.result == m


def test_augment_examples():
    aug = augment_matching(NestedMatching(((1, 2),), 3), 2, 1)
    assert aug.result.arcs == ((1, 2), (3, 4))
    aug = augment_matching(NestedMatching(((1, 2), (4, 5)), 5), 3, 2)
    assert aug.result.arcs == ((1, 2), (3, 6), (4, 5))


def test_augment_rejects_bad_matching():
    with pytest.raises(GadgetError):
        augment_matching(NestedMatching(((1, 3), (2, 4)), 4), 2, 2)
    with pytest.raises(GadgetError):
        augment_matching(NestedMatching(((1, 2),), 4), 2, 2)


def test_gadget_trivial_p1():
    g = build_gadget_network(NestedMatching(((1, 2),), 2))
    assert len(g.network.vertices) == 3
    assert g.network.sinks == ("pi(1,2):u1",)
    assert g.network.sources == ("pi(1,2):v0", "pi(1,2):v1")
    assert validate(g.network) == []


def test_gadget_paper_picture_shape():
    # two trees: one for (1,6) with inner (2,3), (4,5); one for (7,10) with (8,9)
    m = NestedMatching(((1, 6), (2, 3), (4, 5), (7, 10), (8, 9)), 10)
    g = build_gadget_network(m)
    net = g.network
    assert len(net.sinks) == 5
    # sinks are the u-vertices of the maximal arcs, left to right
    assert net.sinks == (
        "pi(1,6):u1",
        "pi(1,6):u2",
        "pi(1,6):u3",
        "pi(7,10):u1",
        "pi(7,10):u2",
    )
    # vertex count: sum over arcs of 2*Delta + 1
    assert len(net.vertices) == (2 * 3 + 1) + 3 + 3 + (2 * 2 + 1) + 3
    # connection edges: u1 of (2,3) -> v1 of (1,6); u1 of (4,5) -> v2 of (1,6);
    # u1 of (8,9) -> v1 of (7,10)
    assert ("pi(2,3):u1", "pi(1,6):v1") in net.edges
    assert ("pi(4,5):u1", "pi(1,6):v2") in net.edges
    assert ("pi(8,9):u1", "pi(7,10):v1") in net.edges
    assert validate(net) == []
    assert verify_P1_P2(g, m, 5, 5)


def test_gadget_nested_pair():
    m = NestedMatching(((1, 4), (2, 3)), 4)
    g = build_gadget_network(m)
    # outer arc has Delta = 2, inner Delta = 1, one connecting edge
    assert ("pi(2,3):u1", "pi(1,4):v1") in g.network.edges
    assert verify_P1_P2(g, m, 2, 2)


def test_gadget_connect_flag_keeps_flows():
    m = NestedMatching(((1, 2), (3, 4)), 4)
    plain = build_gadget_network(m, connect=False)
    connected = build_gadget_network(m, connect=True)
    assert validate(connected.network) == []
    for a in combinations(range(1, 5), 2):
        assert len(enumerate_flag_flows(plain.network, a)) == len(
            enumerate_flag_flows(connected.network, a)
        )


def test_gadget_rejects_incomplete():
    with pytest.raises(GadgetError):
        build_gadget_network(NestedMatching(((1, 2),), 4))


def test_p1_p2_small_cases():
    assert verify_P1_P2(
        build_gadget_network(augment_matching(NestedMatching(((1, 2),), 3), 2, 1).result),
        NestedMatching(((1, 2),), 3),
        2,
        1,
    )
    m = NestedMatching(((1, 2), (3, 4)), 4)
    assert verify_P1_P2(build_gadget_network(m), m, 2, 2)


def test_p1_p2_negative_control():
    # removing an edge breaks uniqueness or existence
    m = NestedMatching(((1, 4), (2, 3)), 4)
    g = build_gadget_network(m)
    crippled = PlanarNetwork(
        vertices=g.network.vertices,
        edges=tuple(e for e in g.network.edges if e != ("pi(2,3):u1", "pi(1,4):v1")),
        sources=g.network.sources,
        sinks=g.network.sinks,
    )
    from sqflows.counterexample import GadgetNetwork

    assert not verify_P1_P2(GadgetNetwork(network=crippled, matching=m, p=2), m, 2, 2)


def test_p1_p2_counts_above_one_fail():
    # an extra edge s_2 -> v1 of (1, 4) runs beside the link u1 of (2, 3) ->
    # v1 of (1, 4), so the feasible A = {1, 2} gets two A-flows while every A
    # keeps flows on both sides exactly when it is feasible: only the product
    # of the counts, not their truth values, tells this gadget apart
    m = NestedMatching(((1, 4), (2, 3)), 4)
    g = build_gadget_network(m)
    doubled = PlanarNetwork(
        vertices=g.network.vertices,
        edges=g.network.edges + (("pi(2,3):v0", "pi(1,4):v1"),),
        sources=g.network.sources,
        sinks=g.network.sinks,
    )
    from sqflows.counterexample import GadgetNetwork

    gadget = GadgetNetwork(network=doubled, matching=m, p=2)
    for a in combinations(range(1, 5), 2):
        hat = set(range(1, 5)) - set(a)
        counts = len(enumerate_flag_flows(doubled, a)), len(enumerate_flag_flows(doubled, hat))
        assert (min(counts) > 0) == is_feasible(m, a)
    assert len(enumerate_flag_flows(doubled, (1, 2))) == 2
    assert gadget.pair_count((1, 2)) == 2
    assert not verify_P1_P2(gadget, m, 2, 2)


@pytest.mark.parametrize(
    "arcs, p, q, feasible, infeasible",
    [
        (((1, 4), (2, 3)), 2, 2, (1, 2), (1, 4)),  # no end of (2, 3)
        (((1, 2), (3, 4)), 3, 2, (1, 3, 5), (1, 2, 3)),  # both ends of (1, 2)
    ],
    ids=["arc-without-end", "arc-with-both-ends"],
)
def test_p1_p2_reads_feasibility_not_only_the_count(arcs, p, q, feasible, infeasible):
    # a table whose products are 1 on 2^q sets still fails when one of them
    # is infeasible: the pair of a feasible A moved to an infeasible one
    m = NestedMatching(arcs, p + q)
    g = build_gadget_network(augment_matching(m, p, q).result)
    table = dict(g.table)
    full = (1 << 2 * p) - 1
    old, new = (sum(1 << i - 1 for i in a) for a in (feasible, infeasible))
    assert verify_P1_P2(g, m, p, q) and table[old] == table[full ^ old] == 1
    del table[old], table[full ^ old]
    vars(g)["table"] = {**table, new: 1, full ^ new: 1}
    assert not verify_P1_P2(g, m, p, q)


def test_p1_p2_exhaustive_small():
    # every nested matching with p + q <= 8 yields a correct gadget
    for p in range(1, 8):
        for q in range(1, p + 1):
            if p + q > 8:
                continue
            for m in enumerate_nested_matchings(p + q, q):
                aug = augment_matching(m, p, q)
                g = build_gadget_network(aug.result)
                assert verify_P1_P2(g, m, p, q), (p, q, m.arcs)


def test_gadget_table_matches_sweep():
    # every gadget with p + q <= 8, with and without the connecting vertices:
    # on [2p] with 2p <= 8 the table of every level equals the sweep on
    # every subset; above, the level-p table equals it on every p-subset of
    # [p+q] and its complement, all that verify_P1_P2 and pair_count read
    gadgets = {}
    for p in range(1, 8):
        for q in range(1, min(p, 8 - p) + 1):
            for m in enumerate_nested_matchings(p + q, q):
                gadgets.setdefault(augment_matching(m, p, q).result, []).append(q)
    assert len(gadgets) == 77
    for m_hat, qs in gadgets.items():
        for connect in (False, True):
            g = build_gadget_network(m_hat, connect)
            ones = dict.fromkeys(g.network.vertices, 1)
            f = FlowFunction(g.network, ones, EXACT_INT)
            sources = range(1, 2 * g.p + 1)
            if 2 * g.p <= 8:
                checked = [(k, A) for k in range(2 * g.p + 1) for A in combinations(sources, k)]
            else:
                inside = {A for q in qs for A in combinations(range(1, g.p + q + 1), g.p)}
                checked = [(g.p, B) for A in inside for B in (A, tuple(set(sources) - set(A)))]
            tables = {}
            for k, A in checked:
                if k not in tables:
                    tables[k] = flag_table(g.network, ones, EXACT_INT, k)
                assert tables[k].get(sum(1 << i - 1 for i in A), 0) == f(A)
            assert tables[g.p] == g.table


def test_pair_count_needs_a_p_subset():
    g = build_gadget_network(NestedMatching(((1, 4), (2, 3)), 4))
    assert g.pair_count((1, 2)) == 1
    for bad in ((1,), (1, 2, 3), (0, 1), (4, 5)):
        with pytest.raises(GadgetError, match=r"^pair count needs a 2-subset of \[4\]$"):
            g.pair_count(bad)


def test_reach_at_nine_eight():
    # the tail-fixed family with Q = {p+q} and its first left member dropped:
    # the table reads all 48 620 9-subsets of the 18 gadget sources at once
    relation = family_tail_fixed(9, 8, (17,))
    report = evaluate_inequality(collection(9, 8, relation.lhs.members[1:]), relation.rhs)
    assert (report.lhs_sum, report.rhs_sum) == (1, 2)
    assert report.p1_p2_verified
    assert len(report.gadget.table) == 9724


def test_closed_loop_random_pairs_up_to_seven():
    # balancedness must coincide with symbolic equality across the gadgets of
    # every nested matching, for random pairs with p + q in {6, 7}
    from sqflows.relations import QuadraticRelation, symbolic_check

    rng = random.Random("loop67")
    for p, q in ((4, 2), (3, 3), (4, 3), (5, 2)):
        n = p + q
        pool = list(combinations(range(1, n + 1), p))
        matchings = enumerate_nested_matchings(n, q)
        for _ in range(3):
            lhs = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
            rhs = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
            rel = QuadraticRelation(p, q, lhs, rhs)
            balanced = is_balanced(lhs, rhs).balanced
            symbolic = all(
                symbolic_check(rel, build_gadget_network(augment_matching(m, p, q).result).network)
                for m in matchings
            )
            assert balanced == symbolic


def test_flow_sum_equals_member_count():
    # sum over all A with M feasible of f(A) f(A-hat) equals the count of such A
    rng = random.Random("counts")
    for p, q in ((2, 1), (2, 2), (3, 2)):
        n = p + q
        for m in enumerate_nested_matchings(n, q):
            aug = augment_matching(m, p, q)
            g = build_gadget_network(aug.result)
            ones = {v: 1 for v in g.network.vertices}
            total = 0
            feasible_count = 0
            for a in combinations(range(1, n + 1), p):
                fa = len(enumerate_flag_flows(g.network, a))
                fhat = len(enumerate_flag_flows(g.network, set(range(1, 2 * p + 1)) - set(a)))
                total += fa * fhat
                feasible_count += 1 if is_feasible(m, a) else 0
            assert total == feasible_count


def test_evaluate_inequality_triple():
    report = evaluate_inequality(collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    assert (report.lhs_sum, report.rhs_sum) == (0, 1)
    assert report.witness.arcs == ((1, 2),)
    assert report.p1_p2_verified
    assert validate(report.gadget.network) == []


def test_evaluate_inequality_multiset():
    lhs = collection(2, 1, [(1, 2), (2, 3)])
    rhs = collection(2, 1, [(1, 3), (1, 3)])
    report = evaluate_inequality(lhs, rhs)
    assert report.lhs_sum != report.rhs_sum


def test_evaluate_inequality_rejects_balanced():
    with pytest.raises(MatchingError):
        evaluate_inequality(collection(2, 1, [(1, 3)]), collection(2, 1, [(1, 2), (2, 3)]))


def test_side_sums_match_multiset_counts():
    # the gadget sums are exactly the multiset multiplicities of the witness
    rng = random.Random("sums")
    for _ in range(20):
        p = rng.randint(1, 3)
        q = rng.randint(1, p)
        n = p + q
        pool = list(combinations(range(1, n + 1), p))
        c1 = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
        c2 = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
        for m in enumerate_nested_matchings(n, q):
            gadget = build_gadget_network(augment_matching(m, p, q).result)
            lhs, rhs = side_sums(c1, c2, gadget)
            lcount = sum(1 for a in c1.members if is_feasible(m, a))
            rcount = sum(1 for a in c2.members if is_feasible(m, a))
            assert lhs == lcount and rhs == rcount



@settings(max_examples=80, deadline=None)
@given(st.data())
def test_side_sums_is_the_sum_of_pair_counts(data):
    # collections with the gadget's p or another, and q up to p + 1, so that
    # members can reach past [2p]: the sums or the error of pair_count
    p = data.draw(st.integers(1, 4))
    gadget = build_gadget_network(data.draw(st.sampled_from(enumerate_nested_matchings(2 * p, p))))
    size = data.draw(st.integers(max(0, p - 1), p + 1))
    q = data.draw(st.integers(0, p + 1))
    pool = list(combinations(range(1, size + q + 1), size))
    side = st.lists(st.sampled_from(pool), max_size=5)
    lhs = collection(size, q, data.draw(side))
    rhs = collection(size, q, data.draw(side))

    def member_sums(lhs, rhs):
        return sum(map(gadget.pair_count, lhs.members)), sum(map(gadget.pair_count, rhs.members))

    assert _outcome(side_sums, lhs, rhs, gadget) == _outcome(member_sums, lhs, rhs)


def test_side_sums_rejects_a_collection_of_another_p():
    gadget = build_gadget_network(NestedMatching(((1, 4), (2, 3)), 4))
    good = collection(2, 1, [(1, 2)])
    for other in (collection(3, 1, [(1, 2, 3)]), collection(1, 1, [(1,), (2,)]), collection(2, 3, [(1, 5)])):
        for lhs, rhs in ((other, good), (good, other)):
            with pytest.raises(GadgetError, match=r"^pair count needs a 2-subset of \[4\]$"):
                side_sums(lhs, rhs, gadget)
    # an empty collection has no member to check
    assert side_sums(collection(3, 1, []), good, gadget) == (0, 1)


def _outcome(fn, *args):
    """The result of fn(*args), or the type and message of its ValueError."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _family_outcomes():
    # every family for every (p, q) with p + q <= 9, the invalid ones included
    from sqflows.relations import (
        base_matching,
        family_groebner,
        family_interval_exchange,
        family_tail_fixed,
    )

    for n in range(10):
        for p in range(n + 1):
            q = n - p
            m0 = base_matching(p, q)
            for r in range(len(m0) + 1):
                for chosen in combinations(m0, r):
                    yield _outcome(family_interval_exchange, p, q, chosen)
            tail = range(p + 1, p + q + 1)
            for r in range(len(tail) + 1):
                for q_tail in combinations(tail, r):
                    yield _outcome(family_tail_fixed, p, q, q_tail)
            for b in combinations(range(1, n + 1), p):
                for d in (None, *range(q + 2)):
                    yield _outcome(family_groebner, p, q, b, d)


def _random_pairs(rng, count):
    for _ in range(count):
        p = rng.randint(1, 4)
        q = rng.randint(1, 7 - p)
        pool = list(combinations(range(1, p + q + 1), p))
        yield tuple(
            collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 4))]) for _ in range(2)
        )


def test_combinatorics_pinned_digest():
    # families, gadget network text, augmentations and balance verdicts,
    # each folded into one sha256
    import hashlib

    from sqflows.network import write_network
    from sqflows.relations import QuadraticRelation

    digests = {}
    counts = {}

    def pin(key, items):
        h = hashlib.sha256()
        counts[key] = 0
        for item in items:
            h.update(repr(item).encode())
            counts[key] += 1
        digests[key] = h.hexdigest()

    def family_members():
        for out in _family_outcomes():
            yield (out.lhs.members, out.rhs.members) if isinstance(out, QuadraticRelation) else out

    def gadgets():
        for p in range(1, 7):
            for m in enumerate_nested_matchings(2 * p, p):
                for connect in (False, True):
                    g = build_gadget_network(m, connect)
                    yield g.p, write_network(g.network)

    def augmentations():
        for n in range(1, 11):
            for q in range(n // 2 + 1):
                for m in enumerate_nested_matchings(n, q):
                    yield augment_matching(m, n - q, q).result.arcs

    def balances():
        rng = random.Random("balance-digest")
        for lhs, rhs in _random_pairs(rng, 300):
            r = is_balanced(lhs, rhs)
            yield r.balanced, r.witness and r.witness.arcs, r.lhs_count, r.rhs_count
        for out in _family_outcomes():
            if isinstance(out, QuadraticRelation) and out.p + out.q <= 6:
                dropped = collection(out.p, out.q, out.lhs.members[1:])
                for lhs in (out.lhs, dropped):
                    r = is_balanced(lhs, out.rhs)
                    yield r.balanced, r.witness and r.witness.arcs, r.lhs_count, r.rhs_count

    def inequalities():
        rng = random.Random("inequality-digest")
        for lhs, rhs in _random_pairs(rng, 40):
            if lhs.p + lhs.q <= 5:
                r = _outcome(evaluate_inequality, lhs, rhs)
                if isinstance(r, tuple):
                    yield r
                else:
                    yield r.witness.arcs, r.augmented.result.arcs, r.lhs_sum, r.rhs_sum, r.p1_p2_verified

    pin("families", family_members())
    pin("gadgets", gadgets())
    pin("augmentations", augmentations())
    pin("balances", balances())
    pin("inequalities", inequalities())
    assert counts == {
        "families": 11238,
        "gadgets": 392,
        "augmentations": 525,
        "balances": 498,
        "inequalities": 15,
    }
    assert digests == {
        "families": "c80a0d1393acb1b72fa0c9d1d2a1eb95008dac0237749a68a42002939b775782",
        "gadgets": "7faf4316f730707987186530a5db95095e5691bc536f32cd7a2dbea1c93caad6",
        "augmentations": "be13b3e8d7842bc15b898cfffaeba5fef5f810b411cf84b3eff87601baa11344",
        "balances": "2ace44e9a1cbd90dc3902e94e1d6f52e793894b19b4c535e3f1e847f101c1d2e",
        "inequalities": "eca7376a59867cfcd4b466377d41c060d922a17984d255791d7424453df4d669",
    }


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: augment_matching(NestedMatching(((1, 2),), 3), 1, 2), "augmentation needs p >= q"),
        (lambda: build_gadget_network(NestedMatching(((1, 2), (2, 3)), 4)),
         "gadget needs a matching without free elements"),
        (lambda: build_gadget_network(NestedMatching(((1, 3), (2, 4)), 4)), "not a nested matching"),
    ],
    ids=["augment-p-below-q", "gadget-free-elements", "gadget-crossing"],
)
def test_gadget_input_errors(build, message):
    with pytest.raises(GadgetError, match=f"^{message}$"):
        build()
