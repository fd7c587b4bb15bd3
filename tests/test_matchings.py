import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _brute import naive_feasible_matchings
from sqflows import matchings
from sqflows.matchings import (
    BalanceResult,
    MatchingError,
    NestedMatching,
    collection,
    enumerate_feasible_matchings,
    enumerate_nested_matchings,
    exchange,
    is_balanced,
    is_feasible,
    matching_multiset,
    parse_collection_pair,
    write_collection_pair,
)
from sqflows.relations import family_tail_fixed


def arcs(m):
    return set(m.arcs)


def test_paper_item_1():
    assert [arcs(m) for m in enumerate_feasible_matchings({1, 3}, 2, 1)] == [{(1, 2)}, {(2, 3)}]
    assert [arcs(m) for m in enumerate_feasible_matchings({1, 2}, 2, 1)] == [{(2, 3)}]
    assert [arcs(m) for m in enumerate_feasible_matchings({2, 3}, 2, 1)] == [{(1, 2)}]


def test_paper_item_2():
    assert {frozenset(arcs(m)) for m in enumerate_feasible_matchings({1, 3}, 2, 2)} == {
        frozenset({(1, 4), (2, 3)}),
        frozenset({(1, 2), (3, 4)}),
    }
    assert [arcs(m) for m in enumerate_feasible_matchings({1, 2}, 2, 2)] == [{(1, 4), (2, 3)}]
    assert [arcs(m) for m in enumerate_feasible_matchings({1, 4}, 2, 2)] == [{(1, 2), (3, 4)}]


def test_paper_item_3():
    five = {
        frozenset({(1, 2), (4, 5)}),
        frozenset({(1, 4), (2, 3)}),
        frozenset({(2, 3), (4, 5)}),
        frozenset({(1, 2), (3, 4)}),
        frozenset({(2, 5), (3, 4)}),
    }
    assert {frozenset(arcs(m)) for m in enumerate_feasible_matchings({1, 3, 5}, 3, 2)} == five
    assert {frozenset(arcs(m)) for m in enumerate_feasible_matchings({2, 3, 4}, 3, 2)} == {
        frozenset({(1, 2), (4, 5)})
    }
    assert {frozenset(arcs(m)) for m in enumerate_feasible_matchings({1, 2, 5}, 3, 2)} == {
        frozenset({(1, 4), (2, 3)}),
        frozenset({(2, 3), (4, 5)}),
    }
    assert {frozenset(arcs(m)) for m in enumerate_feasible_matchings({1, 4, 5}, 3, 2)} == {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(2, 5), (3, 4)}),
    }


def test_is_feasible_examples():
    assert is_feasible(NestedMatching(((1, 2),), 3), {1, 3})
    assert is_feasible(NestedMatching(((2, 3),), 3), {1, 3})
    assert not is_feasible(NestedMatching(((1, 2),), 3), {1, 2})
    assert is_feasible(NestedMatching(((1, 2), (4, 5)), 5), {1, 3, 5})


def test_is_feasible_rejects_each_clause():
    # wrong arc count
    assert not is_feasible(NestedMatching((), 3), {1, 3})
    # crossing arcs
    assert not is_feasible(NestedMatching(((1, 3), (2, 4)), 4), {1, 2})
    # covered free element
    assert not is_feasible(NestedMatching(((1, 3),), 3), {1, 2})
    # shared endpoint
    assert not is_feasible(NestedMatching(((1, 2), (2, 3)), 4), {1, 3})


def test_enumeration_matches_brute_force():
    rng = random.Random("brute")
    cases = []
    for p in range(1, 5):
        for q in range(1, p + 1):
            if p + q <= 8:
                cases.append((p, q))
    for p, q in cases:
        n = p + q
        for a in combinations(range(1, n + 1), p):
            ours = sorted(enumerate_feasible_matchings(a, p, q), key=lambda m: m.arcs)
            brute = naive_feasible_matchings(a, p, q)
            assert ours == brute


def test_enumeration_matches_brute_force_ten():
    # one larger spot check at p + q = 10
    rng = random.Random("ten")
    for _ in range(3):
        a = tuple(sorted(rng.sample(range(1, 11), 6)))
        ours = sorted(enumerate_feasible_matchings(a, 6, 4), key=lambda m: m.arcs)
        assert ours == naive_feasible_matchings(a, 6, 4)


def test_feasible_scan_is_the_filtered_nested_scan():
    # the same matchings in the same order, for every A with p + q <= 10
    for n in range(11):
        for q in range(n + 1):
            nested = enumerate_nested_matchings(n, q)
            for a in combinations(range(1, n + 1), n - q):
                assert enumerate_feasible_matchings(a, n - q, q) == tuple(m for m in nested if is_feasible(m, a))


def test_scan_depth_is_not_limited_by_recursion():
    only = NestedMatching(((1200, 1201),), 1201)
    assert enumerate_feasible_matchings(range(1, 1201), 1200, 1) == (only,)


def test_block_structure():
    # inside any maximal arc every element is an endpoint
    for p, q in ((2, 2), (3, 2), (3, 3), (4, 2)):
        n = p + q
        for a in combinations(range(1, n + 1), p):
            for m in enumerate_feasible_matchings(a, p, q):
                ends = m.endpoints()
                for i, j in m.arcs:
                    for k in range(i, j + 1):
                        assert k in ends


def test_exchange_examples():
    m = NestedMatching(((1, 2),), 3)
    assert exchange({1, 3}, m, ((1, 2),)) == {2, 3}
    assert exchange({1, 3}, m, ()) == {1, 3}
    assert exchange(exchange({1, 3}, m, ((1, 2),)), m, ((1, 2),)) == {1, 3}


def test_exchange_errors():
    m = NestedMatching(((1, 2),), 3)
    with pytest.raises(MatchingError):
        exchange({1, 3}, m, ((2, 3),))
    with pytest.raises(MatchingError):
        exchange({1, 2}, m, ((1, 2),))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exchange_involution_property(data):
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, p))
    n = p + q
    a = frozenset(data.draw(st.permutations(range(1, n + 1)))[:p])
    options = enumerate_feasible_matchings(a, p, q)
    m = data.draw(st.sampled_from(options))
    chosen = tuple(arc for arc in m.arcs if data.draw(st.booleans()))
    swapped = exchange(a, m, chosen)
    assert is_feasible(m, swapped)
    assert exchange(swapped, m, chosen) == a


def test_matching_multiset_examples():
    c = collection(2, 1, [(1, 3)])
    counts = matching_multiset(c)
    assert counts[NestedMatching(((1, 2),), 3)] == 1
    assert counts[NestedMatching(((2, 3),), 3)] == 1

    c = collection(2, 1, [(1, 2), (2, 3)])
    counts = matching_multiset(c)
    assert counts[NestedMatching(((1, 2),), 3)] == 1
    assert counts[NestedMatching(((2, 3),), 3)] == 1

    c = collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)])
    counts = matching_multiset(c)
    assert len(counts) == 5
    assert all(v == 1 for v in counts.values())


def test_balanced_examples():
    assert is_balanced(collection(2, 1, [(1, 3)]), collection(2, 1, [(1, 2), (2, 3)])).balanced
    assert is_balanced(collection(2, 2, [(1, 3)]), collection(2, 2, [(1, 2), (1, 4)])).balanced
    assert is_balanced(
        collection(3, 2, [(1, 3, 5)]), collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)])
    ).balanced
    result = is_balanced(collection(2, 1, [(1, 2)]), collection(2, 1, [(1, 3)]))
    assert not result.balanced
    assert result.witness == NestedMatching(((1, 2),), 3)
    assert (result.lhs_count, result.rhs_count) == (0, 1)


def test_balanced_is_symmetric_reflexive_additive():
    rng = random.Random("bal")
    for _ in range(30):
        p = rng.randint(1, 3)
        q = rng.randint(1, p)
        n = p + q
        pool = list(combinations(range(1, n + 1), p))
        c1 = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
        c2 = collection(p, q, [rng.choice(pool) for _ in range(rng.randint(1, 3))])
        r12 = is_balanced(c1, c2)
        r21 = is_balanced(c2, c1)
        assert r12.balanced == r21.balanced
        assert is_balanced(c1, c1).balanced
        extra = rng.choice(pool)
        c1x = collection(p, q, list(c1.members) + [extra])
        c2x = collection(p, q, list(c2.members) + [extra])
        assert is_balanced(c1x, c2x).balanced == r12.balanced


def _brute_balance(lhs, rhs):
    """is_balanced from is_feasible over every nested matching, each member
    counted once per copy."""
    nested = sorted(enumerate_nested_matchings(lhs.p + lhs.q, lhs.q), key=lambda m: m.arcs)
    for m in nested:
        left = sum(is_feasible(m, a) for a in lhs.members)
        right = sum(is_feasible(m, a) for a in rhs.members)
        if left != right:
            return BalanceResult(False, m, left, right)
    return BalanceResult(True, None, 0, 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_balance_with_repeated_members_matches_brute_force(data):
    p = data.draw(st.integers(1, 5))
    q = data.draw(st.integers(1, 4))
    pool = list(combinations(range(1, p + q + 1), p))
    # every list of two or more members repeats some of them
    members = st.lists(st.sampled_from(pool), max_size=4).map(lambda ms: ms + ms[:2])
    shared = data.draw(members)
    lhs = shared + data.draw(members)
    rhs = shared + data.draw(members)
    if p >= q and data.draw(st.booleans()):
        family = family_tail_fixed(p, q, ())
        lhs += family.lhs.members
        rhs += family.rhs.members
    lhs, rhs = collection(p, q, lhs), collection(p, q, rhs)
    assert is_balanced(lhs, rhs) == _brute_balance(lhs, rhs)


def _feasible_counts(coll):
    """The matchings of each copy of a member, listed on its own by
    enumerate_feasible_matchings."""
    return Counter(m for a in coll.members for m in enumerate_feasible_matchings(a, coll.p, coll.q))


def _counter_balance(lhs, rhs):
    """is_balanced from one per-copy Counter per side."""
    left, right = _feasible_counts(lhs), _feasible_counts(rhs)
    differing = [m for m in left.keys() | right.keys() if left[m] != right[m]]
    if not differing:
        return BalanceResult(True, None, 0, 0)
    witness = min(differing, key=lambda m: m.arcs)
    return BalanceResult(False, witness, left[witness], right[witness])


def test_balance_lists_no_matchings_and_builds_only_the_witness(monkeypatch):
    lhs = collection(3, 2, [(1, 3, 5), (1, 3, 5), (1, 2, 5)])
    rhs = collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)] * 2 + [(1, 2, 5)])
    dropped = collection(3, 2, rhs.members[1:])
    pairs = {(lhs, rhs): _brute_balance(lhs, rhs), (lhs, dropped): _brute_balance(lhs, dropped)}
    built = []
    init = NestedMatching.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("is_balanced listed matchings")

    monkeypatch.setattr(matchings, "enumerate_feasible_matchings", refuse)
    monkeypatch.setattr(matchings, "enumerate_nested_matchings", refuse)
    monkeypatch.setattr(matchings, "matching_multiset", refuse)
    monkeypatch.setattr(NestedMatching, "__init__", counting)
    for (left, right), expected in pairs.items():
        built.clear()
        assert is_balanced(left, right) == expected
        assert built == ([] if expected.balanced else [expected.witness])
    assert [r.balanced for r in pairs.values()] == [True, False]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_balance_over_many_machine_words_matches_brute_force(data):
    # more than 64 copies on each side, so every bitset spans several words
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, p))
    pool = list(combinations(range(1, p + q + 1), p))
    shared = data.draw(st.lists(st.sampled_from(pool), min_size=65, max_size=80))
    extra = st.lists(st.sampled_from(pool), max_size=4)
    lhs = shared + data.draw(extra)
    rhs = shared + (lhs[len(shared):] if data.draw(st.booleans()) else data.draw(extra))
    family = family_tail_fixed(p, q, ())
    lhs, rhs = collection(p, q, lhs + list(family.lhs.members)), collection(p, q, rhs + list(family.rhs.members))
    assert is_balanced(lhs, rhs) == _brute_balance(lhs, rhs)
    assert matching_multiset(lhs) == _feasible_counts(lhs)


def test_member_repeated_on_one_side_only():
    once, twice = collection(3, 2, [(1, 3, 5)]), collection(3, 2, [(1, 3, 5)] * 2)
    result = is_balanced(twice, once)
    assert result == BalanceResult(False, NestedMatching(((1, 2), (3, 4)), 5), 2, 1)
    assert result == _brute_balance(twice, once) == _counter_balance(twice, once)
    split = collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)] * 2)
    for lhs, rhs in ((twice, split), (collection(3, 2, [(1, 3, 5)] * 3), split)):
        assert is_balanced(lhs, rhs) == _brute_balance(lhs, rhs) == _counter_balance(lhs, rhs)
        assert is_balanced(rhs, lhs) == _brute_balance(rhs, lhs)
    assert is_balanced(twice, split).balanced


def test_witness_is_smallest_by_sorted_arcs():
    # the scan closes (3,4) first in the witness and (2,3) first in another
    # differing matching, so comparing arcs in closing order picks the wrong one
    lhs, rhs = collection(4, 3, [(1, 2, 3, 7)]), collection(4, 3, [(1, 2, 4, 5)])
    result = is_balanced(lhs, rhs)
    assert result == BalanceResult(False, NestedMatching(((1, 6), (2, 5), (3, 4)), 7), 1, 0)
    assert result == _brute_balance(lhs, rhs)


@pytest.mark.parametrize("p, q", [(9, 8), (10, 9)])
def test_balance_on_seeded_random_pairs(p, q):
    rng = random.Random(f"pairs {p} {q}")
    n = p + q

    def draw(count):
        return [tuple(rng.sample(range(1, n + 1), p)) for _ in range(count)]

    shared, family = draw(40), family_tail_fixed(p, q, ())
    lhs = shared + list(family.lhs.members)
    rhs = shared + list(family.rhs.members)
    pairs = [(lhs, rhs), (lhs[1:], rhs), (lhs + draw(5), rhs + draw(5)), (draw(30), draw(30))]
    outcomes = []
    for left, right in pairs:
        left, right = collection(p, q, left), collection(p, q, right)
        result = is_balanced(left, right)
        assert result == _counter_balance(left, right)
        outcomes.append(result.balanced)
    assert outcomes == [True, False, False, False]


def test_balance_depth_is_not_limited_by_recursion():
    wide = collection(1200, 1, [range(1, 1201)])
    shifted = collection(1200, 1, [range(2, 1202)])
    assert is_balanced(wide, wide).balanced
    result = is_balanced(wide, shifted)
    assert result == BalanceResult(False, NestedMatching(((1, 2),), 1201), 0, 1)
    assert result == _counter_balance(wide, shifted)


def test_balanced_parameter_mismatch():
    with pytest.raises(MatchingError):
        is_balanced(collection(2, 1, [(1, 2)]), collection(2, 2, [(1, 2)]))


def test_nested_matching_enumeration_no_colors():
    # nested matchings of size q on [n]: filtered count must match a direct scan
    found = enumerate_nested_matchings(4, 2)
    assert {frozenset(m.arcs) for m in found} == {
        frozenset({(1, 2), (3, 4)}),
        frozenset({(1, 4), (2, 3)}),
    }
    total = enumerate_nested_matchings(5, 2)
    assert all(m.is_nested() and m.free_uncovered() and m.pairwise_disjoint() for m in total)


@pytest.mark.parametrize("p, q", [(0, -1), (1, -1), (-1, 2), (-2, -1)])
def test_feasible_enumeration_rejects_negative_sizes(p, q):
    # with p + q >= 0 a negative size would reach the scan, or name [p+q]
    with pytest.raises(MatchingError, match="p and q must be nonnegative"):
        enumerate_feasible_matchings((), p, q)
    with pytest.raises(MatchingError, match="p and q must be nonnegative"):
        enumerate_feasible_matchings((1,), p, q)


@pytest.mark.parametrize("n, q", [(4, -1), (-1, 0), (-3, -2)])
def test_nested_enumeration_rejects_negative_sizes(n, q):
    with pytest.raises(MatchingError, match="n and q must be nonnegative"):
        enumerate_nested_matchings(n, q)


def test_collection_validation():
    with pytest.raises(MatchingError):
        collection(2, 1, [(1, 2, 3)])
    with pytest.raises(MatchingError):
        collection(2, 1, [(1, 7)])
    c = collection(2, 1, [(3, 1), (1, 2)])
    assert c.members == ((1, 2), (1, 3))


def test_pair_file_roundtrip():
    lhs = collection(3, 2, [(1, 3, 5)])
    rhs = collection(3, 2, [(2, 3, 4), (1, 2, 5), (1, 4, 5)])
    text = write_collection_pair(lhs, rhs)
    back_l, back_r = parse_collection_pair(text)
    assert (back_l, back_r) == (lhs, rhs)


def test_pair_file_errors():
    with pytest.raises(MatchingError):
        parse_collection_pair("")
    with pytest.raises(MatchingError):
        parse_collection_pair("2 1\n1 2\n")
    with pytest.raises(MatchingError):
        parse_collection_pair("2 1\n1 2\n--\n1 3\n--\n2 3\n")
    with pytest.raises(MatchingError):
        parse_collection_pair("x y\n1 2\n--\n1 3\n")


def _first_bad_member(p, q, members):
    """The error a collection names: its members sorted, then checked one by
    one for size, repeats and range, each with two fresh sets."""
    n = p + q
    for m in sorted(tuple(sorted(m)) for m in members):
        if len(m) != p or len(set(m)) != p:
            return f"member {m} is not a {p}-subset"
        if not set(m) <= set(range(1, n + 1)):
            return f"member {m} is not inside [{n}]"
    return None


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2\n3 5\n1 1\n1 2 3\n--\n1 2\n", "member (1, 1) is not a 2-subset"),
        ("2 2\n1 2\n0 4\n3 3\n--\n", "member (0, 4) is not inside [4]"),
        ("2 2\n1 2\n--\n2 5\n4\n4 4\n", "member (2, 5) is not inside [4]"),
        ("3 1\n4 3 2 1\n2 2 1\n--\n1 2 3\n", "member (1, 2, 2) is not a 3-subset"),
        ("2 2\n1 2\n--\n5 5\n1 2 9\n", "member (1, 2, 9) is not a 2-subset"),
    ],
)
def test_pair_file_names_the_first_bad_member(text, message):
    # several bad members (wrong size, a repeated element, outside [n]): the
    # first in sorted order is named, left side first
    with pytest.raises(MatchingError) as exc:
        parse_collection_pair(text)
    assert str(exc.value) == message


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_collection_check_names_the_member_the_member_loop_names(data):
    p = data.draw(st.integers(0, 4))
    q = data.draw(st.integers(0, 4))
    element = st.integers(-1, p + q + 1)
    members = data.draw(st.lists(st.lists(element, max_size=p + 2), max_size=6))
    expected = _first_bad_member(p, q, members)
    if expected is None:
        assert collection(p, q, members).members == tuple(sorted(tuple(sorted(m)) for m in members))
    else:
        with pytest.raises(MatchingError) as exc:
            collection(p, q, members)
        assert str(exc.value) == expected


def test_pair_file_keeps_repeated_lines():
    lhs, rhs = parse_collection_pair("2 1\n1 2\n2 1\n2 3\n1 2\n--\n1 3\n# note\n1 3\n")
    assert lhs.members == ((1, 2), (1, 2), (1, 2), (2, 3))
    assert rhs.members == ((1, 3), (1, 3))


def test_pair_file_words_are_ints():
    # each word is read as int() reads it, once per distinct word
    lhs, rhs = parse_collection_pair("2 1\n+1 03\n3 1\n--\n1 3\n")
    assert lhs.members == rhs.members[:1] * 2
    for line in ("1 x", "1 2.0", "1 03 x"):
        with pytest.raises(MatchingError) as exc:
            parse_collection_pair(f"2 1\n1 3\n{line}\n--\n1 3\n")
        assert str(exc.value) == f"bad subset line: {line!r}"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_file_round_trip_property(data):
    p = data.draw(st.integers(0, 5))
    q = data.draw(st.integers(0, 5))
    subsets = st.permutations(range(1, p + q + 1)).map(lambda order: order[:p])
    side = st.lists(subsets, max_size=6)
    lhs = collection(p, q, data.draw(side))
    rhs = collection(p, q, data.draw(side))
    if p == 0 and (lhs.members or rhs.members):
        # the empty member would be an empty line, which the parser skips
        with pytest.raises(MatchingError, match="empty member"):
            write_collection_pair(lhs, rhs)
    else:
        assert parse_collection_pair(write_collection_pair(lhs, rhs)) == (lhs, rhs)
