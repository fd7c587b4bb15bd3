import random
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import pytest
from _brute import naive_laurent, tuple_laurent
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflows.cli import main
from sqflows.flows import enumerate_flag_flows, evaluate_fgf
from sqflows.laurent import (
    LaurentError,
    LaurentExpression,
    _sorted_monomials,
    interval_flow,
    intervals,
    intervals_of,
    laurent_expand,
    reconstruct_from_intervals,
    weights_from_intervals,
)
from sqflows.network import build_half_grid
from sqflows.relations import random_weighting
from sqflows.semiring import (
    COUNTING_NAT,
    POSITIVE_RATIONAL,
    SemiringError,
    TROPICAL_RATIONAL,
    Poly,
    POLY_NAT,
)

LETTERS = {"1,1": "a", "2,1": "b", "2,2": "d"}


def subsets(n):
    for size in range(1, n + 1):
        for a in combinations(range(1, n + 1), size):
            yield a


def test_interval_flow_examples():
    assert interval_flow(3, 1, 1).paths == (("1,1",),)
    flow = interval_flow(3, 2, 3)
    assert {v for path in flow.paths for v in path} == {"1,1", "2,1", "3,1", "2,2", "3,2"}
    assert {v for path in interval_flow(5, 1, 5).paths for v in path} == set(build_half_grid(5).vertices)


def test_interval_flow_is_the_unique_flag_flow():
    for n in range(1, 7):
        g = build_half_grid(n)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                flows = enumerate_flag_flows(g, range(lo, hi + 1))
                assert len(flows) == 1
                assert flows[0].paths == interval_flow(n, lo, hi).paths


def test_interval_flow_validation():
    with pytest.raises(LaurentError):
        interval_flow(3, 2, 4)
    with pytest.raises(LaurentError):
        interval_flow(3, 0, 2)


def test_intervals_of_examples():
    g2 = build_half_grid(2)
    w = {v: Poly.variable(LETTERS[v]) for v in g2.vertices}
    vals = intervals_of(w, 2, POLY_NAT)
    a, b, d = (Poly.variable(x) for x in "abd")
    assert vals[(1, 1)] == a
    assert vals[(2, 2)] == a * b
    assert vals[(1, 2)] == a * b * d

    ones = {v: Fraction(1) for v in build_half_grid(3).vertices}
    vals = intervals_of(ones, 3, POSITIVE_RATIONAL)
    assert all(v == 1 for v in vals.values())


def test_intervals_match_flow_values():
    rng = random.Random("ivals")
    for n in (2, 3, 4):
        g = build_half_grid(n)
        w = random_weighting(g.vertices, POSITIVE_RATIONAL, rng)
        vals = intervals_of(w, n, POSITIVE_RATIONAL)
        for lo, hi in intervals(n):
            assert vals[(lo, hi)] == evaluate_fgf(g, w, range(lo, hi + 1), POSITIVE_RATIONAL)


def test_weights_from_intervals_example():
    g2 = build_half_grid(2)
    a, b, d = Fraction(2), Fraction(3, 2), Fraction(5)
    w = {"1,1": a, "2,1": b, "2,2": d}
    vals = intervals_of(w, 2, POSITIVE_RATIONAL)
    assert vals[(1, 1)] == a and vals[(2, 2)] == a * b and vals[(1, 2)] == a * b * d
    back = weights_from_intervals(vals, 2, POSITIVE_RATIONAL)
    assert back == w


def test_weights_from_all_one_intervals():
    vals = {iv: Fraction(1) for iv in intervals(4)}
    w = weights_from_intervals(vals, 4, POSITIVE_RATIONAL)
    assert all(v == 1 for v in w.values())


def test_roundtrip_positive_rational():
    rng = random.Random("round")
    for n in range(1, 7):
        g = build_half_grid(n)
        w = random_weighting(g.vertices, POSITIVE_RATIONAL, rng)
        back = weights_from_intervals(intervals_of(w, n, POSITIVE_RATIONAL), n, POSITIVE_RATIONAL)
        assert {k: Fraction(v) for k, v in w.items()} == back


def test_roundtrip_from_arbitrary_interval_values():
    # any assignment of positive interval values is realized by a weighting:
    # vals -> weights -> vals is the identity, and reconstruction agrees with
    # direct evaluation under the recovered weighting
    rng = random.Random("arbitrary")
    for n in (2, 3, 4, 5):
        g = build_half_grid(n)
        vals = {iv: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for iv in intervals(n)}
        w = weights_from_intervals(vals, n, POSITIVE_RATIONAL)
        assert intervals_of(w, n, POSITIVE_RATIONAL) == vals
        for a in subsets(n):
            got = reconstruct_from_intervals(vals, a, n, POSITIVE_RATIONAL)
            assert got == evaluate_fgf(g, w, a, POSITIVE_RATIONAL)


def test_division_carrier_required():
    vals = {iv: 1 for iv in intervals(2)}
    with pytest.raises(SemiringError):
        weights_from_intervals(vals, 2, POLY_NAT)
    with pytest.raises(SemiringError):
        reconstruct_from_intervals(vals, {1, 2}, 2, POLY_NAT)


def test_expand_interval_is_single_monomial():
    for n in (2, 3, 4):
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                expr = laurent_expand(n, range(lo, hi + 1))
                assert expr.monomials == ((((lo, hi), 1),),)


def test_expand_13_example():
    expr = laurent_expand(3, {1, 3})
    assert set(expr.monomials) == {
        (((1, 1), 1), ((2, 2), -1), ((2, 3), 1)),
        (((1, 2), 1), ((2, 2), -1), ((3, 3), 1)),
    }


def test_expand_degree_bounds():
    for n in range(1, 6):
        for a in subsets(n):
            expr = laurent_expand(n, a)
            assert expr.degrees() <= {-1, 0, 1, 2}, (n, a)


def test_expand_matches_counter_oracle():
    # the packed degree fields decode to the monomials a plain Counter per
    # flow gives, in the same order, and never leave the field bound [-4, 4]
    for n in range(1, 8):
        g = build_half_grid(n)
        for a in subsets(n):
            expr = laurent_expand(n, a)
            assert list(expr.monomials) == naive_laurent(g, a), (n, a)
            assert expr.degrees() <= set(range(-4, 5)), (n, a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_expand_sorts_as_the_decoded_tuples(data):
    # the byte keys sort and decode to the monomials that decoding every flow
    # field by field and sorting the tuples gives
    n = data.draw(st.integers(1, 9), label="n")
    a = data.draw(st.lists(st.integers(1, n), min_size=1, unique=True).map(sorted), label="A")
    assert list(laurent_expand(n, a).monomials) == tuple_laurent(n, a)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from((0, 0, 0, -4, -1, 1, 4)), min_size=4, max_size=4), max_size=12))
def test_byte_keys_sort_as_the_tuples(vectors):
    # any degree vectors, zero runs and prefixes included: the keys sort as
    # the tuples of nonzero (interval, degree) pairs
    fields = sorted(intervals(3))[:4]
    packed = [sum(d << 8 * k for k, d in enumerate(vector)) for vector in vectors]
    tuples = sorted(tuple((iv, d) for iv, d in zip(fields, vector) if d) for vector in vectors)
    assert list(_sorted_monomials(packed, fields)) == tuples


def test_expand_evaluates_to_fgf():
    rng = random.Random("expand")
    for n in range(1, 6):
        g = build_half_grid(n)
        for carrier in (POSITIVE_RATIONAL, TROPICAL_RATIONAL):
            w = random_weighting(g.vertices, carrier, rng)
            vals = intervals_of(w, n, carrier)
            for a in subsets(n):
                expr = laurent_expand(n, a)
                assert expr.evaluate(vals, carrier) == evaluate_fgf(g, w, a, carrier)


def test_expand_rejects_bad_input():
    with pytest.raises(LaurentError):
        laurent_expand(3, ())
    with pytest.raises(LaurentError):
        laurent_expand(13, {1})


def test_reconstruct_interval_is_direct():
    vals = {iv: Fraction(7) for iv in intervals(3)}
    assert reconstruct_from_intervals(vals, {2, 3}, 3, POSITIVE_RATIONAL) == 7


def test_reconstruct_matches_fgf():
    rng = random.Random("recon")
    for n in range(1, 6):
        g = build_half_grid(n)
        for carrier in (POSITIVE_RATIONAL, TROPICAL_RATIONAL):
            w = random_weighting(g.vertices, carrier, rng)
            vals = intervals_of(w, n, carrier)
            for a in subsets(n):
                got = reconstruct_from_intervals(vals, a, n, carrier)
                assert got == evaluate_fgf(g, w, a, carrier)


def test_reconstruct_gap_independence():
    rng = random.Random("gaps")
    for n in (4, 5):
        g = build_half_grid(n)
        w = random_weighting(g.vertices, POSITIVE_RATIONAL, rng)
        vals = intervals_of(w, n, POSITIVE_RATIONAL)
        for a in subsets(n):
            a_set = set(a)
            lo, hi = min(a_set), max(a_set)
            gaps = [j for j in range(lo + 1, hi) if j not in a_set]
            if not gaps:
                continue
            values = {
                reconstruct_from_intervals(vals, a, n, POSITIVE_RATIONAL, j_choice=j) for j in gaps
            }
            assert len(values) == 1


def test_reconstruct_validation():
    vals = {iv: Fraction(1) for iv in intervals(3)}
    with pytest.raises(LaurentError):
        reconstruct_from_intervals(vals, (), 3, POSITIVE_RATIONAL)
    with pytest.raises(LaurentError):
        reconstruct_from_intervals(vals, {1, 3}, 3, POSITIVE_RATIONAL, j_choice=3)
    # A = [2..3] is itself an interval, and has no gap to pin
    with pytest.raises(LaurentError, match=r"^7 is not a gap of \[2, 3\]$"):
        reconstruct_from_intervals(vals, {2, 3}, 3, POSITIVE_RATIONAL, j_choice=7)


def test_reconstruct_wide_span():
    # one elimination step per unit of span: 1198 levels, deeper than the
    # interpreter's recursion limit; the defaultdict stands in for the
    # 720 600 interval values, all one
    vals = defaultdict(lambda: Fraction(1))
    got = reconstruct_from_intervals(vals, {1, 3, 1200}, 1200, POSITIVE_RATIONAL)
    assert got == Fraction(1435203) == 1198**2 - 1
    assert reconstruct_from_intervals(vals, {1, 3, 200}, 200, POSITIVE_RATIONAL) == 39203


def test_evaluate_needs_division_and_a_monomial():
    vals = {iv: Fraction(k + 1) for k, iv in enumerate(intervals(3))}
    assert laurent_expand(3, {1, 3}).evaluate(vals, POSITIVE_RATIONAL) == Fraction(17, 3)
    with pytest.raises(SemiringError, match=r"^nat has no division$"):
        laurent_expand(3, {1, 3}).evaluate(vals, COUNTING_NAT)
    with pytest.raises(LaurentError, match=r"^empty expression$"):
        LaurentExpression(()).evaluate(vals, POSITIVE_RATIONAL)


def test_render_format(capsys):
    # the CLI's text form of a monomial: f[lo..hi]^deg per interval
    assert main(["laurent", "-n", "3", "-A", "1,3"]) == 0
    assert "f[1..1]^1 f[2..2]^-1 f[2..3]^1" in capsys.readouterr().out.splitlines()
