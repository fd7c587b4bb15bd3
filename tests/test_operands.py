"""Where operands are checked.

The interval routines and ``Poly.evaluate`` check every value they read once,
where they read it, and then compute with the raw carrier operations.  These
tests pin the errors a bad or missing operand raises, compare each routine
with a reference in ``tests/_brute.py`` that runs the same formula through
the checked ``Carrier.add``/``mul``/``div``/``neg``, and check that no
library routine calls those four.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from _brute import (
    checked_intervals_of,
    checked_laurent_evaluate,
    checked_poly_evaluate,
    checked_reconstruct,
    checked_weights_from_intervals,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from sqflows.counterexample import evaluate_inequality
from sqflows.flows import FlowFunction, flag_table, lindstrom_matrix, minor
from sqflows.laurent import (
    intervals,
    intervals_of,
    laurent_expand,
    reconstruct_from_intervals,
    weights_from_intervals,
)
from sqflows.matchings import parse_collection_pair
from sqflows.network import build_half_grid
from sqflows.relations import (
    default_instantiation,
    evaluate_sides,
    family_quadruple,
    family_triple,
    symbolic_check,
)
from sqflows.semiring import (
    CARRIERS,
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POSITIVE_RATIONAL,
    STAR,
    TROPICAL_INT,
    TROPICAL_RATIONAL,
    Carrier,
    CarrierMismatch,
    PackedPoly,
    Poly,
    Starred,
    parse_poly,
)

STARRED_POSRAT = Starred(POSITIVE_RATIONAL)
# each carrier with a value that is not one of its elements
INTERVAL_CARRIERS = [
    (POSITIVE_RATIONAL, Fraction(-1)),
    (TROPICAL_RATIONAL, 0.5),
    (STARRED_POSRAT, 0),
]
POLY_CARRIERS = INTERVAL_CARRIERS + [(EXACT_INT, Fraction(1, 2)), (POLY_INT, 3)]
# the seven carriers and their Starred forms
ALL = [*CARRIERS.values(), *map(Starred, CARRIERS.values())]
DIVISION = [carrier for carrier in ALL if carrier.has_div]
RINGS = [EXACT_INT, POLY_INT]


def _ids(cases):
    return [carrier.name for carrier, _ in cases]


def _unit(carrier):
    """An element of the carrier, the same for every operand."""
    return {EXACT_INT: 2, POLY_INT: Poly.variable("u"), TROPICAL_RATIONAL: Fraction(2)}.get(carrier, Fraction(3, 2))


def _mismatch(call, bad, carrier):
    with pytest.raises(CarrierMismatch) as caught:
        call()
    assert str(caught.value) == f"{bad!r} is not an element of {carrier.name}"


def _missing(call, key):
    with pytest.raises(KeyError) as caught:
        call()
    assert caught.value.args == (key,)


class Recording(dict):
    """A dict that remembers the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("carrier, bad", INTERVAL_CARRIERS, ids=_ids(INTERVAL_CARRIERS))
def test_intervals_of_rejects_each_bad_or_missing_weight(carrier, bad):
    n = 4
    weighting = {v: _unit(carrier) for v in build_half_grid(n).vertices}
    for v in weighting:
        _mismatch(lambda: intervals_of({**weighting, v: bad}, n, carrier), bad, carrier)
        rest = {u: x for u, x in weighting.items() if u != v}
        _missing(lambda: intervals_of(rest, n, carrier), v)


@pytest.mark.parametrize("carrier, bad", INTERVAL_CARRIERS, ids=_ids(INTERVAL_CARRIERS))
def test_weights_from_intervals_rejects_each_bad_or_missing_value(carrier, bad):
    n = 4
    vals = {iv: _unit(carrier) for iv in intervals(n)}
    for iv in vals:
        _mismatch(lambda: weights_from_intervals({**vals, iv: bad}, n, carrier), bad, carrier)
        rest = {k: x for k, x in vals.items() if k != iv}
        _missing(lambda: weights_from_intervals(rest, n, carrier), iv)


def test_weights_from_intervals_checks_each_value_once(monkeypatch):
    # one membership test per interval value, n(n + 1)/2 of them, and none
    # of the unit that stands in for the empty interval
    n, tested = 30, []
    contains = POSITIVE_RATIONAL.contains
    monkeypatch.setattr(POSITIVE_RATIONAL, "contains", lambda a: tested.append(a) or contains(a))
    vals = {iv: Fraction(k + 2, k + 1) for k, iv in enumerate(intervals(n))}
    weights_from_intervals(vals, n, POSITIVE_RATIONAL)
    assert sorted(tested) == sorted(vals.values()) and len(tested) == 465


@pytest.mark.parametrize("carrier, bad", INTERVAL_CARRIERS, ids=_ids(INTERVAL_CARRIERS))
@pytest.mark.parametrize("a_set", [{1, 3}, {1, 4}, {1, 3, 5}, {2, 5}, {1, 2, 5}])
def test_reconstruct_rejects_each_bad_or_missing_value(carrier, bad, a_set):
    # every interval value an elimination reads; A itself has a gap here
    n = 5
    vals = {iv: _unit(carrier) for iv in intervals(n)}
    recording = Recording(vals)
    reconstruct_from_intervals(recording, a_set, n, carrier)
    assert recording.read
    for iv in set(recording.read):
        _mismatch(lambda: reconstruct_from_intervals({**vals, iv: bad}, a_set, n, carrier), bad, carrier)
        rest = {k: x for k, x in vals.items() if k != iv}
        _missing(lambda: reconstruct_from_intervals(rest, a_set, n, carrier), iv)


@pytest.mark.parametrize("carrier, bad", INTERVAL_CARRIERS, ids=_ids(INTERVAL_CARRIERS))
def test_reconstruct_checks_an_interval_it_returns(carrier, bad):
    # A = [2..3] is itself an interval: its value is read and checked, not
    # handed back unseen
    vals = {iv: _unit(carrier) for iv in intervals(3)}
    assert reconstruct_from_intervals(vals, {2, 3}, 3, carrier) == _unit(carrier)
    _mismatch(lambda: reconstruct_from_intervals({**vals, (2, 3): bad}, {2, 3}, 3, carrier), bad, carrier)


@pytest.mark.parametrize("carrier, bad", INTERVAL_CARRIERS, ids=_ids(INTERVAL_CARRIERS))
@pytest.mark.parametrize("a_set", [{1, 3}, {1, 3, 5}, {2, 4}])
def test_laurent_evaluate_rejects_each_bad_or_missing_value(carrier, bad, a_set):
    n = 5
    expr = laurent_expand(n, a_set)
    vals = {iv: _unit(carrier) for iv in intervals(n)}
    read = {iv for mono in expr.monomials for iv, deg in mono if deg}
    for iv in read:
        _mismatch(lambda: expr.evaluate({**vals, iv: bad}, carrier), bad, carrier)
        rest = {k: x for k, x in vals.items() if k != iv}
        _missing(lambda: expr.evaluate(rest, carrier), iv)


@pytest.mark.parametrize("carrier, bad", POLY_CARRIERS, ids=_ids(POLY_CARRIERS))
def test_poly_evaluate_rejects_each_bad_or_missing_value(carrier, bad):
    text = "3 + 2·x·y^2 + z^3 + x·z"
    if carrier.is_ring:
        text += " + -4·y"
    p = parse_poly(text)
    env = {var: _unit(carrier) for var in "xyz"}
    p.evaluate(env, carrier)
    for var in env:
        _mismatch(lambda: p.evaluate({**env, var: bad}, carrier), bad, carrier)
        rest = {k: x for k, x in env.items() if k != var}
        _missing(lambda: p.evaluate(rest, carrier), var)


def _sample(carrier, rng):
    """A random element of the carrier; ints and Fractions both where the
    carrier takes both, STAR one time in five under Starred."""
    if isinstance(carrier, Starred):
        return STAR if rng.random() < 0.2 else _sample(carrier.inner, rng)
    if carrier is COUNTING_NAT:
        return rng.randint(0, 9)
    if carrier in (EXACT_INT, TROPICAL_INT):
        return rng.randint(-9, 9)
    if carrier is POSITIVE_RATIONAL:
        return rng.choice((rng.randint(1, 9), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
    if carrier is TROPICAL_RATIONAL:
        return rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    # up to three terms in x and y, exponents up to 2
    sign = (-1, 1) if carrier is POLY_INT else (1,)
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = tuple(sorted((var, rng.randint(1, 2)) for var in rng.sample("xy", rng.randint(0, 2))))
        terms.append((mono, rng.choice(sign) * rng.randint(1, 3)))
    return Poly(terms)


def _typed(x):
    """A value with the type of each of its parts, for comparing answers."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(map(_typed, x))
    return x, type(x)


def _outcome(call):
    """A call's typed value, or the type and text of what it raised."""
    try:
        return "value", _typed(call())
    except Exception as exc:
        return "raises", type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interval_routines_match_the_checked_reference(data):
    # the same formulas through the checked operations give the same values,
    # of the same types, and the same errors (a division by *)
    carrier = data.draw(st.sampled_from(ALL), label="carrier")
    n = data.draw(st.integers(1, 6), label="n")
    rng = data.draw(st.randoms(use_true_random=False))
    weighting = {v: _sample(carrier, rng) for v in build_half_grid(n).vertices}
    assert _outcome(lambda: intervals_of(weighting, n, carrier)) == _outcome(
        lambda: checked_intervals_of(weighting, n, carrier)
    )
    if not carrier.has_div:
        return
    vals = {iv: _sample(carrier, rng) for iv in intervals(n)}
    assert _outcome(lambda: weights_from_intervals(vals, n, carrier)) == _outcome(
        lambda: checked_weights_from_intervals(vals, n, carrier)
    )
    a_set = data.draw(st.sets(st.integers(1, n), min_size=1), label="A")
    assert _outcome(lambda: reconstruct_from_intervals(vals, a_set, n, carrier)) == _outcome(
        lambda: checked_reconstruct(vals, a_set, carrier)
    )
    expr = laurent_expand(n, a_set)
    assert _outcome(lambda: expr.evaluate(vals, carrier)) == _outcome(
        lambda: checked_laurent_evaluate(expr, vals, carrier)
    )


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ALL),
    st.dictionaries(
        st.lists(st.tuples(st.sampled_from("xyz"), st.integers(1, 5)), max_size=3, unique_by=lambda t: t[0]).map(
            lambda mono: tuple(sorted(mono))
        ),
        st.integers(-6, 6).filter(bool),
        min_size=1,
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_poly_evaluate_matches_the_checked_reference(carrier, terms, rng):
    # powers and coefficients by doubling give the repeated products and
    # sums, and a negative coefficient off a ring raises as before
    poly = Poly(terms)
    env = {var: _sample(carrier, rng) for var in "xyz"}
    assert _outcome(lambda: poly.evaluate(env, carrier)) == _outcome(lambda: checked_poly_evaluate(poly, env, carrier))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL), st.integers(1, 20), st.randoms(use_true_random=False))
def test_doubling_is_the_repeated_operation(carrier, k, rng):
    a = _sample(carrier, rng)
    sums = reduce(carrier.add, [a] * k)
    assert _typed(carrier.nat_scale(k, a)) == _typed(sums)
    power = reduce(carrier.mul, [a] * k, carrier.one)
    assert _typed(Poly.variable("x", k).evaluate({"x": a}, carrier)) == _typed(power)
    assert carrier.nat_scale(1, a) is a


def _library_answers():
    """The answers of every routine that computes over a carrier, on each
    carrier it serves."""
    rng = random.Random("guard")
    n = 4
    g = build_half_grid(n)
    subsets = [set(a) for size in range(1, n + 1) for a in combinations(range(1, n + 1), size)]
    answers = []
    for carrier in ALL:
        weighting = {v: _sample(carrier, rng) for v in g.vertices}
        answers.append(_outcome(lambda: intervals_of(weighting, n, carrier)))
        f = FlowFunction(g, weighting, carrier)
        answers.append(_outcome(lambda: tuple(f(a) for a in subsets)))
        for rel in (family_triple(), family_quadruple()):
            answers.append(_outcome(lambda: evaluate_sides(f, rel, default_instantiation(rel, n))))
        poly = parse_poly("3 + 2·x·y^2 + z^5 + x·z" + (" + -4·y" if carrier.is_ring else ""))
        env = {var: _sample(carrier, rng) for var in "xyz"}
        answers.append(_outcome(lambda: poly.evaluate(env, carrier)))
    for carrier in DIVISION:
        vals = {iv: _sample(carrier, rng) for iv in intervals(n)}
        answers.append(_outcome(lambda: weights_from_intervals(vals, n, carrier)))
        for a in subsets:
            answers.append(_outcome(lambda: reconstruct_from_intervals(vals, a, n, carrier)))
            answers.append(_outcome(lambda: laurent_expand(n, a).evaluate(vals, carrier)))
    for carrier in RINGS:
        weighting = {v: _sample(carrier, rng) for v in g.vertices}
        matrix = lindstrom_matrix(g, weighting, carrier)
        answers.append(_typed(matrix))
        for k in range(n + 1):
            answers.append(_typed(flag_table(g, weighting, carrier, k)))
            for cols in combinations(range(1, n + 1), k):
                for rows in combinations(range(1, n + 1), k):
                    answers.append(_typed(minor(matrix, cols, rows, carrier)))
    packed = PackedPoly("xyz")
    env = {var: packed.pack(Poly.variable(var)) for var in "xyz"}
    answers.append(_typed(parse_poly("3 + 2·x·y + z + x·z").evaluate(env, packed)))
    answers.append(symbolic_check(family_triple(), build_half_grid(3)))
    answers.append(symbolic_check(family_quadruple(), g))
    report = evaluate_inequality(*parse_collection_pair("2 1\n1 2\n--\n1 3\n"))
    answers.append((report.lhs_sum, report.rhs_sum, report.p1_p2_verified))
    return answers


def test_library_calls_no_checked_operation(monkeypatch):
    # the checked public operations, refused as a tracer that wraps them by
    # name could refuse them: every routine answers as before
    want = _library_answers()

    def refuse(*args):
        raise AssertionError("a checked carrier operation was called")

    for name in ("add", "mul", "div", "neg"):
        monkeypatch.setattr(Carrier, name, refuse)
    assert _library_answers() == want
