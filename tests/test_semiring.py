import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqflows.flows import enumerate_flag_flows, flow_weight
from sqflows.laurent import intervals_of
from sqflows.network import build_half_grid
from sqflows.semiring import (
    CARRIERS,
    COUNTING_NAT,
    EXACT_INT,
    POLY_INT,
    POLY_NAT,
    POSITIVE_RATIONAL,
    STAR,
    TROPICAL_INT,
    TROPICAL_RATIONAL,
    CarrierMismatch,
    PackedPoly,
    Poly,
    SemiringError,
    Starred,
    parse_poly,
    render_poly,
)


def random_element(carrier, rng):
    if carrier is COUNTING_NAT:
        return rng.randint(0, 20)
    if carrier is EXACT_INT or carrier is TROPICAL_INT:
        return rng.randint(-20, 20)
    if carrier is POSITIVE_RATIONAL:
        return Fraction(rng.randint(1, 12), rng.randint(1, 12))
    if carrier is TROPICAL_RATIONAL:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))
    if carrier in (POLY_NAT, POLY_INT):
        poly = Poly()
        for _ in range(rng.randint(0 if carrier is POLY_INT else 1, 3)):
            coeff = rng.randint(1, 4)
            if carrier is POLY_INT and rng.random() < 0.4:
                coeff = -coeff
            mono = Poly.const(coeff)
            for var in rng.sample("xyz", rng.randint(0, 2)):
                mono = mono * Poly.variable(var, rng.randint(1, 2))
            poly = poly + mono
        return poly if (carrier is POLY_INT or poly.terms) else Poly.const(1)
    raise AssertionError(carrier)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_semiring_laws_random_triples(name):
    carrier = CARRIERS[name]
    rng = random.Random(f"laws:{name}")
    for _ in range(1000):
        a, b, c = (random_element(carrier, rng) for _ in range(3))
        assert carrier.add(a, b) == carrier.add(b, a)
        assert carrier.mul(a, b) == carrier.mul(b, a)
        assert carrier.add(carrier.add(a, b), c) == carrier.add(a, carrier.add(b, c))
        assert carrier.mul(carrier.mul(a, b), c) == carrier.mul(a, carrier.mul(b, c))
        lhs = carrier.mul(a, carrier.add(b, c))
        rhs = carrier.add(carrier.mul(a, b), carrier.mul(a, c))
        assert lhs == rhs


@pytest.mark.parametrize("name", ["posrat", "tropint", "troprat"])
def test_division_laws(name):
    carrier = CARRIERS[name]
    rng = random.Random(f"div:{name}")
    for _ in range(300):
        a = random_element(carrier, rng)
        b = random_element(carrier, rng)
        assert carrier.div(a, a) == carrier.one
        assert carrier.mul(carrier.div(a, b), b) == a


def test_identity_elements():
    for carrier in CARRIERS.values():
        rng = random.Random(f"ident:{carrier.name}")
        a = random_element(carrier, rng)
        if carrier.has_one:
            assert carrier.mul(carrier.one, a) == a
        if carrier.has_zero:
            assert carrier.add(carrier.zero, a) == a


def test_tropical_idempotent_addition():
    rng = random.Random("idem")
    for carrier in (TROPICAL_INT, TROPICAL_RATIONAL):
        for _ in range(100):
            a = random_element(carrier, rng)
            assert carrier.add(a, a) == a


def test_spec_examples():
    assert TROPICAL_INT.add(3, 5) == 5
    assert TROPICAL_INT.mul(3, 5) == 8
    assert TROPICAL_INT.div(8, 5) == 3
    assert POSITIVE_RATIONAL.div(6, 4) == Fraction(3, 2)
    x = Poly.variable("x")
    y = Poly.variable("y")
    assert POLY_NAT.add(x, x) == Poly.const(2) * x
    assert POLY_NAT.mul(x, POLY_NAT.add(x, y)) == x * x + x * y
    assert COUNTING_NAT.nat_scale(4, 2) == 8
    assert TROPICAL_INT.nat_scale(4, 2) == 2
    assert POLY_NAT.nat_scale(2, x * y) == Poly.const(2) * x * y


def test_nat_scale_zero_needs_identity():
    assert COUNTING_NAT.nat_scale(0, 5) == 0
    with pytest.raises(SemiringError):
        POSITIVE_RATIONAL.nat_scale(0, Fraction(1))
    with pytest.raises(SemiringError):
        TROPICAL_INT.nat_scale(0, 3)
    with pytest.raises(SemiringError, match=r"^nat_scale needs an integer k >= 0$"):
        COUNTING_NAT.nat_scale(-1, 5)


def test_repeated_sums_and_powers_take_logarithmic_steps():
    # k-fold sums and k-th powers by doubling: k = 10**18 answers at once
    assert EXACT_INT.nat_scale(10**18, 3) == 3 * 10**18
    assert TROPICAL_INT.nat_scale(10**18, 3) == 3
    assert Poly.variable("x", 10**18).evaluate({"x": 3}, TROPICAL_INT) == 3 * 10**18
    p = parse_poly("1000000000·x^1000000000 + 3000000·x·y")
    assert p.evaluate({"x": 2, "y": 5}, TROPICAL_INT) == 2 * 10**9
    assert parse_poly("5000000·x + 3000000·x·y").evaluate({"x": 2, "y": 3}, EXACT_INT) == 28 * 10**6


def test_poly_with_int_operands():
    x = Poly.variable("x")
    assert x + 2 == Poly.const(2) + x
    assert render_poly(x + 2) == "2 + x"
    assert 3 * x == Poly.const(3) * x
    assert render_poly(3 * x) == "3·x"


def test_poly_evaluate_edge_cases():
    # the zero polynomial is the carrier's zero, which posrat lacks
    assert Poly().evaluate({}, EXACT_INT) == 0
    with pytest.raises(SemiringError, match=r"^zero polynomial has no image in posrat$"):
        Poly().evaluate({}, POSITIVE_RATIONAL)
    # a negative coefficient is a negated scale
    assert (Poly.const(-3) * Poly.variable("x") + 1).evaluate({"x": 2}, EXACT_INT) == -5


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        COUNTING_NAT.add(-1, 2)
    with pytest.raises(CarrierMismatch):
        POSITIVE_RATIONAL.mul(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(CarrierMismatch):
        POLY_NAT.add(Poly.variable("x"), -Poly.variable("x"))
    with pytest.raises(CarrierMismatch):
        TROPICAL_INT.add(1, Fraction(1, 2))


def test_product_checks_every_factor():
    # a one-factor product is checked too, so a one-vertex flow and a
    # one-vertex interval cannot pass a foreign weight through
    for values in (["x"], [2, "x"], ["x", 2, 3]):
        with pytest.raises(CarrierMismatch, match="^'x' is not an element of int$"):
            EXACT_INT.product(values)
    assert EXACT_INT.product(iter([2, 3, 5])) == 30 and EXACT_INT.product([]) == 1
    g = build_half_grid(2)
    (flow,) = enumerate_flag_flows(g, {1})
    with pytest.raises(CarrierMismatch, match="^'x' is not an element of int$"):
        flow_weight(g, {"1,1": "x"}, flow, EXACT_INT)
    with pytest.raises(CarrierMismatch, match=r"^Fraction\(-1, 1\) is not an element of posrat$"):
        intervals_of({"1,1": Fraction(-1)}, 1, POSITIVE_RATIONAL)


def test_division_unsupported():
    with pytest.raises(SemiringError):
        COUNTING_NAT.div(4, 2)
    with pytest.raises(SemiringError):
        POLY_NAT.div(Poly.variable("x"), Poly.variable("x"))
    with pytest.raises(SemiringError, match=r"^nat has no additive inverses$"):
        COUNTING_NAT.neg(1)


def test_starred_laws():
    for name in ("posrat", "tropint", "polynat"):
        carrier = Starred(CARRIERS[name])
        rng = random.Random(f"star:{name}")
        elements = [STAR] + [random_element(carrier.inner, rng) for _ in range(25)]
        for a in elements:
            assert carrier.add(STAR, a) == a
            assert carrier.add(a, STAR) == a
            assert carrier.mul(STAR, a) is STAR
            assert carrier.mul(a, STAR) is STAR
        for a in elements:
            for b in elements:
                assert carrier.add(a, b) == carrier.add(b, a)


def test_starred_division():
    carrier = Starred(POSITIVE_RATIONAL)
    assert carrier.div(STAR, Fraction(2)) is STAR
    assert carrier.div(Fraction(6), Fraction(4)) == Fraction(3, 2)
    with pytest.raises(SemiringError):
        carrier.div(Fraction(2), STAR)


def test_starred_spec_examples():
    carrier = Starred(TROPICAL_INT)
    assert carrier.add(STAR, 7) == 7
    assert carrier.mul(STAR, 7) is STAR


def test_evaluation_homomorphism():
    rng = random.Random("hom")
    for _ in range(100):
        p = random_element(POLY_NAT, rng)
        q = random_element(POLY_NAT, rng)
        env = {v: rng.randint(0, 6) for v in "xyz"}
        direct = (p + q).evaluate(env, COUNTING_NAT)
        split = COUNTING_NAT.add(p.evaluate(env, COUNTING_NAT), q.evaluate(env, COUNTING_NAT))
        assert direct == split
        direct = (p * q).evaluate(env, COUNTING_NAT)
        split = COUNTING_NAT.mul(p.evaluate(env, COUNTING_NAT), q.evaluate(env, COUNTING_NAT))
        assert direct == split


@given(st.fractions(min_value=Fraction(1, 100), max_value=100),
       st.fractions(min_value=Fraction(1, 100), max_value=100),
       st.fractions(min_value=Fraction(1, 100), max_value=100))
def test_positive_rational_distributes(a, b, c):
    lhs = POSITIVE_RATIONAL.mul(a, POSITIVE_RATIONAL.add(b, c))
    rhs = POSITIVE_RATIONAL.add(POSITIVE_RATIONAL.mul(a, b), POSITIVE_RATIONAL.mul(a, c))
    assert lhs == rhs


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_tropical_distributes(a, b, c):
    lhs = TROPICAL_INT.mul(a, TROPICAL_INT.add(b, c))
    rhs = TROPICAL_INT.add(TROPICAL_INT.mul(a, b), TROPICAL_INT.mul(a, c))
    assert lhs == rhs


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_render_parse_roundtrip(name):
    carrier = CARRIERS[name]
    rng = random.Random(f"render:{name}")
    for _ in range(200):
        a = random_element(carrier, rng)
        text = carrier.render(a)
        assert carrier.parse(text) == a


def test_poly_render_format():
    x = Poly.variable("x")
    y = Poly.variable("y")
    p = Poly.const(3) * x * y * y + x + Poly.const(5)
    text = render_poly(p)
    assert text == "5 + x + 3·x·y^2"
    assert parse_poly(text) == p
    assert render_poly(Poly()) == "0"
    assert parse_poly("0") == Poly()


def test_parse_poly_rejects_exponent_below_one():
    # exponents are at least 1 in the canonical form, so no term may carry
    # a^0 or a negative power
    for text, term in (("a^0", "a^0"), ("2·a^-1", "a^-1"), ("b + a^0·c", "a^0")):
        with pytest.raises(SemiringError, match=term.replace("^", r"\^")):
            parse_poly(text)
    assert parse_poly("a^1·b") == Poly.variable("a") * Poly.variable("b")
    # a term with an empty variable name or an empty exponent is malformed
    for text, message in (
        ("", "empty variable name in term ''"),
        ("·", "empty variable name in term '·'"),
        ("2·", "empty variable name in term '2·'"),
        ("^2", "empty variable name in term '^2'"),
        ("x^", "empty exponent in term 'x^'"),
        # a signed factor that is no integer, a factor with whitespace inside
        # and an exponent that is no integer are malformed too
        ("-x", "malformed factor '-x' in term '-x'"),
        ("+x", "malformed factor '+x' in term '+x'"),
        ("a·-b^2", "malformed factor '-b^2' in term 'a·-b^2'"),
        ("2 +", "malformed factor '2 +' in term '2 +'"),
        ("x + 2 +", "malformed factor '2 +' in term '2 +'"),
        ("3·x y", "malformed factor 'x y' in term '3·x y'"),
        ("x^a", "exponent 'a' is not an integer in term 'x^a'"),
        ("2·x^1.5", "exponent '1.5' is not an integer in term '2·x^1.5'"),
    ):
        with pytest.raises(SemiringError) as info:
            parse_poly(text)
        assert str(info.value) == message


def test_starred_render_roundtrip():
    carrier = Starred(TROPICAL_RATIONAL)
    assert carrier.render(STAR) == "*"
    assert carrier.parse("*") is STAR
    assert carrier.parse("3/2") == Fraction(3, 2)


# name, zero, one, has_zero, has_one, has_div, is_ring; identities as (value, type)
CONTRACT = {
    "nat": ((0, int), (1, int), True, True, False, False),
    "int": ((0, int), (1, int), True, True, False, True),
    "posrat": (None, (Fraction(1), Fraction), False, True, True, False),
    "tropint": (None, (0, int), False, True, True, False),
    "troprat": (None, (Fraction(0), Fraction), False, True, True, False),
    "polynat": ((Poly(), Poly), (Poly.const(1), Poly), True, True, False, False),
    "polyint": ((Poly(), Poly), (Poly.const(1), Poly), True, True, False, True),
}


def _identity(value):
    return None if value is None else (value, type(value))


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_carrier_contract(name):
    zero, one, has_zero, has_one, has_div, is_ring = CONTRACT[name]
    carrier = CARRIERS[name]
    assert carrier.name == name
    assert (_identity(carrier.zero), _identity(carrier.one)) == (zero, one)
    assert (carrier.has_zero, carrier.has_one, carrier.has_div, carrier.is_ring) == (
        has_zero, has_one, has_div, is_ring
    )
    starred = Starred(carrier)
    assert starred.name == f"starred({name})"
    assert (_identity(starred.zero), _identity(starred.one)) == (None, one)
    assert (starred.has_zero, starred.has_one, starred.has_div, starred.is_ring) == (
        False, has_one, has_div, False
    )


def test_carrier_contract_operand_types():
    with pytest.raises(CarrierMismatch):
        COUNTING_NAT.add(True, 1)
    for a, b in ((2, Fraction(2)), (Fraction(2), 2)):
        assert type(TROPICAL_RATIONAL.add(a, b)) is Fraction
    for value in (TROPICAL_INT.add(2, 3), TROPICAL_INT.mul(2, 3), TROPICAL_INT.div(2, 3)):
        assert type(value) is int


VARIABLES = ("x", "y", "z", "w")
multilinear = st.dictionaries(
    st.sets(st.sampled_from(VARIABLES)).map(lambda vs: tuple((v, 1) for v in sorted(vs))),
    st.integers(1, 5),
    min_size=1,
    max_size=6,
).map(Poly)


@given(multilinear, multilinear)
def test_packed_poly_agrees_with_poly(a, b):
    # a product of three multilinear polynomials has exponents up to 3,
    # which still fit the two bits a packed variable has
    packed = PackedPoly(VARIABLES)
    pa, pb = packed.pack(a), packed.pack(b)
    assert packed.unpack(pa) == a
    assert packed.unpack(packed.add(pa, pb)) == a + b
    assert packed.unpack(packed.mul(pa, pb)) == a * b
    assert packed.unpack(packed.mul(pa, packed.mul(pb, pb))) == a * b * b
    assert packed.render(pa) == render_poly(a)
    assert packed.parse(render_poly(a)) == pa


def test_packed_poly_membership_and_bounds():
    packed = PackedPoly(["x", "y", "x"])
    assert packed.names == ("x", "y") and packed.bits == 2
    assert packed.pack(parse_poly("2·x^3·y + 1")) == {0b0111: 2, 0: 1}
    assert packed.one == {0: 1} and packed.zero == {}
    for bad in ({0: 0}, {0: -1}, {-1: 1}, {16: 1}, {True: 1}, {0: True}, {0: 1.0}, Poly.const(1), [(0, 1)]):
        assert not packed.contains(bad), bad
    with pytest.raises(CarrierMismatch):
        packed.mul({0: 1}, {16: 1})
    for text in ("x^4", "v", "-1"):
        with pytest.raises(SemiringError):
            packed.parse(text)
