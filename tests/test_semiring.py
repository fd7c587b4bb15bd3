import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        return poly if (carrier is POLY_INT or not poly.is_zero) else Poly.const(1)
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


def test_carrier_mismatch():
    with pytest.raises(CarrierMismatch):
        COUNTING_NAT.add(-1, 2)
    with pytest.raises(CarrierMismatch):
        POSITIVE_RATIONAL.mul(Fraction(1, 2), Fraction(-1, 2))
    with pytest.raises(CarrierMismatch):
        POLY_NAT.add(Poly.variable("x"), -Poly.variable("x"))
    with pytest.raises(CarrierMismatch):
        TROPICAL_INT.add(1, Fraction(1, 2))


def test_division_unsupported():
    with pytest.raises(SemiringError):
        COUNTING_NAT.div(4, 2)
    with pytest.raises(SemiringError):
        POLY_NAT.div(Poly.variable("x"), Poly.variable("x"))


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
