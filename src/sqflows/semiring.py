"""Exact commutative-semiring arithmetic on plain Python values.

A :class:`Carrier` bundles the two operations (and optional division) of one
commutative semiring; the values themselves are ordinary Python objects:
``int`` for the integer carriers, ``int`` or ``Fraction`` for the rational
ones, :class:`Poly` for the polynomial carriers, and the ``STAR`` sentinel for
the adapter that models undefined values.  Two classes cover the seven
carriers: ``_Arithmetic`` (ordinary + and *) and ``_Tropical`` (max
and +).  Everything is exact; no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


class SemiringError(ValueError):
    """An operation the carrier cannot perform (missing division, bad k, ...)."""


class CarrierMismatch(SemiringError):
    """An operand is not an element of the carrier."""


class _Star:
    """Extra neutral element: neutral for addition, absorbing for multiplication."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "*"


STAR = _Star()


def _is_int(a) -> bool:
    return isinstance(a, int) and not isinstance(a, bool)


def _is_rational(a) -> bool:
    return isinstance(a, (int, Fraction)) and not isinstance(a, bool)


class Carrier:
    """Operations of one commutative semiring.

    An instance is described by its name, membership test, text parser and
    renderer, its identities (None where the semiring has none) and whether
    it has additive inverses or division.  Subclasses provide the raw
    ``_add``/``_mul`` (plus ``_div``/``_neg`` where supported); this base
    class layers the operand checking and the derived operations on top.
    """

    def __init__(self, name, contains, parse, render=str, *, zero=None, one=None,
                 is_ring=False, has_div=False):
        self.name = name
        self.contains = contains
        self._parse = parse
        self.render = render
        self.zero = zero
        self.one = one
        self.is_ring = is_ring
        self.has_div = has_div

    @property
    def has_zero(self) -> bool:
        return self.zero is not None

    @property
    def has_one(self) -> bool:
        return self.one is not None

    def check(self, *values) -> None:
        for a in values:
            if not self.contains(a):
                raise CarrierMismatch(f"{a!r} is not an element of {self.name}")

    def add(self, a, b):
        self.check(a, b)
        return self._add(a, b)

    def mul(self, a, b):
        self.check(a, b)
        return self._mul(a, b)

    def div(self, a, b):
        if not self.has_div:
            raise SemiringError(f"{self.name} has no division")
        self.check(a, b)
        return self._div(a, b)

    def neg(self, a):
        if not self.is_ring:
            raise SemiringError(f"{self.name} has no additive inverses")
        self.check(a)
        return self._neg(a)

    def nat_scale(self, k: int, a):
        """The k-fold sum a + ... + a; k = 0 needs an additive identity."""
        if not isinstance(k, int) or k < 0:
            raise SemiringError("nat_scale needs an integer k >= 0")
        if k == 0:
            if not self.has_zero:
                raise SemiringError(f"nat_scale(0, _) is undefined in {self.name}")
            return self.zero
        self.check(a)
        acc = a
        for _ in range(k - 1):
            acc = self._add(acc, a)
        return acc

    def product(self, values: Iterable):
        acc = None
        for v in values:
            acc = v if acc is None else self.mul(acc, v)
        if acc is None:
            if not self.has_one:
                raise SemiringError(f"empty product is undefined in {self.name}")
            return self.one
        return acc

    def parse(self, text: str):
        value = self._parse(text)
        self.check(value)
        return value

    def __repr__(self):
        return self.name


class _Arithmetic(Carrier):
    """Values under the ordinary + and * (and - in a ring, / with division):
    naturals, integers, positive rationals and polynomials."""

    def _add(self, a, b):
        return a + b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _div(self, a, b):
        return Fraction(a) / b


class _Tropical(Carrier):
    """Values under max and +; division is subtraction.  Idempotent addition,
    no additive identity."""

    def __init__(self, name, contains, parse, one):
        super().__init__(name, contains, parse, one=one, has_div=True)
        # max of equal values returns its first argument, so without this a
        # tie between 2 and Fraction(2) would give a result whose type
        # depends on the order of summation.
        self._normal = type(one)

    def _add(self, a, b):
        return self._normal(a if a >= b else b)

    def _mul(self, a, b):
        return a + b

    def _div(self, a, b):
        return a - b


def _mono_mul(m1, m2):
    exps = dict(m1)
    for var, e in m2:
        exps[var] = exps.get(var, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Sparse multivariate polynomial with integer coefficients.

    A monomial is a tuple of (variable, exponent) pairs sorted by variable
    name, exponents >= 1; the constant monomial is the empty tuple.  Terms
    with zero coefficient are dropped, so equality is exact monomial-multiset
    equality of the canonical form.
    """

    __slots__ = ("terms", "nonneg")

    def __init__(self, terms=None):
        merged = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                merged[mono] = merged.get(mono, 0) + coeff
        self.terms = {m: c for m, c in merged.items() if c}
        self.nonneg = all(c > 0 for c in self.terms.values())

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> "Poly":
        if exp < 1:
            return cls.const(1)
        return cls({((name, exp),): 1})

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({(): c} if c else {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Poly(out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            other = Poly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"

    def evaluate(self, env, carrier: Carrier):
        """Substitute carrier values for the variables and reduce.

        The result is the image of the polynomial under the evaluation
        homomorphism; negative coefficients need a ring carrier.
        """
        if not self.terms:
            if not carrier.has_zero:
                raise SemiringError(f"zero polynomial has no image in {carrier.name}")
            return carrier.zero
        total = None
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            value = carrier.one
            for var, exp in mono:
                for _ in range(exp):
                    value = carrier.mul(value, env[var])
            if coeff > 0:
                term = carrier.nat_scale(coeff, value)
            else:
                term = carrier.neg(carrier.nat_scale(-coeff, value))
            total = term if total is None else carrier.add(total, term)
        return total


def render_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    chunks = []
    for mono in sorted(p.terms):
        coeff = p.terms[mono]
        parts = []
        if coeff != 1 or not mono:
            parts.append(str(coeff))
        for var, exp in mono:
            parts.append(var if exp == 1 else f"{var}^{exp}")
        chunks.append("·".join(parts))
    return " + ".join(chunks)


def parse_poly(text: str) -> Poly:
    text = text.strip()
    if text == "0":
        return Poly()
    terms = []
    for chunk in text.split(" + "):
        coeff = 1
        exps: dict[str, int] = {}
        for part in chunk.split("·"):
            part = part.strip()
            try:
                coeff *= int(part)
                continue
            except ValueError:
                pass
            name, _, e = part.partition("^")
            exps[name] = exps.get(name, 0) + (int(e) if e else 1)
        terms.append((tuple(sorted(exps.items())), coeff))
    return Poly(terms)


class Starred(Carrier):
    """Adapter adding the extra neutral element ``STAR`` to a carrier.

    STAR + a = a and STAR * a = STAR for every a (including STAR itself);
    it stands for the undefined value of an empty flow sum.
    """

    def __init__(self, inner: Carrier):
        super().__init__(
            f"starred({inner.name})",
            lambda a: a is STAR or inner.contains(a),
            lambda text: STAR if text.strip() == "*" else inner.parse(text),
            lambda a: "*" if a is STAR else inner.render(a),
            one=inner.one,
            has_div=inner.has_div,
        )
        self.inner = inner

    def _add(self, a, b):
        if a is STAR:
            return b
        if b is STAR:
            return a
        return self.inner._add(a, b)

    def _mul(self, a, b):
        if a is STAR or b is STAR:
            return STAR
        return self.inner._mul(a, b)

    def _div(self, a, b):
        if b is STAR:
            raise SemiringError("division by *")
        if a is STAR:
            return STAR
        return self.inner._div(a, b)


COUNTING_NAT = _Arithmetic("nat", lambda a: _is_int(a) and a >= 0, int, zero=0, one=1)
EXACT_INT = _Arithmetic("int", _is_int, int, zero=0, one=1, is_ring=True)
POSITIVE_RATIONAL = _Arithmetic(
    "posrat", lambda a: _is_rational(a) and a > 0, Fraction, one=Fraction(1), has_div=True
)
TROPICAL_INT = _Tropical("tropint", _is_int, int, one=0)
TROPICAL_RATIONAL = _Tropical("troprat", _is_rational, Fraction, one=Fraction(0))
# Polynomials with natural coefficients are the universal verification
# carrier: identities that hold there hold under every substitution into
# every commutative semiring.
POLY_NAT = _Arithmetic(
    "polynat", lambda a: isinstance(a, Poly) and a.nonneg, parse_poly, render_poly,
    zero=Poly(), one=Poly.const(1),
)
POLY_INT = _Arithmetic(
    "polyint", lambda a: isinstance(a, Poly), parse_poly, render_poly,
    zero=Poly(), one=Poly.const(1), is_ring=True,
)

CARRIERS = {
    c.name: c
    for c in (
        COUNTING_NAT,
        EXACT_INT,
        POSITIVE_RATIONAL,
        TROPICAL_INT,
        TROPICAL_RATIONAL,
        POLY_NAT,
        POLY_INT,
    )
}
