"""Exact commutative-semiring arithmetic on plain Python values.

A :class:`Carrier` bundles the two operations (and optional division) of one
commutative semiring; the values themselves are ordinary Python objects:
``int`` for the integer carriers, ``int`` or ``Fraction`` for the rational
ones, :class:`Poly` for the polynomial carriers, and the ``STAR`` sentinel for
the adapter that models undefined values.  Two classes cover the seven
carriers: ``_Arithmetic`` (ordinary + and *) and ``_Tropical`` (max
and +).  :class:`PackedPoly` is the symbolic check's own carrier, built per
network, with dicts of packed monomials as values.  Everything is exact; no
floating point appears anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import reduce


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
    ``_add``/``_mul`` (plus ``_div``/``_neg`` where supported), which trust
    their operands.  ``add``/``mul``/``div``/``neg`` are the checked public
    operations; the library never calls them, but checks each value once
    where it enters and then computes with the raw operations.
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
        return _repeat(self._add, k, a)

    def product(self, values: Iterable):
        values = tuple(values)
        self.check(*values)  # every factor once, a single one too
        if values:
            return reduce(self._mul, values)
        if not self.has_one:
            raise SemiringError(f"empty product is undefined in {self.name}")
        return self.one

    def parse(self, text: str):
        try:
            value = self._parse(text)
        except ZeroDivisionError:
            raise SemiringError(f"{text!r} has a zero denominator") from None
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


def _repeat(op, k: int, a):
    """a op a op ... op a with k >= 1 copies of a, by repeated doubling: at
    most 2 log2(k) calls of op, and a itself when k = 1."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else op(result, a)
        k >>= 1
        if not k:
            return result
        a = op(a, a)


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

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                merged[mono] = merged.get(mono, 0) + coeff
        self.terms = {m: c for m, c in merged.items() if c}

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> "Poly":
        if exp < 1:
            return cls.const(1)
        return cls({((name, exp),): 1})

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls({(): c} if c else {})

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
                base = env[var]
                carrier.check(base)
                value = carrier._mul(value, _repeat(carrier._mul, exp, base))
            term = _repeat(carrier._add, abs(coeff), value)
            if coeff < 0:
                if not carrier.is_ring:
                    raise SemiringError(f"{carrier.name} has no additive inverses")
                term = carrier._neg(term)
            total = term if total is None else carrier._add(total, term)
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
            if part.startswith(("+", "-")) or any(c.isspace() for c in part):
                raise SemiringError(f"malformed factor {part!r} in term {chunk!r}")
            name, caret, e = part.partition("^")
            if not name:
                raise SemiringError(f"empty variable name in term {chunk!r}")
            if caret and not e:
                raise SemiringError(f"empty exponent in term {chunk!r}")
            try:
                exp = int(e) if e else 1
            except ValueError:
                raise SemiringError(f"exponent {e!r} is not an integer in term {chunk!r}") from None
            if exp < 1:
                raise SemiringError(f"exponent below 1 in term {part!r}")
            exps[name] = exps.get(name, 0) + exp
        terms.append((tuple(sorted(exps.items())), coeff))
    return Poly(terms)


class PackedPoly(Carrier):
    """Polynomials with natural coefficients in a fixed list of variables,
    with packed exponent vectors (Monagan and Pearce, CASC 2007): the
    carrier of :func:`sqflows.relations.symbolic_check`, built per call from
    the network's vertex order.

    A value is a dict mapping a packed monomial to a positive ``int``
    coefficient.  The monomial is an ``int`` holding the exponent of
    variable k in the two bits from bit ``2 * k`` on, so variable k alone
    is ``1 << (2 * k)``.  Multiplying two monomials is then one integer
    addition, and equal dicts are equal polynomials, since natural
    coefficients never cancel.  The zero polynomial ``{}`` is the value of
    an empty flow sum.

    Two bits hold every exponent of a symbolic check.  By the charge rule
    that the compiled network form checks, one position charges each weight,
    so f(I) is multilinear, and each summand of a side multiplies two
    f-values.  Products are not checked: an exponent of 4 would carry into
    the next variable's field.  :meth:`pack` rejects one on input.
    """

    bits = 2

    def __init__(self, names: Iterable[str]):
        self.names = tuple(dict.fromkeys(names))
        self._index = {v: k for k, v in enumerate(self.names)}
        limit = 1 << (self.bits * len(self.names))
        super().__init__(
            f"packed({len(self.names)} variables)",
            lambda a: isinstance(a, dict)
            and all(_is_int(m) and 0 <= m < limit and _is_int(c) and c > 0 for m, c in a.items()),
            lambda text: self.pack(parse_poly(text)),
            lambda a: render_poly(self.unpack(a)),
            zero={},
            one={0: 1},
        )

    def pack(self, p: Poly) -> dict:
        """The packed value of a :class:`Poly` in these variables."""
        out = {}
        for mono, coeff in p.terms.items():
            key = 0
            for var, exp in mono:
                if var not in self._index or exp >> self.bits:
                    raise SemiringError(f"{var}^{exp} has no packed form in {self.name}")
                key += exp << (self.bits * self._index[var])
            out[key] = coeff
        self.check(out)
        return out

    def unpack(self, a: dict) -> Poly:
        """The :class:`Poly` a packed value stands for."""
        field = (1 << self.bits) - 1
        terms = []
        for mono, coeff in a.items():
            exps = []
            k = 0
            while mono:
                if mono & field:
                    exps.append((self.names[k], mono & field))
                mono >>= self.bits
                k += 1
            terms.append((tuple(sorted(exps)), coeff))
        return Poly(terms)

    def _add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for mono, coeff in b.items():
            out[mono] = out.get(mono, 0) + coeff
        return out

    def _mul(self, a, b):
        if len(a) == 1:
            a, b = b, a
        if len(b) == 1:
            # distinct monomials stay distinct under one shift, so nothing merges
            ((m2, c2),) = b.items()
            return {m1 + m2: c1 * c2 for m1, c1 in a.items()}
        out = {}
        for m2, c2 in b.items():
            for m1, c1 in a.items():
                mono = m1 + m2
                out[mono] = out.get(mono, 0) + c1 * c2
        return out


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
    "polynat", lambda a: isinstance(a, Poly) and all(c > 0 for c in a.terms.values()),
    parse_poly, render_poly, zero=Poly(), one=Poly.const(1),
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
