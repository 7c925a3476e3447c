"""Rational functions over F_p: the base fields k = F_p(t1..td).

A RatFunc is a fraction of MultiPoly values in canonical form: the
denominator is nonzero and monic under the fixed (grevlex) order, and
numerator and denominator are coprime.

The constructor normalizes any fraction by a gcd.  Arithmetic avoids it
where the result is canonical already:

- a product of polynomials, whose canonical denominators are 1, and a
  sum or difference over an equal constant denominator;
- a general product a/b * c/d, which divides out gcd(a, d) and gcd(c, b)
  instead of the gcd of a*c and b*d (Henrici, J. ACM 3, 1956): the reduced
  factors are pairwise coprime, and quotients of monic polynomials stay
  monic, so the product is canonical;
- a sum over different denominators, which takes gcd(b, d) and then only
  the gcd of the new numerator with it (Henrici's sum, see `_sum`);
- a power, since powers of coprime polynomials stay coprime;
- an inverse, which only rescales b/a to make a monic; a quotient is a
  product with an inverse.
"""

from __future__ import annotations

from operator import add, sub

from ..errors import ArityMismatch, DivByZero
from .poly import (
    GREVLEX,
    MultiPoly,
    PrimeField,
    divexact,
    poly_gcd,
)


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, _normalized: bool = False):
        if _normalized:
            self.num = num
            self.den = den
            return
        if den.is_zero:
            raise DivByZero("rational function with zero denominator")
        if num.is_zero:
            self.num = num
            self.den = MultiPoly.const(num.dom, num.arity, num.dom.one)
            return
        self.num, self.den = _monic_den(*_cancel(num, den))

    # -- constructors --------------------------------------------------

    @classmethod
    def from_poly(cls, num: MultiPoly) -> "RatFunc":
        return cls(num, MultiPoly.const(num.dom, num.arity, num.dom.one), _normalized=True)

    @classmethod
    def from_int(cls, dom: PrimeField, arity: int, n: int) -> "RatFunc":
        return cls.from_poly(MultiPoly.from_int(dom, arity, n))

    # -- predicates ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.num == self.den

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_constant

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def _check(self, other: "RatFunc"):
        if self.num.arity != other.num.arity or self.num.dom != other.num.dom:
            raise ArityMismatch("rational functions over different base fields")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return _sum(self, other, add)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        return _sum(self, other, sub)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.is_zero or other.is_zero:
            return RatFunc.from_poly(MultiPoly.zero(self.num.dom, self.num.arity))
        if self.is_polynomial and other.is_polynomial:
            return RatFunc(self.num * other.num, self.den, _normalized=True)
        num1, den2 = _cancel(self.num, other.den)
        num2, den1 = _cancel(other.num, self.den)
        return RatFunc(num1 * num2, den1 * den2, _normalized=True)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero:
            raise DivByZero("division by zero rational function")
        return self * other.inv()

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise DivByZero("inverse of zero")
        return RatFunc(*_monic_den(self.den, self.num), _normalized=True)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc(self.num**n, self.den**n, _normalized=True)

    def derivative(self, var: int) -> "RatFunc":
        if self.is_polynomial:
            return RatFunc(self.num.derivative(var), self.den, _normalized=True)
        return RatFunc(
            self.num.derivative(var) * self.den - self.num * self.den.derivative(var),
            self.den * self.den,
        )

    def map_exponents(self, fn) -> "RatFunc":
        """Monomial substitution applied to numerator and denominator."""
        return RatFunc(self.num.map_exponents(fn), self.den.map_exponents(fn))

    def extend_arity(self, arity: int) -> "RatFunc":
        return RatFunc(self.num.extend_arity(arity), self.den.extend_arity(arity), _normalized=True)

    def __repr__(self):
        if self.is_polynomial and self.den.constant_value() == 1:
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"


def _sum(x: RatFunc, y: RatFunc, op) -> RatFunc:
    """op(x, y) for op = operator.add or operator.sub, by Henrici's sum.

    For x = a/b and y = c/d with g = gcd(b, d), t = op(a*(d/g), c*(b/g)) is
    coprime to b/g and to d/g, so only h = gcd(t, g) cancels.  t is nonzero
    when b != d, since canonical forms of x and -y then differ.
    """
    a, b, c, d = x.num, x.den, y.num, y.den
    if b == d:
        return RatFunc(op(a, c), b, _normalized=b.is_constant)
    if b.is_constant or d.is_constant or (g := poly_gcd(b, d)).is_constant:
        return RatFunc(op(a * d, c * b), b * d, _normalized=True)
    b, d = divexact(b, g), divexact(d, g)
    t, g = _cancel(op(a * d, c * b), g)
    return RatFunc(t, b * d * g, _normalized=True)


def _monic_den(num: MultiPoly, den: MultiPoly) -> tuple:
    """num/den rescaled so that den is monic."""
    _, lc = den.leading(GREVLEX)
    if den.dom.is_one(lc):
        return num, den
    c = den.dom.inv(lc)
    return num.scale(c), den.scale(c)


def _cancel(a: MultiPoly, b: MultiPoly) -> tuple:
    """(a/g, b/g) for g = gcd(a, b), both nonzero; b/g is monic when b is."""
    if a.is_constant or b.is_constant:
        return a, b
    g = poly_gcd(a, b)
    if g.is_constant:
        return a, b
    return divexact(a, g), divexact(b, g)


class FractionField:
    """Domain adapter whose elements are RatFunc values over F_p(varnames)."""

    __slots__ = ("prime_field", "varnames", "zero", "one")
    is_prime_field = False

    def __init__(self, p: int, varnames: tuple):
        self.prime_field = PrimeField(p)
        self.varnames = tuple(varnames)
        self.zero = RatFunc.from_poly(MultiPoly.zero(self.prime_field, len(varnames)))
        self.one = RatFunc.from_int(self.prime_field, len(varnames), 1)

    @property
    def p(self) -> int:
        return self.prime_field.p

    @property
    def arity(self) -> int:
        return len(self.varnames)

    def from_int(self, n: int) -> RatFunc:
        return RatFunc.from_int(self.prime_field, self.arity, n)

    def gen(self, index: int) -> RatFunc:
        return RatFunc.from_poly(MultiPoly.gen(self.prime_field, self.arity, index))

    def gen_named(self, name: str) -> RatFunc:
        return self.gen(self.varnames.index(name))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def inv(self, a):
        return a.inv()

    def is_zero(self, a) -> bool:
        return a.is_zero

    def is_one(self, a) -> bool:
        return a.is_one

    def coeff_str(self, a) -> str:
        from .text import render_ratfunc

        return render_ratfunc(a, self.varnames)

    def __eq__(self, other):
        return (
            isinstance(other, FractionField)
            and other.p == self.p
            and other.varnames == self.varnames
        )

    def __hash__(self):
        return hash(("FractionField", self.p, self.varnames))

    def __repr__(self):
        return f"F_{self.p}({','.join(self.varnames)})"
