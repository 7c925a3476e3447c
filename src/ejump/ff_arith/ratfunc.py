"""Rational functions over F_p: the base fields k = F_p(t1..td).

A RatFunc is a fraction of MultiPoly values in canonical form: the
denominator is nonzero and monic under the fixed (grevlex) order, and
numerator and denominator are coprime.
"""

from __future__ import annotations

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
        if not den.is_constant and not num.is_constant:
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = divexact(num, g)
                den = divexact(den, g)
        _, lc = den.leading(GREVLEX)
        if not den.dom.is_one(lc):
            c = den.dom.inv(lc)
            num = num.scale(c)
            den = den.scale(c)
        self.num = num
        self.den = den

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
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.den == other.den:
            return RatFunc(self.num - other.num, self.den)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, _normalized=True)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if self.is_zero or other.is_zero:
            return RatFunc.from_poly(MultiPoly.zero(self.num.dom, self.num.arity))
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        self._check(other)
        if other.is_zero:
            raise DivByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        if self.is_zero:
            raise DivByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self, var: int) -> "RatFunc":
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
