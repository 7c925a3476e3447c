"""Sparse multivariate polynomials over small prime fields.

A polynomial is a map from exponent vectors to nonzero coefficients, kept in
canonical form (no zero coefficients, fixed arity).  Coefficients live in a
small domain adapter object so the same container serves both plain F_p
arithmetic (integer residues) and polynomials whose coefficients are rational
functions; see `ratfunc.FractionField` for the latter.

The fixed monomial orders are degree-reverse-lexicographic (the default used
for canonical forms) and lexicographic.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..errors import ArityMismatch, BothZero, DivByZero, InternalInvariantViolation, NotAPower

MAX_PRIME = 101


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class MonomialOrder:
    """Total order on exponent vectors, exposed as a sort key."""

    __slots__ = ("name", "key")

    def __init__(self, name: str, key: Callable[[tuple], tuple]):
        self.name = name
        self.key = key

    def __repr__(self):
        return f"MonomialOrder({self.name})"

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)


def _grevlex_key(exp: tuple) -> tuple:
    return (sum(exp), tuple(-e for e in reversed(exp)))


GREVLEX = MonomialOrder("grevlex", _grevlex_key)
LEX = MonomialOrder("lex", lambda exp: exp)

class PrimeField:
    """The field F_p with elements stored as ints in [0, p)."""

    __slots__ = ("p",)
    is_prime_field = True

    def __init__(self, p: int):
        if not is_prime(p) or not (2 <= p <= MAX_PRIME):
            raise ValueError(f"characteristic must be a prime in [2, {MAX_PRIME}], got {p}")
        self.p = p

    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivByZero("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == 1

    def coeff_str(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class MultiPoly:
    """Multivariate polynomial in canonical sparse form over a coefficient domain."""

    __slots__ = ("dom", "arity", "terms")

    def __init__(self, dom, arity: int, terms: dict):
        self.dom = dom
        self.arity = arity
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def from_terms(cls, dom, arity: int, items: Iterable[tuple]) -> "MultiPoly":
        terms: dict = {}
        for exp, c in items:
            exp = tuple(exp)
            if len(exp) != arity:
                raise ArityMismatch(f"exponent {exp} has length {len(exp)}, expected {arity}")
            if exp in terms:
                c = dom.add(terms[exp], c)
            if dom.is_zero(c):
                terms.pop(exp, None)
            else:
                terms[exp] = c
        return cls(dom, arity, terms)

    @classmethod
    def zero(cls, dom, arity: int) -> "MultiPoly":
        return cls(dom, arity, {})

    @classmethod
    def const(cls, dom, arity: int, c) -> "MultiPoly":
        if dom.is_zero(c):
            return cls(dom, arity, {})
        return cls(dom, arity, {(0,) * arity: c})

    @classmethod
    def from_int(cls, dom, arity: int, n: int) -> "MultiPoly":
        return cls.const(dom, arity, dom.from_int(n))

    @classmethod
    def gen(cls, dom, arity: int, index: int, power: int = 1) -> "MultiPoly":
        exp = [0] * arity
        exp[index] = power
        return cls(dom, arity, {tuple(exp): dom.one})

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.arity in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.arity, self.dom.zero)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dom == other.dom and self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def _check(self, other: "MultiPoly"):
        if self.arity != other.arity or self.dom != other.dom:
            raise ArityMismatch("polynomials over different rings")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        dom = self.dom
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = dom.add(terms.get(exp, dom.zero), c)
            if dom.is_zero(s):
                terms.pop(exp, None)
            else:
                terms[exp] = s
        return MultiPoly(dom, self.arity, terms)

    def __neg__(self) -> "MultiPoly":
        dom = self.dom
        return MultiPoly(dom, self.arity, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        dom = self.dom
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                c = dom.mul(c1, c2)
                s = dom.add(terms.get(exp, dom.zero), c)
                if dom.is_zero(s):
                    terms.pop(exp, None)
                else:
                    terms[exp] = s
        return MultiPoly(dom, self.arity, terms)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.dom, self.arity, self.dom.one)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "MultiPoly":
        dom = self.dom
        if dom.is_zero(c):
            return MultiPoly.zero(dom, self.arity)
        return MultiPoly(dom, self.arity, {e: dom.mul(v, c) for e, v in self.terms.items()})

    def mul_term(self, exp: tuple, c) -> "MultiPoly":
        dom = self.dom
        if dom.is_zero(c):
            return MultiPoly.zero(dom, self.arity)
        return MultiPoly(
            dom,
            self.arity,
            {tuple(a + b for a, b in zip(e, exp)): dom.mul(v, c) for e, v in self.terms.items()},
        )

    # -- structure ----------------------------------------------------

    def leading(self, order: MonomialOrder = GREVLEX) -> tuple:
        """(exponent, coefficient) of the leading term; raises on zero."""
        if not self.terms:
            raise DivByZero("leading term of the zero polynomial")
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def sorted_terms(self, order: MonomialOrder = GREVLEX) -> list:
        return sorted(self.terms.items(), key=lambda item: order.key(item[0]), reverse=True)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def support_vars(self) -> set:
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return used

    def derivative(self, var: int) -> "MultiPoly":
        dom = self.dom
        terms: dict = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k == 0:
                continue
            c2 = dom.mul(c, dom.from_int(k))
            if dom.is_zero(c2):
                continue
            e2 = list(exp)
            e2[var] = k - 1
            terms[tuple(e2)] = dom.add(terms.get(tuple(e2), dom.zero), c2)
        return MultiPoly(dom, self.arity, {e: c for e, c in terms.items() if not dom.is_zero(c)})

    def map_exponents(self, fn) -> "MultiPoly":
        """Apply a monomial substitution exp -> fn(exp); fn must be injective."""
        terms = {}
        for exp, c in self.terms.items():
            new = tuple(fn(exp))
            if new in terms:
                raise InternalInvariantViolation("exponent map is not injective")
            terms[new] = c
        return MultiPoly(self.dom, len(next(iter(terms))) if terms else self.arity, terms)

    def extend_arity(self, arity: int) -> "MultiPoly":
        if arity < self.arity:
            raise ArityMismatch("cannot shrink arity")
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return MultiPoly(self.dom, arity, {e + pad: c for e, c in self.terms.items()})

    def evaluate(self, values: list, embed_coeff):
        """Evaluate at `values` (ring elements supporting +,*,**), embedding coefficients."""
        acc = None
        for exp, c in sorted(self.terms.items()):
            term = embed_coeff(c)
            for i, e in enumerate(exp):
                if e:
                    term = term * values[i] ** e
            acc = term if acc is None else acc + term
        if acc is None:
            acc = embed_coeff(self.dom.zero)
        return acc

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exp, c in self.sorted_terms():
            mon = "*".join(f"v{i}^{e}" for i, e in enumerate(exp) if e)
            bits.append(f"{self.dom.coeff_str(c)}{'*' + mon if mon else ''}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def _exp_divides(small: tuple, big: tuple) -> bool:
    return all(s <= b for s, b in zip(small, big))


def divexact(a: MultiPoly, b: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Quotient a/b when the division is exact; raises otherwise."""
    if b.is_zero:
        raise DivByZero("division by the zero polynomial")
    dom = a.dom
    q = MultiPoly.zero(dom, a.arity)
    r = a
    eb, cb = b.leading(order)
    while not r.is_zero:
        er, cr = r.leading(order)
        if not _exp_divides(eb, er):
            raise InternalInvariantViolation("exact polynomial division left a remainder")
        exp = tuple(x - y for x, y in zip(er, eb))
        c = dom.div(cr, cb)
        t = MultiPoly(dom, a.arity, {exp: c})
        q = q + t
        r = r - b.mul_term(exp, c)
    return q


def monic(a: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    if a.is_zero:
        return a
    _, c = a.leading(order)
    if a.dom.is_one(c):
        return a
    return a.scale(a.dom.inv(c))


# -- univariate views (used by the gcd) -------------------------------


def _as_univariate(f: MultiPoly, var: int) -> dict:
    """Split into {degree in var: coefficient polynomial with var-degree 0}."""
    coeffs: dict = {}
    for exp, c in f.terms.items():
        k = exp[var]
        e2 = list(exp)
        e2[var] = 0
        bucket = coeffs.setdefault(k, {})
        bucket[tuple(e2)] = c
    return {k: MultiPoly(f.dom, f.arity, t) for k, t in coeffs.items()}


def _from_univariate(dom, arity: int, var: int, coeffs: dict) -> MultiPoly:
    terms: dict = {}
    for k, poly in coeffs.items():
        for exp, c in poly.terms.items():
            e2 = list(exp)
            e2[var] = k
            terms[tuple(e2)] = c
    return MultiPoly(dom, arity, terms)


def _pseudo_rem(f: MultiPoly, g: MultiPoly, var: int) -> MultiPoly:
    """Pseudo-remainder of f by g with respect to `var`."""
    dg = g.degree_in(var)
    gc = _as_univariate(g, var)
    lc_g = gc[dg]
    r = f
    while not r.is_zero and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lc_r = _as_univariate(r, var)[dr]
        shift = [0] * f.arity
        shift[var] = dr - dg
        r = r * lc_g - g.mul_term(tuple(shift), f.dom.one) * lc_r
    return r


def _content_pp(f: MultiPoly, var: int) -> tuple:
    """(content, primitive part) of f viewed as univariate in `var`."""
    coeffs = _as_univariate(f, var)
    content = None
    for k in sorted(coeffs):
        content = coeffs[k] if content is None else poly_gcd(content, coeffs[k])
        if content.is_constant:
            break
    content = monic(content)
    if content.is_constant:
        return content, monic(f)
    return content, monic(divexact(f, content))


def _univariate_gcd(a: MultiPoly, b: MultiPoly, var: int) -> MultiPoly:
    while not b.is_zero:
        # plain Euclid: divide with remainder after making the divisor monic
        db = b.degree_in(var)
        bc = _as_univariate(b, var)
        b_monic = b.scale(a.dom.inv(bc[db].constant_value()))
        r = a
        while not r.is_zero and r.degree_in(var) >= db:
            dr = r.degree_in(var)
            rc = _as_univariate(r, var)[dr]
            shift = [0] * a.arity
            shift[var] = dr - db
            r = r - b_monic.mul_term(tuple(shift), rc.constant_value())
        a, b = b_monic, r
    return monic(a)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic-normalized gcd over F_p via content/primitive-part recursion."""
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0)")
    if a.is_zero:
        return monic(b)
    if b.is_zero:
        return monic(a)
    if a.is_constant or b.is_constant:
        return MultiPoly.const(a.dom, a.arity, a.dom.one)
    va, vb = a.support_vars(), b.support_vars()
    common = va & vb
    if not common:
        return MultiPoly.const(a.dom, a.arity, a.dom.one)
    if va == vb and len(va) == 1:
        return _univariate_gcd(a, b, next(iter(va)))
    v = max(common)
    ca, pa = _content_pp(a, v)
    cb, pb = _content_pp(b, v)
    c = poly_gcd(ca, cb)
    f, g = (pa, pb) if pa.degree_in(v) >= pb.degree_in(v) else (pb, pa)
    while not g.is_zero:
        r = _pseudo_rem(f, g, v)
        if r.is_zero:
            f, g = g, r
        else:
            f, g = g, _content_pp(r, v)[1]
    return monic(c * f)


def poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    if a.is_zero or b.is_zero:
        return MultiPoly.zero(a.dom, a.arity)
    return monic(divexact(a * b, poly_gcd(a, b)))


# -- p-th powers ------------------------------------------------------


def is_p_power_poly(f: MultiPoly) -> bool:
    """True iff every exponent is divisible by p (coefficients are Frobenius-fixed)."""
    p = f.dom.p
    return all(e % p == 0 for exp in f.terms for e in exp)


def p_root_poly(f: MultiPoly) -> MultiPoly:
    if not is_p_power_poly(f):
        raise NotAPower("polynomial is not a p-th power")
    p = f.dom.p
    return MultiPoly(f.dom, f.arity, {tuple(e // p for e in exp): c for exp, c in f.terms.items()})
