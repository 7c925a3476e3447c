"""Sparse multivariate polynomials over small prime fields.

A polynomial is a map from exponent vectors to nonzero coefficients, kept in
canonical form (no zero coefficients, fixed arity).  Coefficients live in a
small domain adapter object so the same container serves both plain F_p
arithmetic (integer residues) and polynomials whose coefficients are rational
functions; see `ratfunc.FractionField` for the latter.

`add_terms` is the one sparse sum of the package: every coefficient map, a
polynomial's terms here or a flat-algebra vector, adds through it, so
`dom.add` runs only for an exponent already present and no zero is stored.
Over F_p, `_fp_add` and the product loop of `MultiPoly.__mul__` sum plain
ints instead, chosen by `dom.is_prime_field`.

The fixed monomial orders are degree-reverse-lexicographic (the default used
for canonical forms) and lexicographic.

`poly_gcd` works in a dense recursive layout over F_p (Brown 1971): the
variables are the sorted union of both supports, the highest one is the main
variable, and an element is a list of coefficients one level down.  Contents
come from recursive gcds and primitive parts from exact division; the gcd of
primitive parts comes from a primitive pseudo-remainder sequence.  Before that
sequence, an evaluation test proves the common case of a gcd free of the main
variable.  g = gcd(a, b) is also the gcd over F_{p^2}, and at a point of
F_{p^2} where the leading coefficients of both inputs do not vanish, g keeps
its degree (lc(g) divides lc(a)) and divides both images; so an image gcd of
1 proves that g is the gcd of all coefficients.  The first such point among
at most p pseudo-random ones decides, and any other outcome runs the
sequence, as for x and x + t^(p^2) - t, which have the image x at every point
of F_{p^2}.  Points of F_p alone are not enough: x0^p = x0 there, so x and
x + t^p - t already have the image x at every one of them.  `divexact` is
the same kernel's exact division, `_div`.
"""

from __future__ import annotations

import functools
import random
from operator import add
from typing import Callable, Iterable

from ..errors import ArityMismatch, BothZero, DivByZero, InternalInvariantViolation

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

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivByZero("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

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
        items = [(tuple(exp), c) for exp, c in items]
        for exp, _ in items:
            if len(exp) != arity:
                raise ArityMismatch(f"exponent {exp} has length {len(exp)}, expected {arity}")
        return cls(dom, arity, add_terms(dom, {}, items))

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
        if dom.is_prime_field:
            return MultiPoly(dom, self.arity, _fp_add(self.terms, other.terms, 1, dom.p))
        return MultiPoly(dom, self.arity, add_terms(dom, dict(self.terms), other.terms.items()))

    def __neg__(self) -> "MultiPoly":
        dom = self.dom
        return MultiPoly(dom, self.arity, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if self.dom.is_prime_field:
            self._check(other)
            return MultiPoly(self.dom, self.arity, _fp_add(self.terms, other.terms, -1, self.dom.p))
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        dom = self.dom
        if dom.is_prime_field:
            # sum the int products exactly, then reduce each output term once
            terms: dict = {}
            get = terms.get
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exp = tuple(map(add, e1, e2))
                    terms[exp] = get(exp, 0) + c1 * c2
            p = dom.p
            return MultiPoly(dom, self.arity, {e: r for e, c in terms.items() if (r := c % p)})
        products = (
            (tuple(map(add, e1, e2)), dom.mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )
        return MultiPoly(dom, self.arity, add_terms(dom, {}, products))

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
        if len(self.terms) == 1:
            (term,) = self.terms.items()
            return term
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

    def coefficients(self, var: int) -> list:
        """Coefficients of var^0 .. var^deg, lowest first, each free of var; [] for zero."""
        out = [{} for _ in range(self.degree_in(var) + 1)]
        for exp, c in self.terms.items():
            out[exp[var]][exp[:var] + (0,) + exp[var + 1 :]] = c
        return [MultiPoly(self.dom, self.arity, terms) for terms in out]

    def support_vars(self) -> set:
        used = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    used.add(i)
        return used

    def derivative(self, var: int) -> "MultiPoly":
        dom = self.dom
        lowered = (
            (exp[:var] + (exp[var] - 1,) + exp[var + 1 :], dom.mul(c, dom.from_int(exp[var])))
            for exp, c in self.terms.items()
            if exp[var]
        )
        return MultiPoly(dom, self.arity, add_terms(dom, {}, lowered))

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


def add_terms(dom, terms: dict, items: Iterable[tuple]) -> dict:
    """Add each (exponent, coefficient) of `items` into `terms` in place; return `terms`.

    The one sparse sum: `dom.add` runs only for an exponent already present,
    and no zero coefficient is stored.  `items` must not iterate `terms` itself.
    """
    dom_add, is_zero = dom.add, dom.is_zero
    for exp, c in items:
        if exp in terms:
            c = dom_add(terms[exp], c)
        if is_zero(c):
            terms.pop(exp, None)
        else:
            terms[exp] = c
    return terms


def _fp_add(a: dict, b: dict, sign: int, p: int) -> dict:
    """The terms of a + sign*b over F_p, for sign = 1 or -1."""
    terms = dict(a)
    for exp, c in b.items():
        s = (terms.get(exp, 0) + sign * c) % p
        if s:
            terms[exp] = s
        else:
            terms.pop(exp, None)
    return terms


def monic(a: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    if a.is_zero:
        return a
    _, c = a.leading(order)
    if a.dom.is_one(c):
        return a
    return a.scale(a.dom.inv(c))


# -- gcd: a dense recursive kernel over F_p ----------------------------
#
# A level-0 element is an int in [0, p).  A level-k element is a list of
# level-(k-1) coefficients, lowest degree first, with no zero at the end; its
# main variable is the k-th of the sorted support.  Zero is falsy at every
# level (0 or []).  No function mutates a list it was given or has returned.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _is_const(x, k: int) -> bool:
    for _ in range(k):
        if len(x) != 1:
            return False
        x = x[0]
    return True


def _one(k: int):
    x = 1
    for _ in range(k):
        x = [x]
    return x


def _add(a, b, k: int, p: int, s: int = 1):
    """a + s*b at level k, for s in F_p."""
    if k == 0:
        return (a + s * b) % p
    out = list(a)
    if len(out) < len(b):
        out.extend([0 if k == 1 else []] * (len(b) - len(out)))
    for i, y in enumerate(b):
        if y:
            out[i] = (out[i] + s * y) % p if k == 1 else _add(out[i], y, k - 1, p, s)
    return _trim(out)


def _mul(a, b, k: int, p: int):
    if k == 0:
        return a * b % p
    if not a or not b:
        return []
    if k == 1:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return [c % p for c in out]
    out = [[]] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = _add(out[i + j], _mul(x, y, k - 1, p), k - 1, p)
    return out


def _div(a, b, k: int, p: int):
    """a / b at level k; raises unless b divides a."""
    if k == 0:
        return a * pow(b, p - 2, p) % p
    if not a:
        return []
    db = len(b) - 1
    if len(a) <= db:
        raise InternalInvariantViolation("exact polynomial division left a remainder")
    r = list(a)
    q = [0 if k == 1 else []] * (len(a) - db)
    lb = b[-1]
    inv = pow(lb, p - 2, p) if k == 1 else None
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db]
        if not c:
            continue
        if k == 1:
            qc = q[i] = c * inv % p
            for j in range(db):
                r[i + j] = (r[i + j] - qc * b[j]) % p
        else:
            qc = q[i] = _div(c, lb, k - 1, p)
            for j in range(db):
                r[i + j] = _add(r[i + j], _mul(qc, b[j], k - 1, p), k - 1, p, p - 1)
    if any(r[:db]):
        raise InternalInvariantViolation("exact polynomial division left a remainder")
    return q


def _urem(a: list, b: list, p: int) -> list:
    """Remainder of a by the monic b, both univariate."""
    r = list(a)
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            s = i - db
            for j in range(db):
                r[s + j] = (r[s + j] - c * b[j]) % p
    del r[db:]
    return _trim(r)


def _ugcd(a: list, b: list, p: int) -> list:
    """Monic gcd of two nonzero univariate elements (Euclid)."""
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [c * inv % p for c in b]
        a, b = b, _urem(a, b, p)
    return a


# -- the coprimality test: evaluation at points of F_{p^2} ---------------------
#
# An element a0 + a1*z of F_{p^2} = F_p[z]/(z^2 - c1*z - c0) is the int
# a0 + a1*p, so an element of F_p is its own code.  z is primitive: every
# nonzero code is exp[i] for one i in [0, p^2 - 1), and log inverts exp.
# Products go through the tables; sums are digit-wise.


@functools.cache
def _gf(p: int) -> tuple:
    """(c0, c1, exp, log) for the first primitive z^2 - c1*z - c0 over F_p.

    exp lists z^0 .. z^(m-1), m = p^2 - 1, twice over, so exp[i + j] needs no
    reduction for i, j < m; log[exp[i]] = i, and log[0] is unused.
    """
    q = p * p
    for c0 in range(1, p):
        for c1 in range(p):
            exp, x = [], 1
            while True:  # z is a unit (c0 != 0), so its powers return to 1
                exp.append(x)
                x = x // p * c0 % p + (x % p + x // p * c1) % p * p
                if x == 1:
                    break
            if len(exp) == q - 1:
                log = [0] * q
                for i, x in enumerate(exp):
                    log[x] = i
                return c0, c1, exp + exp, log
    raise InternalInvariantViolation(f"no primitive quadratic over F_{p}")


@functools.cache
def _ext_points(p: int, n: int) -> tuple:
    """max(p, 8) pseudo-random points of F_{p^2}^n, as codes, from a fixed seed; p is too few for p < 5."""
    rng = random.Random(0)
    return tuple(tuple(rng.randrange(p * p) for _ in range(n)) for _ in range(max(p, 8)))


def _ext_eval(x, k: int, pt: tuple, p: int, exp: list, log: list) -> int:
    """The code of x at level k with its variables set to pt[0..k-1]."""
    if not x:
        return 0
    v = pt[k - 1]
    if not v:
        return x[0] if k == 1 else _ext_eval(x[0], k - 1, pt, p, exp, log)
    lv, q = log[v], p * p
    acc = 0
    for c in reversed(x):
        if acc:
            acc = exp[log[acc] + lv]
        if c:
            if k > 1:
                c = _ext_eval(c, k - 1, pt, p, exp, log)
            s = acc + c - (p if acc % p + c % p >= p else 0)
            acc = s - q if s >= q else s
    return acc


def _ext_coprime(a: list, b: list, p: int, exp: list, log: list) -> bool:
    """Whether two univariate elements of positive degree over F_{p^2} are coprime (Euclid)."""
    m = len(exp) // 2
    minus = m // 2 if p > 2 else 0  # log(-1)
    q = p * p
    while len(b) > 1:
        r = list(a)
        db = len(b) - 1
        lb = minus - log[b[-1]] + m
        blogs = [(j, log[y]) for j, y in enumerate(b[:db]) if y]
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i]
            if c:
                lf = (log[c] + lb) % m  # -c / lc(b)
                s = i - db
                for j, ly in blogs:
                    y, t = r[s + j], exp[lf + ly]
                    u = y + t - (p if y % p + t % p >= p else 0)
                    r[s + j] = u - q if u >= q else u
        del r[db:]
        a, b = b, _trim(r)
    return len(b) == 1


def _coprime_in_main(a: list, b: list, k: int, p: int) -> bool:
    """True when an evaluation proves that gcd(a, b) has degree 0 in the main variable.

    The gcd g over F_p is also the gcd over F_{p^2}.  At a point of F_{p^2}
    where lc(a) and lc(b) do not vanish, g keeps its degree, because lc(g)
    divides lc(a); and g(pt) divides both images.  So an image gcd of 1
    proves deg g = 0.  The first such point decides.
    """
    _, _, exp, log = _gf(p)
    for pt in _ext_points(p, k - 1):
        la = _ext_eval(a[-1], k - 1, pt, p, exp, log)
        lb = la and _ext_eval(b[-1], k - 1, pt, p, exp, log)
        if lb:
            ia = [_ext_eval(c, k - 1, pt, p, exp, log) for c in a[:-1]] + [la]
            ib = [_ext_eval(c, k - 1, pt, p, exp, log) for c in b[:-1]] + [lb]
            return _ext_coprime(ia, ib, p, exp, log)
    return False


def _content(coeffs, k: int, p: int):
    """gcd of the nonzero level-k elements in coeffs; exactly 1 once it is constant."""
    g = None
    for c in sorted((c for c in coeffs if c), key=len):
        g = c if g is None else _gcd(g, c, k, p)
        if _is_const(g, k):
            return _one(k)
    return g


def _split_content(a: list, k: int, p: int) -> tuple:
    """(content, primitive part) of a level-k element in its main variable."""
    c = _content(a, k - 1, p)
    if _is_const(c, k - 1):
        return c, a
    return c, [_div(x, c, k - 1, p) for x in a]


def _prem(f: list, g: list, k: int, p: int) -> list:
    """A pseudo-remainder of f by g in the main variable of level k."""
    dg = len(g) - 1
    lg = g[-1]
    r = f
    while len(r) > dg:
        lr = r[-1]
        s = len(r) - 1 - dg
        new = [_mul(lg, c, k - 1, p) for c in r]
        for j, y in enumerate(g):
            new[s + j] = _add(new[s + j], _mul(lr, y, k - 1, p), k - 1, p, p - 1)
        r = _trim(new)
    return r


def _gcd(a, b, k: int, p: int):
    """A gcd of two nonzero level-k elements, up to a unit of F_p."""
    if k == 1:
        return _ugcd(a, b, p)
    if len(a) == 1 or len(b) == 1 or _coprime_in_main(a, b, k, p):
        return [_content(a + b, k - 1, p)]
    ca, f = _split_content(a, k, p)
    cb, g = _split_content(b, k, p)
    c = _gcd(ca, cb, k - 1, p)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _prem(f, g, k, p)
        f, g = g, (_split_content(r, k, p)[1] if r else r)
    return [_mul(c, x, k - 1, p) for x in f]


def _dense(f: MultiPoly, support: list):
    """f as a level-len(support) element; support[-1] is the main variable."""

    def build(items, k):
        if k == 0:
            return items[0][1]
        v = support[k - 1]
        buckets: dict = {}
        for item in items:
            buckets.setdefault(item[0][v], []).append(item)
        out = [0 if k == 1 else []] * (max(buckets) + 1)
        for e, sub in buckets.items():
            out[e] = build(sub, k - 1)
        return out

    return build(list(f.terms.items()), len(support))


def _sparse(x, support: list, dom, arity: int) -> MultiPoly:
    terms: dict = {}
    exp = [0] * arity

    def walk(x, k):
        if k == 0:
            terms[tuple(exp)] = x
            return
        v = support[k - 1]
        for e, c in enumerate(x):
            if c:
                exp[v] = e
                walk(c, k - 1)
        exp[v] = 0

    walk(x, len(support))
    return MultiPoly(dom, arity, terms)


def divexact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Quotient a/b over F_p by the kernel's `_div`, over the union of both supports; raises unless b | a."""
    if b.is_zero:
        raise DivByZero("division by the zero polynomial")
    if a.is_zero:
        return a
    support = sorted(a.support_vars() | b.support_vars())
    q = _div(_dense(a, support), _dense(b, support), len(support), a.dom.p)
    return _sparse(q, support, a.dom, a.arity)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic-normalized gcd over F_p, computed by the dense kernel above."""
    if a.is_zero and b.is_zero:
        raise BothZero("gcd(0, 0)")
    if a.is_zero:
        return monic(b)
    if b.is_zero:
        return monic(a)
    if a.is_constant or b.is_constant:
        return MultiPoly.const(a.dom, a.arity, a.dom.one)
    va, vb = a.support_vars(), b.support_vars()
    if not va & vb:
        return MultiPoly.const(a.dom, a.arity, a.dom.one)
    support = sorted(va | vb)
    g = _gcd(_dense(a, support), _dense(b, support), len(support), a.dom.p)
    return monic(_sparse(g, support, a.dom, a.arity))


def poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    if a.is_zero or b.is_zero:
        return MultiPoly.zero(a.dom, a.arity)
    if a == b:
        return monic(a)
    return monic(divexact(a * b, poly_gcd(a, b)))
