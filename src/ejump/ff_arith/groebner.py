"""Buchberger's algorithm and dimension counts for ideals over F_p(t1..td)[x1..xn].

Desk-scale engine: reduced bases, deterministic pair selection, coefficient
blowup limited by clearing denominators and contents after every reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InternalInvariantViolation
from .poly import GREVLEX, MonomialOrder, MultiPoly, monic, poly_gcd, poly_lcm
from .ratfunc import FractionField, RatFunc


@dataclass(frozen=True)
class IdealPresentation:
    """Generators of an ideal in coeff_field[varnames]."""

    coeff_field: FractionField
    varnames: tuple
    generators: tuple
    order: MonomialOrder = GREVLEX

    def __post_init__(self):
        if not self.generators:
            raise ValueError("generator list must be non-empty (use a zero generator for (0))")
        n = len(self.varnames)
        for g in self.generators:
            if g.arity != n or g.dom != self.coeff_field:
                raise InternalInvariantViolation("generator arity/field mismatch")

    @property
    def arity(self) -> int:
        return len(self.varnames)


@dataclass(frozen=True)
class GroebnerBasis:
    coeff_field: FractionField
    varnames: tuple
    generators: tuple
    order: MonomialOrder

    @property
    def is_unit_ideal(self) -> bool:
        return any(g.is_constant and not g.is_zero for g in self.generators)

    @property
    def is_zero_ideal(self) -> bool:
        return not self.generators


def _exp_divides(small: tuple, big: tuple) -> bool:
    return all(s <= b for s, b in zip(small, big))


def _exp_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: MultiPoly, basis, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Remainder of full multivariate division of f by the basis."""
    if f.is_zero:
        return f
    dom = f.dom
    leads = [g.leading(order) for g in basis]
    rem = MultiPoly.zero(dom, f.arity)
    work = f
    while not work.is_zero:
        ew, cw = work.leading(order)
        for g, (eg, cg) in zip(basis, leads):
            if _exp_divides(eg, ew):
                q = tuple(a - b for a, b in zip(ew, eg))
                work = work - g.mul_term(q, dom.div(cw, cg))
                break
        else:
            t = MultiPoly(dom, f.arity, {ew: cw})
            rem = rem + t
            work = work - t
    return rem


def _clear_denominators(f: MultiPoly) -> MultiPoly:
    """Scale a nonzero f by a rational constant so coefficients are coprime polynomials."""
    field = f.dom
    den = None
    for c in f.terms.values():
        den = c.den if den is None else poly_lcm(den, c.den)
    if not den.is_constant or den.constant_value() != 1:
        scale = RatFunc.from_poly(den)
        f = MultiPoly(field, f.arity, {e: c * scale for e, c in f.terms.items()})
    content = None
    for c in f.terms.values():
        content = c.num if content is None else poly_gcd(content, c.num)
        if content.is_constant:
            break
    if not content.is_constant:
        inv = RatFunc.from_poly(content).inv()
        f = MultiPoly(field, f.arity, {e: c * inv for e, c in f.terms.items()})
    return f


def groebner_basis(I: IdealPresentation) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic and idempotent for fixed input."""
    order = I.order
    nonzero = [g for g in I.generators if not g.is_zero]
    if len(nonzero) <= 1:
        # no S-pairs: the reduced basis of a principal ideal is its monic generator
        return GroebnerBasis(I.coeff_field, I.varnames, tuple(monic(g, order) for g in nonzero), order)
    basis = [_clear_denominators(g) for g in nonzero]

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        pairs.sort(
            key=lambda ij: (
                order.key(_exp_lcm(basis[ij[0]].leading(order)[0], basis[ij[1]].leading(order)[0])),
                ij,
            )
        )
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        ei, ci = fi.leading(order)
        ej, cj = fj.leading(order)
        lcm = _exp_lcm(ei, ej)
        if lcm == tuple(a + b for a, b in zip(ei, ej)):
            continue  # coprime leading monomials reduce to zero
        s = fi.mul_term(tuple(a - b for a, b in zip(lcm, ei)), cj) - fj.mul_term(
            tuple(a - b for a, b in zip(lcm, ej)), ci
        )
        r = normal_form(s, basis, order)
        if r.is_zero:
            continue
        r = _clear_denominators(r)
        k = len(basis)
        basis.append(r)
        pairs.extend((m, k) for m in range(k))

    # minimalize: drop generators whose leading term is divisible by a kept one
    leads = [g.leading(order)[0] for g in basis]
    keep = []
    for idx in sorted(range(len(basis)), key=lambda i: order.key(leads[i])):
        if any(_exp_divides(leads[k], leads[idx]) for k in keep):
            continue
        keep.append(idx)
    minimal = [basis[idx] for idx in keep]

    # inter-reduce tails and normalize to monic
    reduced = []
    for idx, g in enumerate(minimal):
        others = [h for k, h in enumerate(minimal) if k != idx]
        # g's leading term is divisible by no other one, so it survives the reduction
        reduced.append(monic(normal_form(g, others, order) if others else g, order))
    reduced.sort(key=lambda g: order.key(g.leading(order)[0]), reverse=True)
    return GroebnerBasis(I.coeff_field, I.varnames, tuple(reduced), order)


def reduce_modulo(f: MultiPoly, gb: GroebnerBasis) -> MultiPoly:
    if gb.is_zero_ideal:
        return f
    return normal_form(f, gb.generators, gb.order)


def ideal_contains(gb: GroebnerBasis, f: MultiPoly) -> bool:
    return reduce_modulo(f, gb).is_zero


def _leading_exponents(gb: GroebnerBasis) -> list:
    return [g.leading(gb.order)[0] for g in gb.generators]


def _combinatorial_dimension(leads: list, n: int) -> int:
    """Max size of a variable set S with no leading monomial supported inside S."""
    if any(not any(e) for e in leads):
        return -1  # unit ideal: empty variety
    supports = [frozenset(i for i, v in enumerate(e) if v) for e in leads]
    best = -1
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if len(S) <= best:
            continue
        if all(not supp <= S for supp in supports):
            best = len(S)
    return best


def standard_monomials(gb: GroebnerBasis, n: int):
    """The monomials outside the leading-term ideal, or None if infinitely many."""
    leads = _leading_exponents(gb)
    if any(not any(e) for e in leads):
        return []
    bounds = []
    for i in range(n):
        pure = [e[i] for e in leads if all(v == 0 for j, v in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    result = []

    # enumerate the bounded box, filtering out multiples of leading terms
    def rec(prefix):
        if len(prefix) == n:
            if not any(_exp_divides(e, prefix) for e in leads):
                result.append(tuple(prefix))
            return
        for v in range(bounds[len(prefix)]):
            rec(prefix + (v,))

    rec(())
    return result


def quotient_dim(I: IdealPresentation):
    """(krull_dim, vector_dim) of coeff_field[x]/I; vector_dim None when infinite."""
    gb = groebner_basis(I)
    n = I.arity
    if gb.is_zero_ideal:
        return n, (1 if n == 0 else None)
    leads = _leading_exponents(gb)
    krull = _combinatorial_dimension(leads, n)
    std = standard_monomials(gb, n)
    return krull, (len(std) if std is not None else None)
