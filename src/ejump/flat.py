"""Flat algebras: finite free modules over a rational scalar field.

A tower K is a module over k0 = F_p(T), where T holds the base variables
together with every transcendental generator; the algebraic generators index
a monomial basis with one triangular monic reduction per layer.
`FieldTower.algebra` builds that `FlatAlgebra` from the layers, and a tower
element's payload is its vector in it.  The oracle's truncated algebras
K[z]/(z^q - a) are those of towers too, whose root layers need not give a field.

Every q-th power with q = p^r is `FlatAlgebra.frobenius`: a coefficient
c(T) goes to c(T^q) and a basis monomial to its q-th power, kept on the
algebra per q, which is exact in any commutative F_p-algebra, reduced or
not.  Square and multiply (`pow`) only builds gen^q, once per generator and q.
`TowerElement ** n` writes n = m * p^v, squares and multiplies for m, and
takes the p^v-th power by `frobenius`, so x**p reuses the same table.

On top of the flat algebra sits the p-th root solver: z^q = a is semilinear
over k0, and splitting every scalar over the k0^q-basis of monomials T^mu
with exponents below q turns it into an honest linear system with a unique
solution whenever a root exists.  Its matrix, its denominator scale and its
final check x^q = a are all Frobenius images.  This makes root extraction
total: no presentation is ever rejected.  The matrix depends only on the
algebra and q, so the algebra keeps one `RootSystem` per q, built whole on
first use.  Every solve here eliminates a left-hand side once in
`LinearSolver` and only replays right-hand sides through its log: a target's
split pieces for a root, e_1 for an inverse.  x^q = a is still checked.

`FlatModel` pairs a tower with its algebra.  `FlatModel.flatten` returns an
element's vector after checking its tower and `unflatten` wraps a vector;
neither converts anything.  Point base change reads slots through `flatten`
as the variables x_i and s_j; the p-th root solver, the structure oracle
(which moves adjoined-layer slots to z slots) and the Kaehler ranks, whose
one elimination is `FlatAlgebra.rank`, read payloads directly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import reduce

from .errors import InternalInvariantViolation, ZeroDivisorDetected
from .ff_arith import FractionField, MultiPoly, RatFunc, add_terms, poly_lcm
from .tower import FieldTower, TowerElement


@dataclass(frozen=True)
class FlatLayer:
    name: str
    degree: int
    reduction: dict  # coordinates of gen^degree over earlier slots


def _top_slot(u) -> int:
    """The highest slot with a nonzero exponent among u's exponents, or -1 for a scalar."""
    return max((slot for e in u for slot, k in enumerate(e) if k), default=-1)


class FlatAlgebra:
    """Free module over F_p(T) with triangular monic generator reductions."""

    def __init__(self, scalar_field: FractionField, layers: list):
        self.field = scalar_field
        self.layers = list(layers)
        self._frobenius_tables: dict = {}  # q -> {basis exponent: its q-th power}
        self._root_systems: dict = {}  # q -> RootSystem of x^q = a

    @property
    def dimension(self) -> int:
        n = 1
        for layer in self.layers:
            n *= layer.degree
        return n

    def basis(self) -> list:
        exps = [()]
        for layer in self.layers:
            exps = [e + (j,) for e in exps for j in range(layer.degree)]
        return exps

    @property
    def nslots(self) -> int:
        return len(self.layers)

    # -- vector helpers -------------------------------------------------

    def scalar(self, c: RatFunc) -> dict:
        if c.is_zero:
            return {}
        return {(0,) * self.nslots: c}

    def one(self) -> dict:
        return self.scalar(self.field.one)

    def gen(self, slot: int, power: int = 1) -> dict:
        exp = [0] * self.nslots
        exp[slot] = power
        return self.reduce({tuple(exp): self.field.one})

    def add(self, u: dict, v: dict) -> dict:
        return add_terms(self.field, dict(u), v.items())

    def neg(self, u: dict) -> dict:
        return {e: -c for e, c in u.items()}

    def sub(self, u: dict, v: dict) -> dict:
        return add_terms(self.field, dict(u), ((e, -c) for e, c in v.items()))

    def reduce(self, terms: dict) -> dict:
        """Rewrite exponents exceeding a layer degree through its reduction."""
        work = list(terms.items())
        done = []
        degrees = [layer.degree for layer in self.layers]
        while work:
            e, c = work.pop()
            for slot in range(self.nslots - 1, -1, -1):
                if e[slot] >= degrees[slot]:
                    rem = list(e)
                    rem[slot] -= degrees[slot]
                    for re, rc in self.layers[slot].reduction.items():
                        ne = tuple(a + b for a, b in zip(rem, re))
                        work.append((ne, c * rc))
                    break
            else:
                done.append((e, c))
        return add_terms(self.field, {}, done)

    def mul(self, u: dict, v: dict) -> dict:
        products = (
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2) for e1, c1 in u.items() for e2, c2 in v.items()
        )
        return self.reduce(add_terms(self.field, {}, products))

    def pow(self, u: dict, n: int) -> dict:
        result = self.one()
        base = u
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            if n:
                base = self.mul(base, base)
        return result

    def monomial_frobenius(self, e: tuple, q: int) -> dict:
        """The q-th power of the basis monomial e, cached per q.

        It is the power of e with one less in its top slot s times gen(s)^q,
        so gen^(q k) comes from the cached gen^(q (k - 1)), and gen(s)^q is
        the one power taken by `pow`.
        """
        table = self._frobenius_tables.setdefault(q, {(0,) * self.nslots: self.one()})
        chain = []
        while e not in table:
            chain.append(e)
            s = _top_slot([e])
            e = e[:s] + (e[s] - 1,) + e[s + 1 :]
        value = table[e]
        for e in reversed(chain):
            s = _top_slot([e])
            unit = tuple(int(slot == s) for slot in range(self.nslots))
            if e == unit:
                value = table[e] = self.pow(self.gen(s), q)
            else:
                value = table[e] = self.mul(value, self.monomial_frobenius(unit, q))
        return value

    def root_system(self, q: int) -> "RootSystem":
        """The left-hand side of x^q = a, eliminated on first use and kept per q."""
        if q not in self._root_systems:
            self._root_systems[q] = RootSystem(self, q)
        return self._root_systems[q]

    def frobenius(self, u: dict, q: int) -> dict:
        """u^q for q a power of p, term by term.

        Frobenius is additive and fixes F_p in any commutative F_p-algebra, so
        a coefficient c(T) goes to c(T^q) and a monomial to its cached q-th power.
        """
        out: dict = {}
        for e, c in u.items():
            cq = _frobenius_scalar(c, q)
            add_terms(self.field, out, ((f, cq * v) for f, v in self.monomial_frobenius(e, q).items()))
        return out

    def _frobenius_below(self, u: dict, slot: int):
        """u^q, which lies below `slot`, or None if the slot's layer is not inseparable.

        `slot` is u's highest slot.  An inseparable layer is z^q = r with q a
        power of p and r below the slot, so z^(q k) = r^k.
        """
        layer = self.layers[slot]
        q = layer.degree
        while q % self.field.p == 0:
            q //= self.field.p
        if q != 1 or any(e[slot] for e in layer.reduction):
            return None
        return self.frobenius(u, layer.degree)

    def is_unit(self, u: dict) -> bool:
        """Whether u is invertible.

        u is a unit iff u^q is, so the test descends by `_frobenius_below` as
        far as it goes and asks `invert` only of what is left.
        """
        top = _top_slot(u)
        while top >= 0 and (below := self._frobenius_below(u, top)) is not None:
            u, top = below, _top_slot(below)
        return bool(u) and (top < 0 or self.invert(u) is not None)

    def invert(self, u: dict):
        """Inverse of u, or None when u is zero or a zero divisor.

        A scalar takes one field inversion.  Otherwise u * x = 1 is solved over
        the monomials of the slots up to u's highest one: reductions are
        triangular, so those slots span a subalgebra, and it holds the inverse.
        Each row of u's multiplication matrix is eliminated, then e_1 replayed
        (the first monomial is 1); a dependent row left nonzero means a zero divisor.
        """
        if not u:
            return None
        top = _top_slot(u)
        if top < 0:
            (c,) = u.values()
            return self.scalar(c.inv())
        basis = [e for e in self.basis() if not any(e[top + 1 :])]
        columns = [self.mul(u, {e: self.field.one}) for e in basis]
        solver = LinearSolver(self.field, len(basis))
        reduced: dict = {}
        for i, gamma in enumerate(basis):
            solver.add_equation([col.get(gamma, self.field.zero) for col in columns])
            if not solver.replay(i, self.field.one if i == 0 else self.field.zero, reduced):
                return None
        return {e: c for e, c in zip(basis, solver.solution(reduced)) if not c.is_zero}

    def rank(self, rows: list) -> int:
        """Rank of a matrix of vectors by fraction-free Gaussian elimination.

        The algebra is asserted to be a field, so every pivot must be a unit; a
        pivot that `is_unit` rejects witnesses a reducible minimal polynomial.
        Rows below a pivot are multiplied by it, so no inverse is needed.
        """
        work = [list(row) for row in rows]
        rank = 0
        for col in range(len(work[0]) if work else 0):
            pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
            if pivot_row is None:
                continue
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            pivot = work[rank]
            if not self.is_unit(pivot[col]):
                name = self.layers[-1].name
                raise ZeroDivisorDetected(
                    name, f"a rank pivot is a zero divisor in the flat model up to layer '{name}'"
                )
            for r in range(rank + 1, len(work)):
                c = work[r][col]
                if c:
                    work[r] = [
                        self.sub(self.mul(pivot[col], a), self.mul(c, b)) for a, b in zip(work[r], pivot)
                    ]
            rank += 1
            if rank == len(work):
                break
        return rank


class LinearSolver:
    """Row echelon form of a left-hand side over a fraction field; right-hand sides are replayed.

    Stored rows are sorted by pivot column, start at their pivot, which is one,
    and never change.  An incoming row reduced against them in pivot order is
    the element of its coset that is zero in every pivot column, so the pivots
    and the rank are those of a fully reduced form.

    Each equation's reduction is logged: the multiplier of every stored row it
    was reduced by, keyed by that row's pivot column, then its own pivot column
    and the pivot's inverse, both None for a dependent equation.  The solver
    holds no right-hand side: `replay` reduces one through the log, which
    decides consistency, and `solution` back-substitutes the replayed values.
    """

    def __init__(self, scalar_field: FractionField, ncols: int):
        self.field = scalar_field
        self.ncols = ncols
        self.rows: list = []  # (pivot_col, coeffs), sorted by pivot_col
        self.log: list = []  # per equation: ([(pivot_col, multiplier)], pivot_col, pivot inverse)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_equation(self, coeffs: list) -> None:
        """Reduce a left-hand side against the stored rows, log it, and store it if independent."""
        coeffs = list(coeffs)
        multipliers = []
        for pivot_col, row in self.rows:
            c = coeffs[pivot_col]
            if c.is_zero:
                continue
            # the row is zero left of its pivot
            tail = zip(coeffs[pivot_col:], row[pivot_col:])
            coeffs[pivot_col:] = [a if b.is_zero else a - c * b for a, b in tail]
            multipliers.append((pivot_col, c))
        pivot = next((i for i, c in enumerate(coeffs) if not c.is_zero), None)
        if pivot is None:
            self.log.append((multipliers, None, None))
            return
        inv = coeffs[pivot].inv()
        self.log.append((multipliers, pivot, inv))
        row = [c if c.is_zero else c * inv for c in coeffs]
        row[pivot] = self.field.one
        bisect.insort(self.rows, (pivot, row), key=lambda r: r[0])

    def replay(self, index: int, rhs: RatFunc, reduced: dict) -> bool:
        """Reduce a right-hand side for logged equation `index` as its left-hand side was reduced.

        `reduced` maps the pivot column of every earlier pivot equation to its
        replayed right-hand side and gains this equation's, so equations are
        replayed in order.  Returns False when a dependent equation's
        right-hand side does not reduce to zero.
        """
        multipliers, pivot, inv = self.log[index]
        for col, c in multipliers:
            b = reduced[col]
            if not b.is_zero:
                rhs = rhs - c * b
        if pivot is None:
            return rhs.is_zero
        reduced[pivot] = rhs * inv
        return True

    def solution(self, reduced: dict) -> list:
        """The solution for the replayed right-hand sides `reduced`, free variables zero."""
        out = [self.field.zero] * self.ncols
        for pivot_col, row in reversed(self.rows):
            rhs = reduced[pivot_col]
            for j in range(pivot_col + 1, self.ncols):
                if not (row[j].is_zero or out[j].is_zero):
                    rhs = rhs - row[j] * out[j]
            out[pivot_col] = rhs
        return out


# -- flat models of towers -------------------------------------------------


@dataclass
class FlatModel:
    """A tower with its flat algebra, where its elements' vectors live."""

    tower: FieldTower
    algebra: FlatAlgebra

    def flatten(self, element: TowerElement) -> dict:
        if element.tower != self.tower:
            raise InternalInvariantViolation("element does not live in the modelled tower")
        return element.payload

    def unflatten(self, vec: dict) -> TowerElement:
        return TowerElement(self.tower, vec)


def flat_model(K: FieldTower) -> FlatModel:
    """The flat model of a tower; its algebra is built once, by the tower."""
    return FlatModel(K, K.algebra)


# -- Frobenius-linearized p-power roots -----------------------------------


def _frobenius_scalar(c: RatFunc, q: int) -> RatFunc:
    """c^q for q a power of p: F_p is fixed, so c(T)^q = c(T^q), still in lowest terms."""

    def frob(e):
        return tuple(q * k for k in e)

    return RatFunc(c.num.map_exponents(frob), c.den.map_exponents(frob), _normalized=True)


def frobenius_split(c: RatFunc, q: int, nvars: int) -> dict:
    """Write c as sum of (piece_mu)^q * T^mu over exponents mu below q."""
    num, den = c.num, c.den
    if not den.is_constant or den.constant_value() != 1:
        num = num * den ** (q - 1)
    pieces: dict = {}
    for exp, coeff in num.terms.items():
        mu = tuple(e % q for e in exp)
        quo = tuple(e // q for e in exp)
        bucket = pieces.setdefault(mu, {})
        bucket[quo] = coeff
    dom = num.dom
    out = {}
    for mu, terms in pieces.items():
        piece = MultiPoly(dom, nvars, terms)
        out[mu] = RatFunc(piece, den)
    return out


class RootSystem:
    """The left-hand side of x^q = a over one algebra, eliminated once for every a.

    Write x = sum of x_alpha * alpha over the basis.  Block gamma holds the
    equations of the gamma-coefficient: the coefficient of gamma in each
    alpha^q, scaled by the q-th power of the lcm of the block's denominators
    and split over T^mu by `frobenius_split`, gives one equation in the x_alpha
    per mu.  The constructor eliminates the blocks in basis order until the
    rank is full; later blocks are never built.
    """

    def __init__(self, algebra: FlatAlgebra, q: int):
        field = algebra.field
        self.basis = algebra.basis()
        self.nvars = len(field.varnames)
        self.solver = LinearSolver(field, len(self.basis))
        self.blocks: list = []  # (gamma, scale, {mu: equation index}) in basis order
        powers = [algebra.monomial_frobenius(e, q) for e in self.basis]
        for gamma in self.basis:
            if self.solver.rank == len(self.basis):
                break
            entries = [power.get(gamma, field.zero) for power in powers]
            dens = [c.den for c in entries if not c.is_zero]
            if not dens:
                self.blocks.append((gamma, None, {}))
                continue
            # the lcm's q-th power is a multiple of every denominator of the block, so each product is a polynomial
            scale = _frobenius_scalar(RatFunc.from_poly(reduce(poly_lcm, dens)), q)
            splits = [{} if c.is_zero else frobenius_split(c * scale, q, self.nvars) for c in entries]
            rows = {}
            for mu in sorted({mu for s in splits for mu in s}):
                rows[mu] = len(self.solver.log)
                self.solver.add_equation([s.get(mu, field.zero) for s in splits])
            self.blocks.append((gamma, scale, rows))


def p_power_root(algebra: FlatAlgebra, target: dict, r: int):
    """Solve x^(p^r) = target in the algebra; None when no solution exists.

    The left-hand side is the algebra's `RootSystem` for q = p^r, built whole
    on first use; only the right-hand side is new.  Block by block, the
    target's gamma-coefficient is split with the block's scale and its pieces
    are replayed through the logged reductions: a piece with no equation or a
    dependent equation left nonzero means no root.  At full rank the solution
    is unique, so only pivot equations are replayed.  Back-substitution sets
    free variables to zero, and x^q = target is checked, which covers every
    equation skipped or never built.
    """
    q = algebra.field.p**r
    system = algebra.root_system(q)
    solver, zero = system.solver, algebra.field.zero
    full = solver.rank == len(system.basis)
    reduced: dict = {}
    for gamma, scale, rows in system.blocks:
        pieces = {}
        if gamma in target:
            if not rows:
                return None
            pieces = frobenius_split(target[gamma] * scale, q, system.nvars)
            if not pieces.keys() <= rows.keys():
                return None
        for mu, i in rows.items():
            if full and solver.log[i][1] is None:
                continue
            if not solver.replay(i, pieces.get(mu, zero), reduced):
                return None

    x = {e: c for e, c in zip(system.basis, solver.solution(reduced)) if not c.is_zero}
    if algebra.frobenius(x, q) != target:
        return None
    return x
