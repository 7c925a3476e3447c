"""Embedding invariants of local rings at triangular closed points.

A closed point is a maximal ideal in triangular form: u1(x1), u2(x1,x2), ...
each monic in its main variable.  The residue field is then an explicit
tower, built one generator at a time by `adjoin_generator`: a linear u_i
fixes the image of x_i, any other u_i adjoins the layer u_i = 0 unchecked;
`LocalAt` refuses, by P's Jacobian at P, each point with k[x]/P not reduced.
The classes of the triangular generators span the cotangent space.  A jump
report reads I once, through the values Q(P) of its triangular quotients,
and P once, through its Jacobian J_P(P); I's Jacobian at P is Q(P) J_P(P),
so no generator of I is differentiated.

`LocalAt(I, P)` computes each of these pieces at most once: the residue
tower, Q(P), the Krull dimension and the columns of J_P(P).  A
CLI session keeps one per (ideal, point), so its commands about the same
pair compute it once; each library function builds a fresh one per call, and
nothing is cached on `ClosedPoint` or `IdealPresentation`.  The second
route, `base_change_point`, rewrites I and P over k' via t_i =
s_i^(p^e_i); the walk's nilpotent roots become polynomials through
`FlatModel.flatten` of the residue field, a slot of kappa read as its
variable x_i and an adjoined slot as s_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from . import artin
from .errors import (
    ArityMismatch,
    BoundViolated,
    NotContained,
    NotEquidimensional,
    NotPrime,
    TriangularizationFailed,
    ZeroDivisorDetected,
)
from contextlib import contextmanager
from .ff_arith import (
    LEX,
    FractionField,
    IdealPresentation,
    MultiPoly,
    RatFunc,
    groebner_basis,
    quotient_dim,
)
from .flat import flat_model
from .tower import BaseField, FieldTower, algebraic_layer, tower_extend


@dataclass(frozen=True)
class ClosedPoint:
    """Triangular generators of a maximal ideal of k[x1..xn]."""

    base: BaseField
    varnames: tuple
    generators: tuple

    def __post_init__(self):
        n = len(self.varnames)
        if len(self.generators) != n:
            raise ArityMismatch("need exactly one triangular generator per variable")
        field = self.base.field
        for i, u in enumerate(self.generators):
            if u.arity != n or u.dom != field:
                raise ArityMismatch("generator arity/field mismatch")
            coeffs = u.coefficients(i)
            if len(coeffs) < 2:
                raise ArityMismatch(f"generator {i} must involve its main variable")
            if any(exp[j] for exp in u.terms for j in range(i + 1, n)):
                raise ArityMismatch(f"generator {i} uses a later variable")
            lead = coeffs[-1]
            if not (lead.is_constant and lead.constant_value().is_one):
                raise ArityMismatch(f"generator {i} is not monic in its main variable")

    @property
    def field(self) -> FractionField:
        return self.base.field

    def degrees(self) -> list:
        return [u.degree_in(i) for i, u in enumerate(self.generators)]

    def residue_degree(self) -> int:
        out = 1
        for d in self.degrees():
            out *= d
        return out

    def ideal(self) -> IdealPresentation:
        return IdealPresentation(self.field, self.varnames, self.generators)

    def residue_tower(self) -> tuple:
        """(kappa as a FieldTower over the base, images of x1..xn in kappa)."""
        K, images = FieldTower(self.base), []
        for i, u in enumerate(self.generators):
            K, images = adjoin_generator(K, images, u, i, self.varnames[i])
        return K, images


def adjoin_generator(K: FieldTower, images: list, u: MultiPoly, i: int, name: str) -> tuple:
    """Extend (K, images of x1..x_(i-1) in K) by a triangular generator u, monic in x_i.

    The coefficients of u in x_i are evaluated at the earlier images.  A linear
    u fixes the image of x_i in K; any other u adjoins the layer u = 0, named
    `name`, and the earlier images are embedded into it.  No u is checked for
    irreducibility; `LocalAt` refuses a point that is not reduced.
    """
    coeffs = [c.evaluate(images, K.from_base) for c in u.coefficients(i)[:-1]]
    if len(coeffs) == 1:
        return K, images + [-coeffs[0]]
    K = tower_extend(K, algebraic_layer(K, name, coeffs))
    return K, [K.embed(im) for im in images] + [K.gen(name)]


@dataclass(frozen=True)
class JumpReport:
    """Embedding data before and after a purely inseparable base change."""

    edim_before: int
    edim_after: int
    ejump: int
    ecodim_before: int
    ecodim_after: int
    bound_lemma: int
    bound_theorem: int
    base_dim: int
    satisfied: dict

    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())

    def to_dict(self) -> dict:
        return {
            "edim_before": self.edim_before,
            "edim_after": self.edim_after,
            "ejump": self.ejump,
            "ecodim_before": self.ecodim_before,
            "ecodim_after": self.ecodim_after,
            "bound_lemma": self.bound_lemma,
            "bound_theorem": self.bound_theorem,
            "base_dim": self.base_dim,
            "satisfied": dict(self.satisfied),
        }


@dataclass(frozen=True)
class StabilityReport:
    variable: str
    jumps: tuple
    stable: bool

    def to_dict(self) -> dict:
        return {"variable": self.variable, "jumps": list(self.jumps), "stable": self.stable}


@contextmanager
def _not_prime_on_zero_divisor():
    """Residue-field arithmetic hitting a zero divisor means P was not prime."""
    try:
        yield
    except ZeroDivisorDetected as exc:
        raise NotPrime(f"triangular presentation is not prime: {exc}") from exc


def _triangular_quotients(g: MultiPoly, P: ClosedPoint) -> list:
    """q_1..q_n with g = sum q_i u_i, dividing by u_n first and u_1 last.

    Each u_i is monic in x_i and uses no later variable, so every step is exact
    and leaves the degrees in the later, already reduced variables alone.  The
    monic triangular set is a lex Groebner basis of P (Lazard 1992), so the
    remainder is zero exactly when g lies in P.
    """
    n = len(P.varnames)
    quotients = [None] * n
    r = g
    for i in reversed(range(n)):
        u = P.generators[i]
        d = u.degree_in(i)
        q = MultiPoly.zero(P.field, n)
        while (top := r.degree_in(i)) >= d:
            lead = {exp: c for exp, c in r.terms.items() if exp[i] == top}
            step = MultiPoly(P.field, n, {exp[:i] + (top - d,) + exp[i + 1 :]: c for exp, c in lead.items()})
            q = q + step
            r = r - step * u
        quotients[i] = q
    if not r.is_zero:
        raise NotContained("ideal is not contained in the point's maximal ideal")
    return quotients


class _Jacobian:
    """P's Jacobian J_P(P) = [du/dt_j | du/dx_i](P) over kappa, one row per generator u of P.

    du/dt_j differentiates the F_p(t) coefficients of u (see `LocalAt.report`).
    A column is evaluated on first use; a corank is cached by its kept columns
    and by whether it took `LocalAt`'s one left factor, Q(P).
    """

    def __init__(self, P: ClosedPoint):
        self.generators = P.generators
        self.kappa, self.images = P.residue_tower()
        self._columns: dict = {}
        self._coranks: dict = {}

    def _column(self, kind: str, j: int) -> list:
        column = self._columns.get((kind, j))
        if column is None:
            n, kappa = len(self.images), self.kappa
            if kind == "t":
                polys = [
                    MultiPoly.from_terms(u.dom, n, ((e, c.derivative(j)) for e, c in u.terms.items()))
                    for u in self.generators
                ]
            else:
                polys = [u.derivative(j) for u in self.generators]
            column = self._columns[(kind, j)] = [f.evaluate(self.images, kappa.from_base).payload for f in polys]
        return column

    def corank(self, keep: tuple, left: list | None = None) -> int:
        """n - rank over kappa of left times [du/dt_j for j in keep | every du/dx_i]; no left is the identity."""
        key = (keep, left is None)
        corank = self._coranks.get(key)
        if corank is None:
            n, alg = len(self.images), self.kappa.algebra
            columns = [self._column("t", j) for j in keep] + [self._column("x", i) for i in range(n)]
            if left is not None:
                columns = [[reduce(alg.add, map(alg.mul, q, column)) for q in left] for column in columns]
            with _not_prime_on_zero_divisor():
                corank = self._coranks[key] = n - alg.rank(list(zip(*columns)))
        return corank


class LocalAt:
    """The local ring (k[x]/I)_P, each piece computed at most once, on first use.

    The pieces are the residue tower (kappa, images), Q(P), the triangular
    edim, the Krull dimension of I, and P's Jacobian J_P(P).  A failing piece
    raises again each time it is asked for, so a failing (I, P) fails the same
    way on every command.  The object holds the only cache: the CLI keeps one
    per (ideal, point) of a session, and each library wrapper below builds a
    fresh one per call.
    """

    def __init__(self, I: IdealPresentation, P: ClosedPoint):
        if I.varnames != P.varnames or I.coeff_field != P.field:
            raise ArityMismatch("ideal and point live in different polynomial rings")
        self.I, self.P = I, P

    @property
    def residue_tower(self) -> tuple:
        return self._point_jacobian.kappa, self._point_jacobian.images

    @cached_property
    def _quotient_values(self) -> list:
        """Q(P): one row (q_1(P), .., q_n(P)) over kappa per generator g = sum q_i u_i of I."""
        kappa, images = self.residue_tower
        quotients = [_triangular_quotients(g, self.P) for g in self.I.generators]
        return [[q.evaluate(images, kappa.from_base).payload for q in qs] for qs in quotients]

    @cached_property
    def edim(self) -> int:
        """dim over kappa of m/m^2.

        k[x]_P is regular of dimension n and u_1..u_n generate P, so the classes
        [u_i] are a kappa-basis of P/P^2 (Matsumura, Commutative Ring Theory,
        §14).  Each generator g = sum q_i u_i of I has class sum q_i(P) [u_i],
        hence edim = n - rank over kappa of Q(P).
        """
        kappa, images = self.residue_tower
        with _not_prime_on_zero_divisor():
            return len(images) - kappa.algebra.rank(self._quotient_values)

    @cached_property
    def krull_dim(self) -> int:
        return quotient_dim(self.I)[0]

    @property
    def ecodim(self) -> int:
        """edim minus the Krull dimension of the quotient (equidimensionality assumed)."""
        return _ecodim(self.edim, self.krull_dim)

    @cached_property
    def _point_jacobian(self) -> _Jacobian:
        """P's Jacobian over its residue tower, built first; NotPrime unless k[x]/P is reduced.

        F_p is perfect, so k[x]/P is reduced exactly when [du/dt_j | du/dx_i](P)
        has rank n at each of its points (Jacobian criterion; Matsumura, §30),
        as a rank with unit pivots proves.  The t columns join only when the x
        columns, the theorem's bound, fall short.
        """
        jacobian = _Jacobian(self.P)
        if jacobian.corank(()) and (corank := jacobian.corank(tuple(range(self.P.base.d)))):
            raise NotPrime(f"the point is not reduced: its Jacobian at the point has corank {corank}")
        return jacobian

    def report(self, exponents, strict: bool = False) -> JumpReport:
        """Full before/after report with both proved bounds evaluated.

        F_p is perfect, so m/m^2 of O = (k[x]/I)_P embeds in Omega_{O/F_p} (x)
        kappa with cokernel Omega_{kappa/F_p} of dimension d (Matsumura,
        Thm 25.2): edim O = n - rank [dg/dt_j | dg/dx_i](P).  Every u_i vanishes
        at P, so dg(P) = sum q_i(P) du_i(P): that matrix is Q(P) J_P(P), of the
        rank of Q(P) (edim before), as J_P(P) has rank n.  Over k', dt_j = 0
        when e_j >= 1, so edim after drops those columns, and the rank stays one
        over kappa.  k'/k is algebraic, so the Krull dimension is unchanged.  The
        same count with I = P bounds the jump: the lemma's edim(kappa (x)_k k')
        keeps the columns edim after keeps, and the theorem's pdeg - trdeg of
        kappa/k is dim Omega_{kappa/k} = n - rank [du/dx_i](P), as kappa/k is
        finite.  So every inequality holds by construction: a rank over more
        columns is never smaller (theorem), rank Q A <= rank Q (nonnegative),
        Sylvester's rank Q A >= rank Q + rank A - n (lemma), and dropping d
        columns lowers a rank by at most d (both corollaries: the ecodims differ
        by the jump, and O regular has ecodim_before = 0, the paper's case);
        `acceptance.criterion_3_bound_chain` recounts both bounds by the
        base-change walk and by Kaehler ranks.
        In strict mode a violated inequality raises BoundViolated.
        """
        base = self.P.base
        exponents = normalize_exponents(base, exponents)
        edim_before = self.edim
        dim = self.krull_dim
        ecodim_before = _ecodim(edim_before, dim)
        keep = tuple(j for j, e in enumerate(exponents) if e == 0)
        edim_after = self._point_jacobian.corank(keep, self._quotient_values)
        bound_lemma = self._point_jacobian.corank(keep)
        bound_theorem = self._point_jacobian.corank(())

        ejump = edim_after - edim_before
        ecodim_after = edim_after - dim
        satisfied = {
            "nonnegative": 0 <= ejump,
            "lemma": ejump <= bound_lemma,
            "theorem": bound_lemma <= bound_theorem,
            "corollary_edim": edim_after <= edim_before + base.d,
            "corollary_ecodim": ecodim_after <= ecodim_before + base.d,
        }
        report = JumpReport(
            edim_before=edim_before,
            edim_after=edim_after,
            ejump=ejump,
            ecodim_before=ecodim_before,
            ecodim_after=ecodim_after,
            bound_lemma=bound_lemma,
            bound_theorem=bound_theorem,
            base_dim=base.d,
            satisfied=satisfied,
        )
        if strict:
            for name, ok in satisfied.items():
                if not ok:
                    raise BoundViolated(name, f"report: {report.to_dict()}")
        return report

    def height_one(self, variable: str, n_max: int) -> StabilityReport:
        """Jumps over t_var^(1/p^n) for n = 1..n_max.

        Edim after keeps the t_j columns with e_j = 0, the same set for every
        n >= 1, so one report gives every jump and they agree by construction.
        Criterion 2's Buchberger recount of the cusps is the real check.
        """
        if n_max < 2:
            raise ArityMismatch("n_max must be >= 2")
        if variable not in self.P.base.varnames:
            raise ArityMismatch(f"unknown base variable {variable!r}")
        jump = self.report({variable: 1}).ejump
        return StabilityReport(variable, (jump,) * n_max, True)


def _ecodim(edim: int, dim: int) -> int:
    """edim - dim, where dim is the global Krull dimension of I.

    Equidimensionality at P is assumed: then dim O_P = dim.  Krull's bound
    dim O_P <= edim makes dim > edim a proof that the assumption fails.
    """
    if dim > edim:
        raise NotEquidimensional(
            f"Krull dimension {dim} exceeds edim {edim}, so the ideal is not equidimensional at the point"
        )
    return edim - dim


def edim_at_point(I: IdealPresentation, P: ClosedPoint) -> int:
    """dim over kappa of m/m^2 for the local ring (k[x]/I) at P; see `LocalAt.edim`."""
    return LocalAt(I, P).edim


# -- base change ------------------------------------------------------------


def _new_base_names(base: BaseField, exponents: tuple, forbidden) -> tuple:
    names = []
    for i, name in enumerate(base.varnames):
        if exponents[i] == 0:
            names.append(name)
            continue
        stem = "s" if base.d == 1 else f"s{i + 1}"
        candidate = stem
        while candidate in forbidden or candidate in names or candidate in base.varnames:
            candidate += "_"
        names.append(candidate)
    return tuple(names)


def normalize_exponents(base: BaseField, exponents) -> tuple:
    if isinstance(exponents, dict):
        unknown = set(exponents) - set(base.varnames)
        if unknown:
            raise ArityMismatch(f"unknown base variables {sorted(unknown)}")
        out = tuple(int(exponents.get(v, 0)) for v in base.varnames)
    else:
        out = tuple(int(e) for e in exponents)
        if len(out) != base.d:
            raise ArityMismatch("one exponent per base variable required")
    if any(e < 0 for e in out):
        raise ArityMismatch("exponents must be >= 0")
    return out


def _subst_ratfunc(r: RatFunc, scales: tuple) -> RatFunc:
    return r.map_exponents(lambda exp: tuple(e * s for e, s in zip(exp, scales)))


def _subst_poly(f: MultiPoly, scales: tuple, new_field: FractionField) -> MultiPoly:
    return MultiPoly(
        new_field, f.arity, {exp: _subst_ratfunc(c, scales) for exp, c in f.terms.items()}
    )


def base_change_point(I: IdealPresentation, P: ClosedPoint, exponents) -> tuple:
    """Rewrite (I, P) over k' = k(t_i^(1/p^e_i)); returns (I', P').

    The second route to a jump report's edim after: P' is triangularized from
    P and the walk's nilpotent roots by a lex Buchberger basis.  kappa comes
    from `LocalAt`, so a point with k[x]/P not reduced raises NotPrime.
    """
    kappa, _ = LocalAt(I, P).residue_tower
    base = P.base
    exponents = normalize_exponents(base, exponents)
    if all(e == 0 for e in exponents):
        return I, P
    p = base.p
    scales = tuple(p**e for e in exponents)
    new_base = BaseField(p, _new_base_names(base, exponents, set(P.varnames)))
    new_field = new_base.field

    new_I = IdealPresentation(
        new_field,
        I.varnames,
        tuple(_subst_poly(g, scales, new_field) for g in I.generators),
        I.order,
    )
    new_P_gens = [_subst_poly(u, scales, new_field) for u in P.generators]

    entry_var = [i for i, e in enumerate(exponents) if e >= 1]
    with _not_prime_on_zero_divisor():
        spec = artin.InseparableExtensionSpec.of([(base.field.gen(i), exponents[i]) for i in entry_var])
        structure = artin.base_change_structure(kappa, spec)

    # flat slots of the residue field: kappa's slots are the x_i of degree >= 2,
    # then one slot per adjoined layer, read as s_j for the variable of its entry
    n = len(P.varnames)
    x_of_slot = [i for i, u in enumerate(P.generators) if u.degree_in(i) >= 2]
    s_of_slot = [new_field.gen(entry_var[idx]) for idx, _ in structure.adjoined]
    L = structure.residue_field
    model = flat_model(L)

    for rec in structure.nilpotents:
        terms = []
        for e, c in model.flatten(L.embed(rec.root)).items():
            x_exp = [0] * n
            for var, power in zip(x_of_slot, e):
                x_exp[var] = power
            coeff = _subst_ratfunc(c, scales)
            for s, power in zip(s_of_slot, e[len(x_of_slot) :]):
                coeff = coeff * s**power
            terms.append((x_exp, coeff))
        # terms differing only in their s exponents land on one x-monomial
        lift = MultiPoly.from_terms(new_field, n, terms)
        zval = new_field.gen(entry_var[rec.entry_index]) ** rec.z_power
        new_P_gens.append(lift - MultiPoly.const(new_field, n, zval))

    return new_I, _triangularize(new_base, P.varnames, tuple(new_P_gens))


def _triangularize(base: BaseField, varnames: tuple, generators: tuple) -> ClosedPoint:
    """Read the triangular monic generators of a maximal ideal off its reduced lex basis.

    The reduced lex basis of a zero-dimensional prime ideal is a triangular
    set (Lazard 1992): exactly n elements, and the one whose highest variable
    is x_i has a pure power of x_i as its leading monomial.  Any other shape
    means the generators do not describe a point.
    """
    field = base.field
    n = len(varnames)
    # lex with the *last* variable most significant eliminates trailing variables,
    # which is what the triangular shape u_i(x1..xi) needs
    reverse = lambda exp: tuple(reversed(exp))
    rev_gens = tuple(g.map_exponents(reverse) for g in generators if not g.is_zero)
    gb = groebner_basis(IdealPresentation(field, tuple(reversed(varnames)), rev_gens, LEX))
    if gb.is_unit_ideal:
        raise TriangularizationFailed("generators span the unit ideal")
    chosen = [None] * n
    for g in gb.generators:
        lead, _ = g.leading(LEX)
        j = next(j for j, e in enumerate(lead) if e)  # reversed: g's highest variable comes first
        i = n - 1 - j
        if sum(lead) != lead[j] or chosen[i] is not None:
            raise TriangularizationFailed("the reduced lex basis is not a triangular set")
        chosen[i] = g.map_exponents(reverse)
    if None in chosen:
        missing = varnames[chosen.index(None)]
        raise TriangularizationFailed(f"no monic triangular generator for {missing}")
    return ClosedPoint(base, varnames, tuple(chosen))


# -- jump reports ------------------------------------------------------------


def ejump_at_point(I: IdealPresentation, P: ClosedPoint, exponents) -> JumpReport:
    """Full before/after report with both proved bounds; see `LocalAt.report`."""
    return LocalAt(I, P).report(exponents)


def verify_height_one_stability(
    I: IdealPresentation, P: ClosedPoint, variable: str, n_max: int
) -> StabilityReport:
    """Jumps over t_var^(1/p^n) for n = 1..n_max must all agree; see `LocalAt.height_one`."""
    return LocalAt(I, P).height_one(variable, n_max)


def classical_jacobian_edim(I: IdealPresentation, P: ClosedPoint) -> int:
    """Jet-space count n - rank [dg/dx_i](P): the edim after a p-th root of every base variable.

    Agrees with edim_at_point exactly at points with separable residue field;
    at inseparable points the naive Jacobian misses cotangent directions.
    """
    local = LocalAt(I, P)
    return local._point_jacobian.corank((), local._quotient_values)
