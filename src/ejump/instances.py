"""Fixture instances and seeded random generators for the verification suites.

Random towers mix transcendental layers, separable layers from families whose
irreducibility over the relevant subfield is known (Artin-Schreier shapes,
non-square quadratics, Eisenstein binomials over a fresh transcendental), and
verified inseparable roots; nothing relies on unchecked irreducibility, so
randomized runs cannot flake on a reducible minimal polynomial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .artin import InseparableExtensionSpec
from .ff_arith import IdealPresentation, MultiPoly, RatFunc, poly_from_text, ratfunc_from_text
from .localring import ClosedPoint, adjoin_generator
from .tower import (
    BaseField,
    FieldTower,
    TowerElement,
    adjoin_p_root,
    algebraic_layer,
    fresh_name,
    inseparable_root_layer,
    is_p_power_tower,
    tower_extend,
    transcendental_layer,
)

ACCEPTANCE_PRIMES = (2, 3, 5)


# -- fixtures ----------------------------------------------------------------


def cusp_char2():
    """The characteristic-2 quasi-elliptic cusp: x^2 + y^3 + t at (y, x^2 + t)."""
    base = BaseField(2, ("t",))
    field = base.field
    varnames = ("y", "x")
    I = IdealPresentation(field, varnames, (poly_from_text(field, varnames, "x^2 + y^3 + t"),))
    P = ClosedPoint(
        base,
        varnames,
        (poly_from_text(field, varnames, "y"), poly_from_text(field, varnames, "x^2 + t")),
    )
    return I, P


def cusp_char3():
    """The characteristic-3 cusp: x^2 + y^3 - t at (x, y^3 - t)."""
    base = BaseField(3, ("t",))
    field = base.field
    varnames = ("x", "y")
    I = IdealPresentation(field, varnames, (poly_from_text(field, varnames, "x^2 + y^3 - t"),))
    P = ClosedPoint(
        base,
        varnames,
        (poly_from_text(field, varnames, "x"), poly_from_text(field, varnames, "y^3 - t")),
    )
    return I, P


def sqrt_t_tower(p: int = 2) -> FieldTower:
    """F_p(t^(1/p)) presented as a verified inseparable root over F_p(t)."""
    base = BaseField(p, ("t",))
    k = FieldTower(base)
    return adjoin_p_root(k, k.base_var("t"), 1, name="u")


def rational_oracle_specs() -> list:
    """(K, spec) over K = F_p(T), of total degree 27-125 with two or more nilpotents.

    K has no slot, so the structure oracle counts its quotient in scalar rows.
    """
    cases = []
    for p, names, entries in (
        (2, ("t",), (("t", 2), ("t", 2), ("t", 1))),
        (2, ("t",), (("t", 3), ("t", 1), ("t^2 + t", 1))),
        (2, ("t",), (("t", 1), ("t + 1", 2), ("t^3 + t^2", 1), ("t", 2))),
        (3, ("t",), (("t", 1), ("t", 1), ("t", 1))),
        (3, ("t1", "t2"), (("t1", 1), ("t1", 1), ("t2", 1), ("t1*t2", 1))),
        (3, ("t1", "t2"), (("t1 + t2", 1), ("t1", 1), ("t1^3 + t2^3", 1), ("t2", 1))),
        (5, ("t",), (("t", 1), ("t", 1), ("t + 1", 1))),
        (5, ("t",), (("t", 1), ("t^5 + 2", 1), ("t + 3", 1))),
    ):
        base = BaseField(p, names)
        spec = InseparableExtensionSpec.of((ratfunc_from_text(base.field, a), n) for a, n in entries)
        cases.append((FieldTower(base), spec))
    return cases


# -- random base-field elements ----------------------------------------------


def random_base_poly(rng: random.Random, base: BaseField, max_degree: int = 2):
    field = base.field
    dom = field.prime_field
    d = base.d
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(d))
        terms[exp] = rng.randint(0, base.p - 1)
    poly = MultiPoly.from_terms(dom, d, terms.items())
    if poly.is_zero:
        poly = MultiPoly.from_int(dom, d, 1)
    return poly


def random_base_element(rng: random.Random, base: BaseField, allow_fraction: bool = True) -> RatFunc:
    num = random_base_poly(rng, base)
    if allow_fraction and rng.random() < 0.25:
        return RatFunc(num, random_base_poly(rng, base, max_degree=1))
    return RatFunc.from_poly(num)


def _separable_first_layer(K: FieldTower) -> FieldTower:
    """A separable algebraic layer irreducible over any rational base."""
    p = K.p
    name = fresh_name(K, "a")
    t = K.base_var(K.base.varnames[0])
    if p == 2:
        # Y^2 + Y + t: Artin-Schreier, irreducible over F_2(t,...)
        return tower_extend(K, algebraic_layer(K, name, [t, K.one]))
    if p == 3:
        # Y^3 - Y - t
        return tower_extend(K, algebraic_layer(K, name, [-t, -K.one, K.zero]))
    # Y^2 - (t + 1): t + 1 is not a square in F_p(t, ...)
    return tower_extend(K, algebraic_layer(K, name, [-(t + K.one), K.zero]))


def _eisenstein_pair(rng: random.Random, K: FieldTower) -> FieldTower:
    """Fresh transcendental y followed by u^m = y + c, separable since p does not divide m."""
    p = K.p
    yname = fresh_name(K, "y")
    K = tower_extend(K, transcendental_layer(yname))
    m = 3 if p == 2 else 2
    c = K.from_int(rng.randint(0, p - 1))
    rad = K.gen(yname) + c
    name = fresh_name(K, "b")
    coeffs = [-rad] + [K.zero] * (m - 1)
    return tower_extend(K, algebraic_layer(K, name, coeffs))


def _random_inseparable_layer(rng: random.Random, K: FieldTower, max_exp: int):
    """Adjoin a p-th power root of a small base-field element, tested once by `is_p_power_tower`."""
    base = K.base
    for _ in range(8):
        a = random_base_element(rng, base, allow_fraction=rng.random() < 0.2)
        elt = K.from_base(a)
        if elt.is_zero or is_p_power_tower(elt):
            continue
        e = 1 if max_exp <= 1 or rng.random() < 0.7 else rng.randint(1, max_exp)
        layer = inseparable_root_layer(K, fresh_name(K, "g"), elt, e)
        return FieldTower(K.base, K.layers + (layer,)), a
    return None, None


@dataclass
class RandomTower:
    tower: FieldTower
    inseparable_radicands: list  # base-field radicands of the inseparable layers


def random_tower(
    rng: random.Random,
    p: int,
    d: int,
    max_layers: int = 3,
    max_exp: int = 2,
    dim_budget: int = 12,
) -> RandomTower:
    names = ("t",) if d == 1 else tuple(f"t{i + 1}" for i in range(d))
    K = FieldTower(BaseField(p, names))
    radicands: list = []
    target = rng.randint(0, max_layers)
    attempts = 0
    while K.height < target and attempts < 20:
        attempts += 1
        kind = rng.choice(("trans", "insep", "insep", "sep", "pair"))
        if kind == "trans":
            K = tower_extend(K, transcendental_layer(fresh_name(K, "y")))
        elif kind == "insep":
            if K.degree_over_transcendental_base() * p > dim_budget:
                continue
            allowed_exp = max_exp if K.degree_over_transcendental_base() * p**max_exp <= dim_budget else 1
            K2, a = _random_inseparable_layer(rng, K, allowed_exp)
            if K2 is not None:
                K = K2
                radicands.append(a)
        elif kind == "sep" and K.height == 0:
            if (2 if p != 3 else 3) * K.degree_over_transcendental_base() <= dim_budget:
                K = _separable_first_layer(K)
        elif kind == "pair" and target - K.height >= 2:
            if (3 if p == 2 else 2) * K.degree_over_transcendental_base() <= dim_budget:
                K = _eisenstein_pair(rng, K)
    return RandomTower(K, radicands)


def random_tower_element(rng: random.Random, K: FieldTower, size: int = 2) -> TowerElement:
    atoms = [K.from_int(rng.randint(0, K.p - 1)) for _ in range(1)]
    for name in K.base.varnames:
        atoms.append(K.base_var(name))
    for layer in K.layers:
        atoms.append(K.gen(layer.name))
    value = atoms[rng.randrange(len(atoms))]
    for _ in range(size):
        other = atoms[rng.randrange(len(atoms))]
        op = rng.random()
        if op < 0.45:
            value = value + other
        elif op < 0.8:
            value = value * other
        elif not other.is_zero:
            value = value / other
    return value


# -- random closed points and hypersurfaces -----------------------------------


def random_point(
    rng: random.Random,
    base: BaseField,
    nvars: int,
    allow_insep: bool = True,
    degree_budget: int = 9,
) -> ClosedPoint:
    """A triangular closed point with generators of verified irreducibility.

    When the characteristic allows it, one position is forced to carry an
    inseparable generator so the sampled residue fields actually exercise
    the imperfect-base phenomena.  The residue degree stays within
    `degree_budget` to keep the Groebner work desk-scale.
    """
    field = base.field
    varnames = ("x", "y", "z")[:nvars]
    p = base.p
    gens: list = []
    K = FieldTower(base)
    images: list = []
    forced_insep = rng.randrange(nvars) if (allow_insep and p <= 3) else None

    for i in range(nvars):
        degree_so_far = K.degree_over_transcendental_base()
        choices = ["linear", "linear"]
        sep_degree = 3 if p == 3 else 2
        if i == 0 and degree_so_far * sep_degree <= degree_budget:
            choices.append("sep")
        if allow_insep and p <= 3 and degree_so_far * p <= degree_budget:
            choices.extend(["insep", "insep"])
            if i == forced_insep:
                choices = ["insep"] * 6 + ["linear"]
        x = MultiPoly.gen(field, nvars, i)
        for _ in range(8):
            kind = rng.choice(choices)
            if kind == "linear":
                expr = MultiPoly.const(field, nvars, random_base_element(rng, base, allow_fraction=False))
                if i > 0 and rng.random() < 0.5:
                    j = rng.randrange(i)
                    expr = expr + MultiPoly.gen(field, nvars, j)
                u = x - expr
            elif kind == "sep":
                t0 = MultiPoly.const(field, nvars, field.gen(0))
                if p == 2:
                    u = x * x + x + t0
                elif p == 3:
                    u = x**3 - x - t0
                else:
                    u = x * x - (t0 + MultiPoly.const(field, nvars, field.one))
            else:
                # inseparable: x_i^p - a, redrawn while a is a p-th power in the current
                # residue field; start from a variable-dependent candidate so constants
                # never dominate
                tvar = field.gen(rng.randrange(base.d))
                a = tvar * random_base_element(rng, base, allow_fraction=False)
                if rng.random() < 0.5:
                    a = a + random_base_element(rng, base, allow_fraction=False)
                if a.is_zero:
                    continue
                if rng.random() < 0.3 and i > 0:
                    a_poly = MultiPoly.const(field, nvars, a) + MultiPoly.gen(field, nvars, rng.randrange(i))
                else:
                    a_poly = MultiPoly.const(field, nvars, a)
                if is_p_power_tower(a_poly.evaluate(images, K.from_base)):
                    continue
                u = x**p - a_poly
            K, images = adjoin_generator(K, images, u, i, varnames[i])
            break
        else:
            u = x - MultiPoly.const(field, nvars, field.one)
            K, images = adjoin_generator(K, images, u, i, varnames[i])
        gens.append(u)
    return ClosedPoint(base, varnames, tuple(gens))


def random_hypersurface_through(rng: random.Random, P: ClosedPoint, max_total_degree: int = 4):
    """A nonzero hypersurface F in P with small total degree: I = (F).

    Half the draws take F congruent to a single triangular generator modulo
    P^2, the shape that actually produces embedding-dimension jumps at
    inseparable points; the rest are plain random combinations.
    """
    field = P.field
    n = len(P.varnames)
    gens = P.generators
    for _ in range(30):
        if rng.random() < 0.5:
            F = gens[rng.randrange(n)]
            for _ in range(rng.randint(1, 2)):
                j, k = rng.randrange(n), rng.randrange(n)
                c = rng.randint(0, P.base.p - 1)
                if c:
                    F = F + (gens[j] * gens[k]).scale(field.from_int(c))
        else:
            F = MultiPoly.zero(field, n)
            for u in gens:
                roll = rng.random()
                if roll < 0.35:
                    continue
                q = MultiPoly.const(field, n, random_base_element(rng, P.base, allow_fraction=False))
                if roll > 0.8 and u.total_degree() + 1 <= max_total_degree:
                    q = q * MultiPoly.gen(field, n, rng.randrange(n))
                F = F + q * u
        if F.is_zero or F.total_degree() > max_total_degree or F.is_constant:
            continue
        return IdealPresentation(field, P.varnames, (F,))
    return IdealPresentation(field, P.varnames, (P.generators[0],))


def random_bound_instance(rng: random.Random):
    """(I, P, exponents) for the bound-chain and corollary criteria."""
    p = rng.choice((2, 2, 3, 3, 5))  # inseparable points need degree p <= 4
    d = rng.randint(1, 2)
    nvars = rng.randint(1, 3)
    names = ("t",) if d == 1 else tuple(f"t{i + 1}" for i in range(d))
    base = BaseField(p, names)
    P = random_point(rng, base, nvars)
    I = random_hypersurface_through(rng, P)
    exponents = tuple(1 for _ in range(d))
    return I, P, exponents


def random_separable_point_instance(rng: random.Random):
    """(I, P) with separable residue field, for the jet-space comparison."""
    p = rng.choice(ACCEPTANCE_PRIMES)
    d = rng.randint(1, 2)
    nvars = rng.randint(1, 3)
    names = ("t",) if d == 1 else tuple(f"t{i + 1}" for i in range(d))
    base = BaseField(p, names)
    P = random_point(rng, base, nvars, allow_insep=False)
    I = random_hypersurface_through(rng, P)
    return I, P
