import json
import operator
import os
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ejump.errors import BothZero, DivByZero, InternalInvariantViolation
from ejump.ff_arith import poly
from ejump.ff_arith import (
    GREVLEX,
    LEX,
    MultiPoly,
    PrimeField,
    add_terms,
    divexact,
    monic,
    poly_gcd,
    render_poly,
)

from .strategies import poly_pairs, polys

F2 = PrimeField(2)
F3 = PrimeField(3)

DATA = os.path.join(os.path.dirname(__file__), "data")


def P(dom, arity, *items):
    return MultiPoly.from_terms(dom, arity, items)


class TestArithExamples:
    def test_char2_cancellation(self):
        t_plus_1 = P(F2, 1, ((1,), 1), ((0,), 1))
        assert (t_plus_1 + t_plus_1).is_zero

    def test_freshmans_dream(self):
        x = MultiPoly.gen(F2, 2, 0)
        y = MultiPoly.gen(F2, 2, 1)
        assert (x + y) * (x + y) == x * x + y * y

    def test_f3_product(self):
        x = MultiPoly.gen(F3, 1, 0)
        one = MultiPoly.from_int(F3, 1, 1)
        two = MultiPoly.from_int(F3, 1, 2)
        expected = x * x + two
        assert (x + one) * (x + two) == expected


class TestGcdExamples:
    def test_pure_powers(self):
        t = MultiPoly.gen(F2, 1, 0)
        assert poly_gcd(t**2, t**3) == t**2

    def test_char2_square(self):
        x = MultiPoly.gen(F2, 2, 0)
        y = MultiPoly.gen(F2, 2, 1)
        assert poly_gcd(x * x + y * y, x + y) == x + y

    def test_univariate(self):
        t = MultiPoly.gen(F2, 1, 0)
        one = MultiPoly.from_int(F2, 1, 1)
        assert poly_gcd(t * t + one, t + one) == t + one

    def test_both_zero(self):
        z = MultiPoly.zero(F2, 1)
        with pytest.raises(BothZero):
            poly_gcd(z, z)


class TestOrders:
    def test_grevlex_leading(self):
        x = MultiPoly.gen(F2, 2, 0)
        y = MultiPoly.gen(F2, 2, 1)
        f = x * x + y**3
        assert f.leading(GREVLEX)[0] == (0, 3)
        assert f.leading(LEX)[0] == (2, 0)

    def test_render_canonical(self):
        x = MultiPoly.gen(F3, 2, 0)
        y = MultiPoly.gen(F3, 2, 1)
        f = x * x + y**3 + MultiPoly.from_int(F3, 2, 2)
        assert render_poly(f, ("x", "y")) == "y^3 + x^2 + 2"


@given(poly_pairs())
def test_add_commutes(pair):
    a, b = pair
    assert a + b == b + a


@given(poly_pairs())
def test_mul_commutes(pair):
    a, b = pair
    assert a * b == b * a


@given(poly_pairs(), polys())
def test_distributive(pair, c):
    a, b = pair
    if c.dom != a.dom or c.arity != a.arity:
        c = MultiPoly.from_terms(a.dom, a.arity, [])
    assert (a + b) * c == a * c + b * c


@given(polys(), st.integers(0, 1))
def test_coefficients_reassemble(f, var):
    var = min(var, f.arity - 1)
    x = MultiPoly.gen(f.dom, f.arity, var)
    coeffs = f.coefficients(var)
    total = MultiPoly.zero(f.dom, f.arity)
    for j, c in enumerate(coeffs):
        assert c.degree_in(var) <= 0
        total = total + c * x**j
    assert total == f
    assert not coeffs or not coeffs[-1].is_zero


class GenericPrimeField:
    """F_p through MultiPoly's generic coefficient loop: delegates to PrimeField."""

    is_prime_field = False

    def __init__(self, field: PrimeField):
        self.field = field

    def __getattr__(self, name):
        return getattr(self.field, name)


@given(poly_pairs())
def test_prime_field_loops_match_the_generic_loop(pair):
    a, b = pair
    dom = GenericPrimeField(a.dom)
    ga, gb = (MultiPoly(dom, f.arity, dict(f.terms)) for f in (a, b))
    for op in (operator.add, operator.sub, operator.mul):
        assert op(a, b).terms == op(ga, gb).terms
    # b's exponents repeated and a's cancelled by their negatives: what is left is b + b
    items = list(a.terms.items()) + list(b.terms.items()) * 2 + [(e, a.dom.neg(c)) for e, c in a.terms.items()]
    assert MultiPoly.from_terms(a.dom, a.arity, items).terms == MultiPoly.from_terms(dom, a.arity, items).terms
    assert MultiPoly.from_terms(a.dom, a.arity, items) == b + b
    # b^p has every exponent 0 mod p, so it drops out of the derivative
    p = a.dom.p
    f = a + b.map_exponents(lambda e: tuple(p * k for k in e))
    gf = MultiPoly(dom, f.arity, dict(f.terms))
    for var in range(a.arity):
        assert f.derivative(var).terms == gf.derivative(var).terms == a.derivative(var).terms


class CountingPrimeField(GenericPrimeField):
    """GenericPrimeField that records the operands of every `add`."""

    def __init__(self, field: PrimeField):
        super().__init__(field)
        self.added = []

    def add(self, a, b):
        self.added.append((a, b))
        return self.field.add(a, b)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=12))
def test_add_terms_is_the_sparse_sum(pairs):
    dom = CountingPrimeField(PrimeField(5))
    items = [((e,), c) for e, c in pairs]
    terms = {(0,): 1}
    assert add_terms(dom, terms, items) is terms
    # a dense reference: an exponent is stored while its running sum is nonzero mod 5
    dense, adds = {(0,): 1}, 0
    for exp, c in items:
        adds += dense.get(exp, 0) % 5 != 0
        dense[exp] = dense.get(exp, 0) + c
    assert terms == {exp: c % 5 for exp, c in dense.items() if c % 5}
    # add runs once per item whose exponent is stored, and only on a stored (nonzero) coefficient
    assert len(dom.added) == adds and all(a for a, _ in dom.added)


@given(poly_pairs(nonzero=True))
def test_gcd_divides_both(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b


def _poly_in(rng, dom, arity, variables):
    """A nonzero polynomial whose support lies in `variables`; a constant when that is empty."""
    items = [
        (tuple(rng.randint(0, 3) if i in variables else 0 for i in range(arity)), rng.randint(1, dom.p - 1))
        for _ in range(rng.randint(1, 4))
    ]
    f = MultiPoly.from_terms(dom, arity, items)
    return MultiPoly.from_int(dom, arity, 1) if f.is_zero else f


class TestDivexact:
    """Exact division runs the gcd kernel's dense `_div`; each case draws the supports of a and b apart."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quotient_of_a_product(self, p):
        rng = random.Random(p)
        dom = PrimeField(p)
        for _ in range(300):
            arity = rng.randint(1, 3)
            # each variable in a only, b only, both or neither: covers constants and disjoint supports
            roles = [rng.choice(("a", "b", "ab", "")) for _ in range(arity)]
            a = _poly_in(rng, dom, arity, {i for i, r in enumerate(roles) if "a" in r})
            b = _poly_in(rng, dom, arity, {i for i, r in enumerate(roles) if "b" in r})
            assert divexact(a * b, b) == a
            assert divexact(a * b, a) == b
            assert divexact(MultiPoly.zero(dom, arity), b).is_zero
            if not b.is_constant:
                with pytest.raises(InternalInvariantViolation):
                    divexact(a * b + MultiPoly.from_int(dom, arity, 1), b)
                with pytest.raises(InternalInvariantViolation):
                    divexact(b, b * b)

    def test_divisor_outside_the_support_raises(self):
        x, y = P(F3, 2, ((1, 0), 1)), P(F3, 2, ((0, 1), 1))
        with pytest.raises(InternalInvariantViolation):
            divexact(x, y)
        with pytest.raises(InternalInvariantViolation):
            divexact(x * x, x * y)
        with pytest.raises(DivByZero):
            divexact(x, MultiPoly.zero(F3, 2))


@given(poly_pairs(nonzero=True), polys(nonzero=True))
def test_gcd_common_factor(pair, c):
    a, b = pair
    if c.dom != a.dom or c.arity != a.arity:
        c = MultiPoly.from_int(a.dom, a.arity, 1)
    g1 = poly_gcd(a * c, b * c)
    g2 = monic(poly_gcd(a, b) * c)
    assert g1 == g2


# -- the gcd against sympy ----------------------------------------------------


def _to_sympy(sympy, *fs) -> list:
    gens = sympy.symbols(f"v0:{fs[0].arity}")
    return [sympy.Poly.from_dict(dict(f.terms), *gens, modulus=f.dom.p) for f in fs]


def _sympy_gcd(sympy, a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """gcd(a, b) computed by sympy, brought back as a monic MultiPoly."""
    G = sympy.gcd(*_to_sympy(sympy, a, b))
    return monic(MultiPoly.from_terms(a.dom, a.arity, ((e, int(c) % a.dom.p) for e, c in G.terms())))


def _assert_is_gcd(sympy, a: MultiPoly, b: MultiPoly, g: MultiPoly):
    """g divides both inputs and the cofactors are coprime, checked by sympy."""
    A, B, G = _to_sympy(sympy, a, b, g)
    qa, ra = A.div(G)
    qb, rb = B.div(G)
    assert ra.is_zero and rb.is_zero
    assert sympy.gcd(qa, qb).total_degree() == 0


def _f5_pairs():
    with open(os.path.join(DATA, "f5_gcd_pairs.json"), encoding="utf-8") as handle:
        specs = json.load(handle)["gcd_pairs"]
    return [pytest.param(spec, id=spec["name"]) for spec in specs]


@pytest.mark.parametrize("spec", _f5_pairs())
def test_f5_pair_against_sympy(spec):
    sympy = pytest.importorskip("sympy")
    dom = PrimeField(spec["p"])
    a, b = (MultiPoly.from_terms(dom, spec["arity"], spec[k]) for k in ("a", "b"))
    _assert_is_gcd(sympy, a, b, poly_gcd(a, b))


@st.composite
def planted_gcd_inputs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    arity = draw(st.integers(1, 3))
    a, b, c = (draw(polys(p=p, arity=arity, max_degree=2, max_terms=3, nonzero=True)) for _ in range(3))
    return a * c, b * c


@given(planted_gcd_inputs())
def test_gcd_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    a, b = pair
    assert poly_gcd(a, b) == _sympy_gcd(sympy, a, b)


@pytest.fixture
def prem_calls(monkeypatch):
    calls = []
    original = poly._prem

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(poly, "_prem", counting)
    return calls


class TestGcdFallback:
    """Inputs where no evaluation point proves coprimality, so the remainder sequence runs."""

    def test_leading_coefficient_vanishes_everywhere(self, prem_calls):
        # over F_2, t^4 + t vanishes at all four points of F_4, so no point is usable
        t = MultiPoly.gen(F2, 2, 0)
        x = MultiPoly.gen(F2, 2, 1)
        one = MultiPoly.from_int(F2, 2, 1)
        g = (t**4 + t) * x + one
        a, b = g * (x + t), g * (x + t + one)
        assert poly_gcd(a, b) == g
        assert prem_calls

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_images_share_a_factor_everywhere(self, prem_calls, p):
        # x + t^(p^2) - t specializes to x at every point of F_{p^2}, yet gcd(x, x + t^(p^2) - t) = 1
        dom = PrimeField(p)
        t = MultiPoly.gen(dom, 2, 0)
        x = MultiPoly.gen(dom, 2, 1)
        assert poly_gcd(x, x + t ** (p * p) - t) == MultiPoly.from_int(dom, 2, 1)
        assert prem_calls


class TestCoprimeProof:
    """The evaluation test at points of F_{p^2} proves coprimality without the remainder sequence."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_frobenius_fixed_factor_is_proved_coprime(self, prem_calls, p):
        # x + t^p - t specializes to x at every point of F_p, but not at every point of F_{p^2}
        dom = PrimeField(p)
        t = MultiPoly.gen(dom, 2, 0)
        x = MultiPoly.gen(dom, 2, 1)
        assert poly_gcd(x, x + t**p - t) == MultiPoly.from_int(dom, 2, 1)
        assert not prem_calls

    @pytest.mark.parametrize("spec", _f5_pairs())
    def test_f5_pair_is_proved_coprime(self, prem_calls, spec):
        dom = PrimeField(spec["p"])
        a, b = (MultiPoly.from_terms(dom, spec["arity"], spec[k]) for k in ("a", "b"))
        assert poly_gcd(a, b) == MultiPoly.from_int(dom, spec["arity"], 1)
        assert not prem_calls

    def test_f2_pair_needs_more_than_p_points(self, monkeypatch):
        # a*d + c*b and b*d of the seed-298 fractions a/b, c/d of the ratfuncs
        # digest: 16 terms each, and lc(a*d + c*b) vanishes at the first two
        # points.  The gcds of their coefficients, in two variables, may still
        # take the remainder sequence; the pair itself, at level 3, must not.
        a, b, c, d = (
            MultiPoly.from_terms(F2, 3, ((e, 1) for e in exps))
            for exps in (
                [(1, 2, 3), (3, 0, 2)],
                [(0, 1, 1), (1, 0, 3), (2, 1, 1), (3, 2, 0)],
                [(0, 3, 0), (1, 2, 2), (2, 3, 1)],
                [(1, 0, 1), (2, 3, 0), (2, 3, 1), (3, 1, 2)],
            )
        )

        original = poly._prem

        def refuse_level_3(f, g, k, p):
            if k == 3:
                raise AssertionError("the pseudo-remainder sequence of the pair ran")
            return original(f, g, k, p)

        monkeypatch.setattr(poly, "_prem", refuse_level_3)
        f, g = a * d + c * b, b * d
        assert len(f.terms) == len(g.terms) == 16
        assert poly_gcd(f, g) == MultiPoly.from_int(F2, 3, 1)

    def test_many_variables_over_the_largest_prime(self, prem_calls):
        # 12 variables over F_101: (101^2)^11 points exceed what a range can index
        dom = PrimeField(poly.MAX_PRIME)
        xs = [MultiPoly.gen(dom, 12, i) for i in range(12)]
        one = MultiPoly.from_int(dom, 12, 1)
        a = b = xs[-1]
        for x in xs[:-1]:
            a, b = a * x + one, b + x
        assert poly_gcd(a, b * xs[0] + one) == one
        assert not prem_calls

    @pytest.mark.parametrize("p", [p for p in range(2, poly.MAX_PRIME + 1) if poly.is_prime(p)])
    def test_tables_multiply_modulo_the_quadratic(self, p):
        c0, c1, exp, log = poly._gf(p)
        q = p * p
        m = q - 1
        assert sorted(exp[:m]) == list(range(1, q)) and exp[m:] == exp[:m]
        assert all(log[exp[i]] == i for i in range(m))

        def mul(a, b):
            # (a0 + a1 z)(b0 + b1 z) with z^2 = c1 z + c0
            a0, a1, b0, b1 = a % p, a // p, b % p, b // p
            sq = a1 * b1
            return (a0 * b0 + sq * c0) % p + (a0 * b1 + a1 * b0 + sq * c1) % p * p

        z = p  # the code of z
        assert all(exp[i + 1] == mul(exp[i], z) for i in range(m))
        rng = random.Random(p)
        for _ in range(500):
            a, b = rng.randrange(1, q), rng.randrange(1, q)
            assert exp[log[a] + log[b]] == mul(a, b)


@st.composite
def planted_main_factors(draw):
    """(p, a*c, b*c) with c of positive degree in the last variable, the main one."""
    p = draw(st.sampled_from([2, 3, 5]))
    arity = draw(st.integers(2, 3))
    a, b, c0, c1 = (draw(polys(p=p, arity=arity, max_degree=2, max_terms=3, nonzero=True)) for _ in range(4))
    t, x = (MultiPoly.gen(PrimeField(p), arity, i) for i in (0, arity - 1))
    if draw(st.booleans()):
        c1 = c1 * (t ** (p * p) - t)  # lc(c) then vanishes at every point of F_{p^2}
    c = c1 * x + c0
    assume(c.degree_in(arity - 1) > 0)
    return p, a * c, b * c


@given(planted_main_factors())
def test_planted_main_factor_is_never_proved_coprime(case):
    p, a, b = case
    support = sorted(a.support_vars() | b.support_vars())
    assume(len(support) > 1)
    assert support[-1] == a.arity - 1
    assert not poly._coprime_in_main(poly._dense(a, support), poly._dense(b, support), len(support), p)
