import pytest
from hypothesis import given

from ejump.errors import BothZero, NotAPower
from ejump.ff_arith import (
    GREVLEX,
    LEX,
    MultiPoly,
    PrimeField,
    divexact,
    is_p_power_poly,
    monic,
    p_root_poly,
    poly_gcd,
    render_poly,
)

from .strategies import poly_pairs, polys

F2 = PrimeField(2)
F3 = PrimeField(3)


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


class TestPPower:
    def test_square_detection(self):
        t = MultiPoly.gen(F2, 1, 0)
        assert is_p_power_poly(t**2)
        assert p_root_poly(t**2) == t
        assert not is_p_power_poly(t)
        with pytest.raises(NotAPower):
            p_root_poly(t)

    def test_multivariate_root(self):
        t1 = MultiPoly.gen(F2, 2, 0)
        t2 = MultiPoly.gen(F2, 2, 1)
        f = t1**2 * t2**4 + t2**2
        assert p_root_poly(f) == t1 * t2**2 + t2


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


@given(polys(nonzero=True))
def test_frobenius_roundtrip(f):
    power = f ** f.dom.p
    assert is_p_power_poly(power)
    assert p_root_poly(power) == f


@given(poly_pairs(nonzero=True))
def test_gcd_divides_both(pair):
    a, b = pair
    g = poly_gcd(a, b)
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b


@given(poly_pairs(nonzero=True), polys(nonzero=True))
def test_gcd_common_factor(pair, c):
    a, b = pair
    if c.dom != a.dom or c.arity != a.arity:
        c = MultiPoly.from_int(a.dom, a.arity, 1)
    g1 = poly_gcd(a * c, b * c)
    g2 = monic(poly_gcd(a, b) * c)
    assert g1 == g2
