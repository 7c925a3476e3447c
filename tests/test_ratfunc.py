import pytest
from hypothesis import given
from hypothesis import strategies as st

from ejump.errors import DivByZero
from ejump.ff_arith import (
    FractionField,
    MultiPoly,
    PrimeField,
    RatFunc,
    poly_gcd,
    render_ratfunc,
)

from .strategies import polys, primes, ratfunc_tuples

K2 = FractionField(2, ("t",))


class TestNormalization:
    def test_den_monic_and_coprime(self):
        t = MultiPoly.gen(PrimeField(3), 1, 0)
        two = MultiPoly.from_int(PrimeField(3), 1, 2)
        f = RatFunc(t * t * two, t * two)
        assert f.den.leading()[1] == 1
        assert poly_gcd(f.num, f.den).is_constant

    def test_zero_canonical(self):
        z = RatFunc(MultiPoly.zero(PrimeField(2), 1), MultiPoly.gen(PrimeField(2), 1, 0))
        assert z.is_zero
        assert z.den == MultiPoly.from_int(PrimeField(2), 1, 1)

    def test_sum_cancels_inside_the_common_denominator(self):
        # over F_3, 1/(x(x+1)) + 1/(x(x+2)) = (2x + 3)/(x(x+1)(x+2)) = 2/((x+1)(x+2))
        K3 = FractionField(3, ("x",))
        x, one, two = K3.gen(0), K3.one, K3.from_int(2)
        total = one / (x * (x + one)) + one / (x * (x + two))
        assert total == two / ((x + one) * (x + two))
        assert total.num == MultiPoly.from_int(PrimeField(3), 1, 2)

    def test_zero_denominator(self):
        with pytest.raises(DivByZero):
            RatFunc(MultiPoly.from_int(PrimeField(2), 1, 1), MultiPoly.zero(PrimeField(2), 1))


def test_render():
    t = K2.gen(0)
    assert render_ratfunc(t / (t + K2.one), ("t",)) == "t/(t + 1)"
    assert render_ratfunc(t + K2.one, ("t",)) == "t + 1"


@given(ratfunc_tuples(count=2, nonzero=True))
def test_mul_inverse(pair):
    f, g = pair
    assert ((f / g) * (g / f)).is_one


@given(ratfunc_tuples(count=3))
def test_field_laws(triple):
    f, g, h = triple
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f


@st.composite
def kernel_operands(draw):
    """Two fractions over one F_p(t1..tn): each a polynomial, a fraction with a
    constant denominator before normalization, or a general fraction, and
    sharing a drawn factor in some numerators and denominators."""
    p = draw(primes)
    arity = draw(st.integers(1, 3))
    degree = 2 if arity < 3 else 1
    factor = draw(polys(p=p, arity=arity, max_degree=1, nonzero=True))

    def operand():
        num = draw(polys(p=p, arity=arity, max_degree=degree))
        if draw(st.booleans()):
            num = num * factor
        kind = draw(st.sampled_from(("polynomial", "constant", "general")))
        if kind == "polynomial":
            den = MultiPoly.from_int(num.dom, arity, 1)
        elif kind == "constant":
            den = MultiPoly.from_int(num.dom, arity, draw(st.integers(1, p - 1)))
        else:
            den = draw(polys(p=p, arity=arity, max_degree=degree, nonzero=True))
            if draw(st.booleans()):
                den = den * factor
        return RatFunc(num, den)

    return operand(), operand()


@given(kernel_operands())
def test_arithmetic_matches_the_normalizing_constructor(pair):
    f, g = pair
    assert f * g == RatFunc(f.num * g.num, f.den * g.den)
    assert f + g == RatFunc(f.num * g.den + g.num * f.den, f.den * g.den)
    assert f - g == RatFunc(f.num * g.den - g.num * f.den, f.den * g.den)
    if not g.is_zero:
        assert f / g == RatFunc(f.num * g.den, f.den * g.num)


@given(kernel_operands(), st.integers(0, 2))
def test_derivative_is_the_quotient_rule(pair, var):
    # polynomials and constant denominators take the numerator's derivative
    # directly; general fractions the quotient rule
    for f in pair:
        v = var % f.num.arity
        df = f.derivative(v)
        assert df == RatFunc(f.num.derivative(v) * f.den - f.num * f.den.derivative(v), f.den * f.den)
        # (f * b)' = a' for f = a/b, checked by the product rule
        b = RatFunc.from_poly(f.den)
        assert df * b + f * RatFunc.from_poly(f.den.derivative(v)) == RatFunc.from_poly(f.num.derivative(v))
        assert df.is_polynomial or not f.is_polynomial
