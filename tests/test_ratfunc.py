import pytest
from hypothesis import given

from ejump.errors import DivByZero
from ejump.ff_arith import (
    FractionField,
    MultiPoly,
    PrimeField,
    RatFunc,
    poly_gcd,
    render_ratfunc,
)

from .strategies import ratfunc_tuples

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
