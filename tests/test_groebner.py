import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ejump.ff_arith import (
    LEX,
    FractionField,
    IdealPresentation,
    MultiPoly,
    groebner_basis,
    ideal_contains,
    poly_from_text,
    quotient_dim,
    reduce_modulo,
    render_poly,
    standard_monomials,
)
from ejump.ff_arith.poly import monic

K = FractionField(2, ("t",))


def mk(text, varnames=("x", "y")):
    return poly_from_text(K, varnames, text)


def ideal(*texts, varnames=("x", "y"), order=None):
    gens = tuple(mk(s, varnames) for s in texts)
    if order is None:
        return IdealPresentation(K, varnames, gens)
    return IdealPresentation(K, varnames, gens, order)


class TestBasisExamples:
    def test_principal(self):
        gb = groebner_basis(ideal("x", varnames=("x",)))
        assert [render_poly(g, ("x",)) for g in gb.generators] == ["x"]

    def test_unit_ideal_from_unit_difference(self):
        gb = groebner_basis(ideal("x^2+t", "x^2", varnames=("x",)))
        assert gb.is_unit_ideal
        assert [render_poly(g, ("x",)) for g in gb.generators] == ["1"]

    def test_already_reduced_lex(self):
        gb = groebner_basis(ideal("y", "x^2+t", order=LEX))
        rendered = [render_poly(g, ("x", "y"), LEX) for g in gb.generators]
        assert rendered == ["x^2 + t", "y"]

    def test_idempotent(self):
        gb = groebner_basis(ideal("x^2+y^3+t", "y^2 + x"))
        again = groebner_basis(IdealPresentation(K, ("x", "y"), gb.generators, gb.order))
        assert again.generators == gb.generators

    def test_reducedness(self):
        gb = groebner_basis(ideal("x^2+y^3+t", "x*y + t", "y^2 + x + 1"))
        leads = [g.leading(gb.order)[0] for g in gb.generators]
        for i, g in enumerate(gb.generators):
            assert g.leading(gb.order)[1].is_one
            for exp in g.terms:
                for j, lt in enumerate(leads):
                    if j != i:
                        assert not all(a <= b for a, b in zip(lt, exp))


class TestMembership:
    def test_input_generators_reduce_to_zero(self):
        I = ideal("x^2+y^3+t", "x*y + t*y")
        gb = groebner_basis(I)
        for g in I.generators:
            assert reduce_modulo(g, gb).is_zero

    def test_one_detects_properness(self):
        gb = groebner_basis(ideal("y", "x^2+t"))
        one = MultiPoly.from_int(K, 2, 1)
        assert not reduce_modulo(one, gb).is_zero

    @given(st.integers(0, 2**32 - 1))
    def test_random_combinations_are_members(self, seed):
        rng = random.Random(seed)
        I = ideal("x^2+y^3+t", "y^2 + x")
        gb = groebner_basis(I)
        combo = MultiPoly.zero(K, 2)
        for g in I.generators:
            coeff = MultiPoly.from_terms(
                K,
                2,
                [
                    (
                        (rng.randint(0, 2), rng.randint(0, 2)),
                        K.from_int(rng.randint(0, 1)),
                    )
                ],
            )
            combo = combo + coeff * g
        assert ideal_contains(gb, combo)


class TestQuotientDim:
    def test_point_ideal(self):
        assert quotient_dim(ideal("x", "y")) == (0, 1)

    def test_fat_point(self):
        krull, vdim = quotient_dim(ideal("y^2", "x^2+t"))
        assert (krull, vdim) == (0, 4)
        gb = groebner_basis(ideal("y^2", "x^2+t"))
        assert sorted(standard_monomials(gb, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hypersurface_is_infinite(self):
        assert quotient_dim(ideal("x^2+y^3+t")) == (1, None)

    def test_zero_ideal(self):
        z = MultiPoly.zero(K, 1)
        assert quotient_dim(IdealPresentation(K, ("x",), (z,))) == (1, None)

    def test_unit_ideal(self):
        krull, vdim = quotient_dim(ideal("x", "x+1", varnames=("x",)))
        assert (krull, vdim) == (-1, 0)



def random_coefficient_poly(rng):
    """A polynomial in x, y whose coefficients have denominators and contents over F_2(t)."""
    coeffs = ("1", "t", "(t + 1)", "t^2", "1/(t + 1)", "t/(t^2 + 1)")
    terms = [f"{rng.choice(coeffs)}*x^{rng.randint(0, 3)}*y^{rng.randint(0, 2)}" for _ in range(rng.randint(1, 4))]
    g = mk(" + ".join(terms))
    return g if not g.is_zero else mk("t*x + 1/(t + 1)")


class TestPrincipal:
    """One nonzero generator: the reduced basis is monic(g), with no S-pair loop."""

    @pytest.mark.parametrize("seed", range(25))
    def test_monic_generator_without_clearing(self, seed, monkeypatch):
        from ejump.ff_arith import groebner as gb_module

        rng = random.Random(seed)
        g = random_coefficient_poly(rng)
        gens = (g, MultiPoly.zero(K, 2)) if seed % 2 else (g,)
        # the same ideal with a redundant generator goes through Buchberger's loop
        expected = groebner_basis(IdealPresentation(K, ("x", "y"), (g, g * mk("x*y + t"))))

        def forbidden(f):
            raise AssertionError("_clear_denominators called for a principal ideal")

        monkeypatch.setattr(gb_module, "_clear_denominators", forbidden)
        basis = groebner_basis(IdealPresentation(K, ("x", "y"), gens))
        assert basis.generators == (monic(g, basis.order),) == expected.generators
