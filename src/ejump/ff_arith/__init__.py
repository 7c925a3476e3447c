"""Exact arithmetic over F_p: polynomials, rational functions, Groebner bases."""

from .groebner import (
    GroebnerBasis,
    IdealPresentation,
    groebner_basis,
    ideal_contains,
    normal_form,
    quotient_dim,
    reduce_modulo,
    standard_monomials,
)
from .poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    PrimeField,
    add_terms,
    divexact,
    is_prime,
    monic,
    poly_gcd,
    poly_lcm,
)
from .ratfunc import FractionField, RatFunc
from .text import parse_expression, poly_from_text, ratfunc_from_text, render_poly, render_ratfunc, tokenize

__all__ = [
    "GREVLEX",
    "LEX",
    "FractionField",
    "GroebnerBasis",
    "IdealPresentation",
    "MonomialOrder",
    "MultiPoly",
    "PrimeField",
    "RatFunc",
    "add_terms",
    "divexact",
    "groebner_basis",
    "ideal_contains",
    "is_prime",
    "monic",
    "normal_form",
    "parse_expression",
    "poly_from_text",
    "poly_gcd",
    "poly_lcm",
    "quotient_dim",
    "ratfunc_from_text",
    "reduce_modulo",
    "render_poly",
    "render_ratfunc",
    "standard_monomials",
    "tokenize",
]
