"""Canonical text form for polynomials and a small expression parser.

Rendering: terms sorted descending by the fixed monomial order, coefficients
printed as least non-negative residues, `^` for powers, `*` between factors.
The parser accepts the same syntax plus parentheses, `/`, unary minus and
implicit multiplication by juxtaposition (`2t`, `t1 t2`).
"""

from __future__ import annotations

from ..errors import ParseError
from .poly import GREVLEX, MonomialOrder, MultiPoly
from .ratfunc import RatFunc


def render_poly(f: MultiPoly, varnames: tuple, order: MonomialOrder = GREVLEX) -> str:
    if f.is_zero:
        return "0"
    dom = f.dom
    parts = []
    for exp, c in f.sorted_terms(order):
        factors = []
        cs = dom.coeff_str(c)
        is_unit_coeff = dom.is_one(c)
        if not is_unit_coeff or not any(exp):
            factors.append(cs if _is_atomic(cs) else f"({cs})")
        for i, e in enumerate(exp):
            if e == 0:
                continue
            factors.append(varnames[i] if e == 1 else f"{varnames[i]}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts)


def _is_atomic(s: str) -> bool:
    return s.isalnum() or (s.replace("_", "").isalnum())


def render_ratfunc(f: RatFunc, varnames: tuple) -> str:
    num = render_poly(f.num, varnames)
    if f.is_polynomial and f.den.constant_value() == 1:
        return num
    den = render_poly(f.den, varnames)
    num_s = num if " " not in num else f"({num})"
    den_s = den if " " not in den else f"({den})"
    return f"{num_s}/{den_s}"


# -- tokenizer ---------------------------------------------------------

_SYMBOLS = set("+-*/^(),:")


def tokenize(text: str, line: int = 0):
    """Yield (kind, value, column) with kinds: int, name, sym, end."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("int", int(text[i:j]), i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if ch in _SYMBOLS:
            yield ("sym", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, i + 1)
    yield ("end", None, n)


class ExprParser:
    """Recursive-descent parser evaluating over a name -> value context.

    Values must support +, -, *, **; division is delegated to the context's
    `div` hook so polynomial-only contexts can reject it.
    """

    def __init__(self, text: str, context: dict, from_int, div=None, line: int = 0):
        self.tokens = list(tokenize(text, line))
        self.pos = 0
        self.context = context
        self.from_int = from_int
        self.div = div
        self.line = line

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.line, tok[2] + 1)

    def parse(self):
        value = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            self.fail(f"unexpected trailing token {val!r}")
        return value

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "sym" and val in "+-":
            self.next()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.next()
                acc = acc * self.factor()
            elif kind == "sym" and val == "/":
                tok = self.next()
                rhs = self.factor()
                if self.div is None:
                    self.fail("division is not allowed in this expression", tok)
                acc = self.div(acc, rhs)
            elif kind in ("int", "name") or (kind == "sym" and val == "("):
                acc = acc * self.factor()
            else:
                return acc

    def factor(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "sym" and val == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                self.fail("exponent must be a non-negative integer", tok)
            return base ** tok[1]
        return base

    def atom(self):
        kind, val, col = self.next()
        if kind == "int":
            return self.from_int(val)
        if kind == "name":
            if val not in self.context:
                raise ParseError(f"unknown symbol {val!r}", self.line, col + 1)
            return self.context[val]
        if kind == "sym" and val == "(":
            value = self.expr()
            tok = self.next()
            if tok[:2] != ("sym", ")"):
                self.fail("expected ')'", tok)
            return value
        if kind == "sym" and val == "-":
            return -self.factor()
        raise ParseError(f"unexpected token {val!r}", self.line, col + 1)


def parse_expression(text: str, context: dict, from_int, div=None, line: int = 0):
    return ExprParser(text, context, from_int, div=div, line=line).parse()


def ratfunc_from_text(field, text: str, line: int = 0) -> RatFunc:
    """Parse a base-field element like `t^2 + 1` or `t1/(t2+1)`."""
    context = {name: field.gen(i) for i, name in enumerate(field.varnames)}
    return parse_expression(text, context, field.from_int, div=lambda a, b: a / b, line=line)


def poly_from_text(field, varnames: tuple, text: str, line: int = 0) -> MultiPoly:
    """Parse a polynomial in `varnames` with coefficients in the base field.

    Base variables are available as coefficient symbols; division is allowed
    only by coefficient (variable-free) expressions.
    """
    n = len(varnames)
    context = {v: MultiPoly.gen(field, n, i) for i, v in enumerate(varnames)}
    for j, tname in enumerate(field.varnames):
        if tname in context:
            raise ParseError(f"variable {tname!r} shadows a base variable", line, 1)
        context[tname] = MultiPoly.const(field, n, field.gen(j))

    def div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
        if not b.is_constant or b.is_zero:
            raise ParseError("division only by nonzero coefficient expressions", line, 1)
        return a.scale(b.constant_value().inv())

    return parse_expression(
        text, context, lambda k: MultiPoly.from_int(field, n, k), div=div, line=line
    )
