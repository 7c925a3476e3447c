"""Finitely generated field extensions as towers of generators.

A FieldTower stacks layers over a rational base F_p(t1..td).  Each layer
adjoins one generator: transcendental, algebraic with an asserted monic
minimal polynomial (irreducibility policed lazily: an inverse that does not
exist aborts naming the top layer), or a verified inseparable root
y^(p^e) = a with a not a p-th power below.

An element is one flat vector over the tower's own coordinates (see
`flat.FlatAlgebra`): a finite free module over F_p(T), where T holds the
base variables and then the transcendental generators in layer order, and
each algebraic or inseparable layer gets one slot whose monic minimal
polynomial is a triangular reduction.  The tower builds that algebra lazily
from its layers and does all arithmetic in it.  The T and slots of a prefix
tower are prefixes of the whole tower's, so layer data (minimal-polynomial
coefficients, radicands) are vectors of the prefix below the layer, and
embedding into a larger tower only pads.  Rendering reads the recursive
normal form back off the vector.  Values are immutable; every operation is
a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import (
    ArityMismatch,
    DivByZero,
    NotAPower,
    NotAPowerViolation,
    ZeroDivisorDetected,
)
from .ff_arith import FractionField, RatFunc, divexact, poly_lcm, render_ratfunc

TRANSCENDENTAL = "transcendental"
ALGEBRAIC = "algebraic"
INSEPARABLE_ROOT = "inseparable_root"


@dataclass(frozen=True)
class Layer:
    kind: str
    name: str
    coeffs: tuple = ()  # algebraic: c_0..c_{m-1} of the monic minimal polynomial, vectors of the tower below
    radicand: object = None  # inseparable root: vector of the tower below
    exponent: int = 0  # inseparable root: e with y^(p^e) = radicand


@dataclass(frozen=True)
class BaseField:
    """Descriptor of the rational base field k = F_p(t1..td)."""

    p: int
    varnames: tuple

    def __post_init__(self):
        object.__setattr__(self, "varnames", tuple(self.varnames))

    @cached_property
    def field(self) -> FractionField:
        return FractionField(self.p, self.varnames)

    @property
    def d(self) -> int:
        return len(self.varnames)

    def describe(self) -> str:
        return f"F{self.p}({','.join(self.varnames)})" if self.varnames else f"F{self.p}"


class FieldTower:
    """Immutable tower of layers over a BaseField."""

    def __init__(self, base: BaseField, layers: tuple = ()):
        self.base = base
        self.layers = tuple(layers)

    # -- structure -----------------------------------------------------

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def height(self) -> int:
        return len(self.layers)

    def __eq__(self, other):
        if not isinstance(other, FieldTower):
            return NotImplemented
        return self.base == other.base and self.layers == other.layers

    __hash__ = None

    def layer_degree(self, layer: Layer) -> int:
        if layer.kind == ALGEBRAIC:
            return len(layer.coeffs)
        if layer.kind == INSEPARABLE_ROOT:
            return self.p**layer.exponent
        raise ValueError("transcendental layers have no degree")

    def algebraic_degrees(self) -> list:
        return [self.layer_degree(l) for l in self.layers if l.kind != TRANSCENDENTAL]

    def degree_over_transcendental_base(self) -> int:
        d = 1
        for m in self.algebraic_degrees():
            d *= m
        return d

    def transcendental_names(self) -> list:
        return [l.name for l in self.layers if l.kind == TRANSCENDENTAL]

    def is_prefix_of(self, other: "FieldTower") -> bool:
        return (
            self.base == other.base
            and len(self.layers) <= len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )

    # -- flat coordinates -------------------------------------------------

    @cached_property
    def t_names(self) -> tuple:
        """The variables T of the scalars: base variables, then transcendental generators."""
        return self.base.varnames + tuple(self.transcendental_names())

    @cached_property
    def flat_index(self) -> dict:
        """Level -> index in T of a transcendental layer, or slot of any other layer."""
        out, t, slot = {}, self.base.d, 0
        for level, layer in enumerate(self.layers, start=1):
            if layer.kind == TRANSCENDENTAL:
                out[level], t = t, t + 1
            else:
                out[level], slot = slot, slot + 1
        return out

    @cached_property
    def algebra(self):
        """The `flat.FlatAlgebra` over F_p(T) holding this tower's elements."""
        from .flat import FlatAlgebra, FlatLayer

        field = self.base.field if len(self.t_names) == self.base.d else FractionField(self.p, self.t_names)
        layers = []
        for level, layer in enumerate(self.layers, start=1):
            if layer.kind == TRANSCENDENTAL:
                continue
            if layer.kind == INSEPARABLE_ROOT:
                # gen^(p^e) = a, and a has no slot from here on
                reduction = self._pad(layer.radicand)
            else:
                # gen^m = -(c_0 + c_1 gen + ... + c_{m-1} gen^(m-1)); each c_j has no slot from here on
                slot = self.flat_index[level]
                reduction = {}
                for j, c in enumerate(layer.coeffs):
                    for e, v in self._pad(c).items():
                        reduction[e[:slot] + (j,) + e[slot + 1 :]] = -v
            layers.append(FlatLayer(layer.name, self.layer_degree(layer), reduction))
        return FlatAlgebra(field, layers)

    def _pad(self, vec: dict) -> dict:
        """A vector of a prefix of this tower, in this tower's coordinates."""
        nt = len(self.t_names)
        nslots = self.height - (nt - self.base.d)
        return {
            e + (0,) * (nslots - len(e)): c if c.num.arity == nt else c.extend_arity(nt)
            for e, c in vec.items()
        }

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> "TowerElement":
        return TowerElement(self, {})

    @property
    def one(self) -> "TowerElement":
        return TowerElement(self, self.algebra.one())

    def from_int(self, n: int) -> "TowerElement":
        return self.from_base(self.base.field.from_int(n))

    def from_base(self, r: RatFunc) -> "TowerElement":
        if r.num.arity != self.base.d:
            raise ArityMismatch("rational function arity does not match the base field")
        return TowerElement(self, {} if r.is_zero else self._pad({(): r}))

    def base_var(self, name: str) -> "TowerElement":
        return self.from_base(self.base.field.gen_named(name))

    def gen(self, name: str) -> "TowerElement":
        for level, layer in enumerate(self.layers, start=1):
            if layer.name == name:
                alg, idx = self.algebra, self.flat_index[level]
                if layer.kind == TRANSCENDENTAL:
                    return TowerElement(self, alg.scalar(alg.field.gen(idx)))
                return TowerElement(self, alg.gen(idx))
        raise KeyError(f"no generator named {name!r}")

    def embed(self, elt: "TowerElement") -> "TowerElement":
        if elt.tower is self or elt.tower == self:
            return TowerElement(self, elt.payload)
        if not elt.tower.is_prefix_of(self):
            raise ArityMismatch("element does not live in a prefix of this tower")
        return TowerElement(self, self._pad(elt.payload))

    def describe(self) -> str:
        parts = [self.base.describe()]
        for level, layer in enumerate(self.layers, start=1):
            if layer.kind == TRANSCENDENTAL:
                parts.append(f"adjoin {layer.name} trans")
            elif layer.kind == INSEPARABLE_ROOT:
                rad = render_element(self, self._pad(layer.radicand), level - 1)
                parts.append(f"adjoin {layer.name} root {rad} exp {layer.exponent}")
            else:
                parts.append(f"adjoin {layer.name} alg {self.render_minpoly(level)}")
        return " ".join(parts)

    def render_minpoly(self, level: int) -> str:
        layer = self.layers[level - 1]
        one = self.algebra.one()
        m = len(layer.coeffs)
        bits = [f"{layer.name}^{m}"]
        for j in range(m - 1, -1, -1):
            c = self._pad(layer.coeffs[j])
            if not c:
                continue
            cs = render_element(self, c, level - 1)
            mono = layer.name if j == 1 else (f"{layer.name}^{j}" if j else "")
            if mono:
                bits.append(f"({cs})*{mono}" if c != one else mono)
            else:
                bits.append(f"({cs})" if " " in cs else cs)
        return " + ".join(bits)


class TowerElement:
    __slots__ = ("tower", "payload")

    def __init__(self, tower: FieldTower, payload: dict):
        self.tower = tower
        self.payload = payload

    def _check(self, other: "TowerElement") -> None:
        if self.tower is other.tower:
            return
        if self.tower != other.tower:
            raise ArityMismatch("elements of different towers")

    @property
    def is_zero(self) -> bool:
        return not self.payload

    @property
    def is_one(self) -> bool:
        return self.payload == self.tower.algebra.one()

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check(other)
        return self.payload == other.payload

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, K.algebra.add(self.payload, other.payload))

    def __sub__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, K.algebra.sub(self.payload, other.payload))

    def __neg__(self):
        K = self.tower
        return TowerElement(K, K.algebra.neg(self.payload))

    def __mul__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, K.algebra.mul(self.payload, other.payload))

    def __truediv__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, K.algebra.mul(self.payload, _invert(K, other.payload)))

    def inv(self) -> "TowerElement":
        return TowerElement(self.tower, _invert(self.tower, self.payload))

    def __pow__(self, n: int):
        """x^n with n = m * p^v: square and multiply for m, then Frobenius for p^v."""
        K = self.tower
        if n < 0:
            return self.inv() ** (-n)
        q = 1
        while n and n % K.p == 0:
            n //= K.p
            q *= K.p
        u = K.algebra.pow(self.payload, n)
        return TowerElement(K, K.algebra.frobenius(u, q) if q > 1 else u)

    def render(self) -> str:
        return render_element(self.tower, self.payload, self.tower.height)

    def __repr__(self):
        return f"<{self.render()} in {self.tower.describe()}>"


def _invert(K: FieldTower, u: dict) -> dict:
    if not u:
        raise DivByZero("inverse of zero tower element")
    inv = K.algebra.invert(u)
    if inv is None:
        raise ZeroDivisorDetected(K.layers[-1].name)
    return inv


# -- rendering -----------------------------------------------------------


def render_element(K: FieldTower, vec: dict, level: int) -> str:
    """Text of the recursive normal form of a vector of K that lies in the first `level` layers.

    An algebraic or inseparable layer shows a polynomial in its generator with
    coefficients one level below; a transcendental layer shows num/den in its
    generator, den monic and coprime to num over the level below.
    """
    if not vec:
        return "0"
    if level == 0:
        (c,) = vec.values()
        return render_ratfunc(c, K.t_names)
    layer = K.layers[level - 1]
    idx = K.flat_index[level]
    if layer.kind != TRANSCENDENTAL:
        coeffs = [{} for _ in range(K.layer_degree(layer))]
        for e, c in vec.items():
            coeffs[e[idx]][e[:idx] + (0,) + e[idx + 1 :]] = c
        return _render_upoly(K, coeffs, level - 1, layer.name)
    num, den = _fraction(K, vec, level)
    text = _render_upoly(K, num, level - 1, layer.name)
    if len(den) == 1:
        return text
    return f"({text})/({_render_upoly(K, den, level - 1, layer.name)})"


def _fraction(K: FieldTower, vec: dict, level: int) -> tuple:
    """(num, den) in the generator y of a transcendental level, as coefficient lists.

    Coefficients are vectors of the level below; den is monic and coprime to
    num.  Without a slot below y the vector is one reduced rational function,
    whose split by degree in y is already coprime (Gauss's lemma); otherwise a
    Euclid over the flat algebra finds the common factor.
    """
    alg = K.algebra
    var = K.flat_index[level]
    common = reduce(poly_lcm, (c.den for c in vec.values()))

    def by_degree(polys: dict) -> list:
        out = [{} for _ in range(1 + max(f.degree_in(var) for f in polys.values()))]
        for e, f in polys.items():
            for k, a in enumerate(f.coefficients(var)):
                if not a.is_zero:
                    out[k][e] = RatFunc.from_poly(a)
        return out

    num = by_degree({e: c.num * divexact(common, c.den) for e, c in vec.items()})
    den = by_degree({(0,) * alg.nslots: common})
    if any(l.kind != TRANSCENDENTAL for l in K.layers[: level - 1]):
        g = _upoly_gcd(K, num, den)
        if len(g) > 1:
            num, den = _upoly_divmod(alg, num, g)[0], _upoly_divmod(alg, den, g)[0]
    inv = _invert(K, den[-1])
    return [alg.mul(c, inv) for c in num], [alg.mul(c, inv) for c in den]


def _upoly_divmod(alg, a: list, b: list) -> tuple:
    """(q, r) with a = q b + r for polynomials with vector coefficients, b monic."""
    r = list(a)
    q = [{}] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        c, shift = r.pop(), len(r) + 1 - len(b)
        q[shift] = c
        for j, y in enumerate(b[:-1]):
            r[shift + j] = alg.sub(r[shift + j], alg.mul(c, y))
    while r and not r[-1]:
        r.pop()
    return q, r


def _upoly_gcd(K: FieldTower, a: list, b: list) -> list:
    """Monic gcd of two polynomials with vector coefficients, b nonzero."""
    alg = K.algebra
    while b:
        inv = _invert(K, b[-1])
        b = [alg.mul(c, inv) for c in b]
        a, b = b, _upoly_divmod(alg, a, b)[1]
    return a


def _render_upoly(K: FieldTower, coeffs: list, s: int, name: str) -> str:
    one = K.algebra.one()
    bits = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if not c:
            continue
        cs = render_element(K, c, s)
        mono = "" if j == 0 else (name if j == 1 else f"{name}^{j}")
        if not mono:
            bits.append(f"({cs})" if (" " in cs or "/" in cs) else cs)
        elif c == one:
            bits.append(mono)
        else:
            cs_wrapped = f"({cs})" if (" " in cs or "/" in cs or "*" in cs) else cs
            bits.append(f"{cs_wrapped}*{mono}")
    return " + ".join(bits) if bits else "0"


# -- public operations ----------------------------------------------------


def tower_extend(K: FieldTower, layer: Layer) -> FieldTower:
    """Extend by one validated layer; algebraic irreducibility is asserted."""
    taken = set(K.base.varnames) | {l.name for l in K.layers}
    if layer.name in taken:
        raise ArityMismatch(f"generator name {layer.name!r} already in use")
    if layer.kind == ALGEBRAIC:
        if len(layer.coeffs) < 2:
            raise ArityMismatch("algebraic minimal polynomials must have degree >= 2")
    elif layer.kind == INSEPARABLE_ROOT:
        if layer.exponent < 1:
            raise ArityMismatch("inseparable-root exponent must be >= 1")
        rad = TowerElement(K, layer.radicand)
        if rad.is_zero:
            raise NotAPowerViolation("radicand must be nonzero")
        if is_p_power_tower(rad):
            raise NotAPowerViolation(
                f"radicand of layer {layer.name!r} already has a p-th root"
            )
    elif layer.kind != TRANSCENDENTAL:
        raise ValueError(f"unknown layer kind {layer.kind!r}")
    return FieldTower(K.base, K.layers + (layer,))


def transcendental_layer(name: str) -> Layer:
    return Layer(kind=TRANSCENDENTAL, name=name)


def algebraic_layer(K: FieldTower, name: str, coeffs) -> Layer:
    """Monic minimal polynomial given by low-order coefficients c_0..c_{m-1} in K."""
    return Layer(kind=ALGEBRAIC, name=name, coeffs=tuple(K.embed(c).payload for c in coeffs))


def inseparable_root_layer(K: FieldTower, name: str, radicand: TowerElement, exponent: int) -> Layer:
    return Layer(kind=INSEPARABLE_ROOT, name=name, radicand=K.embed(radicand).payload, exponent=exponent)


def adjoin_p_root(K: FieldTower, a: TowerElement, e: int, name: str | None = None) -> FieldTower:
    """Extend by a verified inseparable root y^(p^e) = a."""
    if name is None:
        name = fresh_name(K, "r")
    return tower_extend(K, inseparable_root_layer(K, name, a, e))


def fresh_name(K: FieldTower, stem: str) -> str:
    """The first of stem1, stem2, ... that names no base variable or layer of K."""
    taken = set(K.base.varnames) | {l.name for l in K.layers}
    i = 1
    while f"{stem}{i}" in taken:
        i += 1
    return f"{stem}{i}"


def is_p_power_tower(a: TowerElement) -> bool:
    """Membership a in K^p, decided by the vanishing of its differential."""
    if a.is_zero:
        return True
    from . import kaehler

    return kaehler.differential_is_zero(a)


def p_root_tower(a: TowerElement) -> TowerElement:
    """The unique r with r^p = a; NotAPower if none exists."""
    if a.is_zero:
        return a.tower.zero
    from .flat import p_power_root

    root = p_power_root(a.tower.algebra, a.payload, 1)
    if root is None:
        raise NotAPower("element has no p-th root in its tower")
    return TowerElement(a.tower, root)


def max_p_power_exponent(a: TowerElement, bound: int) -> tuple:
    """(m, a^(1/p^m)) for m = min(bound, max k with a in K^(p^k)), by iterated root extraction."""
    if a.is_zero:
        raise DivByZero("p-power exponent of zero")
    if bound < 0:
        raise ValueError("bound must be >= 0")
    m = 0
    current = a
    while m < bound:
        try:
            current = p_root_tower(current)
        except NotAPower:
            break
        m += 1
    return m, current
