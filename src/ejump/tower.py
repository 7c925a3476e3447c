"""Finitely generated field extensions as towers of generators.

A FieldTower stacks layers over a rational base F_p(t1..td).  Each layer
adjoins one generator: transcendental, algebraic with an asserted monic
minimal polynomial (irreducibility policed lazily: any arithmetic that
witnesses a zero divisor aborts naming the layer), or a verified
inseparable root y^(p^e) = a with a not a p-th power below.

Elements use a recursive dense representation: a coefficient vector over the
previous level at algebraic layers, a normalized fraction of univariate
polynomials at transcendental layers, a RatFunc at the base.  All values are
immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    ArityMismatch,
    DivByZero,
    NotAPower,
    NotAPowerViolation,
    ZeroDivisorDetected,
)
from .ff_arith import FractionField, RatFunc, render_ratfunc

TRANSCENDENTAL = "transcendental"
ALGEBRAIC = "algebraic"
INSEPARABLE_ROOT = "inseparable_root"


class Frac:
    """Normalized fraction of dense univariate polynomials over the level below."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple):
        self.num = num
        self.den = den

    def __eq__(self, other):
        return isinstance(other, Frac) and self.num == other.num and self.den == other.den

    __hash__ = None

    def __repr__(self):
        return f"Frac({self.num!r}, {self.den!r})"


@dataclass(frozen=True, eq=False)
class Layer:
    kind: str
    name: str
    coeffs: tuple = ()  # algebraic: c_0..c_{m-1} of the monic minimal polynomial
    radicand: object = None  # inseparable root: payload one level below
    exponent: int = 0  # inseparable root: e with y^(p^e) = radicand

    def __eq__(self, other):
        if not isinstance(other, Layer):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.name == other.name
            and self.coeffs == other.coeffs
            and self.radicand == other.radicand
            and self.exponent == other.exponent
        )


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
        self._cache: dict = {}

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

    def generator_names(self) -> list:
        return [l.name for l in self.layers]

    def is_prefix_of(self, other: "FieldTower") -> bool:
        return (
            self.base == other.base
            and len(self.layers) <= len(other.layers)
            and all(a == b for a, b in zip(self.layers, other.layers))
        )

    def minpoly_coeffs(self, level: int) -> tuple:
        """Low-order coefficients c_0..c_{m-1} of the monic minimal polynomial."""
        layer = self.layers[level - 1]
        if layer.kind == ALGEBRAIC:
            return layer.coeffs
        if layer.kind == INSEPARABLE_ROOT:
            m = self.p**layer.exponent
            below = level - 1
            coeffs = [_zero(self, below)] * m
            coeffs[0] = _neg(self, below, layer.radicand)
            return tuple(coeffs)
        raise ValueError("transcendental layers have no minimal polynomial")

    # -- element constructors -------------------------------------------

    @property
    def zero(self) -> "TowerElement":
        return TowerElement(self, _zero(self, self.height))

    @property
    def one(self) -> "TowerElement":
        return TowerElement(self, _one(self, self.height))

    def from_int(self, n: int) -> "TowerElement":
        return self.from_base(self.base.field.from_int(n))

    def from_base(self, r: RatFunc) -> "TowerElement":
        if r.num.arity != self.base.d:
            raise ArityMismatch("rational function arity does not match the base field")
        payload = r
        for lv in range(1, self.height + 1):
            payload = _lift(self, lv, payload)
        return TowerElement(self, payload)

    def base_var(self, name: str) -> "TowerElement":
        return self.from_base(self.base.field.gen_named(name))

    def gen(self, name: str) -> "TowerElement":
        for idx, layer in enumerate(self.layers):
            if layer.name == name:
                level = idx + 1
                payload = _gen_payload(self, level)
                for lv in range(level + 1, self.height + 1):
                    payload = _lift(self, lv, payload)
                return TowerElement(self, payload)
        raise KeyError(f"no generator named {name!r}")

    def embed(self, elt: "TowerElement") -> "TowerElement":
        if elt.tower is self or elt.tower == self:
            return TowerElement(self, elt.payload)
        if not elt.tower.is_prefix_of(self):
            raise ArityMismatch("element does not live in a prefix of this tower")
        payload = elt.payload
        for lv in range(elt.tower.height + 1, self.height + 1):
            payload = _lift(self, lv, payload)
        return TowerElement(self, payload)

    def describe(self) -> str:
        parts = [self.base.describe()]
        for level, layer in enumerate(self.layers, start=1):
            if layer.kind == TRANSCENDENTAL:
                parts.append(f"adjoin {layer.name} trans")
            elif layer.kind == INSEPARABLE_ROOT:
                rad = render_element(self, layer.radicand, level - 1)
                parts.append(f"adjoin {layer.name} root {rad} exp {layer.exponent}")
            else:
                parts.append(f"adjoin {layer.name} alg {self.render_minpoly(level)}")
        return " ".join(parts)

    def render_minpoly(self, level: int) -> str:
        layer = self.layers[level - 1]
        coeffs = self.minpoly_coeffs(level)
        m = len(coeffs)
        bits = [f"{layer.name}^{m}"]
        for j in range(m - 1, -1, -1):
            c = coeffs[j]
            if _is_zero(self, level - 1, c):
                continue
            cs = render_element(self, c, level - 1)
            mono = layer.name if j == 1 else (f"{layer.name}^{j}" if j else "")
            if mono:
                bits.append(f"({cs})*{mono}" if not _is_one(self, level - 1, c) else mono)
            else:
                bits.append(f"({cs})" if " " in cs else cs)
        return " + ".join(bits)


class TowerElement:
    __slots__ = ("tower", "payload")

    def __init__(self, tower: FieldTower, payload):
        self.tower = tower
        self.payload = payload

    def _check(self, other: "TowerElement") -> None:
        if self.tower is other.tower:
            return
        if self.tower != other.tower:
            raise ArityMismatch("elements of different towers")

    @property
    def is_zero(self) -> bool:
        return _is_zero(self.tower, self.tower.height, self.payload)

    @property
    def is_one(self) -> bool:
        return _is_one(self.tower, self.tower.height, self.payload)

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        self._check(other)
        return self.payload == other.payload

    __hash__ = None

    def __add__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, _add(K, K.height, self.payload, other.payload))

    def __sub__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, _sub(K, K.height, self.payload, other.payload))

    def __neg__(self):
        K = self.tower
        return TowerElement(K, _neg(K, K.height, self.payload))

    def __mul__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, _mul(K, K.height, self.payload, other.payload))

    def __truediv__(self, other):
        self._check(other)
        K = self.tower
        return TowerElement(K, _div(K, K.height, self.payload, other.payload))

    def inv(self) -> "TowerElement":
        K = self.tower
        return TowerElement(K, _inv(K, K.height, self.payload))

    def __pow__(self, n: int):
        K = self.tower
        if n < 0:
            return self.inv() ** (-n)
        result = _one(K, K.height)
        base = self.payload
        while n:
            if n & 1:
                result = _mul(K, K.height, result, base)
            n >>= 1
            if n:
                base = _mul(K, K.height, base, base)
        return TowerElement(K, result)

    def frobenius(self, times: int = 1) -> "TowerElement":
        return self ** (self.tower.p**times)

    def render(self) -> str:
        return render_element(self.tower, self.payload, self.tower.height)

    def __repr__(self):
        return f"<{self.render()} in {self.tower.describe()}>"


# -- payload arithmetic -------------------------------------------------


def _layer(K: FieldTower, level: int) -> Layer:
    return K.layers[level - 1]


def _zero(K, level):
    if level == 0:
        return K.base.field.zero
    layer = _layer(K, level)
    if layer.kind == TRANSCENDENTAL:
        return Frac((), (_one(K, level - 1),))
    return (_zero(K, level - 1),) * K.layer_degree(layer)


def _one(K, level):
    if level == 0:
        return K.base.field.one
    layer = _layer(K, level)
    if layer.kind == TRANSCENDENTAL:
        return Frac((_one(K, level - 1),), (_one(K, level - 1),))
    m = K.layer_degree(layer)
    return (_one(K, level - 1),) + (_zero(K, level - 1),) * (m - 1)


def _lift(K, level, payload):
    """Embed a payload from level-1 into level."""
    layer = _layer(K, level)
    if layer.kind == TRANSCENDENTAL:
        if _is_zero(K, level - 1, payload):
            return Frac((), (_one(K, level - 1),))
        return Frac((payload,), (_one(K, level - 1),))
    m = K.layer_degree(layer)
    return (payload,) + (_zero(K, level - 1),) * (m - 1)


def _gen_payload(K, level):
    layer = _layer(K, level)
    if layer.kind == TRANSCENDENTAL:
        return Frac((_zero(K, level - 1), _one(K, level - 1)), (_one(K, level - 1),))
    m = K.layer_degree(layer)
    coeffs = [_zero(K, level - 1)] * m
    coeffs[1] = _one(K, level - 1)
    return tuple(coeffs)


def _is_zero(K, level, payload) -> bool:
    if level == 0:
        return payload.is_zero
    if isinstance(payload, Frac):
        return not payload.num
    return all(_is_zero(K, level - 1, c) for c in payload)


def _is_one(K, level, payload) -> bool:
    return payload == _one(K, level)


def _add(K, level, a, b):
    if level == 0:
        return a + b
    layer = _layer(K, level)
    if layer.kind == TRANSCENDENTAL:
        s = level - 1
        if a.den == b.den:
            return _make_frac(K, s, _u_add(K, s, a.num, b.num), a.den)
        num = _u_add(K, s, _u_mul(K, s, a.num, b.den), _u_mul(K, s, b.num, a.den))
        return _make_frac(K, s, num, _u_mul(K, s, a.den, b.den))
    return tuple(_add(K, level - 1, x, y) for x, y in zip(a, b))


def _neg(K, level, a):
    if level == 0:
        return -a
    if isinstance(a, Frac):
        return Frac(tuple(_neg(K, level - 1, c) for c in a.num), a.den)
    return tuple(_neg(K, level - 1, c) for c in a)


def _sub(K, level, a, b):
    return _add(K, level, a, _neg(K, level, b))


def _mul(K, level, a, b):
    if level == 0:
        return a * b
    layer = _layer(K, level)
    s = level - 1
    if layer.kind == TRANSCENDENTAL:
        return _make_frac(K, s, _u_mul(K, s, a.num, b.num), _u_mul(K, s, a.den, b.den))
    m = K.layer_degree(layer)
    conv = [_zero(K, s) for _ in range(2 * m - 1)]
    for i, x in enumerate(a):
        if _is_zero(K, s, x):
            continue
        for j, y in enumerate(b):
            if _is_zero(K, s, y):
                continue
            conv[i + j] = _add(K, s, conv[i + j], _mul(K, s, x, y))
    coeffs = K.minpoly_coeffs(level)
    for k in range(2 * m - 2, m - 1, -1):
        c = conv[k]
        if _is_zero(K, s, c):
            continue
        conv[k] = _zero(K, s)
        for j, cf in enumerate(coeffs):
            if _is_zero(K, s, cf):
                continue
            conv[k - m + j] = _sub(K, s, conv[k - m + j], _mul(K, s, c, cf))
    return tuple(conv[:m])


def _inv(K, level, a):
    if _is_zero(K, level, a):
        raise DivByZero("inverse of zero tower element")
    if level == 0:
        return a.inv()
    layer = _layer(K, level)
    s = level - 1
    if layer.kind == TRANSCENDENTAL:
        return _make_frac(K, s, a.den, a.num)
    minpoly = list(K.minpoly_coeffs(level)) + [_one(K, s)]
    g, u = _u_egcd(K, s, list(a), minpoly)
    if len(g) != 1:
        raise ZeroDivisorDetected(layer.name)
    scale = _inv(K, s, g[0])
    m = K.layer_degree(layer)
    inv = [_mul(K, s, c, scale) for c in u]
    inv = inv[:m] + [_zero(K, s)] * (m - len(inv))
    return tuple(inv)


def _div(K, level, a, b):
    return _mul(K, level, a, _inv(K, level, b))


# -- univariate polynomial helpers over payloads ------------------------


def _u_trim(K, s, lst):
    n = len(lst)
    while n and _is_zero(K, s, lst[n - 1]):
        n -= 1
    return tuple(lst[:n])


def _u_add(K, s, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else _zero(K, s)
        y = b[i] if i < len(b) else _zero(K, s)
        out.append(_add(K, s, x, y))
    return _u_trim(K, s, out)


def _u_mul(K, s, a, b):
    if not a or not b:
        return ()
    out = [_zero(K, s) for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        if _is_zero(K, s, x):
            continue
        for j, y in enumerate(b):
            if _is_zero(K, s, y):
                continue
            out[i + j] = _add(K, s, out[i + j], _mul(K, s, x, y))
    return _u_trim(K, s, out)


def _u_scale(K, s, a, c):
    if _is_zero(K, s, c):
        return ()
    return _u_trim(K, s, [_mul(K, s, x, c) for x in a])


def _u_divmod(K, s, a, b):
    """Division with remainder; b nonzero, leading coefficient inverted below."""
    if not b:
        raise DivByZero("univariate division by zero")
    lc_inv = _inv(K, s, b[-1])
    q = [_zero(K, s) for _ in range(max(len(a) - len(b) + 1, 0))]
    r = list(a)
    while len(_u_trim(K, s, r)) >= len(b):
        r = list(_u_trim(K, s, r))
        shift = len(r) - len(b)
        c = _mul(K, s, r[-1], lc_inv)
        q[shift] = _add(K, s, q[shift], c)
        for j, y in enumerate(b):
            r[shift + j] = _sub(K, s, r[shift + j], _mul(K, s, c, y))
    return _u_trim(K, s, q), _u_trim(K, s, r)


def _u_gcd(K, s, a, b):
    a, b = _u_trim(K, s, a), _u_trim(K, s, b)
    while b:
        _, r = _u_divmod(K, s, a, b)
        a, b = b, r
    if a:
        a = _u_scale(K, s, a, _inv(K, s, a[-1]))
    return a


def _u_egcd(K, s, a, b):
    """(g, u) with u*a = g modulo b."""
    r0, r1 = _u_trim(K, s, a), _u_trim(K, s, b)
    s0, s1 = (_one(K, s),), ()
    while r1:
        q, r = _u_divmod(K, s, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _u_add(K, s, s0, tuple(_neg(K, s, c) for c in _u_mul(K, s, q, s1)))
    return list(r0), list(s0)


def _make_frac(K, s, num, den):
    num, den = _u_trim(K, s, num), _u_trim(K, s, den)
    if not den:
        raise DivByZero("fraction with zero denominator")
    if not num:
        return Frac((), (_one(K, s),))
    g = _u_gcd(K, s, num, den)
    if len(g) > 1:
        num = _u_divmod(K, s, num, g)[0]
        den = _u_divmod(K, s, den, g)[0]
    if not _is_one(K, s, den[-1]):
        lc_inv = _inv(K, s, den[-1])
        num = _u_scale(K, s, num, lc_inv)
        den = _u_scale(K, s, den, lc_inv)
    return Frac(num, den)


# -- rendering -----------------------------------------------------------


def render_element(K: FieldTower, payload, level: int) -> str:
    if level == 0:
        return render_ratfunc(payload, K.base.varnames)
    layer = _layer(K, level)
    if isinstance(payload, Frac):
        num = _render_upoly(K, payload.num, level - 1, layer.name)
        if len(payload.den) == 1 and _is_one(K, level - 1, payload.den[0]):
            return num
        den = _render_upoly(K, payload.den, level - 1, layer.name)
        return f"({num})/({den})"
    return _render_upoly(K, payload, level - 1, layer.name)


def _render_upoly(K, coeffs, s, name) -> str:
    bits = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if _is_zero(K, s, c):
            continue
        cs = render_element(K, c, s)
        mono = "" if j == 0 else (name if j == 1 else f"{name}^{j}")
        if not mono:
            bits.append(f"({cs})" if (" " in cs or "/" in cs) else cs)
        elif _is_one(K, s, c):
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
    payloads = []
    for c in coeffs:
        if isinstance(c, TowerElement):
            payloads.append(K.embed(c).payload if c.tower != K else c.payload)
        else:
            payloads.append(c)
    return Layer(kind=ALGEBRAIC, name=name, coeffs=tuple(payloads))


def inseparable_root_layer(K: FieldTower, name: str, radicand: TowerElement, exponent: int) -> Layer:
    rad = K.embed(radicand) if radicand.tower != K else radicand
    return Layer(kind=INSEPARABLE_ROOT, name=name, radicand=rad.payload, exponent=exponent)


def adjoin_p_root(K: FieldTower, a: TowerElement, e: int, name: str | None = None) -> FieldTower:
    """Extend by a verified inseparable root y^(p^e) = a."""
    if name is None:
        name = _fresh_root_name(K)
    return tower_extend(K, inseparable_root_layer(K, name, a, e))


def _fresh_root_name(K: FieldTower) -> str:
    taken = set(K.base.varnames) | {l.name for l in K.layers}
    i = 1
    while f"r{i}" in taken:
        i += 1
    return f"r{i}"


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
    from . import flat

    root = flat.tower_p_root(a)
    if root is None:
        raise NotAPower("element has no p-th root in its tower")
    return root


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
