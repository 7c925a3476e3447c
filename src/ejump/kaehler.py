"""Ranks of differential modules from the relation rows of towers.

For a tower K over reference field k (the rational base, or the prime field
F_p), the module of differentials is presented by one column per generator
above k (`generator_columns`) and one relation row per algebraic layer, the
total differential of its minimal polynomial (`relation_rows`).  Entries are
vectors of K's flat algebra (`FieldTower.algebra`, the module over F_p(T)
that holds tower elements), where partials are taken formally and ranks come
from `FlatAlgebra.rank`.  p-degree is the corank, and a lies in K^p iff
da = 0 over F_p (Matsumura, Commutative Ring Theory, §26), which is how
`tower.is_p_power_tower` decides membership.
"""

from __future__ import annotations

from .errors import InternalInvariantViolation
from .ff_arith import RatFunc
from .tower import TRANSCENDENTAL, FieldTower, TowerElement

BASE = "base"
PRIME = "prime"


def generator_columns(K: FieldTower, ref: str) -> list:
    """Column descriptors: ('base', i) for base variables, ('layer', level); the one check of `ref`."""
    if ref not in (BASE, PRIME):
        raise ValueError(f"unknown reference field {ref!r}")
    cols = []
    if ref == PRIME:
        cols.extend(("base", i) for i in range(K.base.d))
    cols.extend(("layer", lv) for lv in range(1, K.height + 1))
    return cols


def _flat_partials(K: FieldTower, cols: list, vec: dict) -> list:
    """Formal partials of a flat vector, one per column.

    A column of a base variable or a transcendental layer differentiates each
    F_p(T) coefficient in its T-variable; a column of an algebraic layer lowers
    that layer's slot exponent by one and multiplies by the old exponent mod p.
    Exponents of `vec` may reach a layer degree (as in a relation z^deg - r);
    the partials stay reduced because they lower exponents only.
    """
    p = K.p
    out = []
    for kind, idx in cols:
        part = {}
        if kind == "base" or K.layers[idx - 1].kind == TRANSCENDENTAL:
            var = idx if kind == "base" else K.flat_index[idx]
            for e, c in vec.items():
                dc = c.derivative(var)
                if not dc.is_zero:
                    part[e] = dc
        else:
            slot = K.flat_index[idx]
            for e, c in vec.items():
                k = e[slot] % p
                if k:
                    lowered = e[:slot] + (e[slot] - 1,) + e[slot + 1 :]
                    part[lowered] = RatFunc(c.num.scale(k), c.den, _normalized=True)
        out.append(part)
    return out


def differential_vector(a: TowerElement, ref: str = PRIME) -> list:
    """Coordinates of da in the span of the generator differentials, as flat vectors."""
    return _flat_partials(a.tower, generator_columns(a.tower, ref), a.payload)


def relation_rows(K: FieldTower, ref: str = BASE) -> list:
    """One row per algebraic layer: the partials of its relation z^deg - reduction, z^deg unreduced."""
    cols = generator_columns(K, ref)
    alg = K.algebra
    rows = []
    for slot, layer in enumerate(alg.layers):
        head = [0] * alg.nslots
        head[slot] = layer.degree
        relation = alg.sub({tuple(head): alg.field.one}, layer.reduction)
        rows.append(_flat_partials(K, cols, relation))
    return rows


def pdeg(K: FieldTower, ref: str = BASE) -> int:
    """Rank of the differential module: generators minus relation rank."""
    return len(generator_columns(K, ref)) - K.algebra.rank(relation_rows(K, ref))


def trdeg(K: FieldTower, ref: str = BASE) -> int:
    """The generators above the reference field that are transcendental."""
    cols = generator_columns(K, ref)
    return sum(kind == "base" or K.layers[idx - 1].kind == TRANSCENDENTAL for kind, idx in cols)


def schroer_predicted_edim(K: FieldTower, ref: str = BASE) -> int:
    """Difference pdeg - trdeg: the predicted embedding dimension after height-one base change."""
    value = pdeg(K, ref) - trdeg(K, ref)
    if value < 0:
        raise InternalInvariantViolation("pdeg < trdeg would falsify the theory or this library")
    return value


def differential_is_zero(a: TowerElement) -> bool:
    """True iff da = 0 over the prime field, i.e. the vector lies in the relation row span.

    Without a slot, K = F_p(T) and K^p = F_p(T^p): a reduced fraction lies in
    it exactly when every exponent of its numerator and denominator is
    divisible by p.  Otherwise one rank decides: F_p is perfect, so the
    relation rows are independent (pdeg = trdeg over F_p, criterion 8).
    """
    if not a.tower.algebra.nslots:
        p = a.tower.p
        return all(k % p == 0 for c in a.payload.values() for f in (c.num, c.den) for e in f.terms for k in e)
    d = differential_vector(a, PRIME)
    if not any(d):
        return True
    alg = a.tower.algebra
    rows = relation_rows(a.tower, PRIME)
    return alg.rank(rows + [d]) == len(rows)
