"""Ranks of differential modules from Jacobian presentations of towers.

For a tower K over reference field k (the rational base, or the prime field
F_p), the module of differentials is presented by one column per generator
above k and one relation row per algebraic layer: the total differential of
its minimal polynomial.  Ranks are computed by Gaussian elimination with
exact tower arithmetic; p-degree is the corank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantViolation
from .tower import (
    TRANSCENDENTAL,
    FieldTower,
    Frac,
    TowerElement,
    _add,
    _div,
    _is_zero,
    _layer,
    _lift,
    _make_frac,
    _mul,
    _neg,
    _one,
    _zero,
)

BASE = "base"
PRIME = "prime"


def _normalize_ref(ref: str) -> str:
    if ref in (BASE, "base_field"):
        return BASE
    if ref in (PRIME, "prime_field", "fp"):
        return PRIME
    raise ValueError(f"unknown reference field {ref!r}")


def generator_columns(K: FieldTower, ref: str) -> list:
    """Column descriptors: ('base', i) for base variables, ('layer', level)."""
    ref = _normalize_ref(ref)
    cols = []
    if ref == PRIME:
        cols.extend(("base", i) for i in range(K.base.d))
    cols.extend(("layer", lv) for lv in range(1, K.height + 1))
    return cols


def generator_names(K: FieldTower, ref: str) -> list:
    names = []
    for kind, idx in generator_columns(K, ref):
        names.append(K.base.varnames[idx] if kind == "base" else K.layers[idx - 1].name)
    return names


def _partials(K: FieldTower, level: int, payload, cols: list) -> list:
    """Formal partial derivatives of a payload, one per column, at `level`."""
    if level == 0:
        out = []
        for kind, idx in cols:
            if kind == "base":
                out.append(payload.derivative(idx))
            else:
                out.append(K.base.field.zero)
        return out
    layer = _layer(K, level)
    s = level - 1
    sub_cols = [c for c in cols if not (c[0] == "layer" and c[1] >= level)]

    if layer.kind == TRANSCENDENTAL:
        num, den = payload.num, payload.den
        num_parts = [_partials(K, s, c, sub_cols) for c in num]
        den_parts = [_partials(K, s, c, sub_cols) for c in den]
        n_el = Frac(num, (_one(K, s),))
        d_el = Frac(den, (_one(K, s),))
        dd = _mul(K, level, d_el, d_el)
        out = []
        for col in cols:
            if col[0] == "layer" and col[1] > level:
                out.append(_zero(K, level))
                continue
            if col == ("layer", level):
                dn = _poly_derivative(K, s, num)
                dv = _poly_derivative(K, s, den)
                nv = _make_frac(K, s, dn, (_one(K, s),))
                dvf = _make_frac(K, s, dv, (_one(K, s),))
            else:
                si = sub_cols.index(col)
                nv = _make_frac(K, s, tuple(part[si] for part in num_parts), (_one(K, s),))
                dvf = _make_frac(K, s, tuple(part[si] for part in den_parts), (_one(K, s),))
            top = _add(
                K,
                level,
                _mul(K, level, d_el, nv),
                _neg(K, level, _mul(K, level, n_el, dvf)),
            )
            out.append(_div(K, level, top, dd))
        return out

    m = K.layer_degree(layer)
    coeff_parts = [_partials(K, s, c, sub_cols) for c in payload]
    out = []
    for col in cols:
        if col[0] == "layer" and col[1] > level:
            out.append(_zero(K, level))
        elif col == ("layer", level):
            vec = [_zero(K, s)] * m
            for j in range(1, m):
                vec[j - 1] = _int_scale(K, s, payload[j], j)
            out.append(tuple(vec))
        else:
            si = sub_cols.index(col)
            out.append(tuple(part[si] for part in coeff_parts))
    return out


def _poly_derivative(K, s, coeffs):
    out = []
    for j in range(1, len(coeffs)):
        out.append(_int_scale(K, s, coeffs[j], j))
    return tuple(out)


def _int_scale(K, s, payload, n: int):
    n %= K.p
    acc = _zero(K, s)
    for _ in range(n):
        acc = _add(K, s, acc, payload)
    return acc


def differential_vector(a: TowerElement, ref: str = PRIME) -> list:
    """Coordinates of da in the span of the generator differentials."""
    K = a.tower
    cols = generator_columns(K, ref)
    parts = _partials(K, K.height, a.payload, cols)
    return [TowerElement(K, p) for p in parts]


@dataclass(frozen=True)
class JacobianPresentation:
    """Generators and relation rows presenting the differential module."""

    tower: FieldTower
    reference: str
    generators: tuple
    relation_layers: tuple
    matrix: tuple  # rows of TowerElement, one per algebraic layer

    @property
    def rank(self) -> int:
        return _matrix_rank(self.tower, [list(r) for r in self.matrix])


def jacobian_presentation(K: FieldTower, ref: str = BASE) -> JacobianPresentation:
    ref = _normalize_ref(ref)
    cols = generator_columns(K, ref)
    rows = []
    layers = []
    for level in range(1, K.height + 1):
        layer = K.layers[level - 1]
        if layer.kind == TRANSCENDENTAL:
            continue
        layers.append(layer.name)
        m = K.layer_degree(layer)
        coeffs = K.minpoly_coeffs(level)
        s = level - 1
        sub_cols = [c for c in cols if not (c[0] == "layer" and c[1] >= level)]
        coeff_parts = [_partials(K, s, c, sub_cols) for c in coeffs]
        row = []
        for col in cols:
            if col[0] == "layer" and col[1] > level:
                row.append(_zero(K, level))
            elif col == ("layer", level):
                # derivative of the monic minimal polynomial at the generator
                vec = [_zero(K, s)] * m
                for j in range(1, m):
                    vec[j - 1] = _int_scale(K, s, coeffs[j], j)
                head = m % K.p
                if head:
                    vec[m - 1] = _add(K, s, vec[m - 1], _int_scale(K, s, _one(K, s), head))
                row.append(tuple(vec))
            else:
                si = sub_cols.index(col)
                row.append(tuple(part[si] for part in coeff_parts))
        rows.append([_lift_to_top(K, level, entry) for entry in row])
    generators = tuple(generator_names(K, ref))
    matrix = tuple(tuple(TowerElement(K, e) for e in row) for row in rows)
    return JacobianPresentation(K, ref, generators, tuple(layers), matrix)


def _lift_to_top(K: FieldTower, level: int, payload):
    for lv in range(level + 1, K.height + 1):
        payload = _lift(K, lv, payload)
    return payload


def _matrix_rank(K: FieldTower, rows: list) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    work = [[e.payload if isinstance(e, TowerElement) else e for e in row] for row in rows]
    lv = K.height
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if not _is_zero(K, lv, work[r][col]):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            if _is_zero(K, lv, work[r][col]):
                continue
            factor = _div(K, lv, work[r][col], pivot)
            work[r] = [
                _add(K, lv, work[r][c], _neg(K, lv, _mul(K, lv, factor, work[rank][c])))
                for c in range(ncols)
            ]
        rank += 1
        if rank == len(work):
            break
    return rank


def pdeg(K: FieldTower, ref: str = BASE) -> int:
    """Rank of the differential module: generators minus relation rank."""
    ref = _normalize_ref(ref)
    pres = jacobian_presentation(K, ref)
    value = len(pres.generators) - pres.rank
    if value < 0:
        raise InternalInvariantViolation("negative p-degree")
    return value


def trdeg(K: FieldTower, ref: str = BASE) -> int:
    ref = _normalize_ref(ref)
    count = sum(1 for l in K.layers if l.kind == TRANSCENDENTAL)
    if ref == PRIME:
        count += K.base.d
    return count


def schroer_predicted_edim(K: FieldTower, ref: str = BASE) -> int:
    """Difference pdeg - trdeg: the predicted embedding dimension after height-one base change."""
    value = pdeg(K, ref) - trdeg(K, ref)
    if value < 0:
        raise InternalInvariantViolation("pdeg < trdeg would falsify the theory or this library")
    return value


def differential_is_zero(a: TowerElement) -> bool:
    """True iff da = 0 over the prime field, i.e. the vector lies in the relation row span."""
    K = a.tower
    pres = jacobian_presentation(K, PRIME)
    rows = [list(r) for r in pres.matrix]
    base_rank = _matrix_rank(K, rows) if rows else 0
    d = differential_vector(a, PRIME)
    if all(e.is_zero for e in d):
        return True
    rows.append(d)
    return _matrix_rank(K, rows) == base_rank
