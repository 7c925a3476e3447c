"""Structure of K tensored with purely inseparable extensions of its base field.

The base change K (x)_k k(a1^(1/p^n1), ..., ar^(1/p^nr)) is an Artin local
ring: a truncated polynomial algebra over a residue field obtained from K by
adjoining the missing roots.  Entries are processed one at a time, fewest
p-power roots in the residue field so far first: an entry's largest
extractable p-power root m decides whether the residue field grows (m < n)
and whether a nilpotent of order p^m appears (m >= 1).

The walk adjoins a root layer without `tower_extend`'s p-th-power check:
it adjoins only after `max_p_power_exponent` stopped on NotAPower in the
same field, and `p_power_root` decides that exactly.

The verification oracle rebuilds the concrete finite-dimensional algebra
K[z1..zr]/(zi^(p^ni) - ai) and checks the claimed structure clause by
clause: total dimension, exact nilpotency indices, and the dimension over K
of the quotient by the claimed nilpotents, one rank over K.  That algebra is
`FieldTower.algebra` of K with one unchecked root layer zi^(p^ni) = ai per
entry, built as the walk builds its layers; ai may be a p-th power in K, so
this tower need not be a field, and only its algebra is used.  A
residue-field element enters it as its vector, with each adjoined layer's
slot moved to its entry's z slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ArityMismatch, CapExceeded
from .ff_arith import RatFunc
from .flat import LinearSolver, p_power_root
from .tower import (
    BaseField,
    FieldTower,
    TowerElement,
    fresh_name,
    inseparable_root_layer,
    max_p_power_exponent,
)


@dataclass(frozen=True)
class InseparableExtensionSpec:
    """The extension k' = k(a1^(1/p^n1), ..., ar^(1/p^nr)) given by (radicand, exponent) pairs."""

    entries: tuple

    def __post_init__(self):
        for a, n in self.entries:
            if not isinstance(a, RatFunc) or a.is_zero:
                raise ArityMismatch("radicands must be nonzero base-field elements")
            if n < 1:
                raise ArityMismatch("exponents must be >= 1")

    @classmethod
    def of(cls, pairs) -> "InseparableExtensionSpec":
        return cls(tuple(pairs))

    @classmethod
    def height_one(cls, base: BaseField) -> "InseparableExtensionSpec":
        """The spec materializing k^(1/p): every base variable with exponent 1."""
        field = base.field
        return cls(tuple((field.gen(i), 1) for i in range(base.d)))

    def total_degree(self, p: int) -> int:
        total = 1
        for _, n in self.entries:
            total *= p**n
        return total

    def permuted(self, order) -> "InseparableExtensionSpec":
        return InseparableExtensionSpec(tuple(self.entries[i] for i in order))


@dataclass(frozen=True)
class NilpotentRecord:
    """One nilpotent generator epsilon = root - z^(z_power) of order p^order_exponent."""

    entry_index: int
    order_exponent: int
    root: TowerElement  # p^m-th root of the radicand in the residue field seen at its step
    z_power: int

    def render(self) -> str:
        z = f"z{self.entry_index + 1}"
        zpart = z if self.z_power == 1 else f"{z}^{self.z_power}"
        return f"({self.root.render()}) - {zpart}"


@dataclass(frozen=True)
class TruncatedStructure:
    """Residue field plus truncation orders describing K (x)_k k'."""

    base_tower: FieldTower
    spec: InseparableExtensionSpec
    residue_field: FieldTower
    nilpotents: tuple
    adjoined: tuple  # (entry_index, layer_name) for entries that grew the residue field

    @property
    def edim(self) -> int:
        return len(self.nilpotents)

    @property
    def residue_degree(self) -> int:
        degree = 1
        for _, name in self.adjoined:
            layer = next(l for l in self.residue_field.layers if l.name == name)
            degree *= self.residue_field.layer_degree(layer)
        return degree

    @property
    def total_extension_degree(self) -> int:
        return self.spec.total_degree(self.base_tower.p)

    @property
    def order_exponents(self) -> tuple:
        return tuple(rec.order_exponent for rec in self.nilpotents)


def base_change_structure(K: FieldTower, spec: InseparableExtensionSpec) -> TruncatedStructure:
    """Walk the spec entries, growing the residue field as needed.

    The next entry is always one whose radicand has the fewest p-power roots
    (the smallest m) in the residue field grown so far, ties by position.  In
    the given order instead, a nilpotent recorded early can fall into m^2 once
    a later entry adjoins a deeper root: for K = F_2(t) and entries (t^2, 2),
    (t, 2), the first gives z1^2 - t, the second z1 - z2^2, and
    z1^2 - t = (z1 - z2^2)^2.  Exponents only grow with the field, so each
    entry's exponent is a lower bound, computed or refreshed from its last
    root only when the entry is the candidate.
    """
    for a, _ in spec.entries:
        if a.num.arity != K.base.d:
            raise ArityMismatch("radicand does not live in the base field of K")
    L = K
    # entry index -> (lower bound on m, p^m-th root of the radicand, tower it was computed in)
    pending = {idx: (0, K.from_base(a), None) for idx, (a, _) in enumerate(spec.entries)}
    nilpotents = []
    adjoined = []
    while pending:
        idx = min(pending, key=lambda i: (pending[i][0], i))
        m, root_m, seen = pending[idx]
        n = spec.entries[idx][1]
        if m < n and seen is not L:
            more, root_m = max_p_power_exponent(L.embed(root_m), n - m)
            pending[idx] = (m + more, root_m, L)
            continue
        del pending[idx]
        if m >= n:
            nilpotents.append(NilpotentRecord(idx, n, root_m, 1))
        else:
            # root_m is not a p-th power in L (see the module docstring), so
            # the layer skips `tower_extend`'s re-check
            name = fresh_name(L, "g")
            L = FieldTower(L.base, L.layers + (inseparable_root_layer(L, name, root_m, n - m),))
            adjoined.append((idx, name))
            if m >= 1:
                nilpotents.append(NilpotentRecord(idx, m, root_m, K.p ** (n - m)))
    nilpotents.sort(key=lambda rec: rec.entry_index)
    return TruncatedStructure(K, spec, L, tuple(nilpotents), tuple(adjoined))


# -- verification oracle ---------------------------------------------------


@dataclass(frozen=True)
class NilpotentCheck:
    entry_index: int
    order_exponent: int
    index_exact: bool
    corrected: bool


@dataclass(frozen=True)
class StructureReport:
    dimension_expected: int
    dimension_ok: bool
    nilpotent_checks: tuple
    quotient_expected: int
    quotient_computed: int
    quotient_ok: bool

    @property
    def passed(self) -> bool:
        return self.dimension_ok and self.quotient_ok and all(c.index_exact for c in self.nilpotent_checks)

    def failures(self) -> list:
        out = []
        if not self.dimension_ok:
            out.append("dimension")
        for c in self.nilpotent_checks:
            if not c.index_exact:
                out.append(f"nilpotency-index[{c.entry_index}]")
        if not self.quotient_ok:
            out.append("residue-quotient")
        return out


def _residue_vector(structure: TruncatedStructure, elt: TowerElement) -> dict:
    """Image in K[z] of a residue-field element, with adjoined generators sent to z-monomials.

    The residue field has the slots of K followed by one slot per adjoined
    layer, in order; adjoined exponents stay below the layer degree p^(n-m),
    hence below p^n, so moving them to z slots needs no reduction.
    """
    L = structure.residue_field
    k = structure.base_tower.algebra.nslots
    pad = len(structure.spec.entries)
    z_slots = [k + idx for idx, _ in structure.adjoined]
    out = {}
    for e, c in L.embed(elt).payload.items():
        exp = list(e[:k]) + [0] * pad
        for slot, power in zip(z_slots, e[k:]):
            exp[slot] = power
        out[tuple(exp)] = c
    return out


def _ideal_rank(K: FieldTower, alg, generators: list) -> int:
    """dim_K of the ideal of A = K[z]/(zi^(p^ni) - ai) that the generators span.

    An ideal of a K-algebra is a K-subspace and the z-monomials are a
    K-basis of A, so the rows g * z^beta, one K-entry per z-monomial
    (highest first), span it.  The rank is `FlatAlgebra.rank` over K's flat
    algebra, or a `LinearSolver` rank of the scalar rows when K has no slot.
    """
    k = K.algebra.nslots
    z_basis = list(itertools.product(*(range(l.degree) for l in alg.layers[k:])))[::-1]
    column = {beta: j for j, beta in enumerate(z_basis)}
    rows = []
    for g in generators:
        for beta in z_basis:
            row = [{} for _ in z_basis]
            for e, c in alg.mul(g, {(0,) * k + beta: alg.field.one}).items():
                row[column[e[k:]]][e[:k]] = c
            rows.append(row)
    if k:
        return K.algebra.rank(rows)
    solver = LinearSolver(alg.field, len(z_basis))
    for row in rows:
        solver.add_equation([entry.get((), alg.field.zero) for entry in row])
    return solver.rank


def verify_structure_oracle(
    K: FieldTower,
    spec: InseparableExtensionSpec,
    structure: TruncatedStructure | None = None,
    cap: int = 1024,
) -> StructureReport:
    """Check the claimed truncated structure inside the concrete algebra.

    Clauses: (a) the algebra has the full monomial dimension over K; (b) each
    claimed nilpotent has multiplication operator of nilpotency index exactly
    p^m; (c) the quotient by the claimed nilpotents has the dimension of the
    residue field over K, counted as total - dim_K of the ideal they generate.
    """
    if structure is None:
        structure = base_change_structure(K, spec)
    p = K.p
    total = spec.total_degree(p)
    if total > cap:
        raise CapExceeded(f"algebra dimension {total} exceeds cap {cap}")
    # K with one unchecked root layer per entry; not always a field (see the module docstring)
    C = K
    for i, (a, n) in enumerate(spec.entries):
        C = FieldTower(K.base, C.layers + (inseparable_root_layer(C, f"z{i + 1}", C.from_base(a), n),))
    alg, k = C.algebra, K.algebra.nslots
    dimension_ok = alg.dimension // K.algebra.dimension == total

    eps_vecs = []
    checks = []
    for rec in structure.nilpotents:
        a, _ = spec.entries[rec.entry_index]
        m = rec.order_exponent
        root_vec = _residue_vector(structure, rec.root)
        target = C.from_base(a).payload
        corrected = False
        root_q = alg.frobenius(root_vec, p**m)
        if root_q != target:
            w = p_power_root(alg, alg.sub(target, root_q), m)
            if w is not None:
                root_vec = alg.add(root_vec, w)
                corrected = True
        eps = alg.sub(root_vec, alg.gen(k + rec.entry_index, rec.z_power))
        # order exponents are >= 1, so p^m - 1 >= 1 and exactness means:
        # eps^(p^m) = 0 while eps^(p^m - 1) != 0
        vanishes = not alg.frobenius(eps, p**m)
        sharp = bool(alg.pow(eps, p**m - 1))
        checks.append(NilpotentCheck(rec.entry_index, m, vanishes and sharp, corrected))
        eps_vecs.append(eps)

    rank = _ideal_rank(K, alg, eps_vecs)
    quotient_expected = structure.residue_degree
    return StructureReport(
        dimension_expected=total,
        dimension_ok=dimension_ok,
        nilpotent_checks=tuple(checks),
        quotient_expected=quotient_expected,
        quotient_computed=total - rank,
        quotient_ok=total - rank == quotient_expected,
    )
