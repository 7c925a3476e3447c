"""The acceptance criteria: every identity the library is built to verify.

Each criterion runs a seeded randomized (or fixture) suite and returns a
CriterionResult; all checks are exact integer identities, so there are no
tolerances anywhere.  `run_all` prints one pass/fail line per criterion.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

from . import artin, kaehler, localring
from .ff_arith import IdealPresentation, groebner_basis, quotient_dim, reduce_modulo
from .ff_arith.poly import MultiPoly
from .instances import (
    ACCEPTANCE_PRIMES,
    cusp_char2,
    cusp_char3,
    random_bound_instance,
    random_point,
    random_separable_point_instance,
    random_base_element,
    random_tower,
    random_tower_element,
    sqrt_t_tower,
)
from .tower import BaseField, p_root_tower

BASE_SEED = 0x5EED


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail} ({self.seconds:.1f}s)"


def _towers_for_identity(count: int):
    """Randomized towers shared by the identity criteria (1 and 8)."""
    rng = random.Random(BASE_SEED + 1)
    towers = []
    while len(towers) < count:
        p = rng.choice(ACCEPTANCE_PRIMES)
        d = rng.randint(1, 2)
        towers.append(random_tower(rng, p, d, max_layers=3, max_exp=2).tower)
    return towers


@functools.cache
def _identity_towers():
    return _towers_for_identity(50)


def criterion_1_predicted_edim_identity() -> CriterionResult:
    """edim of K tensor k^(1/p) equals pdeg(K/k) - trdeg(K/k) on random towers."""
    start = time.time()
    failures = []
    towers = _identity_towers()
    for i, K in enumerate(towers):
        spec = artin.InseparableExtensionSpec.height_one(K.base)
        lhs = artin.base_change_structure(K, spec).edim
        rhs = kaehler.schroer_predicted_edim(K, "base")
        if lhs != rhs:
            failures.append((i, lhs, rhs))
    detail = f"{len(towers)} towers, {len(failures)} mismatches"
    return CriterionResult(1, "height-one edim identity", not failures, detail, time.time() - start)


def criterion_2_height_one_stability() -> CriterionResult:
    """Jumps over exponents 1, 2, 3 agree: random field cases, and both cusps recounted by Buchberger."""
    start = time.time()
    rng = random.Random(BASE_SEED + 2)
    failures = []
    cases = 0
    while cases < 20:
        p = rng.choice(ACCEPTANCE_PRIMES)
        d = rng.randint(1, 2)
        rt = random_tower(rng, p, d, max_layers=2, max_exp=2, dim_budget=8)
        K = rt.tower
        if rt.inseparable_radicands and rng.random() < 0.7:
            a = rt.inseparable_radicands[0]
        else:
            a = random_base_element(rng, K.base, allow_fraction=False)
        if a.is_zero:
            continue
        edims = [
            artin.base_change_structure(K, artin.InseparableExtensionSpec.of([(a, n)])).edim for n in (1, 2, 3)
        ]
        if len(set(edims)) != 1:
            failures.append((cases, edims))
        cases += 1
    for name, (I, P) in (("cusp2", cusp_char2()), ("cusp3", cusp_char3())):
        report = localring.verify_height_one_stability(I, P, "t", 3)
        edims = [_buchberger_edim(*localring.base_change_point(I, P, {"t": n})) for n in range(4)]
        recount = None if None in edims else tuple(e - edims[0] for e in edims[1:])
        if not report.stable or recount != report.jumps:
            failures.append((name, report.jumps, recount))
    detail = f"20 field cases + 2 cusp fixtures, {len(failures)} unstable"
    return CriterionResult(2, "height-one stability", not failures, detail, time.time() - start)


@functools.cache
def _bound_instances():
    rng = random.Random(BASE_SEED + 3)
    instances = []
    while len(instances) < 20:
        I, P, exponents = random_bound_instance(rng)
        instances.append((I, P, exponents, localring.ejump_at_point(I, P, exponents)))
    return instances


def criterion_3_bound_chain() -> CriterionResult:
    """0 <= ejump <= edim(kappa tensor k') <= pdeg - trdeg at sampled points.

    Both embedding dimensions of each report are also recounted by Buchberger,
    the lemma's bound by the base-change walk and the theorem's by Kaehler ranks.
    """
    start = time.time()
    failures = []
    for i, (I, P, exponents, report) in enumerate(_bound_instances()):
        chain_ok = (
            report.satisfied["nonnegative"]
            and report.satisfied["lemma"]
            and report.satisfied["theorem"]
        )
        if not chain_ok:
            failures.append((i, report.to_dict()))
        recount = (_buchberger_edim(I, P), _buchberger_edim(*localring.base_change_point(I, P, exponents)))
        if recount != (report.edim_before, report.edim_after):
            failures.append((i, "buchberger-edim", recount, report.to_dict()))
        kappa, _ = P.residue_tower()
        entries = [(P.field.gen(j), e) for j, e in enumerate(exponents) if e >= 1]
        spec = artin.InseparableExtensionSpec.of(entries)
        bounds = (
            artin.base_change_structure(kappa, spec).edim,
            kaehler.pdeg(kappa, "base") - kaehler.trdeg(kappa, "base"),
        )
        if bounds != (report.bound_lemma, report.bound_theorem):
            failures.append((i, "walk-and-kaehler-bounds", bounds, report.to_dict()))
    detail = f"20 instances, {len(failures)} chain violations"
    return CriterionResult(3, "bound chain", not failures, detail, time.time() - start)


def criterion_4_cusp_reproduction() -> CriterionResult:
    """Both quasi-elliptic cusps: ejump 1, ecodim 1 after, equality in the pdeg bound."""
    start = time.time()
    failures = []
    for name, (I, P) in (("char2", cusp_char2()), ("char3", cusp_char3())):
        report = localring.ejump_at_point(I, P, {"t": 1})
        ok = (
            report.ejump == 1
            and report.ecodim_after == 1
            and report.bound_theorem == 1
            and report.bound_lemma == 1
        )
        if not ok:
            failures.append((name, report.to_dict()))
    detail = f"2 fixtures, {len(failures)} mismatches"
    return CriterionResult(4, "cusp reproduction", not failures, detail, time.time() - start)


def structure_oracle_specs() -> list:
    """(K, spec) for criterion 5: both explicit shapes, then 28 random specs.

    The explicit shapes over F_2(sqrt t) keep the residue field (n = 1) and
    grow it (n = 2).
    """
    K = sqrt_t_tower(2)
    t = K.base.field.gen(0)
    cases = [(K, artin.InseparableExtensionSpec.of([(t, n)])) for n in (1, 2)]
    rng = random.Random(BASE_SEED + 5)
    while len(cases) < 30:
        p = rng.choice((2, 2, 3))
        d = rng.randint(1, 2)
        rt = random_tower(rng, p, d, max_layers=2, max_exp=2, dim_budget=4 if p == 3 else 8)
        K = rt.tower
        entries = []
        budget = 32 if p == 2 else 27
        total = 1
        for _ in range(rng.randint(1, 2)):
            if rt.inseparable_radicands and rng.random() < 0.6:
                a = rt.inseparable_radicands[rng.randrange(len(rt.inseparable_radicands))]
            else:
                a = random_base_element(rng, K.base, allow_fraction=False)
            n = rng.randint(1, 2)
            if total * p**n > budget:
                n = 1
            if total * p**n > budget:
                continue
            total *= p**n
            entries.append((a, n))
        if not entries:
            continue
        if K.degree_over_transcendental_base() * total > 48:
            continue
        cases.append((K, artin.InseparableExtensionSpec.of(entries)))
    return cases


def criterion_5_structure_oracle() -> CriterionResult:
    """The base-change oracle passes all clauses on random specs and both explicit cases."""
    start = time.time()
    failures = []
    cases = structure_oracle_specs()
    for i, (K, spec) in enumerate(cases):
        report = artin.verify_structure_oracle(K, spec, cap=2**10)
        if not report.passed:
            failures.append((i, report.failures()))
    detail = f"{len(cases)} specs, {len(failures)} oracle failures"
    return CriterionResult(5, "base-change structure oracle", not failures, detail, time.time() - start)


def criterion_6_corollary_bound() -> CriterionResult:
    """edim_after <= edim_before + d and ecodim_after <= ecodim_before + d on the bound-chain instances."""
    start = time.time()
    failures = []
    for i, (_, _, _, report) in enumerate(_bound_instances()):
        if not (report.satisfied["corollary_edim"] and report.satisfied["corollary_ecodim"]):
            failures.append((i, report.to_dict()))
    detail = f"20 instances, {len(failures)} corollary violations"
    return CriterionResult(6, "base-dimension corollary", not failures, detail, time.time() - start)


def _buchberger_edim(I: IdealPresentation, P: localring.ClosedPoint):
    """Second route to `localring.edim_at_point`: (dim_k k[x]/(P^2 + I) - deg P) / deg P.

    P^2 + I lies in the maximal ideal P, so k[x]/(P^2 + I) is local with
    residue field kappa and its ideal P/(P^2 + I) is the cotangent space.
    None when the count is not a nonnegative multiple of the residue degree.
    """
    gens = P.generators
    squares = tuple(gens[i] * gens[j] for i in range(len(gens)) for j in range(i, len(gens)))
    ideal = IdealPresentation(I.coeff_field, I.varnames, squares + tuple(I.generators), I.order)
    _, vdim = quotient_dim(ideal)
    dk = P.residue_degree()
    if vdim is None or vdim < dk or (vdim - dk) % dk:
        return None
    return (vdim - dk) // dk


def _naive_vector_dim(I: IdealPresentation, cap: int = 256):
    """Independent count of standard monomials: close {1} under variable multiplication."""
    gb = groebner_basis(I)
    if gb.is_unit_ideal:
        return 0
    n = len(I.varnames)
    field = I.coeff_field
    start = (0,) * n
    standard = set()
    frontier = [start]
    while frontier:
        exp = frontier.pop()
        if exp in standard:
            continue
        mono = MultiPoly(field, n, {exp: field.one})
        if reduce_modulo(mono, gb) != mono:
            continue
        standard.add(exp)
        if len(standard) > cap:
            return None
        for i in range(n):
            e2 = list(exp)
            e2[i] += 1
            frontier.append(tuple(e2))
    return len(standard)


def criterion_7_roundtrips_and_oracles() -> CriterionResult:
    """Frobenius roundtrips, naive dimension oracle, and the jet-space comparison."""
    start = time.time()
    rng = random.Random(BASE_SEED + 7)
    failures = []

    # p_root(x^p) = x on 100 random tower elements
    towers = _identity_towers()
    for i in range(100):
        K = towers[i % len(towers)]
        x = random_tower_element(rng, K)
        if p_root_tower(x ** K.p) != x:
            failures.append(("frobenius", i))

    # quotient dimension vs the naive closure oracle on tiny 0-dimensional ideals
    for i in range(20):
        p = rng.choice(ACCEPTANCE_PRIMES)
        d = rng.randint(1, 2)
        names = ("t",) if d == 1 else ("t1", "t2")
        P = random_point(rng, BaseField(p, names), rng.randint(1, 2))
        ideal = P.ideal()
        if rng.random() < 0.5:
            gens = list(ideal.generators)
            gens.append(gens[0] * gens[-1])
            ideal = IdealPresentation(ideal.coeff_field, ideal.varnames, tuple(gens))
        _, vdim = quotient_dim(ideal)
        naive = _naive_vector_dim(ideal)
        if naive is None or vdim != naive:
            failures.append(("naive-dim", i, vdim, naive))

    # jet-space agreement at separable points, with edim recounted by Buchberger
    agreements = 0
    while agreements < 10:
        I, P = random_separable_point_instance(rng)
        lhs = localring.edim_at_point(I, P)
        rhs = localring.classical_jacobian_edim(I, P)
        recount = _buchberger_edim(I, P)
        if not lhs == rhs == recount:
            failures.append(("jet-separable", agreements, lhs, rhs, recount))
        agreements += 1

    # documented disagreement at the inseparable cusp point
    I2, P2 = cusp_char2()
    if not (localring.edim_at_point(I2, P2) == 1 and localring.classical_jacobian_edim(I2, P2) == 2):
        failures.append(("jet-inseparable-negative",))

    detail = f"100 roots + 20 ideals + 10 separable points + negative fixture, {len(failures)} failures"
    return CriterionResult(7, "roundtrips and oracle agreement", not failures, detail, time.time() - start)


def criterion_8_perfect_base_equality() -> CriterionResult:
    """pdeg(K/F_p) = trdeg(K/F_p) on every randomized tower of criterion 1."""
    start = time.time()
    failures = []
    towers = _identity_towers()
    for i, K in enumerate(towers):
        if kaehler.pdeg(K, "prime") != kaehler.trdeg(K, "prime"):
            failures.append(i)
    detail = f"{len(towers)} towers, {len(failures)} mismatches"
    return CriterionResult(8, "perfect-base equality", not failures, detail, time.time() - start)


ALL_CRITERIA = (
    criterion_1_predicted_edim_identity,
    criterion_2_height_one_stability,
    criterion_3_bound_chain,
    criterion_4_cusp_reproduction,
    criterion_5_structure_oracle,
    criterion_6_corollary_bound,
    criterion_7_roundtrips_and_oracles,
    criterion_8_perfect_base_equality,
)


def run_all(echo=print) -> list:
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        if echo:
            echo(result.line())
    return results
