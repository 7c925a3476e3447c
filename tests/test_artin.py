import functools
import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ejump import artin, kaehler
from ejump.acceptance import structure_oracle_specs
from ejump.errors import ArityMismatch, CapExceeded
from ejump.flat import LinearSolver, flat_model
from ejump.instances import random_base_element, random_tower, rational_oracle_specs, sqrt_t_tower
from ejump.tower import BaseField, FieldTower, TowerElement, is_p_power_tower

from .benchmark import workloads
from .strategies import towers


def t_of(K):
    return K.base.field.gen(0)


class TestSpecValidation:
    def test_zero_radicand_rejected(self):
        K = sqrt_t_tower()
        with pytest.raises(ArityMismatch):
            artin.InseparableExtensionSpec.of([(K.base.field.zero, 1)])

    def test_bad_exponent_rejected(self):
        K = sqrt_t_tower()
        with pytest.raises(ArityMismatch):
            artin.InseparableExtensionSpec.of([(t_of(K), 0)])


class TestLemmaCases:
    def test_root_already_present(self):
        # K = F_2(sqrt t), entry (t, 1): residue field unchanged, one nilpotent of order 2
        K = sqrt_t_tower()
        s = artin.base_change_structure(K, artin.InseparableExtensionSpec.of([(t_of(K), 1)]))
        assert s.edim == 1
        assert s.residue_degree == 1
        assert s.order_exponents == (1,)

    def test_residue_field_grows(self):
        # entry (t, 2): adjoin t^(1/4), keep a nilpotent of order 2
        K = sqrt_t_tower()
        s = artin.base_change_structure(K, artin.InseparableExtensionSpec.of([(t_of(K), 2)]))
        assert s.edim == 1
        assert s.residue_degree == 2
        assert s.order_exponents == (1,)

    def test_field_tensor_field(self):
        # K = k: pure field growth, no nilpotents
        k = FieldTower(BaseField(2, ("t",)))
        s = artin.base_change_structure(k, artin.InseparableExtensionSpec.of([(t_of(k), 1)]))
        assert s.edim == 0
        assert s.residue_degree == 2

    def test_two_variable_mix(self):
        from ejump.tower import algebraic_layer, tower_extend

        k = FieldTower(BaseField(2, ("t1", "t2")))
        K = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t1"), k.zero]))
        spec = artin.InseparableExtensionSpec.height_one(K.base)
        assert artin.base_change_structure(K, spec).edim == 1

    def test_p_power_radicand_tolerated(self):
        # a = t^2 is a square: contributes a nilpotent without field growth
        k = FieldTower(BaseField(2, ("t",)))
        a = t_of(k) ** 2
        s = artin.base_change_structure(k, artin.InseparableExtensionSpec.of([(a, 1)]))
        assert s.edim == 1
        assert s.residue_degree == 1


class TestEjumpField:
    def test_sqrt_t(self):
        K = sqrt_t_tower()
        spec = artin.InseparableExtensionSpec.of([(t_of(K), 1)])
        assert artin.base_change_structure(K, spec).edim == 1

    def test_trivial(self):
        k = FieldTower(BaseField(3, ("t",)))
        spec = artin.InseparableExtensionSpec.of([(t_of(k), 2)])
        assert artin.base_change_structure(k, spec).edim == 0


def random_spec(seed):
    """A random tower with two or three (radicand, exponent) entries."""
    rng = random.Random(seed)
    p = rng.choice((2, 3))
    rt = random_tower(rng, p, rng.randint(1, 2), max_layers=2, dim_budget=8)
    K = rt.tower
    entries = []
    for _ in range(rng.randint(2, 3)):
        if rt.inseparable_radicands and rng.random() < 0.5:
            a = rt.inseparable_radicands[0]
        else:
            a = random_base_element(rng, K.base, allow_fraction=False)
        entries.append((a, rng.randint(1, 2)))
    return rng, K, artin.InseparableExtensionSpec.of(entries)


def differential_edim(K, spec):
    """r - rank_K(da_1, ..., da_r) in the differentials of K over F_p."""
    rows = kaehler.relation_rows(K, "prime")
    das = [kaehler.differential_vector(K.from_base(a), "prime") for a, _ in spec.entries]
    alg = flat_model(K).algebra
    return len(das) - (alg.rank(rows + das) - alg.rank(rows))


# draws on which walking the entries in their given order over-counted edim
ORDER_SENSITIVE_SEEDS = (2, 107, 174, 16715, 25722, 123218, 62459348)


class TestOrderIndependence:
    @given(st.integers(0, 2**32 - 1))
    @example(seed=2)
    @example(seed=107)
    @example(seed=174)
    @example(seed=16715)
    @example(seed=25722)
    @example(seed=123218)
    @example(seed=62459348)
    def test_permutations(self, seed):
        rng, K, spec = random_spec(seed)
        order = list(range(len(spec.entries)))
        rng.shuffle(order)
        permuted = spec.permuted(order)
        s1 = artin.base_change_structure(K, spec)
        s2 = artin.base_change_structure(K, permuted)
        assert s1.edim == s2.edim
        assert s1.residue_degree == s2.residue_degree
        assert sorted(s1.order_exponents) == sorted(s2.order_exponents)
        for s in (s1, s2):
            assert s.residue_degree * K.p ** sum(s.order_exponents) == s.total_extension_degree

    @pytest.mark.parametrize("seed", ORDER_SENSITIVE_SEEDS)
    def test_every_order_matches_differential_rank(self, seed):
        _, K, spec = random_spec(seed)
        expected = differential_edim(K, spec)
        for order in itertools.permutations(range(len(spec.entries))):
            assert artin.base_change_structure(K, spec.permuted(order)).edim == expected, order

    @pytest.mark.parametrize("seed", (2, 25722, 123218))
    def test_every_order_passes_oracle(self, seed):
        _, K, spec = random_spec(seed)
        for order in itertools.permutations(range(len(spec.entries))):
            report = artin.verify_structure_oracle(K, spec.permuted(order))
            assert report.passed, (order, report.failures())

    @pytest.mark.parametrize(
        "entries, edim, orders, residue_degree",
        [
            # L = k(t^(1/4)); z1 - z3^2 and z2 - z3 have order 4
            ([(2, 2), (1, 2), (1, 2)], 2, [2, 2], 4),
            # L = k(t^(1/2)); one nilpotent z1 - z2 of order 8, where the walk in
            # the given order claimed t - z1^2 of order 4 and z1 - z2 of order 2
            ([(4, 3), (1, 1)], 1, [3], 2),
        ],
    )
    def test_hand_checked_cases(self, entries, edim, orders, residue_degree):
        k = FieldTower(BaseField(2, ("t",)))
        t = t_of(k)
        spec = artin.InseparableExtensionSpec.of([(t**e, n) for e, n in entries])
        for order in itertools.permutations(range(len(entries))):
            s = artin.base_change_structure(k, spec.permuted(order))
            got = (s.edim, sorted(s.order_exponents), s.residue_degree)
            assert got == (edim, orders, residue_degree)
            report = artin.verify_structure_oracle(k, spec.permuted(order), s)
            assert report.passed, (order, report.failures())


# the slowest walks among random_spec seeds 0-599 apart from seed 187
SLOW_WALK_SEEDS = (349, 288, 565, 75, 595)


class TestSlowWalks:
    @pytest.mark.parametrize("seed", SLOW_WALK_SEEDS)
    def test_edim_and_degree(self, seed):
        _, K, spec = random_spec(seed)
        s = artin.base_change_structure(K, spec)
        assert s.edim == differential_edim(K, spec)
        assert s.residue_degree * K.p ** sum(s.order_exponents) == s.total_extension_degree


class TestHeightOneSaturation:
    @given(st.integers(0, 2**32 - 1))
    def test_saturation(self, seed):
        rng = random.Random(seed)
        p = rng.choice((2, 3))
        rt = random_tower(rng, p, 1, max_layers=2, dim_budget=8)
        K = rt.tower
        if rt.inseparable_radicands and rng.random() < 0.7:
            a = rt.inseparable_radicands[0]
        else:
            a = random_base_element(rng, K.base, allow_fraction=False)
        base_edim = artin.base_change_structure(K, artin.InseparableExtensionSpec.of([(a, 1)])).edim
        for n in (2, 3):
            spec_n = artin.InseparableExtensionSpec.of([(a, n)])
            assert artin.base_change_structure(K, spec_n).edim == base_edim


class TestPredictedEdimIdentity:
    @given(towers())
    def test_height_one_equals_predicted(self, K):
        spec = artin.InseparableExtensionSpec.height_one(K.base)
        assert artin.base_change_structure(K, spec).edim == kaehler.schroer_predicted_edim(K, "base")


class TestOracle:
    def test_explicit_cases(self):
        K = sqrt_t_tower()
        for n in (1, 2):
            spec = artin.InseparableExtensionSpec.of([(t_of(K), n)])
            report = artin.verify_structure_oracle(K, spec)
            assert report.passed, report.failures()

    def test_chain_case(self):
        k = FieldTower(BaseField(2, ("t",)))
        spec = artin.InseparableExtensionSpec.of([(t_of(k), 1), (t_of(k), 2)])
        report = artin.verify_structure_oracle(k, spec)
        assert report.passed, report.failures()

    def test_root_fully_present_with_large_order(self):
        # K = F_2(t^(1/4)), entry (t, 2): eps = z - t^(1/4) of index exactly 4
        k = FieldTower(BaseField(2, ("t",)))
        from ejump.tower import adjoin_p_root

        K = adjoin_p_root(k, k.base_var("t"), 2, name="q")
        spec = artin.InseparableExtensionSpec.of([(t_of(K), 2)])
        s = artin.base_change_structure(K, spec)
        assert s.order_exponents == (2,)
        assert s.residue_degree == 1
        report = artin.verify_structure_oracle(K, spec, s)
        assert report.passed, report.failures()

    def test_interleaved_roots_of_same_radicand(self):
        K = sqrt_t_tower()
        spec = artin.InseparableExtensionSpec.of([(t_of(K), 2), (t_of(K), 3)])
        report = artin.verify_structure_oracle(K, spec)
        assert report.passed, report.failures()

    def test_cap(self):
        k = FieldTower(BaseField(2, ("t",)))
        spec = artin.InseparableExtensionSpec.of([(t_of(k), 6)])
        with pytest.raises(CapExceeded):
            artin.verify_structure_oracle(k, spec, cap=32)

    def test_bookkeeping_invariant(self):
        K = sqrt_t_tower()
        spec = artin.InseparableExtensionSpec.of([(t_of(K), 2), (t_of(K), 1)])
        s = artin.base_change_structure(K, spec)
        p = K.p
        assert s.residue_degree * p ** sum(s.order_exponents) == s.total_extension_degree


@functools.lru_cache(maxsize=None)
def fields_pool_towers():
    """The benchmark's `fields` towers with the radicand of each one's oracle spec."""
    return tuple((case.tower, case.spec.entries[0][0]) for case in workloads.fields_setup(1))


def oracle_specs(group):
    if group == "fields-pool":
        return [
            (K, artin.InseparableExtensionSpec.of([(a, n)])) for K, a in fields_pool_towers() for n in (1, 2)
        ]
    if group == "criterion-5":
        return structure_oracle_specs()
    return rational_oracle_specs()


def fp_t_rank(alg, generators):
    """Second route: rank over F_p(T) of g * b for every flat basis monomial b of the concrete algebra."""
    basis = alg.basis()
    index = {e: i for i, e in enumerate(basis)}
    solver = LinearSolver(alg.field, len(basis))
    for g in generators:
        for b in basis:
            coeffs = [alg.field.zero] * len(basis)
            for e, c in alg.mul(g, {b: alg.field.one}).items():
                coeffs[index[e]] = c
            solver.add_equation(coeffs)
    return solver.rank


def recorded_ideal_ranks(monkeypatch):
    """Record (K, concrete algebra, generators, rank) of every `artin._ideal_rank` call."""
    seen = []
    ideal_rank = artin._ideal_rank

    def recording(K, alg, generators):
        rank = ideal_rank(K, alg, generators)
        seen.append((K, alg, generators, rank))
        return rank

    monkeypatch.setattr(artin, "_ideal_rank", recording)
    return seen


class TestOracleRankOverK:
    @pytest.mark.parametrize("group", ["fields-pool", "criterion-5", "rational"])
    def test_k_rank_matches_fp_t_count(self, group, monkeypatch):
        seen = recorded_ideal_ranks(monkeypatch)
        for K, spec in oracle_specs(group):
            report = artin.verify_structure_oracle(K, spec)
            ((K_seen, alg, generators, rank),) = seen
            seen.clear()
            assert K_seen is K
            assert fp_t_rank(alg, generators) == rank * K.algebra.dimension
            assert report.quotient_computed == spec.total_degree(K.p) - rank
            assert report.passed, report.failures()

    @pytest.mark.parametrize("group", ["fields-pool", "criterion-5", "rational"])
    def test_z_layers_reduce_to_their_radicands(self, group, monkeypatch):
        # K's layers come first and keep their reductions, padded by one zero per z slot
        seen = recorded_ideal_ranks(monkeypatch)
        for K, spec in oracle_specs(group):
            artin.verify_structure_oracle(K, spec)
            ((_, alg, _, _),) = seen
            seen.clear()
            k, nt = K.algebra.nslots, len(alg.field.varnames)
            assert alg.nslots == k + len(spec.entries)
            pad = (0,) * len(spec.entries)
            for mine, base in zip(alg.layers, K.algebra.layers):
                assert mine.degree == base.degree
                assert mine.reduction == {e + pad: c for e, c in base.reduction.items()}
            for layer, (a, n) in zip(alg.layers[k:], spec.entries):
                assert layer.degree == K.p**n
                assert layer.reduction == {(0,) * alg.nslots: a.extend_arity(nt)}

    def test_rational_specs_are_large_with_two_nilpotents(self):
        for K, spec in rational_oracle_specs():
            assert not K.algebra.nslots
            assert 27 <= spec.total_degree(K.p) <= 125
            assert artin.base_change_structure(K, spec).edim >= 2


def adjoined_radicands(structure):
    """Each layer the walk adjoined, as its radicand in the tower below it."""
    L = structure.residue_field
    names = {name for _, name in structure.adjoined}
    for level, layer in enumerate(L.layers):
        if layer.name in names:
            yield TowerElement(FieldTower(L.base, L.layers[:level]), layer.radicand)


class TestWalkAdjoinsNoPthPower:
    """The walk adjoins a root without `tower_extend`'s check; the check is repeated here."""

    def check(self, K, spec):
        structure = artin.base_change_structure(K, spec)
        radicands = list(adjoined_radicands(structure))
        assert len(radicands) == len(structure.adjoined)
        for rad in radicands:
            assert not rad.is_zero and not is_p_power_tower(rad)

    def test_fields_pool(self):
        for K, a in fields_pool_towers():
            self.check(K, artin.InseparableExtensionSpec.height_one(K.base))
            self.check(K, artin.InseparableExtensionSpec.of([(a, 2)]))

    @pytest.mark.parametrize("seed", range(100))
    def test_random_spec(self, seed):
        _, K, spec = random_spec(seed)
        self.check(K, spec)
