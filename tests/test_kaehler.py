import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ejump import kaehler
from ejump.errors import ZeroDivisorDetected
from ejump.flat import p_power_root
from ejump.instances import random_tower_element
from ejump.tower import (
    BaseField,
    FieldTower,
    adjoin_p_root,
    algebraic_layer,
    fresh_name,
    tower_extend,
    transcendental_layer,
)

from .strategies import towers


def sqrt_t():
    k = FieldTower(BaseField(2, ("t",)))
    return adjoin_p_root(k, k.base_var("t"), 1, name="u")


def relation_rank(K, ref):
    return K.algebra.rank(kaehler.relation_rows(K, ref))


class TestRankExamples:
    def test_inseparable_over_base_rank_zero(self):
        # relation d(u^2 - t) over the base kills nothing: 2u = 0
        assert relation_rank(sqrt_t(), "base") == 0

    def test_inseparable_over_prime_rank_one(self):
        # dt = d(u^2) = 0 forces one relation among dt, du
        assert relation_rank(sqrt_t(), "prime") == 1

    def test_transcendental_no_relations(self):
        k = FieldTower(BaseField(3, ("t",)))
        K = tower_extend(k, transcendental_layer("y"))
        assert relation_rank(K, "base") == 0


class TestPdegTrdeg:
    def test_rational_base_over_prime(self):
        k = FieldTower(BaseField(2, ("t",)))
        assert kaehler.pdeg(k, "prime") == 1
        assert kaehler.trdeg(k, "prime") == 1

    def test_inseparable_pdeg_one(self):
        assert kaehler.pdeg(sqrt_t(), "base") == 1
        assert kaehler.trdeg(sqrt_t(), "base") == 0

    def test_separable_pdeg_zero(self):
        k = FieldTower(BaseField(5, ("t",)))
        K = tower_extend(k, algebraic_layer(k, "u", [-(k.base_var("t") + k.one), k.zero]))
        assert kaehler.pdeg(K, "base") == 0

    def test_two_variables(self):
        k = FieldTower(BaseField(3, ("t1", "t2")))
        K = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t1"), k.zero]))
        assert kaehler.pdeg(K, "prime") == 2
        assert kaehler.trdeg(K, "prime") == 2


class TestPredictedEdim:
    def test_sqrt_t(self):
        assert kaehler.schroer_predicted_edim(sqrt_t(), "base") == 1

    def test_trivial_extension(self):
        k = FieldTower(BaseField(2, ("t",)))
        assert kaehler.schroer_predicted_edim(k, "base") == 0

    def test_two_variable_inseparable(self):
        k = FieldTower(BaseField(2, ("t1", "t2")))
        K = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t1"), k.zero]))
        assert kaehler.schroer_predicted_edim(K, "base") == 1


class TestDifferentialIsZero:
    def test_examples(self):
        K = sqrt_t()
        assert kaehler.differential_is_zero(K.base_var("t"))
        k = FieldTower(BaseField(2, ("t",)))
        t = k.base_var("t")
        assert not kaehler.differential_is_zero(t)
        assert not kaehler.differential_is_zero(t * t + t)
        assert kaehler.differential_is_zero(t * t)

    def test_reducible_tower_raises(self):
        # u^2 - t^2 = (u - t)(u + t) is reducible, and v^2 = u + t makes
        # 2u - t = -(u + t) a rank pivot, which is a zero divisor
        k = FieldTower(BaseField(3, ("t",)))
        t = k.base_var("t")
        K1 = tower_extend(k, algebraic_layer(k, "u", [-(t * t), k.zero]))
        K = tower_extend(K1, algebraic_layer(K1, "v", [-(K1.gen("u") + K1.embed(t)), K1.zero]))
        with pytest.raises(ZeroDivisorDetected):
            kaehler.differential_is_zero(K.gen("u") - K.base_var("t"))


def test_presentation_shape():
    K = sqrt_t()
    rows = kaehler.relation_rows(K, "prime")
    assert kaehler.generator_columns(K, "prime") == [("base", 0), ("layer", 1)]
    assert len(rows) == 1 and len(rows[0]) == 2


def test_unknown_reference_field_rejected():
    for f in (kaehler.generator_columns, kaehler.relation_rows, kaehler.pdeg, kaehler.trdeg):
        with pytest.raises(ValueError):
            f(sqrt_t(), "perfect")


@given(towers())
def test_perfect_base_equality(K):
    assert kaehler.pdeg(K, "prime") == kaehler.trdeg(K, "prime")


@given(towers())
def test_monotone_chain(K):
    predicted = kaehler.schroer_predicted_edim(K, "base")
    assert 0 <= predicted <= kaehler.pdeg(K, "base")


class TestPthPowerWithoutSlots:
    """K = F_p(T): membership in K^p by exponents, against the Jacobian and the root solver."""

    @given(st.integers(0, 2**32 - 1))
    def test_matches_kaehler_route(self, seed):
        rng = random.Random(seed)
        p = rng.choice((2, 3, 5))
        K = FieldTower(BaseField(p, ("t1", "t2")[: rng.randint(1, 2)]))
        for _ in range(rng.randint(0, 2)):
            K = tower_extend(K, transcendental_layer(fresh_name(K, "y")))
        x, y = random_tower_element(rng, K), random_tower_element(rng, K)
        candidates = [K.zero, K.from_int(rng.randint(1, p - 1)), x**p, x, x**p * y]
        if not y.is_zero:
            candidates += [x**p / y**p, x / y, x**p / y]
        for a in candidates:
            kaehler_route = not any(kaehler.differential_vector(a, kaehler.PRIME))
            solver_route = a.is_zero or p_power_root(K.algebra, a.payload, 1) is not None
            assert kaehler.differential_is_zero(a) == kaehler_route == solver_route
