import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ejump.errors import (
    ArityMismatch,
    DivByZero,
    NotAPower,
    NotAPowerViolation,
    ZeroDivisorDetected,
)
from ejump.flat import flat_model
from ejump.instances import random_tower, random_tower_element
from ejump.tower import (
    BaseField,
    FieldTower,
    TowerElement,
    adjoin_p_root,
    algebraic_layer,
    is_p_power_tower,
    max_p_power_exponent,
    p_root_tower,
    tower_extend,
    transcendental_layer,
)

from .strategies import tower_elements, towers


def sqrt_t(p=2):
    k = FieldTower(BaseField(p, ("t",)))
    return adjoin_p_root(k, k.base_var("t"), 1, name="u")


class TestExtend:
    def test_sqrt_t_via_algebraic(self):
        k = FieldTower(BaseField(2, ("t",)))
        K = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t"), k.zero]))
        u = K.gen("u")
        assert u * u == K.base_var("t")

    def test_transcendental(self):
        k = FieldTower(BaseField(2, ("t",)))
        K = tower_extend(k, transcendental_layer("y"))
        y = K.gen("y")
        assert (y + K.one) * (y - K.one) == y * y - K.one

    def test_p_power_radicand_rejected(self):
        k = FieldTower(BaseField(2, ("t",)))
        t = k.base_var("t")
        with pytest.raises(NotAPowerViolation):
            adjoin_p_root(k, t * t, 1)

    def test_duplicate_name_rejected(self):
        k = FieldTower(BaseField(2, ("t",)))
        with pytest.raises(ArityMismatch):
            tower_extend(k, transcendental_layer("t"))


class TestArith:
    def test_sqrt_square(self):
        K = sqrt_t()
        u = K.gen("u")
        assert u * u == K.base_var("t")

    def test_inverse_example(self):
        K = sqrt_t()
        u = K.gen("u")
        inv = (u + K.one).inv()
        t = K.base_var("t")
        # 1/(sqrt(t) + 1) = (sqrt(t) + 1)/(t + 1)
        assert inv == (u + K.one) / (t + K.one)
        assert ((u + K.one) * inv).is_one

    def test_char3_separable_product(self):
        k = FieldTower(BaseField(3, ("t",)))
        K = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t"), k.zero]))
        u = K.gen("u")
        assert (u + K.one) * (u + K.from_int(2)) == K.base_var("t") + K.from_int(2)

    def test_div_by_zero(self):
        K = sqrt_t()
        with pytest.raises(DivByZero):
            K.one / K.zero

    def test_zero_divisor_detected(self):
        # assert the reducible minimal polynomial u^2 - t^2 = (u-t)(u+t)
        k = FieldTower(BaseField(3, ("t",)))
        t = k.base_var("t")
        K = tower_extend(k, algebraic_layer(k, "u", [-(t * t), k.zero]))
        u = K.gen("u")
        with pytest.raises(ZeroDivisorDetected):
            (u - K.base_var("t")).inv()


class TestPRoots:
    def test_examples(self):
        K = sqrt_t()
        t = K.base_var("t")
        u = K.gen("u")
        assert p_root_tower(t) == u
        assert is_p_power_tower(t)
        k = FieldTower(BaseField(2, ("t",)))
        assert p_root_tower(k.base_var("t") ** 2) == k.base_var("t")
        with pytest.raises(NotAPower):
            p_root_tower(k.base_var("t"))

    def test_sum_of_squares(self):
        K = sqrt_t()
        t = K.base_var("t")
        u = K.gen("u")
        assert p_root_tower(t * t + u * u) == t + u

    def test_differential_criterion_on_generator_shift(self):
        K = sqrt_t()
        assert not is_p_power_tower(K.gen("u") + K.one)

    def test_max_exponent_examples(self):
        k = FieldTower(BaseField(2, ("t",)))
        t = k.base_var("t")
        assert max_p_power_exponent(t, 5) == (0, t)
        assert max_p_power_exponent(t**4, 3) == (2, t)
        assert max_p_power_exponent(t**8, 2) == (2, t**2)
        K4 = adjoin_p_root(k, t, 2, name="q")
        assert max_p_power_exponent(K4.base_var("t"), 2) == (2, K4.gen("q"))

    def test_adjoin_stacking(self):
        K = sqrt_t()
        K2 = adjoin_p_root(K, K.gen("u"), 1, name="v")
        assert flat_model(K2).algebra.dimension == 4
        assert p_root_tower(K2.embed(K.gen("u"))) == K2.gen("v")


class TestPower:
    @pytest.mark.parametrize(
        "p, seed",
        [
            (2, 0),  # separable a1, transcendental y1, inseparable g1^2 = t
            (2, 5),  # g1^4 = t under a transcendental layer
            (3, 0),  # separable a1^3 + 2*a1 + 2*t
            (3, 5),  # g1^3 = 2*t^2 + 2 under a transcendental layer
            (5, 4),  # g1^5 = 3*t/(t + 2)
        ],
    )
    def test_matches_repeated_multiplication(self, p, seed):
        K = random_tower(random.Random(seed), p, 1, max_layers=3, dim_budget=8).tower
        rng = random.Random(seed)
        x = random_tower_element(rng, K) + K.gen(K.layers[-1].name)
        assert not x.is_zero
        for n in (0, 1, p, p * p, 2 * p, p + 1):
            expected = K.one
            for _ in range(n):
                expected = expected * x
            assert x**n == expected, n
        expected = K.one
        for _ in range(p):
            expected = expected / x
        assert x ** (-p) == expected


class TestInseparableRootInvariants:
    def test_generator_satisfies_relation_and_is_new(self):
        k = FieldTower(BaseField(2, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 2, name="q")
        q = K.gen("q")
        assert q ** 4 == K.base_var("t")
        # q is not in the field below: the tower has honest degree 4
        assert flat_model(K).algebra.dimension == 4

    def test_layer_reduces_by_its_radicand_alone(self, monkeypatch):
        # u^(2^10) = t: the reduction is the padded radicand, with no slot per power of u
        k = FieldTower(BaseField(2, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 10, name="u")
        pads = []
        pad = FieldTower._pad
        monkeypatch.setattr(FieldTower, "_pad", lambda self, vec: pads.append(vec) or pad(self, vec))
        (layer,) = K.algebra.layers
        assert len(pads) == 1
        assert layer.degree == 1024
        assert layer.reduction == {(0,): k.base.field.gen(0)}
        assert K.gen("u") ** 1024 == K.base_var("t")


class TestDegrees:
    def test_degree_multiplicativity(self):
        k = FieldTower(BaseField(3, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 2, name="q")
        assert K.degree_over_transcendental_base() == 9
        K2 = tower_extend(K, algebraic_layer(K, "w", [-K.gen("q"), K.zero]))
        assert K2.degree_over_transcendental_base() == 18
        assert flat_model(K2).algebra.dimension == 18


def f3_u_y_v():
    """F_3(t)(u : u^2 = t)(y)(v : v^2 = y + u), with the prefixes up to u and up to y."""
    k = FieldTower(BaseField(3, ("t",)))
    Ku = tower_extend(k, algebraic_layer(k, "u", [-k.base_var("t"), k.zero]))
    Ky = tower_extend(Ku, transcendental_layer("y"))
    Kv = tower_extend(Ky, algebraic_layer(Ky, "v", [-(Ky.gen("y") + Ky.gen("u")), Ky.zero]))
    return Ku, Ky, Kv


class TestRendering:
    """Renderings of the recursive normal form, pinned byte for byte."""

    def test_two_transcendental_layers(self):
        k = FieldTower(BaseField(3, ("t",)))
        K = tower_extend(tower_extend(k, transcendental_layer("y")), transcendental_layer("z"))
        t, y, z = K.base_var("t"), K.gen("y"), K.gen("z")
        assert K.describe() == "F3(t) adjoin y trans adjoin z trans"
        assert ((y * z + t) / (y - z)).render() == "((2*y)*z + 2*t)/(z + 2*y)"
        assert ((y * y - z * z) / (t * y + t * z)).render() == "((2/t))*z + ((1/t)*y)"
        assert (y / (z * z + t) + z).render() == "(z^3 + t*z + y)/(z^2 + t)"
        assert ((y + K.one) ** 3 / (t * z)).render() == "(((1/t)*y^3 + (1/t)))/(z)"

    def test_fraction_cancels_over_an_algebraic_layer(self):
        Ku, Ky, Kv = f3_u_y_v()
        u, y = Ky.gen("u"), Ky.gen("y")
        x = (y - u) / (y * y - Ky.base_var("t"))
        assert Ky.describe() == "F3(t) adjoin u alg u^2 + 2*t adjoin y trans"
        assert x.render() == "(1)/(y + u)"
        assert Kv.describe() == "F3(t) adjoin u alg u^2 + 2*t adjoin y trans adjoin v alg v^2 + (2*y + 2*u)"
        assert Kv.embed(x).render() == "((1)/(y + u))"
        assert (Kv.gen("v") * Kv.embed(x) + Kv.gen("u")).render() == "((1)/(y + u))*v + u"

    def test_inseparable_root_over_a_transcendental_layer(self):
        k = FieldTower(BaseField(5, ("t",)))
        Ky = tower_extend(k, transcendental_layer("y1"))
        t = Ky.base_var("t")
        K = adjoin_p_root(Ky, t * t * Ky.from_int(2) + t * Ky.from_int(2), 1, name="g1")
        g, y, t = K.gen("g1"), K.gen("y1"), K.base_var("t")
        assert K.describe() == "F5(t) adjoin y1 trans adjoin g1 root (2*t^2 + 2*t) exp 1"
        assert ((g + y) / (y * y + t)).render() == "((1)/(y1^2 + t))*g1 + ((y1)/(y1^2 + t))"
        assert ((y * g + t) ** 2).render() == "y1^2*g1^2 + ((2*t)*y1)*g1 + t^2"


class TestEmbedding:
    def test_embed_across_a_transcendental_layer_commutes_with_products(self):
        import random

        from ejump.instances import random_tower_element

        Ku, Ky, Kv = f3_u_y_v()
        rng = random.Random(7)
        for K in (Ku, Ky):
            for _ in range(5):
                a, b = random_tower_element(rng, K), random_tower_element(rng, K)
                assert Kv.embed(a * b) == Kv.embed(a) * Kv.embed(b)
                assert Kv.embed(a + b) == Kv.embed(a) + Kv.embed(b)
        u = Ku.gen("u")
        assert Kv.embed(u) * Kv.embed(u) == Kv.base_var("t")

    def test_rebuilt_tower_reads_the_same_payload(self):
        import random

        from ejump.instances import random_tower_element

        _, _, K = f3_u_y_v()
        rng = random.Random(11)
        rebuilt = FieldTower(K.base, K.layers)
        for x in [K.gen("v") / (K.gen("y") + K.gen("u"))] + [random_tower_element(rng, K) for _ in range(5)]:
            assert TowerElement(rebuilt, x.payload) == x
            assert TowerElement(rebuilt, x.payload) ** 3 == rebuilt.embed(x ** 3)


@given(tower_elements())
def test_frobenius_roundtrip(x):
    K = x.tower
    assert p_root_tower(x ** K.p) == x


@given(tower_elements())
def test_p_power_membership_consistency(x):
    """The differential criterion agrees with actual root extraction."""
    if x.is_zero:
        return
    has_root = True
    try:
        root = p_root_tower(x)
    except NotAPower:
        has_root = False
    assert is_p_power_tower(x) == has_root
    if has_root:
        assert root ** x.tower.p == x
    assert is_p_power_tower(x ** x.tower.p)


@given(towers(), st.integers(0, 2**32 - 1))
def test_field_laws(K, seed):
    import random

    from ejump.instances import random_tower_element

    rng = random.Random(seed)
    a = random_tower_element(rng, K)
    b = random_tower_element(rng, K)
    c = random_tower_element(rng, K)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    if not b.is_zero:
        assert (a / b) * b == a
