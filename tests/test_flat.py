import functools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ejump.ff_arith import FractionField, RatFunc
from ejump.flat import FlatAlgebra, FlatLayer, LinearSolver, flat_model, frobenius_split, p_power_root
from ejump.instances import random_tower
from ejump.tower import INSEPARABLE_ROOT, BaseField, FieldTower, adjoin_p_root, inseparable_root_layer

from .strategies import primes, ratfuncs, tower_elements, towers


def algebra_mod_square_diff():
    """F_2(t)[z]/(z^2 - t^2): has the zero divisor z - t."""
    field = FractionField(2, ("t",))
    t = field.gen(0)
    return field, FlatAlgebra(field, [FlatLayer("z", 2, {(0,): t * t})])


class TestFlatAlgebra:
    def test_dimension_and_basis(self):
        k = FieldTower(BaseField(2, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 2, name="q")
        model = flat_model(K)
        assert model.algebra.dimension == 4
        assert len(model.algebra.basis()) == 4

    def test_reduction(self):
        field, alg = algebra_mod_square_diff()
        z = alg.gen(0)
        t = alg.scalar(field.gen(0))
        assert alg.mul(z, z) == alg.mul(t, t)

    def test_invert_unit(self):
        field, alg = algebra_mod_square_diff()
        z = alg.gen(0)
        one_plus_z = alg.add(alg.one(), z)  # residue 1 + t != 0: a unit? (1+z)(1+z) = 1+t^2
        inv = alg.invert(one_plus_z)
        assert inv is not None
        assert alg.mul(one_plus_z, inv) == alg.one()

    def test_invert_zero_divisor_returns_none(self):
        field, alg = algebra_mod_square_diff()
        z = alg.gen(0)
        zero_divisor = alg.sub(z, alg.scalar(field.gen(0)))  # (z - t)(z + t) = 0
        assert alg.invert(zero_divisor) is None
        assert alg.invert({}) is None

    @pytest.mark.parametrize(
        "p, layers, elements, zero_divisors",
        [
            # z^2 = t^2 over F_2(t): inseparable, with the zero divisor z + t
            (
                2,
                [("z", 2, {(0,): "t^2"})],
                [{(1,): "1", (0,): "t"}, {(1,): "1", (0,): "1"}, {(1,): "1"}],
                1,
            ),
            # a^2 = t, b^2 = a over F_2(t): two inseparable slots, a field
            (
                2,
                [("a", 2, {(0, 0): "t"}), ("b", 2, {(1, 0): "1"})],
                [{(1, 1): "1", (0, 0): "t"}, {(0, 1): "1", (1, 0): "1"}],
                0,
            ),
            # z^2 = 1 over F_3(t): separable, with the zero divisor z - 1
            (3, [("z", 2, {(0,): "1"})], [{(1,): "1", (0,): "2"}, {(1,): "1", (0,): "t"}], 1),
        ],
    )
    def test_is_unit_agrees_with_invert(self, p, layers, elements, zero_divisors):
        field = FractionField(p, ("t",))
        t = field.gen(0)

        def coeff(text):
            return {"1": field.one, "2": field.one + field.one, "t": t, "t^2": t * t}[text]

        flat_layers = [FlatLayer(n, d, {e: coeff(c) for e, c in r.items()}) for n, d, r in layers]
        alg = FlatAlgebra(field, flat_layers)
        basis, scalars = alg.basis(), FlatAlgebra(field, [])
        found = 0
        for spec in elements:
            u = {e: coeff(c) for e, c in spec.items()}
            inv = alg.invert(u)
            assert alg.is_unit(u) == (inv is not None)
            # second route: u is a zero divisor iff multiplication by u has a kernel
            matrix = [[field_vector(alg.mul(u, {b: field.one}).get(e, field.zero)) for e in basis] for b in basis]
            if scalars.rank(matrix) < len(basis):
                found += 1
                assert inv is None
            else:
                assert alg.mul(u, inv) == alg.one()
        assert found == zero_divisors

    def test_flatten_unflatten_roundtrip(self):
        k = FieldTower(BaseField(3, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 1, name="u")
        model = flat_model(K)
        x = (K.gen("u") + K.one) / (K.base_var("t") + K.from_int(2))
        assert model.unflatten(model.flatten(x)) == x


def dot(field, u, v):
    return sum((a * b for a, b in zip(u, v)), field.zero)


def field_vector(c):
    return {} if c.is_zero else {(): c}


@st.composite
def consistent_systems(draw):
    """(field, A, b) over F_p(t) with A x0 = b for a drawn x0, at most 4 by 4."""
    p = draw(primes)
    field = FractionField(p, ("t",))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = ratfuncs(p=p, arity=1)
    A = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    x0 = [draw(entries) for _ in range(ncols)]
    return field, A, [dot(field, row, x0) for row in A]


class TestLinearSolver:
    @given(consistent_systems(), st.lists(st.integers(0, 4), min_size=4, max_size=4))
    def test_consistent_system(self, system, weights):
        field, A, b = system
        solver = LinearSolver(field, len(A[0]))
        for row in A:
            solver.add_equation(row)
        reduced: dict = {}
        assert all(solver.replay(i, rhs, reduced) for i, rhs in enumerate(b))
        x = solver.solution(reduced)
        assert all(dot(field, row, x) == rhs for row, rhs in zip(A, b))
        # a separate, fraction-free elimination
        assert solver.rank == FlatAlgebra(field, []).rank([[field_vector(c) for c in row] for row in A])
        # a combination of the rows is dependent: its replayed right-hand side
        # reduces to zero, and to nonzero when it is off by one
        lam = [field.from_int(w) for w in weights]
        combo = [dot(field, lam, column) for column in zip(*A)]
        rank = solver.rank
        solver.add_equation(combo)
        assert solver.rank == rank
        assert solver.replay(len(A), dot(field, lam, b), dict(reduced))
        assert not solver.replay(len(A), dot(field, lam, b) + field.one, dict(reduced))

    @given(consistent_systems())
    def test_stored_rows_have_unit_pivots_and_keep_zeros(self, system):
        field, A, _ = system
        solver = LinearSolver(field, len(A[0]))
        for row in A:
            reduced = list(row)
            for pivot_col, stored in solver.rows:
                c = reduced[pivot_col]
                reduced = [a - c * s for a, s in zip(reduced, stored)]
            rank = solver.rank
            solver.add_equation(row)
            if solver.rank == rank:
                continue
            pivot = next(i for i, c in enumerate(reduced) if not c.is_zero)
            (stored,) = [r for col, r in solver.rows if col == pivot]
            assert stored[pivot] == field.one
            assert [c.is_zero for c in stored] == [c.is_zero for c in reduced]
            assert stored == [c / reduced[pivot] for c in reduced]


class TestFrobeniusSplit:
    @given(ratfuncs(nonzero=True))
    def test_reassembles(self, f):
        p = f.num.dom.p
        nvars = f.num.arity
        field = FractionField(p, tuple(f"v{i}" for i in range(nvars)))
        pieces = frobenius_split(f, p, nvars)
        total = field.zero
        for mu, piece in pieces.items():
            mono = RatFunc.from_poly(
                type(f.num).from_terms(f.num.dom, nvars, [(mu, 1)])
            )
            total = total + (piece**p) * mono
        assert total == f


@st.composite
def truncated_algebra_elements(draw):
    """(algebra, u): F_p(t)[z1, ...]/(zi^(p^ni) - ai) with a1 a p-th power, so the algebra is not reduced."""
    p = draw(primes)
    field = FractionField(p, ("t",))
    exps = [draw(st.integers(1, 2 if p == 2 else 1))]
    if p == 2 and draw(st.booleans()):
        exps.append(1)  # dimension at most 8
    nslots = len(exps)
    layers = []
    for i, n in enumerate(exps):
        a = draw(ratfuncs(p=p, arity=1, nonzero=True))
        layers.append(FlatLayer(f"z{i + 1}", p**n, {(0,) * nslots: a**p if i == 0 else a}))
    alg = FlatAlgebra(field, layers)
    u = {}
    for _ in range(draw(st.integers(1, 2))):
        e = tuple(draw(st.integers(0, layer.degree - 1)) for layer in layers)
        u = alg.add(u, {e: draw(ratfuncs(p=p, arity=1))})
    return alg, u


class TestFrobenius:
    @pytest.mark.parametrize("r", [1, 2])
    @given(x=tower_elements())
    def test_matches_pow_in_towers(self, r, x):
        alg, q = x.tower.algebra, x.tower.p**r
        assert alg.frobenius(x.payload, q) == alg.pow(x.payload, q)

    @pytest.mark.parametrize("r", [1, 2])
    @given(case=truncated_algebra_elements())
    def test_matches_pow_in_truncated_algebras(self, r, case):
        alg, u = case
        q = alg.field.p**r
        assert alg.frobenius(u, q) == alg.pow(u, q)


class TestPPowerRoot:
    def test_solves_in_nonreduced_algebra(self):
        # x^2 = t^2 has the solutions t + nilpotent; any exact one is accepted
        field, alg = algebra_mod_square_diff()
        t = alg.scalar(field.gen(0))
        target = alg.mul(t, t)
        x = p_power_root(alg, target, 1)
        assert x is not None
        assert alg.pow(x, 2) == target

    def test_no_solution(self):
        field, alg = algebra_mod_square_diff()
        assert p_power_root(alg, alg.scalar(field.gen(0)), 1) is None

    @given(towers(max_layers=2))
    def test_unique_root_in_fields(self, K):
        model = flat_model(K)
        x = K.base_var(K.base.varnames[0]) + K.one
        vec = model.flatten(x ** K.p)
        root = p_power_root(model.algebra, vec, 1)
        assert root is not None
        assert model.unflatten(root) == x

    @pytest.mark.parametrize("r", [1, 2])
    def test_takes_no_power_of_a_sum(self, monkeypatch, r):
        # q-th powers of whole vectors go through frobenius; pow only builds generator powers
        k = FieldTower(BaseField(3, ("t",)))
        K = adjoin_p_root(k, k.base_var("t"), 1, name="u")
        x = K.gen("u") + K.base_var("t") + K.one
        target = (x ** (3**r)).payload
        alg = FlatAlgebra(K.algebra.field, K.algebra.layers)  # empty monomial tables
        sizes = []
        pow_ = FlatAlgebra.pow

        def spy(self, u, n):
            sizes.append(len(u))
            return pow_(self, u, n)

        monkeypatch.setattr(FlatAlgebra, "pow", spy)
        root = p_power_root(alg, target, r)
        assert root == x.payload
        assert sizes and max(sizes) == 1

    def test_keeps_the_monomial_table(self, monkeypatch):
        # each generator is raised to the q-th power once, and a second root reuses every monomial's power
        k = FieldTower(BaseField(3, ("t1", "t2")))
        K = adjoin_p_root(k, k.base_var("t1"), 1, name="u1")
        K = adjoin_p_root(K, K.base_var("t2"), 1, name="u2")
        x = K.gen("u1") * K.gen("u2") + K.gen("u2") + K.base_var("t1")
        target = (x**3).payload
        alg = FlatAlgebra(K.algebra.field, K.algebra.layers)  # empty caches
        calls = {"pow": 0, "mul": 0}
        for name in calls:

            def spy(self, *args, _name=name, _real=getattr(FlatAlgebra, name)):
                calls[_name] += 1
                return _real(self, *args)

            monkeypatch.setattr(FlatAlgebra, name, spy)
        assert p_power_root(alg, target, 1) == x.payload
        assert calls["pow"] == 2
        calls.update(pow=0, mul=0)
        assert p_power_root(alg, target, 1) == x.payload
        assert calls == {"pow": 0, "mul": 0}


def root_towers():
    """Per prime: a separable layer over F_p(t), with and without an inseparable
    root above it, an inseparable root over F_p(t) with a free y1 after it, and
    one or two inseparable roots over F_p(t1, t2).

    A separable layer under a root makes the replay reduce pivot equations by
    earlier pivots' nonzero right-hand sides.
    """
    draws = ((0, 1), (17, 1), (5, 1), (5, 2))
    return [random_tower(random.Random(seed), p, d, max_layers=2).tower for p in (2, 3, 5) for seed, d in draws]


def root_targets(K, q):
    """x^q, x^q + t and t for x = 1/(t + 1) + the product of g + t over K's generators g."""
    t = K.base_var(K.base.varnames[0])
    x = K.one / (t + K.one)
    x += functools.reduce(lambda a, b: a * b, (K.gen(layer.name) + t for layer in K.layers), K.one)
    xq = x**q
    return [xq.payload, (xq + t).payload, t.payload]


def oracle_algebra(K, n):
    """The oracle's K[z]/(z^(p^n) - t^p): not reduced, since z^(p^(n-1)) - t is nilpotent."""
    t = K.base.field.gen(0)
    return FieldTower(K.base, K.layers + (inseparable_root_layer(K, "z", K.from_base(t**K.p), n),))


class TestRootSystem:
    """One root system per algebra and q answers every target as a fresh algebra would."""

    @staticmethod
    def check_orders(make, cases):
        """Solve `cases` in both orders on one algebra from `make`, each also on a fresh one.

        A case is (q, target, has_root), where has_root None leaves it open.
        """
        for order in (cases, cases[::-1]):
            alg = make()
            for q, target, has_root in order:
                r = 1 if q == alg.field.p else 2
                root = p_power_root(alg, target, r)
                assert root == p_power_root(make(), target, r)
                if has_root is not None:
                    assert (root is not None) == has_root
                if root is not None:
                    assert alg.frobenius(root, q) == target
            # one system per q, kept by the algebra, and no root reduced a row:
            # each system is the one its constructor built
            for q in {q for q, _, _ in cases}:
                system = alg._root_systems[q]
                assert alg.root_system(q) is system
                TestRootSystem.check_built_whole(system)
                assert system.solver.log == make().root_system(q).solver.log

    @staticmethod
    def check_built_whole(system):
        """The blocks are the basis' first ones, up to the one that fills the rank or to the last."""
        basis, blocks, solver = system.basis, system.blocks, system.solver
        assert [gamma for gamma, _, _ in blocks] == basis[: len(blocks)]
        assert sorted(i for _, _, rows in blocks for i in rows.values()) == list(range(len(solver.log)))
        if solver.rank < len(basis):
            assert len(blocks) == len(basis)
        else:
            # the last block raised the rank, so it was needed
            assert any(solver.log[i][1] is not None for i in blocks[-1][2].values())

    @pytest.mark.parametrize("K", root_towers(), ids=lambda K: K.describe())
    def test_fields_roots_first_then_non_roots_first(self, K):
        # a field has one root of x^q at most, so the check x^q == target makes it x
        cases = []
        for q in (K.p, K.p**2):
            xq, xq_plus_t, t = root_targets(K, q)
            cases += [(q, xq, True), (q, xq_plus_t, None), (q, t, None)]
        cases.append(cases[0])
        self.check_orders(lambda: FieldTower(K.base, K.layers).algebra, cases)

    def test_non_roots_present(self):
        # t is no p-th power in a separable extension of F_p(t), so x^q + t and t have no root
        for K in root_towers():
            if any(layer.kind == INSEPARABLE_ROOT for layer in K.layers):
                continue
            alg = FieldTower(K.base, K.layers).algebra
            for r in (1, 2):
                _, xqt, t = root_targets(K, K.p**r)
                assert p_power_root(alg, xqt, r) is None
                assert p_power_root(alg, t, r) is None

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_algebra(self, p, n):
        K = FieldTower(BaseField(p, ("t",)))
        C = oracle_algebra(K, n)
        z, t = C.gen("z"), C.base_var("t")
        cases = []
        for q in (p, p * p):
            cases += [(q, ((z + t) ** q).payload, True), (q, (z + t**2).payload, None), (q, t.payload, None)]
        self.check_orders(lambda: FieldTower(C.base, C.layers).algebra, cases)

    def test_algebra_mod_square_diff(self):
        # every square a^2 + b^2 z^2 = a^2 + b^2 t^2 lies in F_2(t^2)
        field, alg = algebra_mod_square_diff()
        z, t = alg.gen(0), alg.scalar(field.gen(0))
        t2, zt4 = alg.mul(t, t), alg.pow(alg.add(z, t), 4)
        cases = [(2, t2, True), (2, alg.add(t2, t), False), (2, t, False)]
        cases += [(2, zt4, True), (4, zt4, True), (4, t, False)]
        self.check_orders(lambda: algebra_mod_square_diff()[1], cases)

    def test_fresh_tower_starts_empty(self):
        # a fresh tower's algebra holds no root system until asked, then builds its own
        K = root_towers()[0]
        p_power_root(K.algebra, root_targets(K, K.p)[0], 1)
        # the root kept its system, and the algebra hands that one out again
        used = K.algebra._root_systems[K.p]
        assert K.algebra.root_system(K.p) is used and used.blocks
        fresh = FieldTower(K.base, K.layers).algebra
        assert fresh is not K.algebra and fresh._root_systems == {}
        system = fresh.root_system(K.p)
        assert system is not used
        assert system.blocks == used.blocks and system.solver.log == used.solver.log
