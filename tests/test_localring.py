import functools
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ejump import artin, cli, kaehler, localring
from ejump.acceptance import _buchberger_edim
from ejump.errors import (
    ArityMismatch,
    NotContained,
    NotEquidimensional,
    NotPrime,
    TriangularizationFailed,
    ZeroDivisorDetected,
)
from ejump.ff_arith import IdealPresentation, MultiPoly, RatFunc, poly_from_text, render_poly
from ejump.instances import (
    cusp_char2,
    cusp_char3,
    random_bound_instance,
    random_point,
    random_separable_point_instance,
)
from ejump.localring import ClosedPoint, base_change_point, edim_at_point
from ejump.tower import BaseField

from .benchmark import workloads


def simple_point(p=2, d=("t",), varnames=("y", "x"), gens=("y", "x^2 + t")):
    base = BaseField(p, d)
    field = base.field
    return base, ClosedPoint(
        base, varnames, tuple(poly_from_text(field, varnames, g) for g in gens)
    )


class TestClosedPoint:
    def test_residue_degree(self):
        _, P = simple_point()
        assert P.degrees() == [1, 2]
        assert P.residue_degree() == 2

    def test_non_monic_rejected(self):
        base = BaseField(2, ("t",))
        field = base.field
        bad = poly_from_text(field, ("x",), "t*x + 1")
        with pytest.raises(ArityMismatch):
            ClosedPoint(base, ("x",), (bad,))

    def test_later_variable_rejected(self):
        base = BaseField(2, ("t",))
        field = base.field
        u1 = poly_from_text(field, ("x", "y"), "x + y")
        u2 = poly_from_text(field, ("x", "y"), "y")
        with pytest.raises(ArityMismatch):
            ClosedPoint(base, ("x", "y"), (u1, u2))

    def test_residue_tower_images(self):
        _, P = simple_point()
        kappa, images = P.residue_tower()
        assert kappa.height == 1
        y_img, x_img = images
        assert y_img.is_zero
        assert x_img * x_img == kappa.base_var("t")

    def test_random_points_vanish_at_their_images(self):
        # seeds 0-11 draw linear, separable and inseparable generators
        kinds = set()
        for seed in range(12):
            p, d, nvars = (2, 3, 5)[seed % 3], 1 + seed % 2, 1 + seed % 3
            base = BaseField(p, ("t",) if d == 1 else ("t1", "t2"))
            P = random_point(random.Random(seed), base, nvars)
            kappa, images = P.residue_tower()
            assert kappa.degree_over_transcendental_base() == P.residue_degree()
            for i, u in enumerate(P.generators):
                assert u.evaluate(images, kappa.from_base).is_zero
                coeffs = u.coefficients(i)
                if len(coeffs) == 2:
                    kinds.add("linear")
                elif len(coeffs) == p + 1 and all(c.is_zero for c in coeffs[1:-1]):
                    kinds.add("inseparable")
                else:
                    kinds.add("separable")
        assert kinds == {"linear", "separable", "inseparable"}


class TestEdimExamples:
    def test_cusp_point_before(self):
        I, P = cusp_char2()
        assert edim_at_point(I, P) == 1
        assert localring.LocalAt(I, P).ecodim == 0

    def test_line_point(self):
        base = BaseField(2, ("t",))
        field = base.field
        x = MultiPoly.gen(field, 1, 0)
        I = IdealPresentation(field, ("x",), (MultiPoly.zero(field, 1),))
        P = ClosedPoint(base, ("x",), (x,))
        assert edim_at_point(I, P) == 1
        assert localring.LocalAt(I, P).ecodim == 0

    def test_plane_origin(self):
        base = BaseField(3, ("t",))
        field = base.field
        x = MultiPoly.gen(field, 2, 0)
        y = MultiPoly.gen(field, 2, 1)
        I = IdealPresentation(field, ("x", "y"), (MultiPoly.zero(field, 2),))
        P = ClosedPoint(base, ("x", "y"), (x, y))
        assert edim_at_point(I, P) == 2
        assert localring.LocalAt(I, P).ecodim == 0

    def test_not_contained(self):
        base = BaseField(2, ("t",))
        field = base.field
        I = IdealPresentation(field, ("x",), (poly_from_text(field, ("x",), "x + 1"),))
        P = ClosedPoint(base, ("x",), (MultiPoly.gen(field, 1, 0),))
        with pytest.raises(NotContained):
            edim_at_point(I, P)


def three_variable_point():
    """F_3(t) at (x^3 - t, y - x, z^2 - x), residue degree 6, with edim 2."""
    base = BaseField(3, ("t",))
    field = base.field
    vs = ("x", "y", "z")
    P = ClosedPoint(base, vs, tuple(poly_from_text(field, vs, g) for g in ("x^3 - t", "y - x", "z^2 - x")))
    gens = ("y - x + z*x^3 - z*t", "(z^2 - x)^2")
    I = IdealPresentation(field, vs, tuple(poly_from_text(field, vs, g) for g in gens))
    return I, P


def report_case(case):
    """(I, P, exponents) for a case named "cusp_char2", "cusp_char3" or "bound-<seed>"."""
    if case.startswith("cusp"):
        I, P = {"cusp_char2": cusp_char2, "cusp_char3": cusp_char3}[case]()
        return I, P, (1,)
    return random_bound_instance(random.Random(int(case.split("-")[1])))


class TestCotangentFromTriangularSet:
    def test_matches_buchberger_on_fixtures(self):
        for I, P in (cusp_char2(), cusp_char3(), three_variable_point()):
            assert edim_at_point(I, P) == _buchberger_edim(I, P)
            new_I, new_P = base_change_point(I, P, (1,))
            assert edim_at_point(new_I, new_P) == _buchberger_edim(new_I, new_P)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_buchberger_on_random_points(self, seed):
        I, P, exponents = random_bound_instance(random.Random(seed))
        new_I, new_P = base_change_point(I, P, exponents)
        assert edim_at_point(I, P) == _buchberger_edim(I, P)
        assert edim_at_point(new_I, new_P) == _buchberger_edim(new_I, new_P)

    def test_needs_no_groebner_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("edim_at_point computed a Groebner basis")

        monkeypatch.setattr(localring, "groebner_basis", refuse)
        monkeypatch.setattr(localring, "quotient_dim", refuse)
        for (I, P), edim in ((cusp_char2(), 1), (cusp_char3(), 1), (three_variable_point(), 2)):
            assert edim_at_point(I, P) == edim

    def test_non_prime_point_raises_not_prime(self):
        # x^2 - t^2 = (x - t)(x + t): the quotient x - t of the generator is a zero divisor
        base = BaseField(3, ("t",))
        field = base.field
        P = ClosedPoint(base, ("x",), (poly_from_text(field, ("x",), "x^2 - t^2"),))
        I = IdealPresentation(field, ("x",), (poly_from_text(field, ("x",), "(x - t)^2*(x + t)"),))
        with pytest.raises(NotPrime):
            edim_at_point(I, P)


class TestBaseChangePoint:
    def test_cusp_height_one(self):
        I, P = cusp_char2()
        nI, nP = base_change_point(I, P, {"t": 1})
        assert nP.base.varnames == ("s",)
        assert [render_poly(g, nI.varnames) for g in nI.generators] == ["y^3 + x^2 + (s^2)"]
        assert [render_poly(g, nP.varnames) for g in nP.generators] == ["y", "x + s"]

    def test_cusp_exponent_two(self):
        I, P = cusp_char2()
        nI, nP = base_change_point(I, P, {"t": 2})
        assert [render_poly(g, nI.varnames) for g in nI.generators] == ["y^3 + x^2 + (s^4)"]
        assert [render_poly(g, nP.varnames) for g in nP.generators] == ["y", "x + (s^2)"]

    def test_identity_transform(self):
        I, P = cusp_char2()
        nI, nP = base_change_point(I, P, {"t": 0})
        assert nI is I and nP is P

    @pytest.mark.parametrize("case", ["cusp_char2", "cusp_char3"] + [f"bound-{seed}" for seed in range(8)])
    def test_one_lex_basis_and_no_quotient_dim(self, case, monkeypatch):
        I, P, exponents = report_case(case)
        calls = {"groebner_basis": 0, "quotient_dim": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(localring, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(localring, name, counted)
        base_change_point(I, P, exponents)
        assert calls == {"groebner_basis": 1, "quotient_dim": 0}

    @pytest.mark.parametrize("gens", [("x^2", "x*y", "y^2"), ("x - 1", "x", "y")])
    def test_triangularization_failed(self, gens):
        base = BaseField(3, ("t",))
        vs = ("x", "y")
        with pytest.raises(TriangularizationFailed):
            localring._triangularize(base, vs, tuple(poly_from_text(base.field, vs, g) for g in gens))


class TestJumpReports:
    def test_cusp_char2(self):
        I, P = cusp_char2()
        report = localring.ejump_at_point(I, P, {"t": 1})
        assert report.edim_before == 1
        assert report.edim_after == 2
        assert report.ejump == 1
        assert report.ecodim_after == 1
        assert report.bound_lemma == 1
        assert report.bound_theorem == 1
        assert report.all_satisfied()

    def test_cusp_char3(self):
        I, P = cusp_char3()
        report = localring.ejump_at_point(I, P, {"t": 1})
        assert report.ejump == 1
        assert report.ecodim_after == 1
        assert report.bound_theorem == 1
        assert report.all_satisfied()

    def test_separable_point_no_jump(self):
        base = BaseField(5, ("t",))
        field = base.field
        varnames = ("x", "y")
        I = IdealPresentation(
            field, varnames, (poly_from_text(field, varnames, "x^2 + y^3 + t"),)
        )
        P = ClosedPoint(
            base,
            varnames,
            (
                poly_from_text(field, varnames, "x - 1"),
                poly_from_text(field, varnames, "y^3 + t + 1"),
            ),
        )
        report = localring.ejump_at_point(I, P, {"t": 1})
        assert report.ejump == 0
        assert report.bound_theorem == 0
        assert report.all_satisfied()

    @pytest.mark.parametrize("fixture", [cusp_char2, cusp_char3])
    def test_zero_exponent_changes_nothing(self, fixture):
        I, P = fixture()
        report = localring.ejump_at_point(I, P, {"t": 0})
        assert report.ejump == 0
        assert report.bound_lemma == 0

    @pytest.mark.parametrize("exponents", [(1, 0), (0, 1), (2, 0), (1, 2)])
    @pytest.mark.parametrize("seed", [4, 9, 11, 43, 49])
    def test_kept_base_columns_match_buchberger(self, seed, exponents):
        # d = 2 draws; a zero exponent keeps that t_j column of the Jacobian
        I, P, _ = random_bound_instance(random.Random(seed))
        assert P.base.d == 2
        report = localring.ejump_at_point(I, P, exponents)
        assert report.edim_after == _buchberger_edim(*base_change_point(I, P, exponents))

    @pytest.mark.parametrize("case", ["cusp_char2", "cusp_char3"] + [f"bound-{seed}" for seed in range(8)])
    def test_no_base_change_and_one_krull_dim(self, case, monkeypatch):
        I, P, exponents = report_case(case)

        def refuse(*args):
            raise AssertionError("ejump_at_point rewrote the point over k'")

        calls = {"quotient_dim": 0, "residue_tower": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(localring, "base_change_point", refuse)
        monkeypatch.setattr(localring, "groebner_basis", refuse)
        monkeypatch.setattr(artin, "base_change_structure", refuse)
        monkeypatch.setattr(kaehler, "pdeg", refuse)
        monkeypatch.setattr(localring, "quotient_dim", counted("quotient_dim", localring.quotient_dim))
        monkeypatch.setattr(ClosedPoint, "residue_tower", counted("residue_tower", ClosedPoint.residue_tower))
        localring.ejump_at_point(I, P, exponents)
        assert calls == {"quotient_dim": 1, "residue_tower": 1}

    @pytest.mark.parametrize("case", ["cusp_char2", "cusp_char3"] + [f"bound-{seed}" for seed in range(60)])
    def test_bounds_match_walk_and_kaehler(self, case):
        I, P, exponents = report_case(case)
        kappa, _ = P.residue_tower()
        theorem = kaehler.pdeg(kappa, "base") - kaehler.trdeg(kappa, "base")
        for exps in [exponents] + ([(1, 0), (0, 2)] if P.base.d == 2 else []):
            entries = [(P.field.gen(j), e) for j, e in enumerate(exps) if e >= 1]
            spec = artin.InseparableExtensionSpec.of(entries)
            report = localring.ejump_at_point(I, P, exps)
            assert report.bound_lemma == artin.base_change_structure(kappa, spec).edim, exps
            assert report.bound_theorem == theorem, exps

    @pytest.mark.parametrize(
        "gens, ideal",
        [
            (("x^2 + t^2",), ("x*(x^2 + t^2)",)),  # x^2 + t^2 = (x + t)^2
            (("x^2 + t", "y^2 + t"), ("(x + y)^2",)),  # y^2 + t = (y + x)^2 once x^2 = t
        ],
    )
    @pytest.mark.parametrize("exponent", [0, 1, 2])
    def test_p_th_power_generator_raises_not_prime(self, gens, ideal, exponent):
        base = BaseField(2, ("t",))
        vs = ("x", "y")[: len(gens)]
        P = ClosedPoint(base, vs, tuple(poly_from_text(base.field, vs, g) for g in gens))
        I = IdealPresentation(base.field, vs, tuple(poly_from_text(base.field, vs, g) for g in ideal))
        with pytest.raises(NotPrime):
            localring.ejump_at_point(I, P, (exponent,))

    @pytest.mark.parametrize(
        "entry",
        [
            "LocalAt",
            "edim_at_point",
            "LocalAt.ecodim",
            "ejump_at_point",
            "LocalAt.report-strict",
            "verify_height_one_stability",
            "classical_jacobian_edim",
        ],
    )
    def test_zero_divisor_point_raises_not_prime_everywhere(self, entry):
        # x^2 - t^2 is reducible, and y^3 + x + t is the cube y^3 where x = -t,
        # so k[x]/P is not reduced; a pivot of its Jacobian is a zero divisor
        base = BaseField(3, ("t",))
        vs = ("x", "y")
        gens = tuple(poly_from_text(base.field, vs, g) for g in ("x^2 - t^2", "y^3 + x + t"))
        P = ClosedPoint(base, vs, gens)
        I = IdealPresentation(base.field, vs, gens[:1])
        calls = {
            "LocalAt": lambda: localring.LocalAt(I, P).residue_tower,
            "edim_at_point": lambda: edim_at_point(I, P),
            "LocalAt.ecodim": lambda: localring.LocalAt(I, P).ecodim,
            "ejump_at_point": lambda: localring.ejump_at_point(I, P, (1,)),
            "LocalAt.report-strict": lambda: localring.LocalAt(I, P).report((1,), strict=True),
            "verify_height_one_stability": lambda: localring.verify_height_one_stability(I, P, "t", 2),
            "classical_jacobian_edim": lambda: localring.classical_jacobian_edim(I, P),
        }
        with pytest.raises(NotPrime):
            calls[entry]()

    def test_mixed_dimension_raises_not_equidimensional(self):
        # a plane x = 0 and a line y = z = 0; P lies on the line only, where
        # edim is 1 while the global Krull dimension is 2
        base = BaseField(2, ("t",))
        vs = ("x", "y", "z")
        P = ClosedPoint(base, vs, tuple(poly_from_text(base.field, vs, g) for g in ("x + 1", "y", "z")))
        I = IdealPresentation(base.field, vs, tuple(poly_from_text(base.field, vs, g) for g in ("x*y", "x*z")))
        assert edim_at_point(I, P) == 1
        with pytest.raises(NotEquidimensional):
            localring.LocalAt(I, P).ecodim
        with pytest.raises(NotEquidimensional):
            localring.ejump_at_point(I, P, (1,))
        with pytest.raises(NotEquidimensional):
            localring.verify_height_one_stability(I, P, "t", 2)

    def test_strict_mode_passes_on_sound_input(self):
        I, P = cusp_char2()
        report = localring.LocalAt(I, P).report({"t": 1}, strict=True)
        assert report.all_satisfied()


class TestReducedPointsOnly:
    """A point is answered only when k[x]/P is reduced, by its Jacobian at P."""

    def test_random_points_accepted_and_squared_generators_refused(self):
        # squaring one generator keeps the triangular shape but adds a nilpotent
        for seed in range(300):
            rng = random.Random(seed)
            p, d, n = rng.choice((2, 3, 5)), rng.randint(1, 2), rng.randint(1, 3)
            base = BaseField(p, ("t",) if d == 1 else ("t1", "t2"))
            P = random_point(rng, base, n)
            assert edim_at_point(P.ideal(), P) == 0, seed
            i = rng.randrange(n)
            gens = P.generators[:i] + (P.generators[i] ** 2,) + P.generators[i + 1 :]
            Q = ClosedPoint(base, P.varnames, gens)
            with pytest.raises(NotPrime):
                edim_at_point(Q.ideal(), Q)

    @pytest.mark.parametrize(
        "p, gens",
        [
            (3, ("x^6 + 2*t*x^3 + t^2", "y")),  # (x^3 + t)^2
            (2, ("x^5 + x^4 + t^2*x + t^2", "y")),  # (x^2 + t)^2 (x + 1)
            (5, ("x^2", "y - t")),
            (2, ("x + t", "y^4 + t^2")),  # (y^2 + t)^2
        ],
    )
    def test_non_reduced_points_refused_before_containment(self, p, gens):
        base = BaseField(p, ("t",))
        vs = ("x", "y")
        P = ClosedPoint(base, vs, tuple(poly_from_text(base.field, vs, g) for g in gens))
        outside = IdealPresentation(base.field, vs, (poly_from_text(base.field, vs, "x - 1"),))
        for I in (P.ideal(), outside):
            with pytest.raises(NotPrime):
                edim_at_point(I, P)
            with pytest.raises(NotPrime):
                localring.ejump_at_point(I, P, (1,))

    def test_base_change_point_refuses_a_non_reduced_point(self):
        # the second route of criteria 2 and 3 once returned ((x^3 + s^3)^2, y) here
        base = BaseField(3, ("t",))
        vs = ("x", "y")
        P = ClosedPoint(base, vs, tuple(poly_from_text(base.field, vs, g) for g in ("x^6 + 2*t*x^3 + t^2", "y")))
        I = IdealPresentation(base.field, vs, (poly_from_text(base.field, vs, "y^2 - x^6 - 2*t*x^3 - t^2"),))
        with pytest.raises(NotPrime):
            base_change_point(I, P, {"t": 1})


class TestHeightOneStability:
    def test_cusp_fixtures(self):
        for I, P in (cusp_char2(), cusp_char3()):
            report = localring.verify_height_one_stability(I, P, "t", 3)
            assert report.jumps == (1, 1, 1)
            assert report.stable

    def test_separable_point_never_jumps(self):
        base = BaseField(5, ("t",))
        field = base.field
        varnames = ("x", "y")
        I = localring.IdealPresentation(
            field, varnames, (poly_from_text(field, varnames, "x^2 + y^3 + t"),)
        )
        P = localring.ClosedPoint(
            base,
            varnames,
            (
                poly_from_text(field, varnames, "x - 1"),
                poly_from_text(field, varnames, "y^3 + t + 1"),
            ),
        )
        report = localring.verify_height_one_stability(I, P, "t", 3)
        assert report.jumps == (0, 0, 0)
        assert report.stable

    @pytest.mark.parametrize("n_max", [2, 3, 5])
    @pytest.mark.parametrize("case", ["cusp_char2", "cusp_char3"] + [f"bound-{seed}" for seed in range(20)])
    def test_one_report_matches_a_report_per_exponent(self, case, n_max):
        # the independent route: one full report for each exponent 1..n_max
        I, P, _ = report_case(case)
        for variable in P.base.varnames:
            jumps = tuple(localring.ejump_at_point(I, P, {variable: k}).ejump for k in range(1, n_max + 1))
            report = localring.verify_height_one_stability(I, P, variable, n_max)
            assert (report.jumps, report.stable) == (jumps, len(set(jumps)) == 1)


class TestJetOracle:
    def test_disagrees_at_inseparable_point(self):
        I, P = cusp_char2()
        assert edim_at_point(I, P) == 1
        assert localring.classical_jacobian_edim(I, P) == 2

    @given(st.integers(0, 2**32 - 1))
    def test_agrees_at_separable_points(self, seed):
        rng = random.Random(seed)
        I, P = random_separable_point_instance(rng)
        assert edim_at_point(I, P) == localring.classical_jacobian_edim(I, P)

    def test_ideal_outside_the_point_raises_not_contained(self):
        base = BaseField(2, ("t",))
        I = IdealPresentation(base.field, ("x",), (poly_from_text(base.field, ("x",), "x + 1"),))
        P = ClosedPoint(base, ("x",), (MultiPoly.gen(base.field, 1, 0),))
        with pytest.raises(NotContained):
            localring.classical_jacobian_edim(I, P)


def direct_jacobian(generators, kappa, images, d):
    """[dg/dt_j | dg/dx_i](P) over kappa, one row per g, each derivative of g itself evaluated at P."""
    n = len(images)

    def at_point(f):
        return f.evaluate(images, kappa.from_base).payload

    rows = []
    for g in generators:
        t_part = [MultiPoly.from_terms(g.dom, n, ((e, c.derivative(j)) for e, c in g.terms.items())) for j in range(d)]
        rows.append([at_point(f) for f in t_part + [g.derivative(i) for i in range(n)]])
    return rows


@functools.lru_cache(maxsize=None)
def session_points():
    """(I, P) of every seed-1 `sessions` benchmark case."""
    sessions = [cli.parse_session(case.text) for case in workloads.sessions_setup(1)]
    return [(session.ideals["I"], session.points["P"]) for session in sessions]


def jacobian_case(case):
    if case.startswith("session-"):
        return session_points()[int(case.split("-")[1])]
    return report_case(case)[:2]


class TestIdealJacobianFromPoint:
    """I's Jacobian at P is Q(P) J_P(P); the direct Jacobian of I is the second route."""

    @pytest.mark.parametrize(
        "case",
        ["cusp_char2", "cusp_char3"] + [f"bound-{seed}" for seed in range(60)] + [f"session-{k}" for k in range(38)],
    )
    def test_product_and_coranks_match_the_direct_jacobian(self, case):
        I, P = jacobian_case(case)
        local = localring.LocalAt(I, P)
        kappa, images = local.residue_tower
        alg, n, d = kappa.algebra, len(images), P.base.d
        ideal = direct_jacobian(I.generators, kappa, images, d)
        point = direct_jacobian(P.generators, kappa, images, d)
        for g_row, q_row in zip(ideal, local._quotient_values):
            for c, entry in enumerate(g_row):
                product = {}
                for q, u_row in zip(q_row, point):
                    product = alg.add(product, alg.mul(q, u_row[c]))
                assert entry == product, (case, c)
        for size in range(d + 1):
            for keep in itertools.combinations(range(d), size):
                direct = n - alg.rank([[row[j] for j in keep] + row[d:] for row in ideal])
                exponents = tuple(0 if j in keep else 1 for j in range(d))
                assert local.report(exponents).edim_after == direct, (case, keep)
                if not keep:
                    assert localring.classical_jacobian_edim(I, P) == direct, case
                if size == d:
                    assert local.edim == direct, case

    def test_only_the_points_generators_are_differentiated(self, monkeypatch):
        seen = []
        for cls in (MultiPoly, RatFunc):

            def recording(self, var, _real=cls.derivative):
                if sys._getframe(1).f_globals.get("__name__") == "ejump.localring":
                    seen.append(self)
                return _real(self, var)

            monkeypatch.setattr(cls, "derivative", recording)
        I, P, _ = random_bound_instance(random.Random(4))
        assert P.base.d == 2
        localring.ejump_at_point(I, P, (1, 0))  # keeps the t2 column
        points = [P]
        for fixture in (cusp_char2, cusp_char3):
            I, P = fixture()
            localring.classical_jacobian_edim(I, P)
            points.append(P)
        session = cli.parse_session((Path(__file__).parent.parent / "scripts" / "cusp_session.txt").read_text())
        for cmd in session.commands:
            assert cli.run_command(session, cmd, cli.RunOptions()).status == "ok"
        points.append(session.points["P"])
        generators = [u for P in points for u in P.generators]
        coefficients = [c for u in generators for c in u.terms.values()]
        assert any(isinstance(f, RatFunc) for f in seen) and any(isinstance(f, MultiPoly) for f in seen)
        for f in seen:
            assert any(f == g for g in (coefficients if isinstance(f, RatFunc) else generators)), f


@given(st.integers(0, 2**32 - 1))
@example(396713)  # F_3(t1,t2), x y z: its base-changed point once took over 60 s to triangularize
def test_bound_chain_random(seed):
    rng = random.Random(seed)
    I, P, exponents = random_bound_instance(rng)
    report = localring.ejump_at_point(I, P, exponents)
    assert report.all_satisfied(), report.to_dict()


def test_zero_divisor_translates_to_not_prime():
    with pytest.raises(NotPrime):
        with localring._not_prime_on_zero_divisor():
            raise ZeroDivisorDetected("u")
