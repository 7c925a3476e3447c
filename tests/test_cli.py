import json
import random
from pathlib import Path

import pytest

from ejump import artin, cli, localring
from ejump.cli import (
    RunOptions,
    emit_report,
    emit_session,
    main,
    parse_session,
    run_command,
)
from ejump.errors import ParseError, ValidationError
from ejump.ff_arith import FractionField, poly_from_text, ratfunc_from_text
from ejump.instances import random_tower, sqrt_t_tower
from ejump.localring import ClosedPoint

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

CUSP_SESSION = """\
# characteristic-2 cusp
base p=2 vars t
tower K : base adjoin u alg u^2 + t
ideal I vars y,x : x^2 + y^3 + t
point P : y, x^2 + t
cmd schroer K
cmd ejump I P roots t:1
cmd height-one I P var t max 3
"""


def run_session_text(text, options=None):
    session = parse_session(text)
    options = options or RunOptions()
    return [run_command(session, cmd, options) for cmd in session.commands]


class TestParsing:
    def test_base_declaration(self):
        session = parse_session("base p=2 vars t\n")
        assert session.base.p == 2
        assert session.base.varnames == ("t",)

    def test_tower_declaration(self):
        session = parse_session("base p=2 vars t\ntower K : base adjoin u alg u^2 + t\n")
        K = session.towers["K"]
        assert K.height == 1
        u = K.gen("u")
        assert u * u == K.base_var("t")

    def test_full_cusp_session(self):
        session = parse_session(CUSP_SESSION)
        assert set(session.towers) == {"K"}
        assert set(session.ideals) == {"I"}
        assert set(session.points) == {"P"}
        assert [c.name for c in session.commands] == ["schroer", "ejump", "height-one"]

    def test_unknown_symbol_position(self):
        with pytest.raises(ParseError) as err:
            parse_session("base p=2 vars t\nideal I vars x : x + w\n")
        assert err.value.line == 2

    def test_forward_reference_rejected(self):
        with pytest.raises(ValidationError):
            parse_session("base p=2 vars t\ncmd schroer K\n")

    def test_duplicate_identifier_rejected(self):
        text = "base p=2 vars t\ntower K : base adjoin y trans\ntower K : base adjoin z trans\n"
        with pytest.raises(ValidationError):
            parse_session(text)

    def test_p_power_radicand_is_validation_error(self):
        text = "base p=2 vars t\ntower K : base adjoin u root t^2 exp 1\n"
        with pytest.raises(ValidationError):
            parse_session(text)

    def test_nonprime_characteristic(self):
        with pytest.raises(ValidationError):
            parse_session("base p=6 vars t\n")

    def test_generator_name_containing_adjoin(self):
        K = parse_session("base p=2 vars t\ntower K : base adjoin adjoint trans\n").towers["K"]
        assert K.describe() == "F2(t) adjoin adjoint trans"

    def test_base_variable_containing_adjoin_in_a_radicand(self):
        text = "base p=2 vars tadjoin\ntower K : base adjoin y trans adjoin u root tadjoin + y exp 1\n"
        K = parse_session(text).towers["K"]
        assert K.gen("u") ** 2 == K.base_var("tadjoin") + K.gen("y")


class TestExpressionErrors:
    """A token consumed and found wrong is the one an error points at, even the end of the text."""

    CASES = [
        ("(t", 3, "expected ')'"),
        ("((t)", 5, "expected ')'"),
        ("t^", 3, "exponent must be a non-negative integer"),
        ("t^t", 3, "exponent must be a non-negative integer"),
    ]

    @pytest.mark.parametrize("text, column, message", CASES)
    def test_base_field_element(self, text, column, message):
        field = FractionField(3, ("t",))
        with pytest.raises(ParseError) as err:
            ratfunc_from_text(field, text, line=2)
        assert str(err.value) == f"line 2, column {column}: {message}"

    @pytest.mark.parametrize("text, column, message", CASES)
    def test_polynomial(self, text, column, message):
        field = FractionField(3, ("t",))
        with pytest.raises(ParseError) as err:
            poly_from_text(field, ("x",), text.replace("t", "x"), line=2)
        assert str(err.value) == f"line 2, column {column}: {message}"

    @pytest.mark.parametrize("text, column, message", CASES)
    def test_cli_session(self, text, column, message, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(f"base p=3 vars t\nideal I vars x : {text.replace('t', 'x')}\n")
        assert main(["--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line 2, column {column}: {message}\n"


class TestMinimalPolynomial:
    @pytest.mark.parametrize(
        "layers, error, message",
        [
            (
                "adjoin u alg 2*u^2 + t",
                ValidationError,
                "line 2: minimal polynomial must be monic in 'u'",
            ),
            (
                "adjoin u alg u + t",
                ValidationError,
                "line 2: minimal polynomial must have degree >= 2 in 'u'",
            ),
            (
                "adjoin u alg u^2 + 1/t",
                ParseError,
                "line 2, column 8: division is not allowed in this expression",
            ),
            (
                "adjoin u alg u^2 + t adjoin u alg u^2 + t",
                ValidationError,
                "line 2: invalid layer 'u': generator name 'u' already in use",
            ),
            (
                "adjoin t alg t^2 + t",
                ValidationError,
                "line 2: invalid layer 't': generator name 't' already in use",
            ),
        ],
    )
    def test_rejected(self, layers, error, message):
        with pytest.raises(error) as err:
            parse_session(f"base p=3 vars t\ntower K : base {layers}\n")
        assert type(err.value) is error
        assert str(err.value) == message

    def test_coefficient_from_lower_layer(self):
        text = "base p=3 vars t\ntower K : base adjoin u alg u^2 + 2*t adjoin v alg v^2 + 2*u\n"
        K = parse_session(text).towers["K"]
        assert K.gen("v") * K.gen("v") == K.gen("u")
        assert K.describe() == "F3(t) adjoin u alg u^2 + 2*t adjoin v alg v^2 + 2*u"

    def test_algebraic_above_transcendental(self):
        text = "base p=2 vars t\ntower K : base adjoin y trans adjoin u alg u^2 + y*u + t\n"
        K = parse_session(text).towers["K"]
        u, y = K.gen("u"), K.gen("y")
        assert u * u == y * u + K.base_var("t")
        assert K.describe() == "F2(t) adjoin y trans adjoin u alg u^2 + (y)*u + t"


class TestCommands:
    def test_schroer_result(self):
        reports = run_session_text(CUSP_SESSION)
        assert reports[0].status == "ok"
        assert reports[0].result == {"pdeg": 1, "trdeg": 0, "predicted_edim": 1}

    def test_ejump_result_keys(self):
        reports = run_session_text(CUSP_SESSION)
        result = reports[1].result
        for key in (
            "edim_before",
            "edim_after",
            "ejump",
            "bound_lemma",
            "bound_theorem",
            "ecodim_after",
            "satisfied",
        ):
            assert key in result
        assert result["ejump"] == 1
        assert all(result["satisfied"].values())

    def test_height_one_result(self):
        reports = run_session_text(CUSP_SESSION)
        assert reports[2].result == {"variable": "t", "jumps": [1, 1, 1], "stable": True}

    def test_field_route_height_one(self):
        text = (
            "base p=2 vars t\n"
            "tower K : base adjoin u alg u^2 + t\n"
            "cmd height-one K var t max 3\n"
        )
        reports = run_session_text(text)
        assert reports[0].result == {"variable": "t", "jumps": [1, 1, 1], "stable": True}

    def test_verify_structure(self):
        text = (
            "base p=2 vars t\n"
            "tower K : base adjoin u alg u^2 + t\n"
            "cmd verify-structure K roots t:2\n"
        )
        reports = run_session_text(text)
        assert reports[0].result["passed"] is True
        assert reports[0].result["dimension_expected"] == 4

    def test_domain_error_report(self):
        text = "base p=2 vars t\nideal I vars x : x + 1\npoint P : x\ncmd edim I P\n"
        reports = run_session_text(text)
        assert reports[0].status == "error"
        assert reports[0].error["type"] == "NotContained"


# two ideals through both P and Q over F_3(t); neither contains R
PAIR_DECLARATIONS = {
    "I": "ideal I vars x,y : (x - 1)*(x^2 + y^3 + t)",
    "J": "ideal J vars x,y : x*(x - 1), (y^3 + t)*(y - t)",
    "P": "point P vars x,y : x, y^3 + t",
    "Q": "point Q vars x,y : x - 1, y - t",
    "R": "point R vars x,y : x + 1, y",
}
PAIR_COMMANDS = (
    "cmd edim {0} {1}",
    "cmd ejump {0} {1} roots t:1",
    "cmd ecodim {0} {1}",
    "cmd verify-bounds {0} {1} roots t:2",
    "cmd height-one {0} {1} var t max 3",
    "cmd ejump {0} {1} roots t:1",
)


def pair_session(pairs):
    """A session about the given (ideal, point) pairs, their commands interleaved round-robin."""
    names = sorted({name for pair in pairs for name in pair}, key=list(PAIR_DECLARATIONS).index)
    lines = ["base p=3 vars t"] + [PAIR_DECLARATIONS[name] for name in names]
    lines += [command.format(*pair) for command in PAIR_COMMANDS for pair in pairs]
    return "\n".join(lines) + "\n"


class TestLocalRingPerSession:
    def test_one_tower_and_one_krull_dim_per_pair(self, monkeypatch):
        calls = {"quotient_dim": 0, "residue_tower": 0}

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        monkeypatch.setattr(localring, "quotient_dim", counted("quotient_dim", localring.quotient_dim))
        monkeypatch.setattr(ClosedPoint, "residue_tower", counted("residue_tower", ClosedPoint.residue_tower))
        text = (
            "base p=2 vars t\n"
            "ideal I vars y,x : x^2 + y^3 + t\n"
            "point P : y, x^2 + t\n"
            "cmd edim I P\n"
            "cmd ecodim I P\n"
            "cmd ejump I P roots t:1\n"
            "cmd verify-bounds I P roots t:1\n"
            "cmd height-one I P var t max 3\n"
        )
        reports = run_session_text(text)
        assert [r.status for r in reports] == ["ok"] * 5
        assert reports[4].result == {"variable": "t", "jumps": [1, 1, 1], "stable": True}
        assert calls == {"quotient_dim": 1, "residue_tower": 1}

    def test_interleaved_pairs_match_single_pair_sessions(self):
        pairs = [("I", "P"), ("J", "Q"), ("I", "R"), ("I", "Q"), ("J", "R"), ("J", "P")]
        reports = run_session_text(pair_session(pairs))
        assert len(reports) == len(PAIR_COMMANDS) * len(pairs)
        for k, pair in enumerate(pairs):
            mine = [r.to_dict() for r in reports[k :: len(pairs)]]
            alone = [r.to_dict() for r in run_session_text(pair_session([pair]))]
            assert mine == alone, pair
            if pair[1] == "R":
                assert {r["status"] for r in mine} == {"error"}
                assert {(r["error"]["type"], r["error"]["message"]) for r in mine} == {
                    ("NotContained", "ideal is not contained in the point's maximal ideal")
                }
            else:
                assert {r["status"] for r in mine} == {"ok"}, pair


class TestEmission:
    def test_json_roundtrip(self):
        reports = run_session_text(CUSP_SESSION)
        for report in reports:
            data = json.loads(emit_report(report, "json"))
            assert data == report.to_dict()

    def test_session_json_schema_version(self):
        reports = run_session_text(CUSP_SESSION)
        doc = json.loads(emit_session(reports, "json"))
        assert doc["schema_version"] == 1
        assert len(doc["reports"]) == 3

    def test_json_deterministic(self):
        a = emit_session(run_session_text(CUSP_SESSION), "json")
        b = emit_session(run_session_text(CUSP_SESSION), "json")
        assert a == b

    def test_text_format(self):
        reports = run_session_text(CUSP_SESSION)
        text = emit_session(reports, "text").decode()
        assert text.startswith("ok cmd schroer K")
        assert "predicted_edim: 1" in text


class TestMain:
    def test_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "session.txt"
        path.write_text(CUSP_SESSION)
        assert main(["--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ejump: 1" in out

    def test_exit_one_on_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("frobnicate\n")
        assert main(["--input", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_domain_error(self, tmp_path, capsys):
        path = tmp_path / "dom.txt"
        path.write_text("base p=2 vars t\nideal I vars x : x + 1\npoint P : x\ncmd edim I P\n")
        assert main(["--input", str(path)]) == 2

    def test_exit_two_on_mixed_dimension(self, tmp_path, capsys):
        # the plane x = 0 and the line y = z = 0; P lies on the line only
        path = tmp_path / "mixed.txt"
        path.write_text(
            "base p=2 vars t\n"
            "ideal I vars x,y,z : x*y, x*z\n"
            "point P : x + 1, y, z\n"
            "cmd edim I P\n"
            "cmd ecodim I P\n"
            "cmd ejump I P roots t:1\n"
            "cmd verify-bounds I P roots t:1\n"
            "cmd height-one I P var t max 2\n"
        )
        assert main(["--input", str(path), "--format", "json"]) == 2
        edim, *refused = json.loads(capsys.readouterr().out)["reports"]
        assert edim["status"] == "ok" and edim["result"]["value"] == 1
        assert [r["error"]["type"] for r in refused] == ["NotEquidimensional"] * 4

    @pytest.mark.parametrize(
        "declarations",
        [
            # P = ((x^3 + t)^2, y) over F_3(t)
            "base p=3 vars t\n"
            "ideal I vars x,y : y^2 - x^6 - 2*t*x^3 - t^2\n"
            "point P : x^6 + 2*t*x^3 + t^2, y\n",
            # P = ((x^2 + t)^2 (x + 1), y) over F_2(t)
            "base p=2 vars t\n"
            "ideal I vars x,y : y^2 + x^5 + x^4 + t^2*x + t^2\n"
            "point P : x^5 + x^4 + t^2*x + t^2, y\n",
        ],
        ids=["p3", "p2"],
    )
    def test_exit_two_on_non_reduced_point(self, declarations, tmp_path, capsys):
        path = tmp_path / "nonreduced.txt"
        path.write_text(
            declarations + "cmd edim I P\n"
            "cmd ecodim I P\n"
            "cmd ejump I P roots t:1\n"
            "cmd verify-bounds I P roots t:1\n"
            "cmd height-one I P var t max 2\n"
        )
        assert main(["--input", str(path), "--format", "json"]) == 2
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [r["status"] for r in reports] == ["error"] * 5
        assert [r["error"]["type"] for r in reports] == ["NotPrime"] * 5

    def test_strict_flag_passes_on_singular_input(self, tmp_path, capsys):
        # O = k[x,y]/(x^2, y^2) at the origin is not regular: ecodim 2 before
        # and after a root of t, within the bound ecodim_before + d = 3
        path = tmp_path / "singular.txt"
        path.write_text(
            "base p=2 vars t\n"
            "ideal I vars x,y : x^2, y^2\n"
            "point P : x, y\n"
            "cmd verify-bounds I P roots t:1\n"
        )
        assert main(["--input", str(path), "--strict", "--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["status"] == "ok"
        result = report["result"]
        assert (result["ecodim_before"], result["ecodim_after"], result["base_dim"]) == (2, 2, 1)
        assert all(result["satisfied"].values())

    def test_strict_flag_passes_on_sound_input(self, tmp_path, capsys):
        path = tmp_path / "ok.txt"
        path.write_text(CUSP_SESSION)
        assert main(["--input", str(path), "--strict", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1

    @pytest.mark.parametrize(
        "session, golden",
        [
            (ROOT / "scripts" / "cusp_session.txt", DATA / "cusp_session.json"),
            (DATA / "two_root_session.txt", DATA / "two_root_session.json"),
        ],
        ids=["cusp", "two_root"],
    )
    def test_json_bytes_match_golden(self, session, golden, capsysbinary):
        assert main(["--input", str(session), "--format", "json"]) == 0
        assert capsysbinary.readouterr().out == golden.read_bytes()

    def test_missing_file(self, capsys):
        assert main(["--input", "/nonexistent/session.txt"]) == 1


class TestTowerHeightOne:
    def test_reducible_tower_refused_like_pdeg(self):
        # u^2 - t^2 = (u - t)(u + t): dt = 0 is decided by a rank whose pivot is a zero divisor
        reports = run_session_text(
            "base p=3 vars t\n"
            "tower K : base adjoin u alg u^2 - t^2 adjoin v alg v^2 - u - t\n"
            "cmd height-one K var t max 2\n"
            "cmd pdeg K over prime\n"
        )
        assert [r.status for r in reports] == ["error", "error"]
        assert [r.error["type"] for r in reports] == ["ZeroDivisorDetected"] * 2

    def test_kaehler_test_matches_walk_per_exponent(self, monkeypatch):
        walk = artin.base_change_structure
        rng = random.Random(18)
        towers = [sqrt_t_tower(2), sqrt_t_tower(3)]
        towers += [random_tower(rng, p, d, max_layers=2, dim_budget=8).tower for p in (2, 3) for d in (1, 2) for _ in range(3)]
        calls = []
        monkeypatch.setattr(artin, "base_change_structure", lambda *a: calls.append(a) or walk(*a))
        for K in towers:
            session = cli.Session(base=K.base, towers={"K": K})
            for variable in K.base.varnames:
                args = {"target": "tower", "tower": "K", "variable": variable, "n_max": 4}
                cmd = cli.Command(1, f"cmd height-one K var {variable} max 4", "height-one", args)
                calls.clear()
                result = run_command(session, cmd).result
                assert not calls
                t = K.base.field.gen_named(variable)
                spec = artin.InseparableExtensionSpec.of
                assert result["jumps"] == [walk(K, spec([(t, n)])).edim for n in range(1, 5)]
                assert result["stable"]
