"""Line-oriented batch interface.

Grammar (one declaration or command per line, `#` starts a comment):

    base p=2 vars t
    tower K : base adjoin u alg u^2 + t
    tower L : K adjoin v root u exp 1
    tower M : base adjoin y trans
    ideal I vars x,y : x^2 + y^3 + t
    point P : y, x^2 + t              # vars default to the last ideal's
    point Q vars x,y : x - 1, y - t
    cmd pdeg K [over prime|base]
    cmd trdeg K [over prime|base]
    cmd schroer K
    cmd edim-tensor K roots t:1,t:2
    cmd verify-structure K roots t:2
    cmd edim I P
    cmd ecodim I P
    cmd ejump I P roots t:1
    cmd verify-bounds I P roots t:1
    cmd height-one I P var t max 3
    cmd height-one K var t max 3

Flags: --input FILE, --format {text|json}, --strict, --cap N (structure-oracle
dimension cap).  Exit codes: 0 success, 1 parse/validation error, 2 domain
error.  Every bound of a report holds by construction (`LocalAt.report`), so
`--strict` never aborts and exit code 3, a bound violation, never occurs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field

from . import artin, kaehler, localring
from .errors import (
    BoundViolated,
    ExactAlgebraError,
    ParseError,
    ValidationError,
)
from .ff_arith import (
    IdealPresentation,
    MultiPoly,
    RatFunc,
    is_prime,
    parse_expression,
    poly_from_text,
    ratfunc_from_text,
)
from .localring import ClosedPoint
from .tower import (
    BaseField,
    FieldTower,
    TowerElement,
    algebraic_layer,
    inseparable_root_layer,
    is_p_power_tower,
    tower_extend,
    transcendental_layer,
)

SCHEMA_VERSION = 1


@dataclass
class Command:
    line: int
    text: str
    name: str
    args: dict


@dataclass
class Session:
    base: BaseField | None = None
    towers: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    points: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)
    # (ideal name, point name) -> LocalAt; names are never redeclared
    local_rings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Report:
    command: str
    status: str
    result: dict | None
    error: dict | None

    def to_dict(self) -> dict:
        out = {"command": self.command, "status": self.status}
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        return out


# -- session parsing -----------------------------------------------------------


def _split_top_commas(text: str) -> list:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts]


def _tower_context(K: FieldTower) -> dict:
    ctx = {name: K.base_var(name) for name in K.base.varnames}
    for layer in K.layers:
        ctx[layer.name] = K.gen(layer.name)
    return ctx


def _parse_tower_element(K: FieldTower, text: str, line: int) -> TowerElement:
    return parse_expression(
        text, _tower_context(K), K.from_int, div=lambda a, b: a / b, line=line
    )


def _parse_minpoly(K: FieldTower, gen_name: str, text: str, line: int) -> tuple:
    """Monic minimal polynomial text -> low-order coefficients c_0..c_{m-1} in K.

    The text is read as an element of K(gen) with gen transcendental, the last
    variable of T there.  Without division no denominator involves gen, so
    the coefficients in K are the numerators split by degree in gen.
    """
    Kx = tower_extend(K, transcendental_layer(gen_name))
    value = parse_expression(text, _tower_context(Kx), Kx.from_int, div=None, line=line)
    nt = len(K.t_names)

    def drop_gen(f: MultiPoly) -> MultiPoly:
        return MultiPoly(f.dom, nt, {x[:nt]: a for x, a in f.terms.items()})

    coeffs: dict = {}
    for e, c in value.payload.items():
        den = drop_gen(c.den)
        for k, a in enumerate(c.num.coefficients(nt)):
            if not a.is_zero:
                coeffs.setdefault(k, {})[e] = RatFunc(drop_gen(a), den)
    degree = max(coeffs, default=0)
    if degree < 2:
        raise ValidationError(f"minimal polynomial must have degree >= 2 in {gen_name!r}", line)
    if not TowerElement(K, coeffs[degree]).is_one:
        raise ValidationError(f"minimal polynomial must be monic in {gen_name!r}", line)
    return tuple(TowerElement(K, coeffs.get(k, {})) for k in range(degree))


def _parse_roots_spec(session: Session, text: str, line: int) -> list:
    """`a:1,t2:2` -> [(radicand text, RatFunc, exponent)]."""
    out = []
    for part in _split_top_commas(text):
        if ":" not in part:
            raise ParseError("root entries look like RADICAND:EXPONENT", line, 1)
        rad_text, _, exp_text = part.rpartition(":")
        rad_text = rad_text.strip()
        exp_text = exp_text.strip()
        if not exp_text.isdigit() or int(exp_text) < 1:
            raise ParseError(f"exponent must be a positive integer, got {exp_text!r}", line, 1)
        rad = ratfunc_from_text(session.base.field, rad_text, line=line)
        if rad.is_zero:
            raise ValidationError("radicand must be nonzero", line)
        out.append((rad_text, rad, int(exp_text)))
    return out


def parse_session(text: str) -> Session:
    session = Session()
    last_ideal_vars: tuple | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "base":
            _parse_base(session, line, lineno)
        elif head == "tower":
            _parse_tower(session, line, lineno)
        elif head == "ideal":
            last_ideal_vars = _parse_ideal(session, line, lineno)
        elif head == "point":
            _parse_point(session, line, lineno, last_ideal_vars)
        elif head == "cmd":
            session.commands.append(_parse_command(session, line, lineno))
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, 1)
    return session


def _require_base(session: Session, lineno: int) -> BaseField:
    if session.base is None:
        raise ParseError("declare a base field first", lineno, 1)
    return session.base


def _check_fresh(session: Session, name: str, lineno: int) -> None:
    if name in session.towers or name in session.ideals or name in session.points:
        raise ValidationError(f"identifier {name!r} already declared", lineno)


def _parse_base(session: Session, line: str, lineno: int) -> None:
    if session.base is not None:
        raise ValidationError("base field already declared", lineno)
    tokens = line.split()
    if len(tokens) != 4 or not tokens[1].startswith("p=") or tokens[2] != "vars":
        raise ParseError("expected: base p=<prime> vars t1,t2,...", lineno, 1)
    try:
        p = int(tokens[1][2:])
    except ValueError:
        raise ParseError(f"bad characteristic {tokens[1][2:]!r}", lineno, 1) from None
    if not is_prime(p) or p > 101:
        raise ValidationError(f"characteristic must be a prime <= 101, got {p}", lineno)
    varnames = tuple(v.strip() for v in tokens[3].split(",") if v.strip())
    if not varnames or len(set(varnames)) != len(varnames):
        raise ValidationError("base variables must be distinct and non-empty", lineno)
    session.base = BaseField(p, varnames)


def _parse_tower(session: Session, line: str, lineno: int) -> None:
    base = _require_base(session, lineno)
    if ":" not in line:
        raise ParseError("expected: tower NAME : REF adjoin ...", lineno, 1)
    head, _, rest = line.partition(":")
    head_tokens = head.split()
    if len(head_tokens) != 2:
        raise ParseError("expected: tower NAME : REF adjoin ...", lineno, 1)
    name = head_tokens[1]
    _check_fresh(session, name, lineno)
    rest = rest.strip()
    segments = re.split(r"(?<!\S)adjoin(?!\S)", rest)
    ref = segments[0].strip()
    if ref == "base":
        K = FieldTower(base)
    elif ref in session.towers:
        K = session.towers[ref]
    else:
        raise ValidationError(f"unknown tower reference {ref!r}", lineno)
    for segment in segments[1:]:
        tokens = segment.split()
        if len(tokens) < 2:
            raise ParseError("expected: adjoin NAME trans|alg|root ...", lineno, 1)
        gen_name, kind = tokens[0], tokens[1]
        body = segment.split(None, 2)[2] if len(tokens) > 2 else ""
        try:
            if kind == "trans":
                K = tower_extend(K, transcendental_layer(gen_name))
            elif kind == "alg":
                coeffs = _parse_minpoly(K, gen_name, body, lineno)
                K = tower_extend(K, algebraic_layer(K, gen_name, coeffs))
            elif kind == "root":
                if "exp" not in tokens:
                    raise ParseError("expected: adjoin NAME root EXPR exp N", lineno, 1)
                split_at = body.rfind("exp")
                expr_text = body[:split_at].strip()
                exp_text = body[split_at + 3 :].strip()
                if not exp_text.isdigit() or int(exp_text) < 1:
                    raise ParseError("root exponent must be a positive integer", lineno, 1)
                radicand = _parse_tower_element(K, expr_text, lineno)
                K = tower_extend(K, inseparable_root_layer(K, gen_name, radicand, int(exp_text)))
            else:
                raise ParseError(f"unknown layer kind {kind!r}", lineno, 1)
        except (ParseError, ValidationError):
            raise  # already carries the line
        except ExactAlgebraError as exc:
            raise ValidationError(f"invalid layer {gen_name!r}: {exc}", lineno) from exc
    session.towers[name] = K


def _parse_ideal(session: Session, line: str, lineno: int) -> tuple:
    base = _require_base(session, lineno)
    if ":" not in line:
        raise ParseError("expected: ideal NAME vars x,y : POLY[, POLY]", lineno, 1)
    head, _, rest = line.partition(":")
    tokens = head.split()
    if len(tokens) != 4 or tokens[2] != "vars":
        raise ParseError("expected: ideal NAME vars x,y : POLY[, POLY]", lineno, 1)
    name = tokens[1]
    _check_fresh(session, name, lineno)
    varnames = tuple(v.strip() for v in tokens[3].split(",") if v.strip())
    if not varnames or len(set(varnames)) != len(varnames):
        raise ValidationError("ideal variables must be distinct and non-empty", lineno)
    if set(varnames) & set(base.varnames):
        raise ValidationError("ideal variables must not shadow base variables", lineno)
    gens = []
    for part in _split_top_commas(rest.strip()):
        gens.append(poly_from_text(base.field, varnames, part, line=lineno))
    try:
        session.ideals[name] = IdealPresentation(base.field, varnames, tuple(gens))
    except Exception as exc:
        raise ValidationError(str(exc), lineno) from exc
    return varnames


def _parse_point(session: Session, line: str, lineno: int, last_vars: tuple | None) -> None:
    base = _require_base(session, lineno)
    if ":" not in line:
        raise ParseError("expected: point NAME [vars x,y] : POLY, POLY", lineno, 1)
    head, _, rest = line.partition(":")
    tokens = head.split()
    if len(tokens) == 2:
        varnames = last_vars
        if varnames is None:
            raise ValidationError("point without vars requires a previously declared ideal", lineno)
    elif len(tokens) == 4 and tokens[2] == "vars":
        varnames = tuple(v.strip() for v in tokens[3].split(",") if v.strip())
    else:
        raise ParseError("expected: point NAME [vars x,y] : POLY, POLY", lineno, 1)
    name = tokens[1]
    _check_fresh(session, name, lineno)
    gens = tuple(
        poly_from_text(base.field, varnames, part, line=lineno)
        for part in _split_top_commas(rest.strip())
    )
    try:
        session.points[name] = ClosedPoint(base, varnames, gens)
    except ExactAlgebraError as exc:
        raise ValidationError(f"invalid point {name!r}: {exc}", lineno) from exc


def _parse_command(session: Session, line: str, lineno: int) -> Command:
    base = _require_base(session, lineno)
    tokens = line.split()
    if len(tokens) < 2:
        raise ParseError("expected: cmd NAME args...", lineno, 1)
    name = tokens[1]
    args: dict = {}
    rest = tokens[2:]

    def tower_arg(identifier: str) -> str:
        if identifier not in session.towers:
            raise ValidationError(f"unknown tower {identifier!r}", lineno)
        return identifier

    def ideal_point_args(identifiers: list) -> None:
        if len(identifiers) < 2:
            raise ParseError(f"{name} needs an ideal and a point", lineno, 1)
        ideal, point = identifiers[0], identifiers[1]
        if ideal not in session.ideals:
            raise ValidationError(f"unknown ideal {ideal!r}", lineno)
        if point not in session.points:
            raise ValidationError(f"unknown point {point!r}", lineno)
        args["ideal"], args["point"] = ideal, point

    if name in ("pdeg", "trdeg", "schroer"):
        if not rest:
            raise ParseError(f"{name} needs a tower", lineno, 1)
        args["tower"] = tower_arg(rest[0])
        args["reference"] = "base"
        if len(rest) >= 3 and rest[1] == "over":
            if rest[2] not in ("base", "prime"):
                raise ParseError("reference is `base` or `prime`", lineno, 1)
            args["reference"] = rest[2]
    elif name in ("edim-tensor", "verify-structure"):
        if len(rest) < 3 or rest[1] != "roots":
            raise ParseError(f"expected: cmd {name} K roots a:n,...", lineno, 1)
        args["tower"] = tower_arg(rest[0])
        args["spec"] = _parse_roots_spec(session, " ".join(rest[2:]), lineno)
    elif name in ("edim", "ecodim"):
        ideal_point_args(rest)
    elif name in ("ejump", "verify-bounds"):
        if len(rest) < 4 or rest[2] != "roots":
            raise ParseError(f"expected: cmd {name} I P roots t:n,...", lineno, 1)
        ideal_point_args(rest[:2])
        args["exponents"] = _parse_variable_roots(session, " ".join(rest[3:]), lineno)
    elif name == "height-one":
        if len(rest) >= 5 and rest[1] == "var":
            args["target"] = "tower"
            args["tower"] = tower_arg(rest[0])
            var_tokens = rest
        elif len(rest) >= 6 and rest[2] == "var":
            args["target"] = "point"
            ideal_point_args(rest[:2])
            var_tokens = rest[1:]
        else:
            raise ParseError("expected: cmd height-one (K | I P) var t max N", lineno, 1)
        var_idx = var_tokens.index("var")
        variable = var_tokens[var_idx + 1]
        if variable not in base.varnames:
            raise ValidationError(f"unknown base variable {variable!r}", lineno)
        if var_tokens[var_idx + 2] != "max" or not var_tokens[var_idx + 3].isdigit():
            raise ParseError("expected: ... var t max N", lineno, 1)
        args["variable"] = variable
        args["n_max"] = int(var_tokens[var_idx + 3])
        if args["n_max"] < 2:
            raise ValidationError("height-one check needs max >= 2", lineno)
    else:
        raise ParseError(f"unknown command {name!r}", lineno, 1)
    return Command(lineno, line, name, args)


def _parse_variable_roots(session: Session, text: str, lineno: int) -> dict:
    """Point-level base changes only take roots of the base variables."""
    base = session.base
    exponents: dict = {}
    for rad_text, _, exp in _parse_roots_spec(session, text, lineno):
        if rad_text not in base.varnames:
            raise ValidationError(
                f"point-level base change only supports base variables, got {rad_text!r}", lineno
            )
        if rad_text in exponents:
            raise ValidationError(f"variable {rad_text!r} listed twice", lineno)
        exponents[rad_text] = exp
    return exponents


# -- command execution ----------------------------------------------------------


@dataclass
class RunOptions:
    strict: bool = False
    cap: int = 1024


def run_command(session: Session, cmd: Command, options: RunOptions | None = None) -> Report:
    options = options or RunOptions()
    try:
        result = _execute(session, cmd, options)
        return Report(command=cmd.text, status="ok", result=result, error=None)
    except BoundViolated:
        raise
    except ExactAlgebraError as exc:
        return Report(
            command=cmd.text,
            status="error",
            result=None,
            error={"type": type(exc).__name__, "message": str(exc)},
        )


def _spec_from_args(entries: list) -> artin.InseparableExtensionSpec:
    return artin.InseparableExtensionSpec.of([(rad, exp) for _, rad, exp in entries])


def _local_ring(session: Session, ideal: str, point: str) -> localring.LocalAt:
    """The session's one local computation for (ideal, point), built on first use."""
    local = session.local_rings.get((ideal, point))
    if local is None:
        local = localring.LocalAt(session.ideals[ideal], session.points[point])
        session.local_rings[(ideal, point)] = local
    return local


def _execute(session: Session, cmd: Command, options: RunOptions) -> dict:
    name = cmd.name
    if name == "pdeg":
        value = kaehler.pdeg(session.towers[cmd.args["tower"]], cmd.args["reference"])
        return {"value": value, "reference": cmd.args["reference"]}
    if name == "trdeg":
        value = kaehler.trdeg(session.towers[cmd.args["tower"]], cmd.args["reference"])
        return {"value": value, "reference": cmd.args["reference"]}
    if name == "schroer":
        K = session.towers[cmd.args["tower"]]
        ref = cmd.args["reference"]
        p = kaehler.pdeg(K, ref)
        t = kaehler.trdeg(K, ref)
        return {"pdeg": p, "trdeg": t, "predicted_edim": p - t}
    if name == "edim-tensor":
        K = session.towers[cmd.args["tower"]]
        structure = artin.base_change_structure(K, _spec_from_args(cmd.args["spec"]))
        return {
            "edim": structure.edim,
            "residue_degree": structure.residue_degree,
            "orders": [K.p**m for m in structure.order_exponents],
            "total_degree": structure.total_extension_degree,
            "nilpotents": [rec.render() for rec in structure.nilpotents],
        }
    if name == "verify-structure":
        K = session.towers[cmd.args["tower"]]
        spec = _spec_from_args(cmd.args["spec"])
        report = artin.verify_structure_oracle(K, spec, cap=options.cap)
        return {
            "dimension_expected": report.dimension_expected,
            "dimension_ok": report.dimension_ok,
            "nilpotents": [
                {
                    "entry": c.entry_index,
                    "order": K.p**c.order_exponent,
                    "index_exact": c.index_exact,
                    "corrected": c.corrected,
                }
                for c in report.nilpotent_checks
            ],
            "quotient_expected": report.quotient_expected,
            "quotient_computed": report.quotient_computed,
            "quotient_ok": report.quotient_ok,
            "passed": report.passed,
        }
    if name == "height-one" and cmd.args["target"] == "tower":
        K = session.towers[cmd.args["tower"]]
        variable = cmd.args["variable"]
        # the walk of the one entry (t, n) has edim 1 exactly when t is in K^p,
        # for every n >= 1, and is_p_power_tower decides that by dt = 0
        jump = int(is_p_power_tower(K.base_var(variable)))
        return localring.StabilityReport(variable, (jump,) * cmd.args["n_max"], True).to_dict()
    if "point" in cmd.args:
        local = _local_ring(session, cmd.args["ideal"], cmd.args["point"])
        if name == "edim":
            return {"value": local.edim}
        if name == "ecodim":
            return {"value": local.ecodim}
        if name == "ejump":
            return local.report(cmd.args["exponents"]).to_dict()
        if name == "verify-bounds":
            return local.report(cmd.args["exponents"], strict=options.strict).to_dict()
        if name == "height-one":
            return local.height_one(cmd.args["variable"], cmd.args["n_max"]).to_dict()
    raise ParseError(f"unknown command {name!r}", cmd.line, 1)


# -- emission --------------------------------------------------------------------


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def emit_report(report: Report, fmt: str = "text") -> bytes:
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()
    lines = [f"{report.status} {report.command}"]
    payload = report.result if report.result is not None else report.error or {}
    for key in sorted(payload):
        lines.append(f"  {key}: {_render_value(payload[key])}")
    return ("\n".join(lines) + "\n").encode()


def emit_session(reports: list, fmt: str = "text") -> bytes:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "reports": [r.to_dict() for r in reports],
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    return b"".join(emit_report(r, "text") for r in reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ejump",
        description="Exact embedding-dimension jumps under purely inseparable base change.",
    )
    parser.add_argument("--input", default="-", help="session file ('-' for stdin)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--strict", action="store_true", help="abort when a proved bound fails")
    parser.add_argument("--cap", type=int, default=1024, help="structure-oracle dimension cap")
    ns = parser.parse_args(argv)

    if ns.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(ns.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    try:
        session = parse_session(text)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    options = RunOptions(strict=ns.strict, cap=ns.cap)
    reports = []
    exit_code = 0
    for cmd in session.commands:
        try:
            reports.append(run_command(session, cmd, options))
        except BoundViolated as exc:
            reports.append(
                Report(
                    command=cmd.text,
                    status="error",
                    result=None,
                    error={"type": "BoundViolated", "message": str(exc)},
                )
            )
            sys.stdout.buffer.write(emit_session(reports, ns.format))
            return 3
    if any(r.status == "error" for r in reports):
        exit_code = 2
    sys.stdout.buffer.write(emit_session(reports, ns.format))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
