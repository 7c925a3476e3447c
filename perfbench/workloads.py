"""The three workloads: how each builds its inputs, runs one round, and is checked.

A workload is a `Workload` of three functions:

- `setup(seed)` builds the inputs as program objects;
- `run_round(inputs)` performs every operation once and returns the
  results, the latency of each operation in seconds, and how many
  operations failed (raised a domain error or reported `status: error`);
- `check(inputs, results)` returns the list of failed correctness checks.
  It runs outside the timed region and never compares against a stored
  copy of earlier output: every check is an identity, a bound or a second
  route.

Object pools (towers, points, hypersurfaces) come from pinned seeds, because
their cost varies by two orders of magnitude from one draw to the next.  The
run seed draws what is asked about them: the coefficients of the elements to
root, the command arguments and the order of the operations.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

from ejump import artin, cli, ff_arith, kaehler, localring
from ejump.errors import ExactAlgebraError
from ejump.ff_arith import IdealPresentation, MultiPoly, PrimeField, poly_from_text, render_poly, render_ratfunc
from ejump.instances import (
    cusp_char3,
    random_base_element,
    random_hypersurface_through,
    random_point,
    random_tower,
)
from ejump.tower import BaseField, FieldTower, TowerElement, p_root_tower

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PRIMES = (2, 3, 5)
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run_round: Callable
    check: Callable


@dataclass(frozen=True)
class Failed:
    """The result of an operation that raised a domain error."""

    error: str
    message: str


def _timed(fn, *args):
    """(result, seconds); a domain error is returned as a `Failed` result."""
    start = clock()
    try:
        result = fn(*args)
    except ExactAlgebraError as exc:
        result = Failed(type(exc).__name__, str(exc))
    return result, clock() - start


def _chain_failures(label: str, r: dict) -> list:
    """The paper's bound chain, recomputed from the integers of a jump report."""
    out = []
    d = r["base_dim"]
    if r["ejump"] != r["edim_after"] - r["edim_before"]:
        out.append(f"{label}: ejump is not edim_after - edim_before")
    if not 0 <= r["ejump"] <= r["bound_lemma"] <= r["bound_theorem"]:
        out.append(f"{label}: 0 <= ejump <= edim(kappa x k') <= pdeg - trdeg fails")
    if r["edim_after"] > r["edim_before"] + d or r["ecodim_after"] > d:
        out.append(f"{label}: ambient-dimension corollary fails")
    if not all(r["satisfied"].values()):
        out.append(f"{label}: report flags a violated bound")
    return out


# -- fields: invariants of random towers ---------------------------------------

FIELDS_POOL_SEED = 2014
FIELDS_PER_STRATUM = 8  # towers per (p, d)
ORACLE_DIM = 48  # largest concrete algebra the structure oracle is asked to build
FIELDS_DIM = 8  # largest tower degree over the transcendental base; the tail holds larger


@dataclass
class FieldCase:
    tower: FieldTower
    elements: list
    spec: artin.InseparableExtensionSpec | None


def _oracle_spec(rt) -> artin.InseparableExtensionSpec | None:
    """A small spec fixed by the tower: its first inseparable radicand, else t.

    The exponent is 2 when the concrete algebra stays within ORACLE_DIM.
    """
    K = rt.tower
    a = rt.inseparable_radicands[0] if rt.inseparable_radicands else K.base.field.gen(0)
    degree = K.degree_over_transcendental_base()
    for n in (2, 1):
        if degree * K.p**n <= ORACLE_DIM:
            return artin.InseparableExtensionSpec.of([(a, n)])
    return None


def _random_elements(rng: random.Random, K: FieldTower) -> list:
    """a and a/b for a = c0 + c1*t + c2*g and b = 1 + c3*t.

    t is the first base variable and g the top generator (t again for the base
    field); the c_i are drawn from F_p without zero, so the cost of rooting
    them depends on the tower and not on the draw.
    """
    t = K.base_var(K.base.varnames[0])
    g = K.gen(K.layers[-1].name) if K.layers else t

    def c():
        return K.from_int(rng.randint(1, K.p - 1))

    a = c() + c() * t + c() * g
    return [a, a / (K.one + c() * t)]


def fields_setup(seed: int) -> list:
    pool = random.Random(FIELDS_POOL_SEED)
    rng = random.Random(seed)
    cases = []
    for p in PRIMES:
        for d in (1, 2):
            for _ in range(FIELDS_PER_STRATUM):
                rt = random_tower(pool, p, d, max_layers=3, max_exp=2, dim_budget=FIELDS_DIM)
                elements = _random_elements(rng, rt.tower)
                cases.append(FieldCase(rt.tower, elements, _oracle_spec(rt)))
    rng.shuffle(cases)
    return cases


def _fields_queries(case: FieldCase):
    """The invariant queries about one tower, each one operation: (key, function)."""
    # a fresh tower object, so no round starts with another round's flat model
    K = FieldTower(case.tower.base, case.tower.layers)
    yield "kaehler", lambda: tuple(f(K, ref) for f in (kaehler.pdeg, kaehler.trdeg) for ref in ("base", "prime"))
    height_one = artin.InseparableExtensionSpec.height_one(K.base)
    yield "edim", lambda: artin.base_change_structure(K, height_one).edim
    for x in case.elements:
        yield "roots", lambda x=x: p_root_tower(TowerElement(K, x.payload) ** K.p).payload
    if case.spec is not None:
        yield "oracle", lambda: artin.verify_structure_oracle(K, case.spec).failures()


def fields_round(cases: list) -> tuple:
    """Results per tower: {"kaehler": (pdeg/k, pdeg/F_p, trdeg/k, trdeg/F_p), "edim", "roots", "oracle"}."""
    results, latencies, failed = [], [], 0
    for case in cases:
        answers = {"roots": []}
        for key, query in _fields_queries(case):
            value, seconds = _timed(query)
            latencies.append(seconds)
            if isinstance(value, Failed):
                failed += 1
            if key == "roots":
                answers["roots"].append(value)
            else:
                answers[key] = value
        results.append(answers)
    return results, latencies, failed


def fields_check(cases: list, results: list) -> list:
    out = []
    for i, (case, r) in enumerate(zip(cases, results)):
        label = f"tower {i} ({case.tower.describe()})"
        # a query that raised is a failed operation, counted by the round
        if not isinstance(r["kaehler"], Failed):
            pdeg_base, pdeg_prime, trdeg_base, trdeg_prime = r["kaehler"]
            if pdeg_prime != trdeg_prime:
                out.append(f"{label}: pdeg(K/F_p) != trdeg(K/F_p)")
            if not isinstance(r["edim"], Failed) and r["edim"] != pdeg_base - trdeg_base:
                out.append(f"{label}: edim(K x k^(1/p)) != pdeg(K/k) - trdeg(K/k)")
        for root, x in zip(r["roots"], case.elements):
            if not isinstance(root, Failed) and root != x.payload:
                out.append(f"{label}: p_root(x^p) != x for x = {x.render()}")
        if r.get("oracle") and not isinstance(r["oracle"], Failed):
            out.append(f"{label}: structure oracle failed {r['oracle']}")
    return out


FIELDS = Workload("fields", fields_setup, fields_round, fields_check)


# -- sessions: the CLI, declaration by declaration and command by command ------

SESSIONS_POOL_SEED = 1407
POINT_DEGREE_BUDGET = 6


@dataclass
class SessionCase:
    text: str
    tower: FieldTower | None  # the generated tower `K`, to check the rendering
    ideal: IdealPresentation | None
    point: localring.ClosedPoint | None
    separable: bool
    cusp: bool


def _tower_decl(K: FieldTower) -> str:
    # describe() is "<base> adjoin ...", the session syntax after the base
    return " ".join(["base"] + K.describe().split(" ")[1:])


def _session_text(rng: random.Random, base: BaseField, rt, I, P) -> str:
    """One session about the tower and the point; the seed draws the light arguments.

    The costly commands (the oracle, height-one, the point commands) take
    arguments fixed by the pool, so that their cost does not depend on the draw.
    """
    names = base.varnames
    vs = P.varnames
    K = rt.tower
    pinned = rt.inseparable_radicands[0] if rt.inseparable_radicands else base.field.gen(0)
    drawn = random_base_element(rng, base, allow_fraction=False)
    n = rng.randint(1, 2)
    if K.degree_over_transcendental_base() * base.p**n > ORACLE_DIM:
        n = 1
    roots = ",".join(f"{t}:1" for t in names)
    lines = [
        f"base p={base.p} vars {','.join(names)}",
        f"tower K : {_tower_decl(K)}",
        f"ideal I vars {','.join(vs)} : {', '.join(render_poly(g, vs) for g in I.generators)}",
        f"point P : {', '.join(render_poly(g, vs) for g in P.generators)}",
        f"cmd pdeg K over {rng.choice(('base', 'prime'))}",
        f"cmd trdeg K over {rng.choice(('base', 'prime'))}",
        "cmd schroer K",
        f"cmd edim-tensor K roots {render_ratfunc(drawn, names)}:{n}",
        f"cmd verify-structure K roots {render_ratfunc(pinned, names)}:1",
        f"cmd height-one K var {names[0]} max 2",
        "cmd edim I P",
        "cmd ecodim I P",
        f"cmd ejump I P roots {roots}",
        f"cmd verify-bounds I P roots {roots}",
        f"cmd height-one I P var {names[-1]} max 2",
    ]
    return "\n".join(lines) + "\n"


def _cusp3_text() -> str:
    """The characteristic-3 cusp fixture with the commands of the char-2 demo."""
    I, P = cusp_char3()
    vs = I.varnames
    demo = _read_cusp_session()
    commands = [line for line in demo.splitlines() if line.startswith("cmd ")]
    return "\n".join(
        [
            "base p=3 vars t",
            "tower K : base adjoin u alg u^3 + 2*t",
            f"ideal I vars {','.join(vs)} : {render_poly(I.generators[0], vs)}",
            f"point P : {', '.join(render_poly(g, vs) for g in P.generators)}",
        ]
        + commands
    ) + "\n"


def _read_cusp_session() -> str:
    with open(os.path.join(ROOT, "scripts", "cusp_session.txt"), encoding="utf-8") as handle:
        return handle.read()


def sessions_setup(seed: int) -> list:
    pool = random.Random(SESSIONS_POOL_SEED)
    rng = random.Random(seed)
    cases = []
    for p in PRIMES:
        for d in (1, 2):
            for nvars in (1, 2, 3):
                for separable in (False, True):
                    base = BaseField(p, ("t",) if d == 1 else ("t1", "t2"))
                    rt = random_tower(pool, p, d, max_layers=2, max_exp=2, dim_budget=8)
                    P = random_point(pool, base, nvars, allow_insep=not separable, degree_budget=POINT_DEGREE_BUDGET)
                    I = random_hypersurface_through(pool, P)
                    text = _session_text(rng, base, rt, I, P)
                    cases.append(SessionCase(text, rt.tower, I, P, separable, False))
    rng.shuffle(cases)
    cases.append(SessionCase(_read_cusp_session(), None, None, None, False, True))
    cases.append(SessionCase(_cusp3_text(), None, None, None, False, True))
    for case in cases:
        cli.parse_session(case.text)  # every session is valid input
    return cases


def _run_session(text: str) -> tuple:
    """Parse, run and emit one session the way `ejump --format json` does.

    Returns the reports and one latency per command: its own run time plus an
    equal share of the session's parse and emission.
    """
    start = clock()
    session = cli.parse_session(text)
    parsed = clock()
    reports, run_times = [], []
    options = cli.RunOptions()
    for cmd in session.commands:
        t = clock()
        reports.append(cli.run_command(session, cmd, options))
        run_times.append(clock() - t)
    t = clock()
    document = cli.emit_session(reports, "json")
    shared = (parsed - start + clock() - t) / len(run_times)
    return json.loads(document)["reports"], [s + shared for s in run_times]


def sessions_round(cases: list) -> tuple:
    results, latencies = [], []
    for case in cases:
        reports, times = _run_session(case.text)
        results.append(reports)
        latencies.extend(times)
    failed = sum(rep["status"] != "ok" for reports in results for rep in reports)
    return results, latencies, failed


def sessions_check(cases: list, results: list) -> list:
    out = []
    for i, (case, reports) in enumerate(zip(cases, results)):
        label = f"session {i}"
        if case.tower is not None and cli.parse_session(case.text).towers["K"] != case.tower:
            out.append(f"{label}: rendered tower does not parse back to the generated tower")
        for rep in reports:
            where = f"{label} `{rep['command']}`"
            if rep["status"] != "ok":
                continue  # a failed operation, counted by the round
            name = rep["command"].split()[1]
            r = rep["result"]
            if name in ("ejump", "verify-bounds"):
                out.extend(_chain_failures(where, r))
                if case.cusp and (r["ejump"], r["ecodim_after"], r["bound_theorem"]) != (1, 1, 1):
                    out.append(f"{where}: the cusp must give ejump 1, ecodim_after 1, bound_theorem 1")
            elif name == "height-one":
                if not r["stable"] or len(set(r["jumps"])) != 1:
                    out.append(f"{where}: height-one jumps are not stable")
            elif name == "verify-structure":
                if not r["passed"]:
                    out.append(f"{where}: structure oracle failed")
            elif name == "schroer":
                if r["predicted_edim"] != r["pdeg"] - r["trdeg"] or r["predicted_edim"] < 0:
                    out.append(f"{where}: predicted edim is not pdeg - trdeg >= 0")
            elif name == "edim" and case.separable:
                if r["value"] != localring.classical_jacobian_edim(case.ideal, case.point):
                    out.append(f"{where}: edim differs from the Jacobian count at a separable point")
    return out


SESSIONS = Workload("sessions", sessions_setup, sessions_round, sessions_check)


# -- tail: pinned cases where the gcd dominates ---------------------------------

PINNED_TAIL = os.path.join(HERE, "pinned_tail.json")


@dataclass
class TailCase:
    name: str
    args: tuple  # (I, P, exponents) for a point, (a, b) for a gcd pair

    @property
    def is_point(self) -> bool:
        return len(self.args) == 3


def tail_setup(seed: int) -> list:
    with open(PINNED_TAIL, encoding="utf-8") as handle:
        pinned = json.load(handle)
    cases = []
    for spec in pinned["points"]:
        base = BaseField(spec["p"], tuple(spec["base_vars"]))
        vs = tuple(spec["vars"])
        I = IdealPresentation(base.field, vs, tuple(poly_from_text(base.field, vs, g) for g in spec["ideal"]))
        P = localring.ClosedPoint(base, vs, tuple(poly_from_text(base.field, vs, g) for g in spec["point"]))
        cases.append(TailCase(spec["name"], (I, P, tuple(spec["exponents"]))))
    for spec in pinned["gcd_pairs"]:
        dom = PrimeField(spec["p"])
        a, b = (MultiPoly.from_terms(dom, spec["arity"], spec[k]) for k in ("a", "b"))
        cases.append(TailCase(spec["name"], (a, b)))
    random.Random(seed).shuffle(cases)
    return cases


def tail_round(cases: list) -> tuple:
    results, latencies = [], []
    for case in cases:
        if case.is_point:
            result, seconds = _timed(localring.ejump_at_point, *case.args)
            if not isinstance(result, Failed):
                result = result.to_dict()
        else:
            # through the package, so that a traced run sees this call too
            result, seconds = _timed(ff_arith.poly_gcd, *case.args)
        results.append(result)
        latencies.append(seconds)
    return results, latencies, sum(isinstance(r, Failed) for r in results)


def tail_check(cases: list, results: list) -> list:
    out = []
    for case, r in zip(cases, results):
        if isinstance(r, Failed):
            continue  # a failed operation, counted by the round
        if case.is_point:
            P = case.args[1]
            if P.residue_degree() != 9:
                out.append(f"{case.name}: residue degree {P.residue_degree()}, not 9")
            out.extend(_chain_failures(case.name, r))
        else:
            out.extend(f"{case.name}: {msg}" for msg in gcd_failures(*case.args, r))
    return out


def gcd_failures(a: MultiPoly, b: MultiPoly, g: MultiPoly) -> list:
    """Check g = gcd(a, b) with sympy: g divides both and the cofactors are coprime."""
    import sympy

    p = a.dom.p
    gens = sympy.symbols(f"v0:{a.arity}")

    def to_sympy(f: MultiPoly):
        return sympy.Poly.from_dict(dict(f.terms), *gens, modulus=p)

    A, B, G = to_sympy(a), to_sympy(b), to_sympy(g)
    if G.is_zero:
        return ["gcd is zero"]
    out = []
    qa, ra = A.div(G)
    qb, rb = B.div(G)
    if not ra.is_zero or not rb.is_zero:
        out.append("gcd does not divide both inputs")
    elif sympy.gcd(qa, qb).total_degree() != 0:
        out.append("cofactors are not coprime")
    return out


TAIL = Workload("tail", tail_setup, tail_round, tail_check)

WORKLOADS = {w.name: w for w in (FIELDS, SESSIONS, TAIL)}


def cheap_cases(name: str, cases: list) -> list:
    """A few cheap cases of a workload, each kind represented: for the self-test and the tracing overhead."""
    if name == "fields":
        return cases[:4]
    if name == "sessions":
        generated = [c for c in cases if not c.cusp]
        return [
            next(c for c in generated if c.separable),
            next(c for c in generated if not c.separable),
        ] + [c for c in cases if c.cusp]
    point = next(c for c in cases if c.is_point and c.name.endswith("draw7"))
    pair = min((c for c in cases if not c.is_point), key=lambda c: len(c.args[0].terms))
    return [point, pair]
