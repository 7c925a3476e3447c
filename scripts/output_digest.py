#!/usr/bin/env python3
"""Print one sha256 per output family, to compare two trees byte for byte.

    python3 scripts/output_digest.py

Families:
- sessions-json: the CLI JSON of every `sessions` benchmark case, seeds 1 and 2;
- tail-reports: the jump reports of the pinned `tail` points;
- fields: the seed-1 `fields` integers and the rendered p-th roots;
- towers: `describe()` of every `fields` and `sessions` pool tower;
- acceptance: the pass flag and detail string of every acceptance criterion;
- bound-reports: the jump reports of `random_bound_instance` seeds 0-59, with
  all-ones exponents and, when d = 2, also (1, 0) and (0, 2);
- gcds: `poly_gcd` of the pinned F_5 pairs of `tail` and of planted-factor
  pairs (a*c, b*c) over F_2, F_3 and F_5 in 2-3 variables, seeds 0-299;
- ratfuncs: the rendered a*b, a+b, a-b and a/b of fractions over F_2, F_3
  and F_5 in 1-3 variables, seeds 0-299, where each operand is a
  polynomial, has a constant denominator before normalization, or is general,
  and shares a planted factor with the other one half of the time;
- session-pairs: the CLI JSON of sessions that ask about several (ideal,
  point) pairs with their commands interleaved, one of them not contained in
  its point, and of each pair alone; then the seed-1 `sessions` cases with
  `height-one I P ... max 4`;
- oracle: every field of the structure oracle's report on the `fields` pool
  towers with their oracle radicand at exponents 1 and 2, on criterion 5's
  specs, and on `instances.rational_oracle_specs`.
- nonreduced: the CLI JSON of two sessions at non-reduced points,
  ((x^3 + t)^2, y) over F_3(t) and ((x^2 + t)^2 (x + 1), y) over F_2(t), and
  of the seed-1 `sessions` cases with one generator of their point squared.
- jet: `localring.classical_jacobian_edim` at `random_bound_instance` and
  `random_separable_point_instance` seeds 0-59.
- tower-heights: the CLI JSON of `height-one K var v max 4` for every base
  variable v of every seed-1 and seed-2 `fields` and `sessions` pool tower.
- roots: `p_power_root` at q = p and p^2 on x^q, x^q + t, t and x^q again,
  with x = g + 1/(t + 1) for the top generator g (t in the base field), all
  on one algebra per seed-1 `fields` and `sessions` pool tower.
- inverses: `TowerElement.inv()` of four elements a + b*g per seed-1 `fields`
  and `sessions` pool tower, with a and b seeded `random_tower_element` draws
  and g the top generator (t in the base field), and the error types raised
  for 0 and for u - t in the reducible tower u^2 - t^2 over F_3(t).

The benchmark's workload module supplies the inputs and is only imported.
"""

import dataclasses
import hashlib
import json
import os
import random
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

from ejump import artin, cli, kaehler, localring  # noqa: E402
from ejump.acceptance import run_all, structure_oracle_specs  # noqa: E402
from ejump.ff_arith import MultiPoly, PrimeField, RatFunc, poly_gcd, render_ratfunc  # noqa: E402
from ejump.errors import ExactAlgebraError  # noqa: E402
from ejump.flat import p_power_root  # noqa: E402
from ejump.instances import (  # noqa: E402
    random_bound_instance,
    random_separable_point_instance,
    random_tower_element,
    rational_oracle_specs,
)
from ejump.tower import FieldTower, TowerElement, p_root_tower  # noqa: E402


def _session_json(text: str) -> str:
    session = cli.parse_session(text)
    reports = [cli.run_command(session, cmd, cli.RunOptions()) for cmd in session.commands]
    return cli.emit_session(reports, "json").decode()


def _sessions_json() -> list:
    out = []
    for seed in (1, 2):
        for case in workloads.sessions_setup(seed):
            out.append(_session_json(case.text))
    return out


def _tail_reports() -> list:
    cases = sorted(workloads.tail_setup(1), key=lambda c: c.name)
    return [(c.name, localring.ejump_at_point(*c.args).to_dict()) for c in cases if c.is_point]


def _fields() -> list:
    out = []
    for case in workloads.fields_setup(1):
        K = case.tower
        row = [tuple(f(K, ref) for f in (kaehler.pdeg, kaehler.trdeg) for ref in ("base", "prime"))]
        row.append(artin.base_change_structure(K, artin.InseparableExtensionSpec.height_one(K.base)).edim)
        row.extend(p_root_tower(x**K.p).render() for x in case.elements)
        if case.spec is not None:
            row.append(artin.verify_structure_oracle(K, case.spec).failures())
        out.append(row)
    return out


def _towers() -> list:
    fields = [case.tower.describe() for case in workloads.fields_setup(1)]
    sessions = [case.tower.describe() for case in workloads.sessions_setup(1) if case.tower is not None]
    return fields + sessions


def _acceptance() -> list:
    return [(r.number, r.passed, r.detail) for r in run_all(echo=None)]


def _bound_reports() -> list:
    out = []
    for seed in range(60):
        I, P, exponents = random_bound_instance(random.Random(seed))
        for e in [exponents] + ([(1, 0), (0, 2)] if P.base.d == 2 else []):
            out.append((seed, e, localring.ejump_at_point(I, P, e).to_dict()))
    return out


_PAIR_DECLARATIONS = {
    "I": "ideal I vars x,y : (x - 1)*(x^2 + y^3 + t)",
    "J": "ideal J vars x,y : x*(x - 1), (y^3 + t)*(y - t)",
    "P": "point P vars x,y : x, y^3 + t",
    "Q": "point Q vars x,y : x - 1, y - t",
    "R": "point R vars x,y : x + 1, y",
}
_PAIR_COMMANDS = (
    "cmd edim {0} {1}",
    "cmd ejump {0} {1} roots t:1",
    "cmd ecodim {0} {1}",
    "cmd verify-bounds {0} {1} roots t:2",
    "cmd height-one {0} {1} var t max 3",
    "cmd ejump {0} {1} roots t:1",
)


def _session_pairs() -> list:
    all_pairs = [("I", "P"), ("J", "Q"), ("I", "R"), ("I", "Q"), ("J", "R"), ("J", "P")]
    out = []
    for pairs in [all_pairs, all_pairs[::-1]] + [[pair] for pair in all_pairs]:
        names = sorted({name for pair in pairs for name in pair})
        lines = ["base p=3 vars t"] + [_PAIR_DECLARATIONS[name] for name in names]
        lines += [command.format(*pair) for command in _PAIR_COMMANDS for pair in pairs]
        out.append(_session_json("\n".join(lines) + "\n"))
    for case in workloads.sessions_setup(1):
        lines = case.text.splitlines()
        lines = [re.sub(r" max \d+$", " max 4", line) if line.startswith("cmd height-one I P") else line for line in lines]
        out.append(_session_json("\n".join(lines) + "\n"))
    return out


def _oracle() -> list:
    pool = [(case.tower, case.spec.entries[0][0]) for case in workloads.fields_setup(1)]
    cases = [(K, artin.InseparableExtensionSpec.of([(a, n)])) for K, a in pool for n in (1, 2)]
    cases += structure_oracle_specs() + rational_oracle_specs()
    return [dataclasses.asdict(artin.verify_structure_oracle(K, spec)) for K, spec in cases]


_NON_REDUCED_SESSIONS = tuple(
    declarations
    + "cmd edim I P\n"
    "cmd ecodim I P\n"
    "cmd ejump I P roots t:1\n"
    "cmd verify-bounds I P roots t:1\n"
    "cmd height-one I P var t max 2\n"
    for declarations in (
        "base p=3 vars t\n"
        "ideal I vars x,y : y^2 - x^6 - 2*t*x^3 - t^2\n"
        "point P : x^6 + 2*t*x^3 + t^2, y\n",
        "base p=2 vars t\n"
        "ideal I vars x,y : y^2 + x^5 + x^4 + t^2*x + t^2\n"
        "point P : x^5 + x^4 + t^2*x + t^2, y\n",
    )
)


def _square_a_generator(text: str, k: int) -> str:
    """The session with generator k (mod their number) of its point P squared."""
    lines = text.splitlines()
    for j, line in enumerate(lines):
        if line.startswith("point P : "):
            gens = line[len("point P : ") :].split(", ")
            gens[k % len(gens)] = f"({gens[k % len(gens)]})^2"
            lines[j] = "point P : " + ", ".join(gens)
    return "\n".join(lines) + "\n"


def _nonreduced() -> list:
    texts = list(_NON_REDUCED_SESSIONS)
    texts += [_square_a_generator(case.text, k) for k, case in enumerate(workloads.sessions_setup(1))]
    return [_session_json(text) for text in texts]


def _jet() -> list:
    out = []
    for draw in (random_bound_instance, random_separable_point_instance):
        for seed in range(60):
            I, P = draw(random.Random(seed))[:2]
            out.append((draw.__name__, seed, localring.classical_jacobian_edim(I, P)))
    return out


def _tower_heights() -> list:
    towers = []
    for seed in (1, 2):
        towers += [case.tower for case in workloads.fields_setup(seed)]
        towers += [case.tower for case in workloads.sessions_setup(seed) if case.tower is not None]
    out = []
    for K in towers:
        session = cli.Session(base=K.base, towers={"K": K})
        for v in K.base.varnames:
            args = {"target": "tower", "tower": "K", "variable": v, "n_max": 4}
            cmd = cli.Command(1, f"cmd height-one K var {v} max 4", "height-one", args)
            out.append(cli.emit_report(cli.run_command(session, cmd), "json").decode())
    return out


def _roots() -> list:
    towers = [case.tower for case in workloads.fields_setup(1)]
    towers += [case.tower for case in workloads.sessions_setup(1) if case.tower is not None]
    out = []
    for pool_tower in towers:
        K = FieldTower(pool_tower.base, pool_tower.layers)  # an algebra no earlier root has used
        t = K.base_var(K.base.varnames[0])
        g = K.gen(K.layers[-1].name) if K.layers else t
        x = g + K.one / (t + K.one)
        for r in (1, 2):
            xq = x ** (K.p**r)
            for target in (xq, xq + t, t, xq):
                root = p_power_root(K.algebra, target.payload, r)
                out.append(None if root is None else TowerElement(K, root).render())
    return out


def _inverse(x: TowerElement) -> str:
    """The rendered inverse of x, or the type of the error it raises."""
    try:
        return x.inv().render()
    except ExactAlgebraError as err:
        return type(err).__name__


def _inverses() -> list:
    towers = [case.tower for case in workloads.fields_setup(1)]
    towers += [case.tower for case in workloads.sessions_setup(1) if case.tower is not None]
    out = []
    for seed, K in enumerate(towers):
        rng = random.Random(seed)
        g = K.gen(K.layers[-1].name) if K.layers else K.base_var(K.base.varnames[0])
        for _ in range(4):
            a, b = (random_tower_element(rng, K, size=2) for _ in range(2))
            out.append(_inverse(a + b * g))
    K = cli.parse_session("base p=3 vars t\ntower K : base adjoin u alg u^2 - t^2\n").towers["K"]
    out += [_inverse(K.zero), _inverse(K.gen("u") - K.base_var("t"))]
    return out


def _random_poly(rng: random.Random, p: int, arity: int) -> MultiPoly:
    items = [(tuple(rng.randint(0, 3) for _ in range(arity)), rng.randint(1, p - 1)) for _ in range(rng.randint(1, 4))]
    f = MultiPoly.from_terms(PrimeField(p), arity, items)
    return MultiPoly.from_int(f.dom, arity, 1) if f.is_zero else f


def _gcds() -> list:
    def terms(f: MultiPoly) -> list:
        return sorted(f.terms.items())

    pinned = sorted((c for c in workloads.tail_setup(1) if not c.is_point), key=lambda c: c.name)
    out = [(c.name, terms(poly_gcd(*c.args))) for c in pinned]
    for seed in range(300):
        rng = random.Random(seed)
        p, arity = rng.choice((2, 3, 5)), rng.choice((2, 3))
        a, b, c = (_random_poly(rng, p, arity) for _ in range(3))
        out.append((seed, p, arity, terms(poly_gcd(a * c, b * c))))
    return out


def _random_fraction(rng: random.Random, p: int, arity: int, factor: MultiPoly) -> RatFunc:
    num = _random_poly(rng, p, arity) * factor
    kind = rng.choice(("polynomial", "constant", "general"))
    if kind == "polynomial":
        den = MultiPoly.from_int(num.dom, arity, 1)
    elif kind == "constant":
        den = MultiPoly.from_int(num.dom, arity, rng.randint(1, p - 1))
    else:
        den = _random_poly(rng, p, arity)
        if rng.random() < 0.5:
            den = den * factor
    return RatFunc(num, den)


def _ratfuncs() -> list:
    names = ("t1", "t2", "t3")
    out = []
    for seed in range(300):
        rng = random.Random(seed)
        p, arity = rng.choice((2, 3, 5)), rng.choice((1, 2, 3))
        one = MultiPoly.from_int(PrimeField(p), arity, 1)
        factor = _random_poly(rng, p, arity) if rng.random() < 0.5 else one
        a, b = (_random_fraction(rng, p, arity, factor) for _ in range(2))
        values = [a * b, a + b, a - b] + ([] if b.is_zero else [a / b])
        out.append((seed, p, arity, [render_ratfunc(v, names[:arity]) for v in values]))
    return out


FAMILIES = (
    ("sessions-json", _sessions_json),
    ("tail-reports", _tail_reports),
    ("fields", _fields),
    ("towers", _towers),
    ("acceptance", _acceptance),
    ("bound-reports", _bound_reports),
    ("gcds", _gcds),
    ("ratfuncs", _ratfuncs),
    ("session-pairs", _session_pairs),
    ("oracle", _oracle),
    ("nonreduced", _nonreduced),
    ("jet", _jet),
    ("tower-heights", _tower_heights),
    ("roots", _roots),
    ("inverses", _inverses),
)


def main() -> None:
    for name, family in FAMILIES:
        text = json.dumps(family(), sort_keys=True)
        print(f"{name} {hashlib.sha256(text.encode()).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
