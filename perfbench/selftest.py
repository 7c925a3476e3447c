"""Self-test of the benchmark: tiny runs pass, and wrong results fail every check.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise.  Each mutation takes a correct
result from a tiny run, breaks one thing in it, and requires the matching
check to report it.
"""

import copy
import json
import os
import sys

import run


def _tiny(workloads):
    """Small inputs per workload, taken from the real setups."""
    return {name: workloads.cheap_cases(name, w.setup(1)) for name, w in workloads.WORKLOADS.items()}


def _reports(results, command):
    """Every report of a session-round result whose command starts with `command`."""
    return [rep for reports in results for rep in reports if rep["command"].startswith(command)]


def _mutations(W, inputs, results):
    """(label, broken inputs, broken results, text the check must report)."""
    out = []

    def mutate(label, name, edit, expect, edit_inputs=None):
        ins, res = copy.deepcopy(inputs[name]), copy.deepcopy(results[name])
        edit(res)
        if edit_inputs:
            edit_inputs(ins)
        out.append((label, name, ins, res, expect))

    # fields
    def bump_edim(res):
        res[0]["edim"] += 1

    def bump_pdeg_prime(res):
        pb, pp, tb, tp = res[0]["kaehler"]
        res[0]["kaehler"] = (pb, pp + 1, tb, tp)

    def wrong_root(res):
        case = inputs["fields"][0]
        K = case.tower
        res[0]["roots"][0] = (case.elements[0] + K.one).payload

    def oracle_failure(res):
        res[0]["oracle"] = ["dimension"]

    mutate("fields: Artin edim against Kaehler pdeg - trdeg", "fields", bump_edim, "pdeg(K/k) - trdeg(K/k)")
    mutate("fields: pdeg over F_p against trdeg", "fields", bump_pdeg_prime, "pdeg(K/F_p) != trdeg(K/F_p)")
    mutate("fields: p_root(x^p) = x", "fields", wrong_root, "p_root(x^p) != x")
    mutate("fields: structure oracle", "fields", oracle_failure, "structure oracle failed")

    # sessions
    def edit_first(command, fn):
        def edit(res):
            fn(_reports(res, command)[0]["result"])

        return edit

    def cusp_edit(res):
        cusp = _reports(res[-1:], "cmd ejump")[0]["result"]
        cusp["ecodim_after"] = 0

    def swap_tower(ins):
        from ejump.tower import BaseField, FieldTower

        ins[0].tower = FieldTower(BaseField(7, ("s",)))

    mutate(
        "sessions: bound chain",
        "sessions",
        edit_first("cmd ejump", lambda r: r.update(bound_lemma=r["ejump"] - 1)),
        "<= pdeg - trdeg fails",
    )
    mutate(
        "sessions: ejump = edim_after - edim_before",
        "sessions",
        edit_first("cmd verify-bounds", lambda r: r.update(edim_after=r["edim_after"] + 1)),
        "ejump is not edim_after - edim_before",
    )
    mutate("sessions: cusp reproduction", "sessions", cusp_edit, "the cusp must give")
    mutate(
        "sessions: height-one stability",
        "sessions",
        edit_first("cmd height-one", lambda r: r.update(jumps=[0, 1], stable=True)),
        "not stable",
    )
    mutate(
        "sessions: verify-structure passes",
        "sessions",
        edit_first("cmd verify-structure", lambda r: r.update(passed=False)),
        "structure oracle failed",
    )
    mutate(
        "sessions: schroer prediction",
        "sessions",
        edit_first("cmd schroer", lambda r: r.update(predicted_edim=r["predicted_edim"] + 1)),
        "predicted edim",
    )
    mutate("sessions: rendered tower parses back", "sessions", lambda res: None, "does not parse back", swap_tower)

    def bump_separable_edim(res):
        next(rep for rep in res[0] if rep["command"] == "cmd edim I P")["result"]["value"] += 1

    mutate("sessions: edim against the Jacobian at a separable point", "sessions", bump_separable_edim, "Jacobian")

    # tail
    point_at = next(i for i, c in enumerate(inputs["tail"]) if c.is_point)
    pair_at = next(i for i, c in enumerate(inputs["tail"]) if not c.is_point)

    def break_chain(res):
        res[point_at]["bound_theorem"] = res[point_at]["bound_lemma"] - 1

    def times_variable(res):
        a = inputs["tail"][pair_at].args[0]
        res[pair_at] = res[pair_at] * a.gen(a.dom, a.arity, 0, a.total_degree() + 1)

    def small_point(ins):
        I, _, exponents = ins[point_at].args
        ins[point_at].args = (I, W.cusp_char3()[1], exponents)

    mutate("tail: bound chain at a pinned point", "tail", break_chain, "<= pdeg - trdeg fails")
    mutate("tail: pinned points have residue degree 9", "tail", lambda res: None, "not 9", small_point)
    mutate("tail: gcd divides both inputs", "tail", times_variable, "does not divide")
    return out


def _coprime_claim(W, pair):
    """A pair with a known common factor, answered with gcd 1."""
    a, b = pair.args
    common = a.gen(a.dom, a.arity, 0) + a.from_int(a.dom, a.arity, 1)
    return W.gcd_failures(a * common, b * common, a.from_int(a.dom, a.arity, 1))


def main() -> int:
    W, tracing = run._import_program()
    ok = True

    def report(label, passed, detail=""):
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}{': ' + detail if detail and not passed else ''}")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        report("BENCHMARK.json matches run.SPEC", json.load(handle) == run.SPEC)

    inputs = _tiny(W)
    results = {}
    for name, cases in inputs.items():
        res, latencies, failed = W.WORKLOADS[name].run_round(cases)
        problems = W.WORKLOADS[name].check(cases, res)
        results[name] = res
        report(f"tiny {name} run is correct", not problems and not failed, f"{failed} failed, {problems}")
        report(f"tiny {name} run times every operation", len(latencies) > 0 and all(s > 0 for s in latencies))

    for label, name, ins, res, expect in _mutations(W, inputs, results):
        problems = W.WORKLOADS[name].check(ins, res)
        report(f"wrong result caught, {label}", any(expect in p for p in problems), str(problems))

    pair = next(c for c in inputs["tail"] if not c.is_point)
    report("wrong result caught, tail: cofactors are coprime", "cofactors are not coprime" in _coprime_claim(W, pair))

    broken = W.SessionCase("base p=2 vars t\ntower K : base\ncmd verify-structure K roots t:20\n", None, None, None, False, False)
    _, _, failed = W.sessions_round([broken])
    report("a command reporting status error counts as a failed operation", failed == 1)

    poly = sys.modules["ejump.ff_arith.poly"]
    original = poly.poly_gcd
    tracer = tracing.Tracer()
    with tracer.installed():
        wrapped = all(getattr(sys.modules[m], "poly_gcd") is not original for m in ("ejump.ff_arith.ratfunc", "ejump.ff_arith.groebner"))
        W.fields_round(inputs["fields"])
        W.sessions_round(inputs["sessions"][-1:])
    report("tracing replaces poly_gcd where it was imported by name", wrapped)
    report("tracing restores the program on exit", poly.poly_gcd is original and sys.modules["ejump.ff_arith.ratfunc"].poly_gcd is original)
    layers = tracer.metrics()
    layers["trace.overhead_ratio"] = 1.0
    missing = [m["name"] for m in run.SPEC["per_layer"] if m["name"] not in layers]
    report("tracing yields every per-layer metric", not missing, str(missing))
    busy = ("poly.gcd.calls", "tower.arith.calls", "groebner.basis.calls", "cli.parse.self_s", "text.parse.calls")
    report("traced layers saw work", all(layers[k] > 0 for k in busy), str({k: layers[k] for k in busy}))

    ff = sys.modules["ejump.ff_arith"]
    # a hypersurface with the point's equations: several generators, so S-pairs
    case = next(c for c in inputs["sessions"] if c.ideal is not None)
    ideal = ff.IdealPresentation(
        case.ideal.coeff_field, case.ideal.varnames, case.ideal.generators + case.point.generators
    )
    tracer = tracing.Tracer()
    with tracer.installed():
        gb = ff.groebner_basis(ideal)
        after_basis = tracer.metrics()
        contained = all(ff.ideal_contains(gb, g) for g in gb.generators)
    after_tests = tracer.metrics()
    key = "groebner.normal_form.zero_ratio.counted_calls"
    report(
        "zero_ratio counts S-pair reductions and not membership tests",
        contained
        and after_basis[key] > 0
        and after_tests[key] == after_basis[key]
        and after_tests["groebner.normal_form.calls"] > after_basis["groebner.normal_form.calls"],
        f"{after_basis[key]} then {after_tests[key]} counted",
    )

    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
