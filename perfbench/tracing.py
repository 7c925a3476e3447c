"""Per-layer spans and counters, installed by wrapping ejump's public functions.

A wrapper replaces every binding of its function: the defining module, the
package re-exports and every module that imported the function by name
(`ratfunc` and `groebner` import `poly_gcd` that way).  Methods are replaced
on their class.  Spans keep a stack so each one records its self time, that
is its duration minus the time of the spans it encloses; counters only count
and leave their time to the enclosing span.

Nothing here is active unless `Tracer.installed()` is entered, so the
end-to-end measurements run the unmodified program.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (layer name, module, attribute) for every span; `Class.method` names a method
SPANS = (
    ("poly.gcd", "ejump.ff_arith.poly", "poly_gcd"),
    ("poly.divexact", "ejump.ff_arith.poly", "divexact"),
    ("groebner.basis", "ejump.ff_arith.groebner", "groebner_basis"),
    ("groebner.normal_form", "ejump.ff_arith.groebner", "normal_form"),
    ("tower.arith", "ejump.tower", "TowerElement.__add__"),
    ("tower.arith", "ejump.tower", "TowerElement.__sub__"),
    ("tower.arith", "ejump.tower", "TowerElement.__neg__"),
    ("tower.arith", "ejump.tower", "TowerElement.__mul__"),
    ("tower.arith", "ejump.tower", "TowerElement.__truediv__"),
    ("tower.arith", "ejump.tower", "TowerElement.__pow__"),
    ("flat.flatten", "ejump.flat", "FlatModel.flatten"),
    ("flat.unflatten", "ejump.flat", "FlatModel.unflatten"),
    ("flat.p_power_root", "ejump.flat", "p_power_root"),
    ("kaehler.pdeg", "ejump.kaehler", "pdeg"),
    ("kaehler.differential_is_zero", "ejump.kaehler", "differential_is_zero"),
    ("artin.structure", "ejump.artin", "base_change_structure"),
    ("artin.oracle", "ejump.artin", "verify_structure_oracle"),
    ("localring.edim", "ejump.localring", "edim_at_point"),
    ("localring.base_change", "ejump.localring", "base_change_point"),
    ("localring.residue_tower", "ejump.localring", "ClosedPoint.residue_tower"),
    ("cli.parse", "ejump.cli", "parse_session"),
    ("cli.run", "ejump.cli", "run_command"),
    ("cli.emit", "ejump.cli", "emit_session"),
    ("cli.emit", "ejump.cli", "emit_report"),
)

# (metric name, module, attribute) for calls counted without a span: these
# are too frequent to time cheaply
COUNTERS = (
    ("poly.mul.calls", "ejump.ff_arith.poly", "MultiPoly.__mul__"),
    ("tower.inv.calls", "ejump.tower", "TowerElement.inv"),
    ("flat.solver.rows", "ejump.flat", "LinearSolver.add_equation"),
    ("flat.invert.calls", "ejump.flat", "FlatAlgebra.invert"),
    ("text.parse.calls", "ejump.ff_arith.text", "parse_expression"),
)


def _any_call(args) -> bool:
    return True


def _s_pair_reduction(args) -> bool:
    """True for a `normal_form` call made by the S-pair loop of `groebner_basis`.

    That loop reduces each S-polynomial against its working list `basis`.
    The inter-reduction after the loop passes a new list of the other
    generators, and `reduce_modulo` (membership tests) a basis' tuple, so
    neither is counted.  Frame 2 is the caller of the span wrapper.
    """
    caller = sys._getframe(2)
    return (
        caller.f_code.co_name == "groebner_basis"
        and len(args) > 1
        and args[1] is caller.f_locals.get("basis")
    )


# span -> (ratio metric, which calls count, predicate): the share of counted
# calls with a wasted outcome.  A gcd of 1 over every poly_gcd call, and an
# S-polynomial that reduces to zero over the S-pair reductions of Buchberger's
# loop.
OUTCOMES = {
    "poly.gcd": ("poly.gcd.coprime_ratio", _any_call, lambda g: g.is_constant),
    "groebner.normal_form": ("groebner.normal_form.zero_ratio", _s_pair_reduction, lambda r: r.is_zero),
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counted = Counter()
        self.wasted = Counter()
        self._stack = [0.0]

    def span(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        _, counts, outcome = OUTCOMES.get(name, (None, None, None))
        counted, wasted = self.counted, self.wasted
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            count = outcome is not None and counts(args)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                self_s[name] += duration - children
                calls[name] += 1
            if count:
                counted[name] += 1
                if outcome(result):
                    wasted[name] += 1
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def ratfunc_counter(self, fn):
        """RatFunc construction counted only when it normalizes (runs a gcd)."""
        calls = self.calls

        def wrapper(obj, num, den, _normalized=False):
            if not _normalized:
                calls["ratfunc.init.calls"] += 1
            fn(obj, num, den, _normalized)

        return wrapper

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, module, attr in SPANS:
                undo.extend(_replace(module, attr, lambda fn, n=name: self.span(n, fn)))
            for name, module, attr in COUNTERS:
                undo.extend(_replace(module, attr, lambda fn, n=name: self.counter(n, fn)))
            undo.extend(_replace("ejump.ff_arith.ratfunc", "RatFunc.__init__", self.ratfunc_counter))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Calls and self time of every span, every counter, and the ratios."""
        out = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _ in COUNTERS:
            out[name] = self.calls[name]
        out["ratfunc.init.calls"] = self.calls["ratfunc.init.calls"]
        for name, (metric, _, _) in OUTCOMES.items():
            counted = self.counted[name]
            out[f"{metric}.counted_calls"] = counted
            out[metric] = self.wasted[name] / counted if counted else 0.0
        return out


def _replace(module_name: str, attr: str, make_wrapper) -> list:
    """Swap every binding of module.attr for a wrapper; returns the undo list."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        owner = getattr(module, cls_name)
        original = owner.__dict__[method]
        setattr(owner, method, make_wrapper(original))
        return [(owner, method, original)]
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if name == "ejump" or name.startswith("ejump."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo
