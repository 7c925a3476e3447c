"""Benchmark of ejump: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                 # every workload, one child process each
    python3 perfbench/run.py --write-spec    # rewrite BENCHMARK.json from SPEC

One run times the import of the program in IMPORT_REPEATS fresh child
processes and builds the workload's inputs SETUP_REPEATS times; `setup_s` is
the sum of the two medians.  It then repeats whole rounds of its operations
until the next round would end after `--seconds`.
It checks every result outside the timed region and prints one metric per
line, then one JSON object as the last line of standard output.  The same
result, every latency and (when traced) every span and counter are also kept
in perfbench/out/<workload>-seed<seed>-trace<0|1>.json.

With `--trace 1` the run makes one traced round of the operations instead
and reports its per-layer metrics.  The tracing overhead is the median ratio
of traced to untraced time over OVERHEAD_PAIRS alternating pairs of rounds
of the workload's few cheap cases.  End-to-end metrics come only from
untraced runs.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
OVERHEAD_PAIRS = 5
OVERHEAD_MIN_S = 1.0  # shortest untraced side of one overhead pair

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 45,
    "workloads": [
        {
            "name": "fields",
            "why": "random towers: tower arithmetic, flat p-th roots and Kaehler ranks do the work, Groebner none",
        },
        {
            "name": "sessions",
            "why": "CLI sessions at residue degree <= 6: Groebner reduction, gcd, local rings and CLI parse/emit carry it",
        },
        {
            "name": "tail",
            "why": "pinned residue-degree-9 points and F_5 gcd pairs: gcd and exact division take ~85% of the time",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": name, "unit": unit, "better": "lower"}
        for name, unit in (
            ("poly.gcd.calls", "count"),
            ("poly.gcd.self_s", "s"),
            ("poly.gcd.coprime_ratio", "ratio"),
            ("poly.divexact.self_s", "s"),
            ("poly.mul.calls", "count"),
            ("ratfunc.init.calls", "count"),
            ("groebner.basis.calls", "count"),
            ("groebner.basis.self_s", "s"),
            ("groebner.normal_form.calls", "count"),
            ("groebner.normal_form.self_s", "s"),
            ("groebner.normal_form.zero_ratio", "ratio"),
            ("tower.arith.calls", "count"),
            ("tower.arith.self_s", "s"),
            ("tower.inv.calls", "count"),
            ("flat.flatten.self_s", "s"),
            ("flat.unflatten.self_s", "s"),
            ("flat.p_power_root.calls", "count"),
            ("flat.p_power_root.self_s", "s"),
            ("flat.solver.rows", "count"),
            ("flat.invert.calls", "count"),
            ("kaehler.pdeg.self_s", "s"),
            ("kaehler.differential_is_zero.calls", "count"),
            ("kaehler.differential_is_zero.self_s", "s"),
            ("artin.structure.self_s", "s"),
            ("artin.oracle.self_s", "s"),
            ("localring.edim.self_s", "s"),
            ("localring.base_change.self_s", "s"),
            ("localring.residue_tower.self_s", "s"),
            ("cli.parse.self_s", "s"),
            ("cli.run.self_s", "s"),
            ("cli.emit.self_s", "s"),
            ("text.parse.calls", "count"),
            ("trace.overhead_ratio", "ratio"),
        )
    ],
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json at the repository root")
    return parser.parse_args(argv)


def _import_program():
    """Import ejump from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import ejump
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ejump from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(ejump.__file__))) != SRC:
        raise SystemExit(f"error: ejump was imported from {ejump.__file__}, not from {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def _import_seconds() -> list:
    """Import time of the program and the workloads, one fresh child process each."""
    code = "\n".join(
        [
            "import sys, time",
            f"sys.path[:0] = [{SRC!r}, {HERE!r}]",
            "start = time.perf_counter()",
            "import workloads",
            "print(time.perf_counter() - start)",
        ]
    )
    seconds = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        seconds.append(float(proc.stdout))
    return seconds


def _measure(workload, inputs, seconds: float) -> dict:
    """Whole rounds until the next one would end after `seconds`.

    Only the first round's results are kept, so that memory does not grow
    with the number of rounds; every later round is compared with it.
    """
    rounds, latencies, failed, first, same = [], [], 0, None, True
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        results, lat, bad = workload.run_round(inputs)
        rounds.append(time.perf_counter() - start)
        latencies.append(lat)
        failed += bad
        if first is None:
            first = results
        else:
            same = same and results == first
        del results
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(rounds) > seconds:
            break
    return {"rounds": rounds, "latencies": latencies, "failed": failed, "checks": [(inputs, first)], "same": same}


def _measure_traced(workload, inputs, cheap, tracing) -> dict:
    """One traced round for the layers; then alternating pairs on `cheap` for the overhead.

    Each side of a pair repeats the cheap round `reps` times, enough for the
    untraced side to take OVERHEAD_MIN_S.  The pairs alternate which side
    goes first, so that a drift of the machine's speed cancels out.
    """
    tracer = tracing.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        traced, lat_traced, failed = workload.run_round(inputs)
        traced_s = time.perf_counter() - start
    layers = tracer.metrics()

    start = time.perf_counter()
    cheap_first, latencies, bad = workload.run_round(cheap)
    reps = max(1, math.ceil(OVERHEAD_MIN_S / (time.perf_counter() - start)))
    rounds, ratios, same = [traced_s], [], True
    all_latencies, failed = [lat_traced, latencies], failed + bad
    for pair in range(OVERHEAD_PAIRS):
        seconds = {}
        for side in (("plain", "traced") if pair % 2 == 0 else ("traced", "plain")):
            context = tracing.Tracer().installed() if side == "traced" else contextlib.nullcontext()
            with context:
                start = time.perf_counter()
                for _ in range(reps):
                    results, latencies, bad = workload.run_round(cheap)
                    all_latencies.append(latencies)
                    failed += bad
                    same = same and results == cheap_first
                seconds[side] = time.perf_counter() - start
        ratios.append(seconds["traced"] / seconds["plain"])
        rounds.extend(seconds.values())
    layers["trace.overhead_ratio"] = statistics.median(ratios)
    layers["trace.overhead_ratios"] = ratios
    return {
        "rounds": rounds,
        "latencies": all_latencies,
        "failed": failed,
        "checks": [(inputs, traced), (cheap, cheap_first)],
        "same": same,
        "layers": layers,
    }


def run_one(args) -> int:
    workloads, tracing = _import_program()
    imports = _import_seconds()
    workload = workloads.WORKLOADS[args.workload]

    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(args.seed)
        builds.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(builds)

    if args.trace:
        run = _measure_traced(workload, inputs, workloads.cheap_cases(args.workload, inputs), tracing)
    else:
        run = _measure(workload, inputs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [p for cases, results in run["checks"] for p in workload.check(cases, results)]
    if not run["same"]:
        problems.append("a later round returned other results than the first")

    attempted = sum(len(lat) for lat in run["latencies"])
    if args.trace:
        specs = SPEC["per_layer"]
        values = {m["name"]: run["layers"][m["name"]] for m in specs}
    else:
        specs = SPEC["end_to_end"]
        values = {
            "setup_s": setup_s,
            "ops_per_s": attempted / sum(run["rounds"]),
            "op_ms_p50": statistics.median(t for lat in run["latencies"] for t in lat) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    for problem in problems:
        print(f"check failed: {problem}")
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {len(run['rounds'])} rounds, "
        f"{attempted} operations in {sum(run['rounds']):.2f} s"
    )
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>14.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": metrics,
    }
    _write_out(args, result, run, {"import_s": imports, "build_s": builds})
    print(json.dumps(result))
    return 0


def _write_out(args, result: dict, run: dict, setup: dict) -> None:
    """The result, every setup sample, every span and counter of a traced run, and every latency."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = {
        "result": result,
        "all_layers": run.get("layers"),
        "round_s": run["rounds"],
        "setup": setup,
        "latencies_s": run["latencies"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)


def run_all(args) -> int:
    """Each workload in its own child process, so setup and memory stay its own."""
    summary = {}
    for w in SPEC["workloads"]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[w["name"]] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def write_spec() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
        handle.write(json.dumps(SPEC, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.write_spec:
        return write_spec()
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
