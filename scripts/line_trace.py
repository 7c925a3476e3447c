#!/usr/bin/env python3
"""Print, per `src/ejump` module, the executable lines that no run reaches.

    python3 scripts/line_trace.py [pytest arguments]

Under one `sys.settrace` line tracer (standard library only), it runs the
tier-1 tests in-process (extra arguments go to pytest, for example
`--hypothesis-seed=1`), then `acceptance.run_all`, then one seed-1 round and
check of each benchmark workload; the workload module is only imported.
A module's executable lines are the line numbers of the code objects compiled
from its source.  The tests run several times slower than untraced.
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "ejump")


def _sources() -> list:
    return sorted(
        os.path.join(folder, name)
        for folder, _, names in os.walk(PACKAGE)
        for name in names
        if name.endswith(".py")
    )


def _executable_lines(path: str) -> set:
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _traced(hits: dict):
    """A global trace function recording the lines run in the files of `hits`."""

    def tracer(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    return tracer


def _run_everything(pytest_args: list) -> int:
    import pytest

    status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *pytest_args])
    from ejump import acceptance

    acceptance.run_all(echo=None)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS.values():
        cases = workload.setup(1)
        results, _, _ = workload.run_round(cases)
        workload.check(cases, results)
    return int(status)


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    sources = _sources()
    hits = {path: set() for path in sources}
    tracer = _traced(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = _run_everything(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sources:
        missed = sorted(_executable_lines(path) - hits[path])
        total += len(missed)
        if not missed:
            continue
        with open(path, encoding="utf-8") as handle:
            text = handle.read().splitlines()
        print(f"{os.path.relpath(path, ROOT)}: {len(missed)} lines never run")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{total} executable lines never run; tier-1 exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
