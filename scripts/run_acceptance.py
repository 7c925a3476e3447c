#!/usr/bin/env python3
"""Run every acceptance criterion and print one pass/fail line per criterion."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ejump.acceptance import run_all  # noqa: E402


def main() -> int:
    results = run_all()
    total = sum(r.seconds for r in results)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed in {total:.1f}s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
