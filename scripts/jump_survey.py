#!/usr/bin/env python3
"""Survey embedding jumps over random closed points on random hypersurfaces.

Prints one row per sampled instance: characteristic, residue degrees,
before/after embedding dimensions, the jump, and both proved upper bounds.
Useful for eyeballing how often jumps occur and how tight the bounds are.
"""

import argparse
import os
import random
import sys
from collections import Counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from ejump import localring  # noqa: E402
from ejump.instances import random_bound_instance  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=30)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    jumps = Counter()
    print(f"{'p':>3} {'degs':>10} {'edim':>9} {'ejump':>5} {'lemma':>5} {'pdeg-trdeg':>10}")
    for _ in range(args.count):
        I, P, exponents = random_bound_instance(rng)
        report = localring.ejump_at_point(I, P, exponents)
        jumps[report.ejump] += 1
        degs = "*".join(str(d) for d in P.degrees())
        print(
            f"{P.base.p:>3} {degs:>10} {report.edim_before:>4}->{report.edim_after:<4}"
            f"{report.ejump:>5} {report.bound_lemma:>5} {report.bound_theorem:>10}"
        )
        assert report.all_satisfied(), report.to_dict()
    print("jump distribution:", dict(sorted(jumps.items())))


if __name__ == "__main__":
    main()
