#!/usr/bin/env python3
"""Reproduce every headline number from builtin instances, no data files.

Prints the impossibility table (each row re-derived by brute force or
structured exhaustion, the exact caps 2/3 and 1/2 among them) and a
randomized protocol-guarantee spot check through the dispatcher.
Everything is deterministic.
"""

import argparse
import random
import sys
import time

from mmslab import cli
from mmslab.core import Instance
from mmslab.protocols import ImpossibilityReference, dispatch
from mmslab.valuations import RANDOM_CLASSES, random_valuation

# (route, mode, demands, least item count): each request routes to its
# protocol.  The two-types request has five agents sharing two valuations.
ROUTES = (
    ("cut_and_choose", "uniform-half", (2, 2), 2),
    ("322", "uniform-half", (3, 2, 2), 7),
    ("521", "uniform-half", (5, 2, 1), 6),
    ("431", "uniform-half", (4, 3, 1), 6),
    ("422", "one-half-half", (4, 2, 2), 6),
    ("3344", "uniform-half", (3, 3, 4, 4), 8),
    ("two_types", "uniform-half", (5,) * 5, 5),
)
MAX_M = 8  # keeps each agent's exact maximin-share search to milliseconds


def run_counterexamples() -> bool:
    print("== impossibility catalogue ==")
    return cli.main(["counterexamples"]) == cli.EXIT_OK


def run_protocols(trials: int) -> bool:
    print(f"== protocol guarantees ({trials} random instances per class each) ==")
    ok = True
    for name, mode, d, m_lo in ROUTES:
        t0 = time.perf_counter()
        failures = 0
        for cls in RANDOM_CLASSES:
            for i in range(trials):
                rng = random.Random(f"repro:{name}:{cls}:{i}")
                m = rng.randint(m_lo, MAX_M)
                kinds = [random_valuation(cls, m, seed=rng.getrandbits(32))
                         for _ in range(2 if name == "two_types" else len(d))]
                agents = [rng.choice(kinds) for _ in d] if name == "two_types" else kinds
                inst = Instance(m, tuple(agents))
                cert = dispatch(inst, mode, d)
                failures += isinstance(cert, ImpossibilityReference) or not cert.verify(inst).ok
        status = "pass" if failures == 0 else f"{failures} FAILURES"
        print(f"  {name:<14} {status}  ({time.perf_counter() - t0:.1f}s)")
        ok = ok and failures == 0
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=100,
                        help="random instances per protocol per valuation class")
    args = parser.parse_args()
    t0 = time.perf_counter()
    ok = run_counterexamples()
    ok = run_protocols(args.trials) and ok
    print(f"== {'ALL PASS' if ok else 'FAILURES'} ({time.perf_counter() - t0:.1f}s) ==")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
