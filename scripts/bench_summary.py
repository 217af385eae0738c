#!/usr/bin/env python3
"""Summarize a committed BENCH_*.json: parent against change, pair by pair.

    python3 scripts/bench_summary.py BENCH_21.json

For each workload and seed (and series, where the file has several), and for
each end-to-end metric that BENCHMARK.json names, it prints the parent's
median and quartiles, the change's median, how many pairs the change won
(ties count for neither side), and whether the change's median is worse than
the parent's by more than the metric's bound.  Any side not called "parent"
is the change.  Quartiles are the inclusive ones of `statistics.quantiles`.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fmt(x: float) -> str:
    return f"{x:#.4g}"


def summarize(bench: dict, metrics: list[dict]) -> list[str]:
    groups: dict[tuple, dict[int, dict[str, dict]]] = {}
    for run in bench["runs"]:
        key = (run["workload"], run["seed"], run.get("series"))
        side = "parent" if run["side"] == "parent" else "change"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[side] = run["result"]
    lines = []
    for (workload, seed, series), pairs in groups.items():
        both = [p for p in pairs.values() if len(p) == 2]
        title = f"{workload} seed {seed}" + (f" ({series})" if series else "")
        lines.append(f"{title}: {len(both)} pairs")
        for side in ("parent", "change"):
            attempted = " ".join(str(p[side]["attempted"]) for p in both)
            lines.append(f"  attempted {side:6} {attempted}")
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [p[side]["metrics"][name]["value"] for p in both]
                      for side in ("parent", "change")}
            parent, change = (statistics.median(values[s]) for s in ("parent", "change"))
            q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
            wins = sum(c < p if lower else c > p for p, c in zip(values["parent"], values["change"]))
            worse = change / parent - 1 if lower else 1 - change / parent
            verdict = "PAST BOUND" if worse > metric["bound"] else "within bound"
            lines.append(
                f"  {name:15} {_fmt(parent)} [{_fmt(q1)}, {_fmt(q3)}] → {_fmt(change)} "
                f"{metric['unit']}  wins {wins}/{len(both)}  {verdict} {metric['bound']}"
            )
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bench", type=Path, help="a BENCH_*.json file")
    args = parser.parse_args()
    bench = json.loads(args.bench.read_text())
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print("\n".join(summarize(bench, metrics)))


if __name__ == "__main__":
    main()
