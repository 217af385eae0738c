#!/usr/bin/env python3
"""Benchmark for mmslab: exact maximin shares, certified caps, and CLI
certificates, each as a closed loop with one client in one process.

    python3 mmsbench/run.py --workload partition|refute|solve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` next to
this directory, never from an installed copy.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the loop
first runs untraced for half the time, then replays the same rounds with
every layer wrapped, and reports the per-layer metrics together with the
tracing overhead (traced minus untraced time per operation).  Spans go to
mmsbench/out/trace-<workload>-<seed>.jsonl.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("core", "valuations", "mms", "oracle", "cuts", "protocols", "counterexamples", "cli")
SETUP_REPEATS = 9  # set-up is timed this many times; setup_s is the median

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_program() -> SimpleNamespace:
    """Import mmslab afresh, so that each set-up pays for its own import."""
    for name in [n for n in sys.modules if n == "mmslab" or n.startswith("mmslab.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"mmslab.{m}") for m in MODULES})


def set_up(wl, params: list, work: Path):
    """Time one set-up, the import plus every input of the pool, in process
    CPU time: wall time here mostly measures the file system's write latency
    (`solve` writes hundreds of small files) and swings widely between runs."""
    start = time.process_time()
    lib = load_program()
    pool = [[wl.build(lib, p, work) for p in rnd] for rnd in params]
    return lib, pool, time.process_time() - start


def timed_loop(wl, lib, next_round, seconds: float | None = None,
               rounds: int | None = None, tracer: Tracer | None = None) -> dict:
    """Run whole rounds until `seconds` of loop time or `rounds` rounds.

    `next_round(k)` returns the built operations of round k; any time it
    spends building is taken out of the loop time.
    """
    latencies: list[float] = []
    records: list[tuple] = []
    cpu = paused = 0.0
    k = 0
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        ops = next_round(k)
        paused += time.perf_counter() - t
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                out = wl.run(lib, op)
            except Exception:  # recorded; the check reports it as wrong
                out = traceback.format_exc()
            t1, c1 = time.perf_counter(), time.process_time()
            latencies.append(t1 - t0)
            cpu += c1 - c0
            if not isinstance(out, str):
                wl.after(op, out)
            records.append((op, out))
        k += 1
        elapsed = time.perf_counter() - start - paused
        if (rounds is not None and k >= rounds) or (rounds is None and elapsed >= seconds):
            return {"records": records, "latencies": latencies, "cpu": cpu,
                    "elapsed": elapsed, "rounds": k}


def check_all(wl, lib, records: list) -> tuple[int, list[str]]:
    """Returns (failed, problems); a problem makes the run incorrect."""
    failed, problems = 0, []
    certs: dict[str, list] = {}
    for op, out in records:
        if isinstance(out, str):
            status, detail = "wrong", out.strip().splitlines()[-1]
        else:
            status, detail = wl.check(op, out)
            if isinstance(out, dict) and out.get("cert"):
                certs.setdefault(op["id"], [op]).append(out["cert"])
        if status == "failed":
            failed += 1
        elif status == "wrong":
            problems.append(f"{op.get('id', op['kind'])}: {detail}")
    for key, (op, *seen) in certs.items():  # repeated requests: identical bytes
        if len(seen) == 1:
            seen.append(wl.rerun_bytes(lib, op))
        if any(c != seen[0] for c in seen):
            problems.append(f"{key}: a repeated request gave different bytes")
    return failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    params = [wl.params(seed, k) for k in range(wl.POOL_ROUNDS)]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            lib, pool, took = set_up(wl, params, work)
            setups.append(took)

        def pooled(k: int) -> list:
            if wl.CYCLE:
                return pool[k % len(pool)]
            if k < len(pool):
                ops, pool[k] = pool[k], None  # used oracles keep their caches; let them go
                return ops
            return [wl.build(lib, p, work) for p in wl.params(seed, k)]

        gc.collect()
        if not trace:
            res = timed_loop(wl, lib, pooled, seconds=seconds)
            lat = res["latencies"]
            n = len(lat)
            metrics = {
                "ops_per_s": (n / res["elapsed"], "1/s"),
                "cpu_ms_per_op": (1000 * res["cpu"] / n, "ms"),
                "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
                "latency_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        else:
            plain = timed_loop(wl, lib, pooled, seconds=seconds / 2)
            fresh = [pooled(k) if wl.CYCLE
                     else [wl.build(lib, p, work) for p in wl.params(seed, k)]
                     for k in range(plain["rounds"])]
            del plain["records"]
            gc.collect()
            tracer = Tracer()
            tracer.install(lib)
            try:
                res = timed_loop(wl, lib, fresh.__getitem__, rounds=plain["rounds"], tracer=tracer)
            finally:
                tracer.uninstall()
            n = len(res["latencies"])
            overhead = 1000 * (res["elapsed"] - plain["elapsed"]) / n
            metrics = tracer.metrics(n)
            metrics["trace.overhead_ms_per_op"] = (overhead, "ms")
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
        failed, problems = check_all(wl, lib, res["records"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:10]:
        print(f"wrong: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(res["records"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mmslab" / "__init__.py").is_file():
        print(f"error: no mmslab sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name:46} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
