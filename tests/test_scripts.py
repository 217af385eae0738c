"""Smoke tests for the paper-reproduction entry points in `scripts/`."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_reproduce_all_passes():
    proc = run_script("reproduce_all.py", "--trials", "5")
    assert proc.returncode == 0, proc.stderr
    assert "== ALL PASS" in proc.stdout


def test_grid_eps_sweep_finds_no_allocation_inside_the_gap():
    proc = run_script("grid_eps_sweep.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("eps =     0: allocations exist")
    assert all("no allocation" in line for line in lines[1:])


def test_bench_summary_reads_medians_quartiles_and_wins():
    proc = run_script("bench_summary.py", str(ROOT / "BENCH_18.json"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[lines.index("partition seed 1: 6 pairs") + 4] == (
        "  cpu_ms_per_op   4.617 [4.487, 4.673] → 4.030 ms  wins 4/6  within bound 0.25"
    )
