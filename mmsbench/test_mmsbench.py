"""Quick tests of the benchmark itself: every workload at a tiny size, and
every correctness check shown to reject a corrupted answer.

    python3 -m pytest mmsbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import model  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, certificate_problem  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """One set-up and a one-round pool, so a run is one round of each workload."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for wl in WORKLOADS.values():
        monkeypatch.setattr(type(wl), "POOL_ROUNDS", 1)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_reports_every_metric(tiny, workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace)
    assert result["correct"]
    assert result["attempted"] == len(WORKLOADS[workload].params(7, 0))
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    if workload == "solve":  # the three kept requests, and nothing else
        assert result["failed"] == 3
    else:
        assert result["failed"] == 0


def _run_one(workload: str, pick):
    wl = WORKLOADS[workload]
    lib = run.load_program()
    op = wl.build(lib, next(p for p in wl.params(3, 0) if pick(p)), run.OUT)
    out = wl.run(lib, op)
    wl.after(op, out)
    assert wl.check(op, out) == ("ok", "")
    return wl, op, out


def test_partition_check_rejects_a_moved_item():
    wl, op, res = _run_one("partition", lambda p: p["spec"][0] == "additive")
    parts = [list(part) for part in res.witness.parts]
    values = [model.value(op["spec"], model.mask_of(p)) for p in parts]
    poor = values.index(min(values))
    parts[(poor + 1) % len(parts)].append(parts[poor].pop())  # every weight is > 0
    moved = SimpleNamespace(value=res.value, witness=SimpleNamespace(parts=parts))
    assert wl.check(op, moved)[0] == "wrong"


def test_partition_brute_force_rejects_a_lower_value():
    wl, op, res = _run_one("partition", lambda p: p["spec"][0] == "additive")
    op["brute"] = True
    # a witness whose own min part matches, but is not the best partition
    parts = [[g] for g in range(op["d"] - 1)] + [list(range(op["d"] - 1, op["m"]))]
    low = min(model.value(op["spec"], model.mask_of(p)) for p in parts)
    worse = SimpleNamespace(value=low, witness=SimpleNamespace(parts=parts))
    assert wl.check(op, worse)[0] == "wrong"


@pytest.mark.parametrize("kind", ["random", "submodular_6"])
def test_refute_check_rejects_a_raised_cap(kind):
    wl, op, out = _run_one(
        "refute", lambda p: p["kind"] == kind or p.get("name") == kind)
    best = out["best"]
    out["best"] = dataclasses.replace(best, value=best.value + Fraction(1, 1000))
    assert wl.check(op, out)[0] == "wrong"


def test_refute_check_rejects_a_partial_enumeration():
    wl, op, out = _run_one("refute", lambda p: p["kind"] == "random")
    out["above"] = dataclasses.replace(out["above"], visited=out["above"].visited - 1)
    assert wl.check(op, out)[0] == "wrong"


def test_solve_check_rejects_a_raised_alpha(tmp_path):
    wl = WORKLOADS["solve"]
    lib = run.load_program()
    op = wl.build(lib, wl.params(3, 0)[2], tmp_path)  # the 322 route
    out = wl.run(lib, op)
    wl.after(op, out)
    assert wl.check(op, out) == ("ok", "")
    inst = json.loads(op["inst_path"].read_text())
    cert = json.loads(out["cert"])
    spec = op["specs"][0]
    got = model.value(spec, model.mask_of(cert["allocation"][0]))
    low = min(model.value(spec, model.mask_of(p)) for p in cert["partitions"][0])
    cert["alpha"][0] = str(Fraction(got, low) + Fraction(1, 1000))
    assert certificate_problem(inst, cert, op["d"], op["mode"])
    out["cert"] = json.dumps(cert).encode()
    assert wl.check(op, out)[0] == "wrong"


def test_solve_check_rejects_overlapping_bundles(tmp_path):
    wl = WORKLOADS["solve"]
    lib = run.load_program()
    op = wl.build(lib, wl.params(3, 0)[2], tmp_path)
    out = wl.run(lib, op)
    cert = json.loads(op["cert_path"].read_text())
    cert["allocation"][1] = cert["allocation"][1] + cert["allocation"][0][:1]
    assert certificate_problem(json.loads(op["inst_path"].read_text()), cert,
                               op["d"], op["mode"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
