"""The three workloads: seeded inputs, the timed operation, and its checks.

Each workload is made of rounds, a fixed list of operations whose make-up
never depends on the seed; the seed only draws the valuations.  A workload
has five steps:

  params(seed, k)   round k as plain data, drawn by the benchmark alone
  build(lib, p)     program objects and files for one operation (set-up)
  run(lib, op)      the timed operation
  after(op, out)    untimed: keep what the checks need, drop the rest
  check(op, out)    ("ok" | "failed" | "wrong", detail), from the
                    benchmark's own computations in `model`

"failed" is reserved for the two kinds of `solve` request that a known
fault makes fail on every run; anything else that does not check out is
"wrong" and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import model

HALF = Fraction(1, 2)


def make_oracle(lib, spec: tuple, m: int):
    val = lib.valuations
    kind = spec[0]
    if kind == "additive":
        return val.AdditiveValuation(spec[1])
    if kind == "xos":
        return val.XOSValuation(spec[1])
    if kind == "budget":
        return val.BudgetAdditiveValuation(spec[1], spec[2])
    if kind == "coverage":
        return val.CoverageValuation(m, spec[1])
    raise ValueError(f"unknown spec kind {kind!r}")


def spec_to_json(spec: tuple) -> dict:
    kind = spec[0]
    if kind == "additive":
        return {"class": "additive", "weights": [str(w) for w in spec[1]]}
    if kind == "xos":
        return {"class": "xos", "clauses": [[str(w) for w in c] for c in spec[1]]}
    if kind == "budget":
        return {"class": "submodular", "builtin": "budget_additive",
                "weights": [str(w) for w in spec[1]], "cap": str(spec[2])}
    return {"class": "submodular", "builtin": "coverage", "covers": list(spec[1])}


def spec_from_json(obj: dict) -> tuple:
    """Read back an agent of an instance file written by `spec_to_json`."""
    if obj.get("builtin") == "budget_additive":
        return ("budget", tuple(int(w) for w in obj["weights"]), int(obj["cap"]))
    if obj.get("builtin") == "coverage":
        return ("coverage", tuple(int(c) for c in obj["covers"]))
    if "clauses" in obj:
        return ("xos", tuple(tuple(int(w) for w in c) for c in obj["clauses"]))
    return ("additive", tuple(int(w) for w in obj["weights"]))


def _own_min_part(spec: tuple, parts) -> int:
    return min(model.value(spec, model.mask_of(part)) for part in parts)


# --- partition ------------------------------------------------------------------


class PartitionWorkload:
    """One exact maximin share per operation, on a freshly built oracle."""

    name = "partition"
    # (class, m, d): each shape costs tens to hundreds of milliseconds
    SHAPES = (("additive", 10, 3), ("xos", 10, 3), ("budget", 10, 3), ("coverage", 11, 3))
    POOL_ROUNDS = 200
    CYCLE = False
    BRUTE_SHARE = 1 / 32  # operations re-derived by the plain d^m enumeration

    def params(self, seed: int, k: int) -> list[dict]:
        rng = random.Random(f"partition:{seed}:{k}")
        return [
            {"kind": "mms", "spec": model.random_spec(rng, cls, m), "m": m, "d": d,
             "brute": rng.random() < self.BRUTE_SHARE}
            for cls, m, d in self.SHAPES
        ]

    def build(self, lib, p: dict, work: Path) -> dict:
        return dict(p, oracle=make_oracle(lib, p["spec"], p["m"]),
                    ground=lib.core.ItemSet.full(p["m"]))

    def run(self, lib, op: dict):
        return lib.mms.mms_value(op["oracle"], op["ground"], op["d"])

    def after(self, op: dict, res) -> None:
        """Outside the operation's time: drop the oracle and its cache."""
        del op["oracle"]

    def check(self, op: dict, res) -> tuple[str, str]:
        spec, m, d = op["spec"], op["m"], op["d"]
        parts = [list(part) for part in res.witness.parts]
        if len(parts) != d or not model.is_partition(parts, m):
            return "wrong", f"witness {parts} is not a partition of {m} items into {d} parts"
        own = _own_min_part(spec, parts)
        if res.value != own:
            return "wrong", f"reported {res.value}, witness min part is worth {own}"
        if op["brute"]:
            exact = model.maxmin(model.table(spec, m), m, d)
            if res.value != exact:
                return "wrong", f"reported {res.value}, exhaustive max-min is {exact}"
        return "ok", ""


# --- refute ----------------------------------------------------------------------


def _above(b: Fraction) -> Fraction:
    """A threshold strictly between b and 1 (b < 1)."""
    return (b + 1) / 2


def _not_exists_in_full(e) -> str:
    if e.status != "not_exists":
        return f"expected not_exists, got {e.status}"
    if e.visited != e.space + 1:
        return f"not_exists visited {e.visited}, space {e.space}: not a full enumeration"
    return ""


def _witness_meets(values, witness, thresholds) -> str:
    """values[i](mask) for agent i; the bundles must be disjoint and meet thresholds."""
    seen = 0
    for i, bundle in enumerate(witness):
        if seen & bundle.mask:
            return "witness bundles overlap"
        seen |= bundle.mask
        if values[i](bundle.mask) < thresholds[i]:
            return f"witness gives agent {i} less than {thresholds[i]}"
    return ""


class RefuteWorkload:
    """Certify one cap per operation: best_alpha, exists at the cap, a full
    not-exists enumeration above it, and the exhaustive class checks."""

    name = "refute"
    CATALOGUE = ("submodular_6", "half_cap:2,2,2", "421", "floor_n3:6", "grid27")
    # four random instances after each catalogue entry: 25 ops a round, so the
    # three slowest catalogue entries are 12 % of the operations and the 90th
    # percentile falls inside one of them instead of on a boundary between two
    RANDOM_M = (7, 7, 7, 7)
    D = (2, 2, 2)
    POOL_ROUNDS = 16
    CYCLE = False
    BRUTE_SHARE = 1 / 4

    def _random_params(self, rng: random.Random, m: int) -> dict:
        # redraw until every mu > 0 and the cap lies below 1, so a threshold
        # in (cap, 1] exists; the test is the benchmark's own enumeration
        while True:
            specs = [model.random_spec(rng, rng.choice(model.CLASSES), m) for _ in range(3)]
            tabs = [model.table(s, m) for s in specs]
            mus = [model.maxmin(t, m, d) for t, d in zip(tabs, self.D)]
            if min(mus) > 0 and not model.all_reach_mu(tabs, mus, m):
                return {"kind": "random", "specs": specs, "m": m, "tabs": tabs, "mus": mus,
                        "brute": rng.random() < self.BRUTE_SHARE}

    def params(self, seed: int, k: int) -> list[dict]:
        rng = random.Random(f"refute:{seed}:{k}")
        ops = []
        for name in self.CATALOGUE:
            ops.append({"kind": "catalogue", "name": name})
            ops.extend(self._random_params(rng, m) for m in self.RANDOM_M)
        return ops

    def build(self, lib, p: dict, work: Path) -> dict:
        if p["kind"] == "catalogue":
            return p
        agents = tuple(make_oracle(lib, s, p["m"]) for s in p["specs"])
        return dict(p, inst=lib.core.Instance(p["m"], agents))

    # the timed operation -------------------------------------------------------

    def run(self, lib, op: dict) -> dict:
        if op["kind"] == "random":
            return self._certify(lib, op["inst"], self.D, None)
        ce = lib.counterexamples
        name = op["name"]
        if name == "submodular_6":
            return self._certify(lib, ce.instance_submodular_6(), (3, 3, 3), None)
        if name == "half_cap:2,2,2":
            return self._certify(lib, ce.instance_half_cap((2, 2, 2)), (2, 2, 2), None)
        if name == "421":
            return self._certify(lib, ce.instance_421(), (4, 2, 1), HALF)
        if name == "floor_n3:6":
            inst = ce.instance_floor_n3(6)
            alpha = [Fraction(1, 100)] * 5 + [HALF]
            return {"inst": inst,
                    "above": lib.oracle.exists_alpha_mms(inst, alpha, [6] * 5 + [2]),
                    "classes": self._classes(lib, inst, submodular=False)}
        inst = ce.instance_27()
        return {"inst": inst, "grid": ce.structured_check_27(),
                "classes": self._classes(lib, inst, submodular=False)}

    def after(self, op: dict, out: dict) -> None:
        """Outside the operation's time: drop the random instance's oracles."""
        if op["kind"] == "random":
            del op["inst"], out["inst"]

    def _classes(self, lib, inst, submodular=True):
        val = lib.valuations
        return [(val.is_monotone(v), val.is_subadditive(v),
                 val.is_submodular(v) if submodular else None) for v in inst.agents]

    def _certify(self, lib, inst, d, above) -> dict:
        """`above`: the threshold to refute, or None for one between the cap and 1."""
        orc = lib.oracle
        best = orc.best_alpha(inst, d)
        at = orc.exists_alpha_mms(inst, [best.value] * inst.n, d)
        t = _above(best.value) if above is None else above
        return {"inst": inst, "best": best, "at": at,
                "above": orc.exists_alpha_mms(inst, [t] * inst.n, d),
                "classes": self._classes(lib, inst)}

    # checks ------------------------------------------------------------------------

    def check(self, op: dict, out: dict) -> tuple[str, str]:
        problem = (self._check_random(op, out) if op["kind"] == "random"
                   else self._check_catalogue(op["name"], out))
        return ("wrong", problem) if problem else ("ok", "")

    def _check_random(self, op: dict, out: dict) -> str:
        tabs, mus, m = op["tabs"], op["mus"], op["m"]
        best = out["best"]
        if best.status != "ok" or list(best.mu) != mus:
            return f"best_alpha {best.status} with mu {best.mu}, expected mu {mus}"
        b = best.value
        got = min(Fraction(tabs[i][w.mask], mus[i]) for i, w in enumerate(best.witness))
        if got != b:
            return f"cap {b}, but its witness reaches {got}"
        if out["at"].status != "exists":
            return f"exists at the cap {b}: {out['at'].status}"
        problem = _witness_meets([t.__getitem__ for t in tabs], out["at"].witness,
                                 [b * mu for mu in mus])
        if problem:
            return f"exists at the cap {b}: {problem}"
        if out["above"].space != 3**m:
            return f"space {out['above'].space}, expected 3^{m}"
        problem = _not_exists_in_full(out["above"])
        if problem:
            return f"above the cap {b}: {problem}"
        for i, (spec, (mono, sub, submod)) in enumerate(zip(op["specs"], out["classes"])):
            if not (mono.ok and sub.ok):
                return f"agent {i} ({spec[0]}) reported not monotone or not subadditive"
            if spec[0] in model.SUBMODULAR and not submod.ok:
                return f"agent {i} ({spec[0]}) reported not submodular"
        if op["brute"]:
            exact = model.best_ratio(tabs, mus, m)
            if exact != b:
                return f"cap {b}, own enumeration gives {exact}"
        return ""

    def _check_catalogue(self, name: str, out: dict) -> str:
        inst = out["inst"]
        if not all(mono.ok and sub.ok for mono, sub, _ in out["classes"]):
            return f"{name}: an agent failed the monotone or subadditive check"
        if name == "grid27":
            grid = out["grid"]
            branches = [p.branches for p in grid.placements]
            if not grid.nonexistence or branches != [576, 576, 576]:
                return f"grid27: nonexistence {grid.nonexistence}, branches {branches}"
            return ""
        problem = _not_exists_in_full(out["above"])
        if problem:
            return f"{name}: {problem}"
        if name == "floor_n3:6":
            return ""
        best, at = out["best"], out["at"]
        expected = {"submodular_6": Fraction(2, 3), "half_cap:2,2,2": HALF}
        if name in expected and best.value != expected[name]:
            return f"{name}: best alpha {best.value}, expected {expected[name]}"
        if name == "421" and not best.value < HALF:
            return f"421: best alpha {best.value} is not below 1/2"
        if name == "half_cap:2,2,2" and best.visited != 3**8:
            return f"half_cap: visited {best.visited}, expected 3^8"
        if name == "submodular_6" and any(
            not s.ok or s.checked != 1458 for _, _, s in out["classes"]
        ):
            return "submodular_6: expected 1458 submodular triples per agent, all holding"
        if at.status != "exists":
            return f"{name}: exists at the cap {best.value}: {at.status}"
        problem = _witness_meets([v.value_mask for v in inst.agents], at.witness,
                                 [best.value * mu for mu in best.mu])
        return f"{name}: {problem}" if problem else ""


# --- solve -------------------------------------------------------------------------

# (label, mode, sorted demands, sorted part counts, m); the part counts are the
# protocol's routed counts, never more than the demands
ROUTES = (
    ("2", "uniform-half", (2, 2), (2, 2), 8),
    ("2", "one-half-half", (3, 2), (2, 2), 8),
    ("322", "uniform-half", (3, 2, 2), (3, 2, 2), 9),
    ("521", "uniform-half", (5, 2, 1), (5, 2, 1), 9),
    ("431", "uniform-half", (4, 3, 1), (4, 3, 1), 9),
    ("422", "uniform-half", (4, 2, 2), (3, 2, 2), 9),
    ("422", "one-half-half", (4, 2, 2), (4, 2, 2), 9),
    ("431", "one-half-half", (4, 3, 1), (4, 3, 1), 9),
    ("521", "one-half-half", (5, 2, 1), (5, 2, 1), 9),
    ("3344", "uniform-half", (4, 4, 3, 3), (4, 4, 3, 3), 12),
    ("two-types", "uniform-half", (5,) * 5, (5,) * 5, 10),
    ("two-types", "uniform-half", (6,) * 6, (6,) * 6, 12),
)


def _request(rng: random.Random, route: tuple) -> dict:
    label, mode, d_sorted, counts_sorted, m = route
    n = len(d_sorted)
    if label == "two-types":
        kinds = [model.random_spec(rng, rng.choice(model.CLASSES), m) for _ in range(2)]
        types = [0, 1] + [rng.randrange(2) for _ in range(n - 2)]
        rng.shuffle(types)
        specs = [kinds[t] for t in types]
    else:
        specs = [model.random_spec(rng, rng.choice(model.CLASSES), m) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return {"kind": "normal", "label": label, "mode": mode, "m": m, "specs": specs,
            "d": [d_sorted[perm[i]] for i in range(n)],
            "counts": [counts_sorted[perm[i]] for i in range(n)]}


def _faulty_requests() -> list[dict]:
    """Fixed requests (no seed) that a known fault makes fail on every run."""
    rng = random.Random("solve:faulty")
    four = [model.random_spec(rng, "additive", 12) for _ in range(4)]
    five = [model.random_spec(rng, "additive", 10)] * 5
    three = [model.random_spec(rng, cls, 9) for cls in ("additive", "xos", "budget")]
    return [
        # n >= 4 ignores --alpha one-half-half and returns uniform 1/2
        {"kind": "mode", "label": "3344", "mode": "one-half-half", "m": 12,
         "specs": four, "d": [3, 3, 4, 4], "counts": [3, 3, 4, 4]},
        {"kind": "mode", "label": "two-types", "mode": "one-half-half", "m": 10,
         "specs": five, "d": [5] * 5, "counts": [5] * 5},
        # d_i-part partitions where the 322 route uses fewer parts are rejected
        {"kind": "coarsen", "label": "322", "mode": "uniform-half", "m": 9,
         "specs": three, "d": [5, 3, 3], "counts": [5, 3, 3]},
    ]


def _run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class SolveWorkload:
    """One `mmslab solve` with supplied partitions, then `mmslab verify` on
    the certificate, both through `cli.main` in this process."""

    name = "solve"
    POOL_ROUNDS = 8  # requests repeat once the pool is used up
    CYCLE = True

    def params(self, seed: int, k: int) -> list[dict]:
        rng = random.Random(f"solve:{seed}:{k}")
        ops = [_request(rng, route) for _ in range(2) for route in ROUTES]
        ops += _faulty_requests()
        for j, op in enumerate(ops):
            op["id"] = f"r{k}-{j}"
            op["partitions"] = [model.greedy_partition(s, op["m"], c)
                                for s, c in zip(op["specs"], op["counts"])]
        return ops

    def build(self, lib, p: dict, work: Path) -> dict:
        base = work / p["id"]
        inst, parts, cert = (Path(f"{base}.{ext}.json") for ext in ("inst", "parts", "cert"))
        inst.write_text(json.dumps({"label": p["id"], "m": p["m"],
                                    "agents": [spec_to_json(s) for s in p["specs"]]}))
        parts.write_text(json.dumps(p["partitions"]))
        d = ",".join(map(str, p["d"]))
        return dict(p, inst_path=inst, cert_path=cert,
                    solve=["solve", str(inst), "--d", d, "--partitions", str(parts),
                           "--alpha", p["mode"], "--out", str(cert)],
                    verify=["verify", str(inst), str(cert)])

    def run(self, lib, op: dict) -> dict:
        main = lib.cli.main
        rc, _, err = _run_cli(main, op["solve"])
        out = {"rc": rc, "err": err, "verify_rc": None}
        if rc == 0:
            out["verify_rc"] = _run_cli(main, op["verify"])[0]
        return out

    def after(self, op: dict, out: dict) -> None:
        """Outside the operation's time: keep the certificate's bytes."""
        out["cert"] = op["cert_path"].read_bytes() if out["rc"] == 0 else None

    def rerun_bytes(self, lib, op: dict) -> bytes | None:
        """The certificate bytes of a second, identical request."""
        argv = list(op["solve"])
        alt = Path(str(op["cert_path"]) + ".again")
        argv[-1] = str(alt)
        rc = _run_cli(lib.cli.main, argv)[0]
        return alt.read_bytes() if rc == 0 else None

    def check(self, op: dict, out: dict) -> tuple[str, str]:
        if op["kind"] == "mode" and out["rc"] == 1 and out["err"].startswith("error:"):
            return "ok", ""  # a refusal meets the request too
        problem = self._check_certificate(op, out)
        if not problem:
            return "ok", ""
        return ("wrong" if op["kind"] == "normal" else "failed"), problem

    def _check_certificate(self, op: dict, out: dict) -> str:
        if out["rc"] != 0:
            return f"solve exited {out['rc']}: {out['err'].strip()}"
        if out["verify_rc"] != 0:
            return f"verify exited {out['verify_rc']}"
        return certificate_problem(json.loads(op["inst_path"].read_text()),
                                   json.loads(out["cert"]), op["d"], op["mode"])


def certificate_problem(inst: dict, cert: dict, d: list[int], mode: str) -> str:
    """Check a certificate against the instance file alone; "" when it holds."""
    m = inst["m"]
    specs = [spec_from_json(a) for a in inst["agents"]]
    n = len(specs)
    alpha = [Fraction(a) for a in cert["alpha"]]
    bundles, partitions = cert["allocation"], cert["partitions"]
    if cert["m"] != m or not len(alpha) == len(bundles) == len(partitions) == n:
        return "certificate does not match the instance's shape"
    seen = 0
    for bundle in bundles:
        mask = model.mask_of(bundle)
        if seen & mask or mask >> m:
            return "bundles overlap or name items outside the instance"
        seen |= mask
    need = [HALF] * n
    if mode == "one-half-half":
        top = max(range(n), key=lambda i: (d[i], alpha[i]))
        need[top] = Fraction(1)
    for i in range(n):
        if not model.is_partition(partitions[i], m) or len(partitions[i]) > d[i]:
            return f"P_{i} is not a partition of M into at most {d[i]} parts"
        if alpha[i] < need[i]:
            return f"alpha_{i} = {alpha[i]}, the {mode} mode needs {need[i]}"
        got = model.value(specs[i], model.mask_of(bundles[i]))
        if got < alpha[i] * _own_min_part(specs[i], partitions[i]):
            return f"agent {i} gets {got}, below alpha_{i} times her min part"
    return ""


WORKLOADS = {w.name: w for w in (PartitionWorkload(), RefuteWorkload(), SolveWorkload())}
