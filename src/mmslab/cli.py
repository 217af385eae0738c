"""Command-line front end: JSON instance files, certificates, reproduction suite.

Commands
  mms             exact max-min value and witness partition for one agent
  solve           run the protocol matching the demand vector, emit certificate
  verify          re-check a certificate against its instance
  check-class     monotonicity / hierarchy-class report per agent
  counterexamples run every impossibility construction and checker
  oracle          brute-force existence or best-ratio search

Instances are JSON files {label, m, agents: [{class, ...spec}]} or builtin
families named as in counterexamples.CATALOGUE, arguments after a colon
(half_cap:2,2,2) -- the reproduction suite needs no data files.  Rationals
are exact "p/q" strings.  Exit codes: 0 success, 1 malformed input or
unsupported request, 2 budget refusal, 3 impossibility, 4 verification failure.

Each call of `main` builds the top-level parser and only the subparser that
its first argument names; when that names no command it builds all of them,
so help, usage and error text are always those of the full parser.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .core import MAX_ITEMS, Allocation, BudgetExceeded, Instance, ItemSet, Partition
from .core import PreconditionViolation, SubadditivityViolation
from .counterexamples import (
    CATALOGUE,
    HalfCapValuation,
    MaxBlockThirdsValuation,
    OnesValuation,
    counterexample_suite,
)
from .mms import mms_value, verify_alpha_mms_P
from .oracle import SearchBudget, best_alpha, exists_alpha_mms
from .protocols import MODES, ImpossibilityReference, ProtocolCertificate, dispatch
from .valuations import (
    AdditiveValuation,
    BudgetAdditiveValuation,
    BundleMaxValuation,
    CoverageValuation,
    TableValuation,
    ValuationOracle,
    XOSValuation,
    is_monotone,
    is_subadditive,
    is_submodular,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_IMPOSSIBLE = 3
EXIT_VERIFY = 4


def frac_str(x: Fraction) -> str:
    return str(Fraction(x))


# the largest exponent magnitude a rational literal may carry: `Fraction` builds
# 10**exponent in full.  It is also the most digits a literal may hold, since
# `int` refuses to read more (`sys.get_int_max_str_digits`)
MAX_EXPONENT = 4300


def _within_digits(text: str) -> str:
    """`text`, or a `ValueError` quoting its start if it has over `MAX_EXPONENT` digits."""
    if len(text) > MAX_EXPONENT and sum(c.isdigit() for c in text) > MAX_EXPONENT:
        raise ValueError(f"{text[:40]!r} has more than {MAX_EXPONENT} digits")
    return text


def parse_frac(s) -> Fraction:
    """The rational `Fraction(str(s))` reads from a CLI or JSON literal, or a
    `ValueError`; an exponent beyond `MAX_EXPONENT`, or more digits than that,
    is refused unbuilt."""
    if type(s) is int or (
        type(s) is str and s.isascii() and s.isdigit() and len(s) <= MAX_EXPONENT
    ):
        return Fraction(int(s))
    text = _within_digits(str(s))
    mark = max(text.rfind("e"), text.rfind("E"))
    if mark >= 0:
        try:
            exponent = int(text[mark + 1:])
        except ValueError:  # not an exponent: `Fraction` judges the literal
            exponent = 0
        if abs(exponent) > MAX_EXPONENT:
            raise ValueError(f"{text[:40]!r} has an exponent beyond {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} divides by zero") from None


# --- JSON shape checks: a value of the wrong type is a ValueError -------------


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a JSON list, got {json.dumps(x)[:40]}")
    return x


def _json_ints(x, what: str) -> list[int]:
    for g in _json_list(x, what):
        if type(g) is not int:
            raise ValueError(f"{what} must hold integers, got {json.dumps(g)[:40]}")
    return x


def _json_fracs(x, what: str) -> list[Fraction]:
    return [parse_frac(w) for w in _json_list(x, what)]


# --- agent (de)serialization -------------------------------------------------


def agent_to_json(v: ValuationOracle) -> dict:
    out: dict = {"class": v.declared_class}
    if isinstance(v, AdditiveValuation):
        out["weights"] = [frac_str(w) for w in v.weights]
    elif isinstance(v, XOSValuation):
        out["clauses"] = [[frac_str(w) for w in c] for c in v.clauses]
    elif isinstance(v, TableValuation):
        out["table"] = {str(mask): frac_str(x) for mask, x in enumerate(v.table) if x}
    elif isinstance(v, BundleMaxValuation):
        out["bundles"] = [sorted(b) for b in v.bundles]
        out["inner_tables"] = [[frac_str(x) for x in t] for t in v.inner_tables]
    elif isinstance(v, OnesValuation):
        out["builtin"] = "ones"
    elif isinstance(v, HalfCapValuation):
        out["builtin"] = "half_cap"
        out["blocks"] = list(v.blocks)
    elif isinstance(v, MaxBlockThirdsValuation):
        out["builtin"] = "max_block_thirds"
        out["blocks"] = list(v.blocks)
    elif isinstance(v, BudgetAdditiveValuation):
        out["builtin"] = "budget_additive"
        out["weights"] = [frac_str(w) for w in v.weights]
        out["cap"] = frac_str(v.cap)
    elif isinstance(v, CoverageValuation):
        out["builtin"] = "coverage"
        out["covers"] = list(v.covers)
    else:
        raise ValueError(f"cannot serialize valuation of type {type(v).__name__}")
    return out


def agent_from_json(obj: dict, m: int) -> ValuationOracle:
    if not isinstance(obj, dict):
        raise ValueError("an agent spec is a JSON object")
    declared = obj.get("class", "unknown")
    builtin = obj.get("builtin")
    if builtin == "ones":
        return OnesValuation(m)
    if builtin == "half_cap":
        return HalfCapValuation(m, _json_ints(obj.get("blocks"), '"blocks"'))
    if builtin == "max_block_thirds":
        return MaxBlockThirdsValuation(m, _json_ints(obj.get("blocks"), '"blocks"'))
    if builtin == "budget_additive":
        if "cap" not in obj:
            raise ValueError('a budget_additive agent needs a "cap"')
        return BudgetAdditiveValuation(
            _json_fracs(obj.get("weights"), '"weights"'), parse_frac(obj["cap"])
        )
    if builtin == "coverage":
        return CoverageValuation(m, _json_ints(obj.get("covers"), '"covers"'))
    if builtin is not None:
        raise ValueError(f"unknown builtin agent spec {builtin!r}")
    if "weights" in obj:
        return AdditiveValuation(_json_fracs(obj["weights"], '"weights"'))
    if "clauses" in obj:
        clauses = _json_list(obj["clauses"], '"clauses"')
        return XOSValuation([_json_fracs(c, "a clause") for c in clauses])
    if "table" in obj:
        if not isinstance(obj["table"], dict):
            raise ValueError('"table" must be a JSON object of mask: value')
        entries = {}
        for key, x in obj["table"].items():
            mask = int(key)
            if not 0 <= mask < 1 << m:
                raise ValueError(f"table key {key!r} outside 0..{(1 << m) - 1}")
            entries[mask] = parse_frac(x)
        table = (entries.get(mask, 0) for mask in range(1 << m))
        return TableValuation(m, table, declared_class=declared)
    if "bundles" in obj:
        bundles = _json_list(obj["bundles"], '"bundles"')
        tables = _json_list(obj.get("inner_tables"), '"inner_tables"')
        return BundleMaxValuation(
            m,
            [ItemSet.of(m, _json_ints(b, "a bundle")) for b in bundles],
            [_json_fracs(t, "an inner table") for t in tables],
            declared_class=declared,
        )
    raise ValueError("agent spec needs weights, clauses, table, bundles or builtin")


def instance_to_json(inst: Instance) -> dict:
    return {
        "label": inst.label,
        "m": inst.m,
        "agents": [agent_to_json(v) for v in inst.agents],
    }


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("an instance is a JSON object")
    m = obj.get("m")
    if type(m) is not int or not 1 <= m <= MAX_ITEMS:
        raise ValueError(f'instance needs an integer "m" in 1..{MAX_ITEMS}, got {m!r}')
    if not isinstance(obj.get("agents"), list):
        raise ValueError('instance needs a list of "agents"')
    agents = tuple(agent_from_json(a, m) for a in obj["agents"])
    return Instance(m, agents, label=obj.get("label", ""))


# each argparse-style `nargs` of a builtin family: the argument counts it admits, in words
_NARGS = {0: (range(1), "no arguments"), 1: (range(1, 2), "one {} argument"),
          "?": (range(2), "at most one {} argument"),
          "+": (range(1, sys.maxsize), "one or more {} arguments")}


def load_instance(name: str) -> Instance:
    """A path to a JSON instance file, or a builtin name like half_cap:2,2,2."""
    path = Path(name)
    if path.exists():
        return instance_from_json(json.loads(path.read_text()))
    base, _, argstr = name.partition(":")
    family = CATALOGUE.get(base)
    if family is None:
        raise ValueError(f"no such file or builtin instance {name!r}; "
                         f"the builtins are {', '.join(CATALOGUE)}")
    counts, takes = _NARGS[family.nargs]
    raw = argstr.split(",") if argstr else []
    parse = parse_frac if family.param is Fraction else family.param
    try:
        args = [parse(a) for a in raw] if len(raw) in counts else None
    except ValueError:
        args = None
    if args is None:
        what = takes.format(family.param.__name__) if family.param else takes
        raise ValueError(f"builtin {base} takes {what}, not {name!r}")
    return family.build(*args)


# --- certificate (de)serialization -------------------------------------------


def certificate_to_json(cert: ProtocolCertificate, inst: Instance) -> dict:
    return {
        "label": inst.label,
        "m": inst.m,
        "alpha": [frac_str(a) for a in cert.alpha],
        "partitions": [[sorted(part) for part in p.parts] for p in cert.partitions],
        "allocation": [sorted(b) for b in cert.allocation],
        "trace": list(cert.trace),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def certificate_from_json(obj: dict, m: int, n: int):
    """(allocation, alpha, partitions) of a certificate for n agents over m items."""
    if not isinstance(obj, dict):
        raise ValueError("a certificate is a JSON object")
    for key in ("alpha", "allocation", "partitions"):
        if not isinstance(obj.get(key), list):
            raise ValueError(f'certificate needs a list "{key}"')
        if len(obj[key]) != n:
            raise ValueError(f'certificate "{key}" has {len(obj[key])} entries for {n} agents')
    alpha = [parse_frac(a) for a in obj["alpha"]]
    allocation = Allocation(
        tuple(ItemSet.of(m, _json_ints(b, "a bundle")) for b in obj["allocation"])
    )
    partitions = [_partition_from_json(p, m) for p in obj["partitions"]]
    return allocation, alpha, partitions


def _partition_from_json(obj, m: int) -> Partition:
    parts = _json_list(obj, "a partition")
    return Partition.of(m, *[_json_ints(part, "a part") for part in parts])


# --- helpers ------------------------------------------------------------------


def _parse_list(text: str, option: str, parse) -> list:
    """The comma-separated literals given as `option`, each read by `parse`."""
    try:
        return [parse(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None


def _parse_int_list(text: str) -> list[int]:
    return _parse_list(text, "--d", lambda x: int(_within_digits(x)))


def _parse_frac_list(text: str) -> list[Fraction]:
    return _parse_list(text, "--alpha", parse_frac)


def _emit(payload: dict, text_lines: list[str], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _budget(args) -> SearchBudget:
    return SearchBudget(max_assignments=args.max_assignments, mms_states=args.max_states)


# --- commands -----------------------------------------------------------------


def cmd_mms(args) -> int:
    inst = load_instance(args.instance)
    if not (0 <= args.agent < inst.n):
        raise ValueError(f"agent index {args.agent} outside 0..{inst.n - 1}")
    if args.d > MAX_ITEMS:  # no instance has more items: a larger d adds only empty parts
        raise ValueError(f"--d must be at most {MAX_ITEMS}, got {str(args.d)[:40]}")
    result = mms_value(inst.agents[args.agent], inst.ground(), args.d, max_states=args.max_states)
    witness = [sorted(part) for part in result.witness.parts]
    _emit(
        {"value": frac_str(result.value), "witness": witness},
        [f"{frac_str(result.value)} : {result.witness}"],
        args.format,
    )
    return EXIT_OK


def _load_partitions(path: str, m: int, n: int):
    data = _json_list(json.loads(Path(path).read_text()), "a partitions file")
    if len(data) != n:
        raise ValueError(f"partitions file has {len(data)} entries for {n} agents")
    return tuple(_partition_from_json(p, m) for p in data)


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    d = _parse_int_list(args.d)
    partitions = (
        _load_partitions(args.partitions, inst.m, inst.n) if args.partitions else None
    )
    result = dispatch(inst, args.alpha, d, partitions, args.max_states)
    if isinstance(result, ImpossibilityReference):
        print(f"impossible: family {result.family} ({result.detail})", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    payload = certificate_to_json(result, inst)
    text = canonical_json(payload)
    if args.out:
        Path(args.out).write_text(text)
        print(f"certificate written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.instance)
    obj = json.loads(Path(args.certificate).read_text())
    allocation, alpha, partitions = certificate_from_json(obj, inst.m, inst.n)
    try:
        result = verify_alpha_mms_P(allocation, inst, alpha, partitions)
    except ValueError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    if result.ok:
        _emit(
            {"ok": True, "margins": [frac_str(x) for x in result.margins]},
            ["ok: all margins nonnegative"]
            + [f"  agent {i}: margin {frac_str(x)}" for i, x in enumerate(result.margins)],
            args.format,
        )
        return EXIT_OK
    bad = result.first_violation()
    print(
        f"verification failed: agent {bad} margin {frac_str(result.margins[bad])}",
        file=sys.stderr,
    )
    return EXIT_VERIFY


def cmd_check_class(args) -> int:
    inst = load_instance(args.instance)
    rows = []
    for i, v in enumerate(inst.agents):
        entry = {"agent": i, "declared": v.declared_class}
        mono = is_monotone(v)
        entry["monotone"] = mono.ok
        entry["monotone_mode"] = mono.mode
        sub = is_subadditive(v)
        entry["subadditive"] = sub.ok
        entry["subadditive_mode"] = sub.mode
        if v.m <= 13:
            entry["submodular"] = is_submodular(v).ok
        rows.append(entry)
    lines = []
    for e in rows:
        bits = [f"monotone: {str(e['monotone']).lower()} ({e['monotone_mode']})",
                f"subadditive: {str(e['subadditive']).lower()} ({e['subadditive_mode']})"]
        if "submodular" in e:
            bits.append(f"submodular: {str(e['submodular']).lower()}")
        lines.append(f"agent {e['agent']} (declared {e['declared']}): " + "; ".join(bits))
    _emit({"agents": rows}, lines, args.format)
    return EXIT_OK


def cmd_counterexamples(args) -> int:
    rows = counterexample_suite()
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, ok, detail in rows:
        lines.append(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {detail}")
    payload = {"rows": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rows]}
    _emit(payload, lines, args.format)
    return EXIT_OK if all(ok for _, ok, _ in rows) else EXIT_VERIFY


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance)
    d = _parse_int_list(args.d)
    budget = _budget(args)
    if args.best_alpha:
        result = best_alpha(inst, d, budget=budget)
        if result.status == "refused":
            print(f"refused: {result.reason}", file=sys.stderr)
            return EXIT_BUDGET
        value = "unbounded" if result.value is None else frac_str(result.value)
        witness = [sorted(b) for b in result.witness]
        _emit(
            {"best_alpha": value, "witness": witness, "visited": result.visited},
            [f"best alpha: {value}", f"witness: {result.witness}",
             f"visited: {result.visited} of {result.space}"],
            args.format,
        )
        return EXIT_OK
    if not args.alpha:
        raise ValueError("oracle needs --alpha unless --best-alpha is given")
    alpha = _parse_frac_list(args.alpha)
    result = exists_alpha_mms(inst, alpha, d, budget=budget)
    if result.status == "refused":
        print(f"refused: {result.reason}", file=sys.stderr)
        return EXIT_BUDGET
    if result.status == "exists":
        _emit(
            {"exists": True, "witness": [sorted(b) for b in result.witness],
             "visited": result.visited},
            [f"exists: {result.witness} (visited {result.visited})"],
            args.format,
        )
        return EXIT_OK
    _emit(
        {"exists": False, "visited": result.visited, "space": result.space,
         "pruned": result.pruned},
        [f"not exists: exhausted {result.visited} states "
         f"(space {result.space}, discard branch pruned {result.pruned})"],
        args.format,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _common_args(p) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-states", type=int, default=5**14,
                   help="cap on the d^m partition search space")
    p.add_argument("--max-assignments", type=int, default=10_000_000,
                   help="cap on the brute-force assignment space")


def _mms_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("--agent", type=int, required=True)
    p.add_argument("--d", type=int, required=True)


def _solve_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("--alpha", choices=MODES, default="uniform-half")
    p.add_argument("--d", required=True, help="comma-separated demands, e.g. 3,2,2")
    p.add_argument("--partitions", help="JSON file with one partition per agent")
    p.add_argument("--out", help="write the certificate here instead of stdout")


def _verify_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("certificate")


def _instance_arg(p) -> None:
    p.add_argument("instance")


def _counterexamples_args(p) -> None:
    p.add_argument("--all", action="store_true", default=True)


def _oracle_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("--d", required=True)
    p.add_argument("--alpha", help="comma-separated thresholds, e.g. 1/2,1/2,1/2")
    p.add_argument("--best-alpha", action="store_true")


# name -> (help, adds the command's own arguments, handler), in the help's order
COMMANDS = {
    "mms": ("exact max-min value for one agent", _mms_args, cmd_mms),
    "solve": ("run the matching protocol, emit a certificate", _solve_args, cmd_solve),
    "verify": ("re-check a certificate", _verify_args, cmd_verify),
    "check-class": ("monotonicity and hierarchy checks", _instance_arg, cmd_check_class),
    "counterexamples": ("run the impossibility suite", _counterexamples_args,
                        cmd_counterexamples),
    "oracle": ("brute-force existence / best-ratio search", _oracle_args, cmd_oracle),
}

# the help shows the module docstring without its last paragraph
_DESCRIPTION = __doc__.rsplit("\n\n", 1)[0] + "\n"


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with `command` the top level plus that one subparser.

    The top-level usage names every command either way, so whatever the
    top-level parser prints for a command's arguments is the full parser's text.
    """
    parser = _Parser(prog="mmslab", description=_DESCRIPTION,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        sub.metavar = "{" + ",".join(COMMANDS) + "}"
    for name, (help_text, add_args, handler) in COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            _common_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError, json.JSONDecodeError, SubadditivityViolation,
            PreconditionViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
